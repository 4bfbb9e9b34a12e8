"""Structural tests for the experiments (rows, rendering, measured
modes); their paper claims are checked in ``test_claims.py``."""

import pytest

from repro.experiments import (
    ext_fusion,
    fig2_runtimes,
    fig3_fractional,
    table2_best,
)


@pytest.fixture(scope="module")
def fig2():
    return fig2_runtimes.run()


@pytest.fixture(scope="module")
def fig3():
    return fig3_fractional.run()


@pytest.fixture(scope="module")
def tab2():
    return table2_best.run()


class TestFig2(object):
    def test_rows_cover_grid(self, fig2):
        assert len(fig2.rows) == 4 * 12

    def test_renders(self, fig2):
        text = fig2.render()
        assert "fig2" in text and "standard/2GHz" in text


class TestFig3:
    def test_baseline_not_in_rows(self, fig3):
        assert all(row[0] != "standard/2GHz" for row in fig3.rows)


class TestTable2:
    def test_rows(self, tab2):
        assert len(tab2.rows) == 4


class TestExtensions:
    def test_fusion_ablation(self):
        """At 40 qubits / 256 nodes (the claims hold it at 44 / 4,096)."""
        result = ext_fusion.run(
            num_qubits=40,
            num_nodes=256,
            measured_qft_qubits=10,
            measured_random_qubits=8,
            measure_repeats=1,
        )
        assert result.metric("builtin_fusion_runtime") < result.metric(
            "builtin_runtime"
        )
        assert result.metric("fast_fusion_runtime") < result.metric(
            "fast_runtime"
        )

    def test_fusion_ablation_measures_every_mode(self):
        result = ext_fusion.run(
            num_qubits=40,
            num_nodes=256,
            measured_qft_qubits=10,
            measured_random_qubits=8,
            measure_repeats=1,
        )
        for label in ("qft10", "random8"):
            for mode in ("off", "diag", "full"):
                assert result.metric(f"measured_{label}_{mode}_runtime") > 0
                assert result.metric(f"measured_{label}_{mode}_energy") > 0
            assert result.metric(f"measured_{label}_full_speedup") > 0
        # Fewer steps under fusion: the measured rows carry step counts.
        steps = {
            row[0]: row[1]
            for row in result.rows
            if str(row[0]).startswith("qft10")
        }
        assert steps["qft10 full (measured)"] <= steps["qft10 diag (measured)"]
        assert steps["qft10 diag (measured)"] < steps["qft10 off (measured)"]
