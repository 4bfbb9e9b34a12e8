"""Tests for the configuration advisor."""

import pytest

from repro.circuits import builtin_qft_circuit
from repro.core import RunOptions, SimulationRunner, advise
from repro.errors import AllocationError, ExperimentError
from repro.machine import CpuFrequency
from repro.mpi import CommMode


@pytest.fixture(scope="module")
def energy_rec():
    return advise(builtin_qft_circuit(38), "energy")


@pytest.fixture(scope="module")
def runtime_rec():
    return advise(builtin_qft_circuit(38), "runtime")


class TestAdvise:
    def test_runtime_recommends_fast_setup(self, runtime_rec):
        """Minimum runtime should pick cache blocking + non-blocking."""
        opts = runtime_rec.best_options
        assert opts.transpile == "blocked"
        assert opts.comm_mode is CommMode.NONBLOCKING
        assert opts.node_type == "standard"

    def test_energy_avoids_high_frequency(self, energy_rec):
        """The paper's conclusion: 2.25 GHz costs energy."""
        assert energy_rec.best_options.frequency is not CpuFrequency.HIGH

    def test_energy_picks_cache_blocking(self, energy_rec):
        assert energy_rec.best_options.transpile == "blocked"

    def test_cu_objective(self):
        rec = advise(builtin_qft_circuit(38), "cu")
        # CU = node-hours: the fastest cheap-node setup wins; highmem
        # halves nodes but less than doubles runtime, so it competes.
        assert rec.best.cu <= min(r.cu for r in rec.candidates)

    def test_best_minimises_objective(self, energy_rec):
        assert energy_rec.best.energy_j == min(
            r.energy_j for r in energy_rec.candidates
        )

    def test_ranking_sorted(self, energy_rec):
        scores = [s for s, _ in energy_rec.ranking()]
        assert scores == sorted(scores)

    def test_candidates_cover_grid(self, energy_rec):
        # 2 node types x 3 freqs x 2 modes x 2 blocking = 24 (all fit 38q).
        assert len(energy_rec.candidates) == 24

    def test_summary_renders(self, energy_rec):
        text = energy_rec.summary()
        assert "recommended:" in text and "objective" in text

    def test_unknown_objective_raises(self):
        with pytest.raises(ExperimentError):
            advise(builtin_qft_circuit(38), "carbon")

    def test_infeasible_register_raises(self):
        with pytest.raises(AllocationError):
            advise(builtin_qft_circuit(46), "energy")

    def test_disallow_cache_blocking(self):
        rec = advise(
            builtin_qft_circuit(38), "runtime", allow_cache_blocking=False
        )
        assert rec.best_options.transpile is None
        assert len(rec.candidates) == 12
