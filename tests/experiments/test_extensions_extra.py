"""Structural tests for the later extension studies (their claims are
checked in ``test_claims.py``)."""

import json

import pytest

from repro.experiments import ext_gpu, ext_precision, ext_scaling
from repro.experiments.cli import main


class TestExtScaling:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_scaling.run()

    def test_plot_attached(self, result):
        assert "runtime" in result.plot


class TestExtGpu:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_gpu.run(qubit_sizes=(36, 38))

    def test_gpu_faster(self, result):
        assert result.metric("gpu_speedup_36q") > 3.0
        assert result.metric("gpu_speedup_38q") > 3.0


class TestExtPrecision:
    def test_infidelity_small_but_nonzero_regime(self):
        result = ext_precision.run(num_qubits=10, depths=(100, 800))
        assert result.metric("qft_infidelity") < 1e-6
        assert result.metric("random_800_infidelity") < 1e-4


class TestJsonCli:
    def test_json_output_parses(self, capsys):
        assert main(["tab1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["experiment_id"] == "tab1"
        assert "blocking_time_q32" in payload[0]["metrics"]

    def test_json_multiple(self, capsys):
        assert main(["tab1", "fig5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["experiment_id"] for p in payload] == ["tab1", "fig5"]
