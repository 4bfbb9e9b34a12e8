"""Shape tests for the ext-sampling experiment."""

from __future__ import annotations

import pytest

from repro.experiments import ext_sampling
from repro.experiments.registry import EXPERIMENTS


@pytest.fixture(scope="module")
def result():
    return ext_sampling.run(shots=1024)


class TestExtSampling:
    def test_registered(self):
        assert "ext-sampling" in EXPERIMENTS

    def test_rows_and_render(self, result):
        assert len(result.rows) == 2
        assert "ext-sampling" in result.render()

    def test_shots_env_seam(self, monkeypatch):
        from repro.statevector.sampling import SHOTS_ENV

        monkeypatch.setenv(SHOTS_ENV, "64")
        r = ext_sampling.run(workloads=(("qaoa-sampled", 24, 8),))
        assert r.rows[0][2] == 64
