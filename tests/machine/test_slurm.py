"""Tests for the SLURM job facade."""

import pytest

from repro.errors import ExperimentError
from repro.machine import STANDARD_NODE, SlurmJob


class TestSlurmJob:
    def test_too_many_nodes_raise(self):
        with pytest.raises(ExperimentError):
            SlurmJob(nodes=8192, node_type=STANDARD_NODE)

    def test_zero_nodes_raise(self):
        with pytest.raises(ExperimentError):
            SlurmJob(nodes=0, node_type=STANDARD_NODE)


class TestAccounting:
    def test_total_includes_network(self):
        job = SlurmJob(nodes=64, node_type=STANDARD_NODE)
        acct = job.account(10.0, 1000.0, 50.0)
        assert acct.consumed_energy_j == 1000.0
        assert acct.network_energy_j == 50.0
        assert acct.total_energy_j == 1050.0
        assert acct.elapsed_s == 10.0
        assert acct.nodes == 64
