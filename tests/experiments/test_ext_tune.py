"""The ext-tune experiment: frontier report and acceptance metrics."""

from repro.experiments.ext_tune import paper_default_point
from repro.experiments.registry import run_experiment
from repro.machine.frequency import CpuFrequency
from repro.mpi.datatypes import CommMode


def _small_run():
    return run_experiment("ext-tune", num_qubits=12, node_counts=(4, 8))


def test_paper_default_is_max_frequency_naive_unfused():
    point = paper_default_point()
    assert point.frequency is CpuFrequency.HIGH
    assert point.comm_mode is CommMode.BLOCKING
    assert point.transpile == "naive"
    assert point.fusion == "off"


def test_report_carries_frontier_and_default_rows():
    result = _small_run()
    assert result.rows
    assert result.rows[0][0] == "best"
    assert result.rows[-1][0] == "default"
    assert result.metrics["frontier_size"] == len(result.rows) - 1
