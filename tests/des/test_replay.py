"""Tests for the full DES replay: determinism, mode semantics, cross-check."""

import pytest

from repro.circuits import Circuit, qft_circuit
from repro.circuits.qft import builtin_qft_circuit
from repro.des import (
    DEFAULT_TOLERANCE,
    assert_crosscheck,
    crosscheck,
    simulate,
    simulate_trace,
)
from repro.errors import CalibrationError, DesError
from repro.machine import CpuFrequency, STANDARD_NODE
from repro.mpi import CommMode
from repro.perfmodel import (
    RunConfiguration,
    cost_trace,
    predict,
    trace_circuit,
)
from repro.statevector import Partition


def make_config(n=22, ranks=8, **kwargs):
    return RunConfiguration(
        partition=Partition(n, ranks),
        node_type=STANDARD_NODE,
        frequency=CpuFrequency.MEDIUM,
        **kwargs,
    )


class TestDeterminism:
    def test_two_runs_identical_timelines(self):
        """No wall clock, no randomness: replays are bit-identical."""
        config = make_config(comm_mode=CommMode.NONBLOCKING)
        circuit = qft_circuit(22)
        first = simulate(circuit, config)
        second = simulate(circuit, config)
        assert first.makespan_s == second.makespan_s
        assert first.events_processed == second.events_processed
        for rank in range(config.partition.num_ranks):
            assert first.timeline.spans_of(rank) == second.timeline.spans_of(
                rank
            )

    def test_result_accounting(self):
        config = make_config()
        result = simulate(qft_circuit(22), config)
        assert result.makespan_s > 0
        assert result.runtime_s == result.makespan_s
        assert result.num_exchanges > 0
        assert result.network_bytes > 0
        assert 0 < result.nic_utilisation <= 1
        assert result.utilisation  # intervals auto-recorded at small scale


class TestModeSemantics:
    def test_nonblocking_strictly_faster_on_multichunk(self):
        """With chunked messages, pipelining must strictly win: blocking
        pays the per-chunk latency and serialises the chunk pairs."""
        circuit = qft_circuit(22)
        kwargs = dict(max_message=64 * 1024)
        blocking = simulate(
            circuit, make_config(comm_mode=CommMode.BLOCKING, **kwargs)
        )
        nonblocking = simulate(
            circuit, make_config(comm_mode=CommMode.NONBLOCKING, **kwargs)
        )
        assert nonblocking.makespan_s < blocking.makespan_s

    def test_overlap_never_slower(self):
        circuit = qft_circuit(22)
        plain = simulate(
            circuit, make_config(comm_mode=CommMode.NONBLOCKING)
        )
        overlapped = simulate(
            circuit,
            make_config(
                comm_mode=CommMode.NONBLOCKING, overlap_comm_compute=True
            ),
        )
        assert overlapped.makespan_s <= plain.makespan_s

    def test_intranode_exchanges_stay_off_the_network(self):
        """With every pair bit below log2(ranks_per_node), nothing crosses
        a NIC."""
        config = make_config(n=18, ranks=2, ranks_per_node=2)
        result = simulate(qft_circuit(18), config)
        assert result.num_exchanges > 0
        assert result.network_bytes == 0


class TestMakespan:
    def test_overlapped_final_exchange_counts_its_comm(self):
        """An overlapped exchange records its hidden compute after the
        longer comm span; the makespan must still end with the comm."""
        circuit = Circuit(22)
        circuit.h(21)
        config = make_config(overlap_comm_compute=True)
        result = simulate(circuit, config)
        last = result.timeline.spans_of(0)
        assert [span.kind for span in last] == ["comm", "compute"]
        assert last[-1].end < last[0].end
        assert result.makespan_s == last[0].end
        analytic = cost_trace(trace_circuit(circuit, config)).runtime_s
        assert result.makespan_s == pytest.approx(analytic, rel=1e-9)


class TestPaperScale:
    def test_qft44_on_4096_ranks_replays_few_events(self):
        """Deterministic cost bound: the orbit fold replays a handful of
        ranks, not 4,096 (the full replay processes ~1.9M events)."""
        config = make_config(n=44, ranks=4096, comm_mode=CommMode.BLOCKING)
        result = simulate(builtin_qft_circuit(44), config)
        assert result.events_processed < 5_000


class TestTimelineOutputs:
    def test_gantt_renders(self):
        result = simulate(qft_circuit(22), make_config())
        chart = result.timeline.gantt(width=40)
        assert "rank 0" in chart and "#" in chart and "=" in chart


class TestCrossCheck:
    @pytest.mark.parametrize("mode", [CommMode.BLOCKING, CommMode.NONBLOCKING])
    def test_agrees_with_closed_form(self, mode):
        config = make_config(comm_mode=mode)
        check = assert_crosscheck(qft_circuit(22), config)
        assert check.within
        assert abs(check.delta) < DEFAULT_TOLERANCE

    def test_matches_cost_trace_exactly_at_small_scale(self):
        """On a symmetric single-rank-per-node run the replay reproduces
        the closed form almost exactly, not just within tolerance."""
        config = make_config()
        trace = trace_circuit(qft_circuit(22), config)
        analytic = cost_trace(trace).runtime_s
        des = simulate_trace(trace)
        assert des.makespan_s == pytest.approx(analytic, rel=1e-6)

    def test_divergence_raises(self):
        config = make_config()
        with pytest.raises(DesError, match="tolerance"):
            crosscheck(qft_circuit(22), config, tolerance=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
    def test_non_finite_tolerance_rejected(self, bad):
        # A NaN tolerance would make `abs(delta) > tolerance` silently
        # false and bless any divergence.
        with pytest.raises(DesError, match="tolerance"):
            crosscheck(qft_circuit(22), make_config(), tolerance=bad)

    def test_describe_mentions_verdict(self):
        check = crosscheck(qft_circuit(22), make_config())
        assert "OK" in check.describe()


class TestPredictorBackend:
    def test_des_backend_attaches_replay(self):
        config = make_config(comm_mode=CommMode.NONBLOCKING)
        p = predict(qft_circuit(22), config, backend="des")
        assert p.des is not None
        assert p.runtime_s == p.des.makespan_s
        assert p.analytic_runtime_s == pytest.approx(p.runtime_s, rel=0.1)

    def test_analytic_backend_is_default(self):
        p = predict(qft_circuit(22), make_config())
        assert p.des is None
        assert p.runtime_s == p.costed.runtime_s

    def test_unknown_backend_rejected(self):
        with pytest.raises(CalibrationError, match="backend"):
            predict(qft_circuit(22), make_config(), backend="montecarlo")
