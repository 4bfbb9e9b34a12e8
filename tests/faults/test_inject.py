"""Unit tests for the DES injection hooks and the analytic counterpart."""

import pytest

from repro.circuits import qft_circuit
from repro.des import simulate, simulate_trace
from repro.des.schedule import ComputeOp, ExchangeOp, export_schedules
from repro.errors import FaultError
from repro.faults import (
    ChunkFaultModel,
    FaultPlan,
    FaultySchedule,
    LinkDegradation,
    NodeFailure,
    Straggler,
    analytic_fault_report,
    build_report,
    degraded_runtime,
    fault_adjusted_energy,
)
from repro.faults.checkpoint import apply_overlay
from repro.machine import CpuFrequency, STANDARD_NODE
from repro.mpi import CommMode
from repro.perfmodel import (
    RunConfiguration,
    cost_trace,
    energy_report,
    predict,
    trace_circuit,
)
from repro.statevector import Partition


def make_config(n=20, ranks=8, **kwargs):
    return RunConfiguration(
        partition=Partition(n, ranks),
        node_type=STANDARD_NODE,
        frequency=CpuFrequency.MEDIUM,
        **kwargs,
    )


class TestFaultySchedule:
    def test_non_straggler_ops_identical(self):
        config = make_config()
        schedule = export_schedules(trace_circuit(qft_circuit(20), config))
        plan = FaultPlan(stragglers=(Straggler(rank=3, slowdown=2.0),))
        faulty = FaultySchedule(schedule, plan)
        assert list(faulty.ops_for(0)) == list(schedule.ops_for(0))
        assert faulty.num_exchanges == schedule.num_exchanges

    def test_straggler_compute_scaled(self):
        config = make_config()
        schedule = export_schedules(trace_circuit(qft_circuit(20), config))
        plan = FaultPlan(stragglers=(Straggler(rank=3, slowdown=2.0),))
        faulty = FaultySchedule(schedule, plan)
        for base, bent in zip(schedule.ops_for(3), faulty.ops_for(3)):
            if isinstance(base, ComputeOp):
                assert bent.seconds == pytest.approx(2.0 * base.seconds)
            else:
                assert isinstance(bent, ExchangeOp)
                assert bent.local_s == pytest.approx(2.0 * base.local_s)
                assert bent.send_bytes == base.send_bytes
                assert bent.chunk_sizes == base.chunk_sizes


class TestChunkFaultModel:
    def test_attempts_pure_function_of_coordinates(self):
        plan = FaultPlan(seed=4, chunk_failure_rate=0.3)
        a, b = ChunkFaultModel(plan), ChunkFaultModel(plan)
        coords = [(g, p, c) for g in range(10) for p in range(4) for c in range(4)]
        assert [a.attempts(*xyz) for xyz in coords] == [
            b.attempts(*xyz) for xyz in coords
        ]

    def test_zero_rate_means_single_attempt(self):
        model = ChunkFaultModel(FaultPlan(seed=0, chunk_failure_rate=0.0))
        assert all(model.attempts(g, 0, 0) == 1 for g in range(50))

    def test_attempts_capped_by_max_retries(self):
        plan = FaultPlan(seed=0, chunk_failure_rate=0.99, max_retries=3)
        model = ChunkFaultModel(plan)
        assert max(model.attempts(g, 0, c) for g in range(20) for c in range(4)) <= 4

    def test_backoff_doubles(self):
        model = ChunkFaultModel(FaultPlan(chunk_failure_rate=0.1, retry_backoff_s=1e-3))
        assert model.backoff_s(0) == pytest.approx(1e-3)
        assert model.backoff_s(1) == pytest.approx(2e-3)
        assert model.backoff_s(3) == pytest.approx(8e-3)


class TestReplayInjection:
    def test_zero_plan_replay_bit_identical_to_none(self):
        config = make_config()
        circuit = qft_circuit(20)
        clean = simulate(circuit, config)
        zero = simulate(circuit, config, faults=FaultPlan())
        assert zero.makespan_s == clean.makespan_s
        assert zero.events_processed == clean.events_processed
        assert zero.faults is None
        for rank in range(config.partition.num_ranks):
            assert zero.timeline.spans_of(rank) == clean.timeline.spans_of(rank)

    def test_straggler_stretches_makespan(self):
        config = make_config()
        circuit = qft_circuit(20)
        clean = simulate(circuit, config)
        slow = simulate(
            circuit,
            config,
            faults=FaultPlan(stragglers=(Straggler(rank=7, slowdown=2.0),)),
        )
        assert slow.makespan_s > clean.makespan_s

    def test_link_degradation_stretches_makespan(self):
        config = make_config()
        circuit = qft_circuit(20)
        clean = simulate(circuit, config)
        degraded = simulate(
            circuit,
            config,
            faults=FaultPlan(
                link_degradations=(LinkDegradation(node=0, factor=0.25),)
            ),
        )
        assert degraded.makespan_s > clean.makespan_s

    @pytest.mark.parametrize(
        "mode", [CommMode.BLOCKING, CommMode.NONBLOCKING]
    )
    def test_chunk_retries_recorded_and_slow_things_down(self, mode):
        config = make_config(comm_mode=mode, max_message=1 << 18)
        circuit = qft_circuit(20)
        clean = simulate(circuit, config)
        lossy = simulate(
            circuit,
            config,
            faults=FaultPlan(seed=2, chunk_failure_rate=0.2),
        )
        assert lossy.faults is not None
        assert lossy.faults.chunk_retries > 0
        assert lossy.makespan_s > clean.makespan_s
        assert any(e.kind == "retry" for e in lossy.timeline.events)

    def test_fault_replay_deterministic(self):
        config = make_config()
        circuit = qft_circuit(20)
        plan = FaultPlan(
            seed=13,
            mtbf_s=0.05,
            stragglers=(Straggler(rank=1, slowdown=1.7),),
            chunk_failure_rate=0.1,
        )
        a = simulate(circuit, config, faults=plan)
        b = simulate(circuit, config, faults=plan)
        assert a.makespan_s == b.makespan_s
        assert a.faults == b.faults
        assert a.timeline.events == b.timeline.events

    def test_overlay_events_annotated_onto_timeline(self):
        config = make_config()
        result = simulate(
            qft_circuit(20),
            config,
            faults=FaultPlan(node_failures=(NodeFailure(time_s=0.0, node=1),)),
        )
        failures = [e for e in result.timeline.events if e.kind == "failure"]
        assert failures and failures[0].node == 1
        assert result.faults.num_failures == 1

    def test_makespan_includes_overlay_wall(self):
        config = make_config()
        circuit = qft_circuit(20)
        clean = simulate(circuit, config)
        failed = simulate(
            circuit,
            config,
            faults=FaultPlan(
                node_failures=(
                    NodeFailure(time_s=clean.makespan_s / 2, node=0),
                )
            ),
        )
        # One mid-job failure, no checkpoints: restart from scratch, so
        # the half-done work is re-executed.
        assert failed.faults.base_makespan_s == pytest.approx(clean.makespan_s)
        assert failed.makespan_s == pytest.approx(1.5 * clean.makespan_s)
        assert failed.makespan_s == failed.faults.wall_s

    def test_out_of_range_plan_rejected(self):
        config = make_config(ranks=8)
        with pytest.raises(FaultError, match="out of range"):
            simulate(
                qft_circuit(20),
                config,
                faults=FaultPlan(stragglers=(Straggler(rank=64, slowdown=2.0),)),
            )

    def test_gantt_renders_fault_markers(self):
        config = make_config()
        result = simulate(
            qft_circuit(20),
            config,
            faults=FaultPlan(node_failures=(NodeFailure(time_s=0.0, node=1),)),
        )
        chart = result.timeline.gantt(width=48, max_ranks=4)
        assert "faults" in chart
        assert "F failure" in chart
        assert "@" in chart  # per-event legend lines


class TestAnalyticCounterpart:
    def test_zero_plan_runtime_exact(self):
        costed = cost_trace(trace_circuit(qft_circuit(20), make_config()))
        assert degraded_runtime(costed, FaultPlan()) == costed.runtime_s

    def test_straggler_scales_local_time_only(self):
        costed = cost_trace(trace_circuit(qft_circuit(20), make_config()))
        plan = FaultPlan(stragglers=(Straggler(rank=0, slowdown=2.0),))
        expected = costed.comm_s + 2.0 * (costed.mem_s + costed.cpu_s)
        assert degraded_runtime(costed, plan) == pytest.approx(expected)

    def test_link_degradation_never_shrinks_runtime(self):
        costed = cost_trace(trace_circuit(qft_circuit(20), make_config()))
        plan = FaultPlan(link_degradations=(LinkDegradation(node=0, factor=0.5),))
        degraded = degraded_runtime(costed, plan)
        assert degraded > costed.runtime_s
        # Only the bandwidth share doubles; fixed costs cap the stretch.
        assert degraded < costed.runtime_s + costed.comm_s

    def test_analytic_report_matches_overlay(self):
        costed = cost_trace(trace_circuit(qft_circuit(20), make_config()))
        plan = FaultPlan(seed=6, mtbf_s=costed.runtime_s / 2)
        report = analytic_fault_report(costed, plan)
        overlay = apply_overlay(
            costed.runtime_s, plan, costed.config.num_nodes
        )
        assert report.wall_s == overlay.wall_s
        assert report.num_failures == overlay.num_failures

    def test_fault_energy_reduces_to_base_on_zero_overhead(self):
        costed = cost_trace(trace_circuit(qft_circuit(20), make_config()))
        plan = FaultPlan()
        report = build_report(
            plan,
            costed.runtime_s,
            apply_overlay(costed.runtime_s, plan, costed.config.num_nodes),
        )
        adjusted = fault_adjusted_energy(costed, report)
        base = energy_report(costed)
        assert adjusted.node_energy_j == pytest.approx(base.node_energy_j)
        assert adjusted.switch_energy_j == pytest.approx(base.switch_energy_j)

    def test_fault_energy_strictly_exceeds_base_under_faults(self):
        costed = cost_trace(trace_circuit(qft_circuit(20), make_config()))
        plan = FaultPlan(
            node_failures=(NodeFailure(time_s=costed.runtime_s / 2, node=0),)
        )
        report = analytic_fault_report(costed, plan)
        adjusted = fault_adjusted_energy(costed, report)
        assert adjusted.total_j > energy_report(costed).total_j
        assert adjusted.runtime_s == report.wall_s


class TestPredictIntegration:
    def test_analytic_predict_zero_plan_exact(self):
        config = make_config()
        circuit = qft_circuit(20)
        base = predict(circuit, config)
        zero = predict(circuit, config, faults=FaultPlan())
        assert zero.runtime_s == base.runtime_s
        assert zero.total_energy_j == base.total_energy_j
        assert zero.cu == base.cu
        assert zero.faults is None

    def test_des_predict_zero_plan_exact(self):
        config = make_config()
        circuit = qft_circuit(20)
        base = predict(circuit, config, backend="des")
        zero = predict(circuit, config, backend="des", faults=FaultPlan())
        assert zero.runtime_s == base.runtime_s
        assert zero.total_energy_j == base.total_energy_j

    def test_faulty_predict_prices_cu_on_stretched_wall(self):
        config = make_config()
        circuit = qft_circuit(20)
        base = predict(circuit, config)
        faulty = predict(
            circuit,
            config,
            faults=FaultPlan(
                node_failures=(NodeFailure(time_s=base.runtime_s / 2, node=0),)
            ),
        )
        assert faulty.runtime_s > base.runtime_s
        assert faulty.cu > base.cu
        assert faulty.faults is not None
        assert faulty.energy.runtime_s == faulty.runtime_s

    def test_experiment_registered_and_runs(self):
        from repro.experiments.registry import EXPERIMENTS

        assert "ext-resilience" in EXPERIMENTS
