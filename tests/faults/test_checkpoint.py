"""Unit tests for Young/Daly intervals and the checkpoint overlay walk."""

import math

import pytest

from repro.errors import FaultError
from repro.faults import (
    CheckpointPolicy,
    FaultPlan,
    NodeFailure,
    apply_overlay,
    daly_interval,
    expected_slowdown,
    young_interval,
)


class TestClosedForms:
    def test_young_formula(self):
        assert young_interval(2.0, 100.0) == pytest.approx(math.sqrt(400.0))

    def test_daly_refines_young(self):
        c, m = 2.0, 1000.0
        tau = daly_interval(c, m)
        ratio = math.sqrt(c / (2 * m))
        expected = (
            math.sqrt(2 * c * m) * (1 + ratio / 3 + ratio * ratio / 9) - c
        )
        assert tau == pytest.approx(expected)

    def test_daly_degenerate_regime_caps_at_mtbf(self):
        assert daly_interval(50.0, 10.0) == 10.0

    def test_daly_never_below_write_cost(self):
        assert daly_interval(5.0, 5.1) >= 5.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_inputs_validated(self, bad):
        with pytest.raises(FaultError):
            young_interval(bad, 100.0)
        with pytest.raises(FaultError):
            daly_interval(1.0, bad)

    def test_expected_slowdown_above_one(self):
        s = expected_slowdown(20.0, 2.0, 1000.0)
        assert s > 1.0

    def test_expected_slowdown_minimised_near_daly(self):
        c, m = 2.0, 1000.0
        tau = daly_interval(c, m)
        at_opt = expected_slowdown(tau, c, m)
        assert at_opt < expected_slowdown(tau / 4, c, m)
        assert at_opt < expected_slowdown(tau * 4, c, m)

    def test_expected_slowdown_rejects_livelock(self):
        with pytest.raises(FaultError, match="progress"):
            expected_slowdown(100.0, 50.0, 10.0)


class TestOverlayIdentity:
    def test_zero_plan_is_identity(self):
        overlay = apply_overlay(100.0, FaultPlan(), num_nodes=4)
        assert overlay.wall_s == 100.0
        assert overlay.overhead_s == 0.0
        assert overlay.slowdown == 1.0
        assert overlay.events == ()

    def test_zero_work_is_identity(self):
        plan = FaultPlan(mtbf_s=10.0)
        overlay = apply_overlay(0.0, plan, num_nodes=4)
        assert overlay.wall_s == 0.0

    def test_rejects_nan_work(self):
        with pytest.raises(FaultError, match="work_s"):
            apply_overlay(float("nan"), FaultPlan(), num_nodes=4)


class TestOverlayWalk:
    def test_checkpoints_without_failures_pay_only_writes(self):
        plan = FaultPlan(
            checkpoint=CheckpointPolicy(interval_s=10.0, write_s=1.0)
        )
        overlay = apply_overlay(35.0, plan, num_nodes=4)
        # 3 interior checkpoints (at 10, 20, 30 work); none after the end.
        assert overlay.num_checkpoints == 3
        assert overlay.checkpoint_write_s == 3.0
        assert overlay.wall_s == pytest.approx(38.0)
        assert overlay.lost_work_s == 0.0

    def test_single_failure_without_checkpoint_restarts_job(self):
        plan = FaultPlan(node_failures=(NodeFailure(30.0, 1),))
        overlay = apply_overlay(100.0, plan, num_nodes=4)
        assert overlay.num_failures == 1
        assert overlay.lost_work_s == pytest.approx(30.0)
        assert overlay.wall_s == pytest.approx(130.0)

    def test_failure_after_completion_is_ignored(self):
        plan = FaultPlan(node_failures=(NodeFailure(500.0, 1),))
        overlay = apply_overlay(100.0, plan, num_nodes=4)
        assert overlay.num_failures == 0
        assert overlay.wall_s == 100.0

    def test_checkpoint_bounds_rework(self):
        plan = FaultPlan(
            node_failures=(NodeFailure(25.0, 0),),
            checkpoint=CheckpointPolicy(
                interval_s=10.0, write_s=1.0, restart_s=2.0
            ),
        )
        overlay = apply_overlay(100.0, plan, num_nodes=4)
        # Failure at wall 25: two checkpoints secured (work 20 at wall 22);
        # only the 3 in-flight seconds die, not 25.
        assert overlay.num_failures == 1
        assert overlay.lost_work_s == pytest.approx(3.0)
        assert overlay.restart_s == pytest.approx(2.0)

    def test_failure_during_write_voids_checkpoint(self):
        plan = FaultPlan(
            node_failures=(NodeFailure(10.5, 0),),
            checkpoint=CheckpointPolicy(interval_s=10.0, write_s=1.0),
        )
        overlay = apply_overlay(20.0, plan, num_nodes=4)
        # The write starting at wall 10 dies mid-flight: all 10 units of
        # work are lost because the checkpoint never completed.
        assert overlay.num_failures == 1
        assert overlay.lost_work_s == pytest.approx(10.0)

    def test_event_stream_records_walk(self):
        plan = FaultPlan(
            node_failures=(NodeFailure(15.0, 2),),
            checkpoint=CheckpointPolicy(
                interval_s=10.0, write_s=1.0, restart_s=1.0
            ),
        )
        overlay = apply_overlay(30.0, plan, num_nodes=4)
        kinds = [e.kind for e in overlay.events]
        assert "checkpoint" in kinds
        assert "failure" in kinds
        assert "restart" in kinds
        failure = next(e for e in overlay.events if e.kind == "failure")
        assert failure.node == 2
        assert failure.time_s == 15.0

    def test_walk_is_deterministic_for_seeded_plans(self):
        plan = FaultPlan(
            seed=17,
            mtbf_s=7.0,
            checkpoint=CheckpointPolicy(interval_s=3.0, write_s=0.2),
        )
        a = apply_overlay(50.0, plan, num_nodes=8)
        b = apply_overlay(50.0, plan, num_nodes=8)
        assert a == b

    def test_livelock_raises_instead_of_spinning(self):
        # MTBF tiny vs checkpoint cycle: no interval ever completes.
        plan = FaultPlan(
            seed=1,
            mtbf_s=0.01,
            checkpoint=CheckpointPolicy(interval_s=10.0, write_s=5.0),
        )
        with pytest.raises(FaultError, match="livelock"):
            apply_overlay(1000.0, plan, num_nodes=4)

    def test_wall_always_at_least_work(self):
        plan = FaultPlan(seed=2, mtbf_s=20.0)
        overlay = apply_overlay(60.0, plan, num_nodes=4)
        assert overlay.wall_s >= 60.0
        assert overlay.slowdown >= 1.0
