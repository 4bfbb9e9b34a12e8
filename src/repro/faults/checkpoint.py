"""Checkpoint/restart modelling: Young/Daly intervals and the failure walk.

Two views of the same physics live here:

* **Closed form** -- :func:`young_interval` / :func:`daly_interval` give
  the classic near-optimal checkpoint cadence for a job-level MTBF, and
  :func:`expected_slowdown` the first-order expected wall-time
  multiplier (checkpoint writes + expected rework + restarts).  These
  drive the ``ext-resilience`` experiment's "expected" column.
* **Deterministic walk** -- :func:`apply_overlay` replays an explicit
  failure sequence against a given amount of work: work proceeds in
  checkpoint intervals, a failure rolls progress back to the last
  completed checkpoint (all of it, without a checkpoint policy), and
  restart cost is paid from the failure instant.  The walk is exact and
  seeded-deterministic, so the DES property suite can pin its output
  bit-for-bit.

The overlay is applied *on top of* a replayed (or analytically priced)
makespan rather than woven through the event heap: a coordinated
checkpoint freezes every rank anyway, so failure arithmetic composes
with the timeline instead of needing to rewind it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import FaultError
from repro.faults.plan import FaultPlan

__all__ = [
    "FaultEvent",
    "CheckpointOverlay",
    "young_interval",
    "daly_interval",
    "expected_slowdown",
    "apply_overlay",
]

#: Hard cap on processed failures: beyond this the configuration is not
#: making progress (MTBF far below the checkpoint cycle) and the walk
#: reports the livelock instead of spinning.
MAX_FAILURES = 100_000


@dataclass(frozen=True)
class FaultEvent:
    """One injected occurrence, for timeline annotation and reports."""

    time_s: float
    kind: str  # "failure" | "restart" | "checkpoint" | "retry"
    node: int | None = None
    detail: str = ""


@dataclass(frozen=True)
class CheckpointOverlay:
    """Outcome of walking a failure sequence over one job's work."""

    #: Fault-free work the job had to complete (the base makespan).
    work_s: float
    #: Wall time with failures, rework, checkpoints and restarts.
    wall_s: float
    #: Work that was executed and then lost to rollbacks.
    lost_work_s: float
    #: Total time spent writing checkpoints.
    checkpoint_write_s: float
    #: Total time spent in restart/recovery.
    restart_s: float
    num_failures: int
    num_checkpoints: int
    events: tuple[FaultEvent, ...]

    @property
    def overhead_s(self) -> float:
        """Wall-time cost of the faults (0 for a clean run)."""
        return self.wall_s - self.work_s

    @property
    def slowdown(self) -> float:
        """Wall / work (1.0 for a clean run)."""
        return self.wall_s / self.work_s if self.work_s > 0 else 1.0


# -- closed forms ------------------------------------------------------------


def young_interval(write_s: float, mtbf_s: float) -> float:
    """Young's first-order optimal checkpoint interval ``sqrt(2*C*M)``."""
    _check_inputs(write_s, mtbf_s)
    return math.sqrt(2.0 * write_s * mtbf_s)


def daly_interval(write_s: float, mtbf_s: float) -> float:
    """Daly's higher-order refinement of Young's interval.

    For ``C < 2M`` (the only regime where checkpointing pays at all):
    ``tau = sqrt(2*C*M) * [1 + sqrt(C/(2M))/3 + (C/(2M))/9] - C``; above
    that the best one can do is checkpoint every MTBF.
    """
    _check_inputs(write_s, mtbf_s)
    if write_s >= 2.0 * mtbf_s:
        return mtbf_s
    ratio = math.sqrt(write_s / (2.0 * mtbf_s))
    tau = (
        math.sqrt(2.0 * write_s * mtbf_s)
        * (1.0 + ratio / 3.0 + ratio * ratio / 9.0)
        - write_s
    )
    return max(tau, write_s)


def expected_slowdown(
    interval_s: float,
    write_s: float,
    mtbf_s: float,
    *,
    restart_s: float = 0.0,
) -> float:
    """First-order expected wall/work multiplier of a checkpointed job.

    Per unit of work the job pays the write overhead ``C/tau``; each
    failure (rate ``1/M`` in wall time) costs half an interval of rework
    plus the restart.  Solving the fixed point gives::

        slowdown = (1 + C/tau) / (1 - (tau/2 + C/2 + R) / M)

    A denominator <= 0 means the configuration never completes
    (expected loss per cycle exceeds the MTBF) -- that raises
    :class:`~repro.errors.FaultError` rather than returning a negative
    "speedup".
    """
    _check_inputs(write_s, mtbf_s)
    if not math.isfinite(interval_s) or interval_s <= 0:
        raise FaultError(f"interval_s must be finite and > 0, got {interval_s!r}")
    if not math.isfinite(restart_s) or restart_s < 0:
        raise FaultError(f"restart_s must be finite and >= 0, got {restart_s!r}")
    denom = 1.0 - ((interval_s + write_s) / 2.0 + restart_s) / mtbf_s
    if denom <= 0:
        raise FaultError(
            f"no steady progress: interval {interval_s:.3g}s + write "
            f"{write_s:.3g}s loses more than one MTBF ({mtbf_s:.3g}s) per cycle"
        )
    return (1.0 + write_s / interval_s) / denom


def _check_inputs(write_s: float, mtbf_s: float) -> None:
    if not math.isfinite(write_s) or write_s <= 0:
        raise FaultError(f"write_s must be finite and > 0, got {write_s!r}")
    if not math.isfinite(mtbf_s) or mtbf_s <= 0:
        raise FaultError(f"mtbf_s must be finite and > 0, got {mtbf_s!r}")


# -- the deterministic walk --------------------------------------------------


def apply_overlay(
    work_s: float, plan: FaultPlan, num_nodes: int
) -> CheckpointOverlay:
    """Walk the plan's failure sequence over ``work_s`` of work.

    Returns the stretched wall time plus the full accounting.  With a
    zero plan (or no failures and no checkpoint policy) the overlay is
    the identity: ``wall_s == work_s`` exactly.
    """
    if not math.isfinite(work_s) or work_s < 0:
        raise FaultError(f"work_s must be finite and >= 0, got {work_s!r}")
    policy = plan.checkpoint
    has_failures = bool(plan.node_failures) or plan.mtbf_s is not None
    if work_s == 0 or (policy is None and not has_failures):
        return CheckpointOverlay(work_s, work_s, 0.0, 0.0, 0.0, 0, 0, ())

    events: list[FaultEvent] = []
    wall = 0.0
    done = 0.0  # work completed since the last secured checkpoint
    secured = 0.0  # work protected by the last completed checkpoint
    lost = 0.0
    write_total = 0.0
    restart_total = 0.0
    num_checkpoints = 0
    num_failures = 0

    stream = plan.failure_stream(num_nodes) if has_failures else iter(())
    next_failure = next(stream, None)
    restart_cost = policy.restart_s if policy is not None else 0.0

    def fail(at: float, node: int | None) -> None:
        """Roll back to the last checkpoint and pay the restart."""
        nonlocal wall, done, lost, restart_total, num_failures
        num_failures += 1
        lost += done - secured
        done = secured
        events.append(FaultEvent(at, "failure", node=node))
        recovered = at + restart_cost
        if recovered > wall:
            restart_total += recovered - wall
            wall = recovered
        if restart_cost > 0:
            events.append(FaultEvent(wall, "restart", node=node))

    while done < work_s:
        if num_failures > MAX_FAILURES:
            raise FaultError(
                f"overlay livelocked after {MAX_FAILURES} failures "
                f"(MTBF {plan.mtbf_s!r}s cannot sustain the checkpoint cycle)"
            )
        # Absorb failures that land inside restart/overhead windows:
        # nothing is in flight, so they only extend the recovery.
        while next_failure is not None and next_failure.time_s <= wall:
            fail(next_failure.time_s, next_failure.node)
            next_failure = next(stream, None)

        segment = work_s - done
        if policy is not None:
            segment = min(segment, policy.interval_s)
        segment_end = wall + segment

        if next_failure is not None and next_failure.time_s < segment_end:
            # Failure mid-segment: everything since the checkpoint dies.
            at = next_failure.time_s
            done += at - wall
            wall = at
            fail(at, next_failure.node)
            next_failure = next(stream, None)
            continue

        wall = segment_end
        done += segment
        if done >= work_s:
            break

        # Write the checkpoint; a failure during the write voids it.
        write_end = wall + policy.write_s
        if next_failure is not None and next_failure.time_s < write_end:
            at = next_failure.time_s
            write_total += at - wall
            wall = at
            fail(at, next_failure.node)
            next_failure = next(stream, None)
            continue
        write_total += policy.write_s
        wall = write_end
        secured = done
        num_checkpoints += 1
        events.append(FaultEvent(wall, "checkpoint"))

    return CheckpointOverlay(
        work_s=work_s,
        wall_s=wall,
        lost_work_s=lost,
        checkpoint_write_s=write_total,
        restart_s=restart_total,
        num_failures=num_failures,
        num_checkpoints=num_checkpoints,
        events=tuple(events),
    )
