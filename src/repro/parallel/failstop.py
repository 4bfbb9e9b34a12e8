"""Bridge :mod:`repro.faults` fail-stop schedules onto pool plan steps.

The fault layer speaks wall-clock time (``NodeFailure(time_s, node)``,
Young/Daly intervals in seconds); the pool stepper speaks discrete plan
steps.  This module does the unit conversion both ways so the TCP
pool's worker-loss machinery (:meth:`TcpPool.inject_failures`,
``PlanTask.checkpoint_steps``) can be driven by the exact same seeded
:class:`~repro.faults.plan.FaultPlan` objects the DES replay uses --
one fault model, two consumers.
"""

from __future__ import annotations

from repro.errors import FaultError
from repro.faults.checkpoint import daly_interval, young_interval

__all__ = ["failstop_steps", "checkpoint_cadence_steps"]


def failstop_steps(
    fault_plan,
    *,
    num_workers: int,
    num_steps: int,
    step_duration_s: float,
) -> tuple[tuple[int, int], ...]:
    """Map a fault plan's failure stream to ``(worker_id, step)`` kills.

    Each :class:`~repro.faults.plan.NodeFailure` inside the plan-replay
    horizon (``num_steps * step_duration_s``) becomes one injected
    fail-stop: the failed node maps onto worker ``node % num_workers``
    and its failure time onto the step in flight at that instant.  At
    most one kill is kept per worker -- fail-stop means the process is
    gone; a second failure of a dead worker is meaningless.
    """
    if num_workers < 1:
        raise FaultError(f"num_workers must be >= 1, got {num_workers}")
    if num_steps < 1:
        raise FaultError(f"num_steps must be >= 1, got {num_steps}")
    if not step_duration_s > 0:
        raise FaultError(
            f"step_duration_s must be > 0, got {step_duration_s!r}"
        )
    horizon_s = num_steps * step_duration_s
    kills: dict[int, int] = {}
    for failure in fault_plan.failure_stream(num_workers):
        if failure.time_s >= horizon_s:
            break
        worker = failure.node % num_workers
        step = min(int(failure.time_s / step_duration_s), num_steps - 1)
        if worker not in kills:
            kills[worker] = step
    return tuple(sorted(kills.items()))


def checkpoint_cadence_steps(
    write_s: float,
    mtbf_s: float,
    step_duration_s: float,
    *,
    num_steps: int | None = None,
    refined: bool = False,
) -> int:
    """Young (or Daly) optimal checkpoint interval, in plan steps.

    ``write_s`` is the cost of streaming one checkpoint through the
    transport, ``mtbf_s`` the job-level mean time between failures and
    ``step_duration_s`` the measured (or predicted) per-step wall time.
    The returned cadence is clamped to at least 1 step and -- when
    ``num_steps`` is given -- at most the whole plan.  The stepper
    streams a checkpoint before step ``idx`` when ``idx % cadence == 0``
    and ``idx > resume_step``, so a cadence equal to the plan length
    never fires: such a plan streams no checkpoint and a worker loss
    restarts it from step 0.
    """
    if not step_duration_s > 0:
        raise FaultError(
            f"step_duration_s must be > 0, got {step_duration_s!r}"
        )
    interval_s = (
        daly_interval(write_s, mtbf_s)
        if refined
        else young_interval(write_s, mtbf_s)
    )
    cadence = max(1, round(interval_s / step_duration_s))
    if num_steps is not None and num_steps >= 1:
        cadence = min(cadence, num_steps)
    return cadence
