"""Fan experiment runs across the shared worker pool.

Experiments are independent of each other, so the harness treats them
as a task farm over :class:`~repro.parallel.pool.WorkerPool` -- the same
pool that backs the distributed simulator's ``executor="pool"`` -- and
collects results in submission order.  Per-experiment failures are
captured and reported alongside the successes rather than aborting the
whole sweep (matching the serial CLI's behaviour).

Every task runs under the caller's settings (the pool ships
:func:`repro.settings.snapshot` with each command), so a configured
``REPRO_CACHE_DIR`` -- or a CLI's ``--cache`` override -- makes every
worker read and write the shared content-addressed prediction cache: the first sweep populates it, and
reruns (or overlapping experiments pricing the same circuits) hit it.
Inside a worker the executor always resolves to serial, so experiments
that execute numerically can never deadlock on a nested pool.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro import obs
from repro.errors import ExperimentError, ReproError
from repro.experiments.registry import run_experiment
from repro.experiments.reporting import ExperimentResult

__all__ = ["run_experiments_parallel"]


def _run_one(experiment_id: str) -> tuple:
    """Task-farm body: run one experiment, capturing expected failures."""
    try:
        with obs.span("experiment", id=experiment_id):
            return ("ok", run_experiment(experiment_id))
    except ReproError as exc:
        return ("err", f"{type(exc).__name__}: {exc}")


def run_experiments_parallel(
    ids: Sequence[str], *, jobs: int | None = None
) -> list[tuple[str, ExperimentResult | None, str | None]]:
    """Run experiments concurrently; return ``(id, result, error)`` triples.

    Results come back in the order of ``ids`` regardless of completion
    order.  ``jobs`` sizes a dedicated pool for this sweep; ``None``
    reuses the process-wide pool (shared with the numeric executor) --
    but degrades to inline for a single experiment, where a pool buys
    nothing.  An *explicit* ``jobs >= 2`` always goes through workers,
    even for one id (the observability smoke path relies on this to
    exercise the pool seams).  Exactly one of ``result`` / ``error`` is
    set per triple.

    With observability enabled, the pool's barrier-latency probe runs
    once before the sweep so ``repro_pool_barrier_wait_seconds`` always
    carries samples, and every worker ships its spans and metrics back
    through the reply pipe for parent-side merging.
    """
    ids = list(ids)
    if not ids:
        return []
    if jobs is not None and jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or (jobs is None and len(ids) == 1):
        return [_unpack(experiment_id, _run_one(experiment_id)) for experiment_id in ids]

    from repro.parallel.pool import WorkerPool, get_pool, in_worker

    if in_worker():
        # Already inside a pool worker (a workflow running the harness
        # from a parallel context): degrade to inline execution.
        return [_unpack(experiment_id, _run_one(experiment_id)) for experiment_id in ids]
    with obs.span("sweep", experiments=len(ids), jobs=jobs or 0):
        if jobs is None:
            pool = get_pool()
            if obs.is_enabled():
                pool.probe()
            outcomes = pool.map_tasks(_run_one, ids)
        else:
            pool = WorkerPool(min(jobs, len(ids)))
            try:
                if obs.is_enabled():
                    pool.probe()
                outcomes = pool.map_tasks(_run_one, ids)
            finally:
                pool.close()
    return [
        _unpack(experiment_id, outcome)
        for experiment_id, outcome in zip(ids, outcomes)
    ]


def _unpack(
    experiment_id: str, outcome: tuple
) -> tuple[str, ExperimentResult | None, str | None]:
    if outcome[0] == "ok":
        return (experiment_id, outcome[1], None)
    return (experiment_id, None, outcome[1])
