"""Worker-pool behaviour: SPMD lockstep, task farming, failure recovery.

The SPMD/task functions live at module level so the spawn children can
unpickle them by qualified name.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.errors import PoolError, ValidationError
from repro.parallel.pool import (
    POOL_WORKERS_ENV,
    WorkerPool,
    default_pool_size,
    get_pool,
    in_worker,
    shutdown_pool,
)


# -- worker bodies (must be importable by spawn children) ---------------------


def spmd_identity(ctx, payload):
    return (ctx.worker_id, ctx.num_workers, payload)


def spmd_barrier_sum(ctx, payload):
    # Everyone must reach the barrier or this deadlocks (and times out).
    ctx.barrier.wait()
    return ctx.worker_id + payload


def spmd_emit_events(ctx, payload):
    for i in range(payload):
        ctx.emit(("tick", i, ctx.worker_id))
    return ctx.worker_id


def spmd_worker_zero_raises(ctx, payload):
    if ctx.worker_id == 0:
        raise RuntimeError("deliberate failure in worker 0")
    ctx.barrier.wait()
    return ctx.worker_id


def spmd_report_env(ctx, payload):
    return in_worker()


def spmd_sleep_then_barrier(ctx, payload):
    time.sleep(payload)
    ctx.barrier.wait()
    return ctx.worker_id


def task_square(x):
    return x * x


def task_fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


def task_pid(_x):
    return os.getpid()


def task_settings(_x):
    from repro.statevector.sampling import resolve_shots
    from repro.transpile import resolve_strategy

    return (resolve_strategy(), resolve_shots())


def spmd_settings(ctx, payload):
    return task_settings(payload)


# -- tests --------------------------------------------------------------------


class TestPoolBasics:
    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValidationError):
            WorkerPool(0)

    def test_default_pool_size_env_override(self, monkeypatch):
        monkeypatch.setenv(POOL_WORKERS_ENV, "5")
        assert default_pool_size() == 5
        monkeypatch.setenv(POOL_WORKERS_ENV, "zero")
        with pytest.raises(ValidationError):
            default_pool_size()
        monkeypatch.setenv(POOL_WORKERS_ENV, "0")
        with pytest.raises(ValidationError):
            default_pool_size()

    def test_spmd_runs_on_every_worker(self):
        pool = get_pool()
        results = pool.spmd(spmd_identity, "payload")
        assert results == [
            (i, pool.num_workers, "payload") for i in range(pool.num_workers)
        ]

    def test_spmd_barrier_lockstep(self):
        pool = get_pool()
        results = pool.spmd(spmd_barrier_sum, 100)
        assert results == [100 + i for i in range(pool.num_workers)]

    def test_spmd_forwards_events(self):
        pool = get_pool()
        events = []
        pool.spmd(spmd_emit_events, 3, on_event=events.append)
        assert len(events) == 3 * pool.num_workers
        for worker in range(pool.num_workers):
            ticks = [e[1] for e in events if e[2] == worker]
            assert ticks == [0, 1, 2]

    def test_workers_know_they_are_workers(self):
        pool = get_pool()
        assert not in_worker()
        assert pool.spmd(spmd_report_env, None) == [True] * pool.num_workers

    def test_map_tasks_preserves_order(self):
        pool = get_pool()
        items = list(range(20))
        assert pool.map_tasks(task_square, items) == [x * x for x in items]

    def test_map_tasks_distributes_across_processes(self):
        pool = get_pool()
        pids = set(pool.map_tasks(task_pid, list(range(32))))
        assert pids.isdisjoint({os.getpid()})


class TestFailureRecovery:
    def test_spmd_worker_exception_raises_pool_error(self):
        pool = get_pool()
        with pytest.raises(PoolError, match="deliberate failure"):
            pool.spmd(spmd_worker_zero_raises, None)
        # The barrier was aborted and reset: the pool must still work.
        assert pool.spmd(spmd_barrier_sum, 0) == list(range(pool.num_workers))

    def test_map_task_error_reported_after_drain(self):
        pool = get_pool()
        with pytest.raises(PoolError, match="three is right out"):
            pool.map_tasks(task_fail_on_three, [1, 2, 3, 4])
        assert pool.map_tasks(task_square, [5]) == [25]

    def test_killed_worker_breaks_pool_and_next_get_pool_recovers(self):
        """Regression: a SIGKILLed worker must not deadlock the barrier.

        The parent has to notice the death, abort the barrier on the
        dead worker's behalf, raise PoolError, and hand out a working
        pool on the next request.
        """
        pool = get_pool()
        victim = pool.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and not pool.broken:
            time.sleep(0.05)
        with pytest.raises(PoolError):
            pool.spmd(spmd_barrier_sum, 0)
        fresh = get_pool()
        assert fresh is not pool
        assert fresh.spmd(spmd_barrier_sum, 0) == list(range(fresh.num_workers))

    def test_kill_during_spmd_raises_not_hangs(self):
        pool = get_pool()
        import threading

        def assassinate():
            time.sleep(0.3)
            os.kill(pool.worker_pids()[0], signal.SIGKILL)

        killer = threading.Thread(target=assassinate)
        killer.start()
        try:
            with pytest.raises(PoolError, match="died"):
                # Workers sleep past the kill, then block on the barrier
                # waiting for the victim; the parent must break the jam.
                pool.spmd(spmd_sleep_then_barrier, 1.0)
        finally:
            killer.join()
        # Pool is broken; the global accessor replaces it.
        replacement = get_pool()
        assert replacement.spmd(spmd_identity, 1) == [
            (i, replacement.num_workers, 1) for i in range(replacement.num_workers)
        ]

    def test_shutdown_pool_is_idempotent(self):
        shutdown_pool()
        shutdown_pool()
        pool = get_pool()
        assert pool.spmd(spmd_identity, None)[0][0] == 0


class TestSettingsReachRunningWorkers:
    """Workers adopt the environment once; every command then carries
    the caller's settings, so later changes reach a running pool."""

    def test_env_and_overrides_set_after_start(self, monkeypatch):
        from repro import settings

        monkeypatch.delenv("REPRO_TRANSPILE", raising=False)
        monkeypatch.delenv("REPRO_SHOTS", raising=False)
        pool = get_pool()
        assert pool.map_tasks(task_settings, [0, 1]) == [(None, 0)] * 2
        monkeypatch.setenv("REPRO_TRANSPILE", "naive")
        with settings.overridden({"REPRO_SHOTS": "256"}):
            expected = ("naive", 256)
            assert pool.map_tasks(task_settings, [0, 1]) == [expected] * 2
            assert pool.spmd(spmd_settings, None) == [expected] * pool.num_workers
        assert pool.map_tasks(task_settings, [0]) == [("naive", 0)]

    def test_experiment_overrides_reach_the_global_pool(
        self, tmp_path, monkeypatch
    ):
        from repro import settings
        from repro.experiments.parallel_runner import run_experiments_parallel
        from repro.parallel.cache import CACHE_DIR_ENV

        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        get_pool()  # already running before the override exists
        cache = tmp_path / "cache"
        with settings.overridden({CACHE_DIR_ENV: str(cache)}):
            outcomes = run_experiments_parallel(["tab1", "fig5"], jobs=None)
        assert [error for _, _, error in outcomes] == [None, None]
        assert list(cache.glob("*/*.pkl"))  # the workers priced into it


class TestNestedPoolGuard:
    def test_get_pool_inside_worker_raises(self, monkeypatch):
        monkeypatch.setenv("_REPRO_POOL_WORKER", "1")
        with pytest.raises(PoolError, match="nested"):
            get_pool()


class TestInterrupt:
    def test_sigint_to_workers_is_not_a_crash(self):
        # Ctrl-C hits the whole foreground process group; workers must
        # ignore it (the parent decides shutdown) and keep serving.
        from repro import obs

        counter = obs.counter(
            "repro_pool_worker_crashes_total", transport="shm"
        )
        pool = WorkerPool(2)
        try:
            # Warm the pool first: the ignore handler is installed at
            # the top of the worker loop, and a SIGINT delivered during
            # interpreter bootstrap would kill the child legitimately.
            pool.spmd(spmd_identity, "warmup")
            before = counter.value
            for pid in pool.worker_pids():
                os.kill(pid, signal.SIGINT)
            time.sleep(0.3)
            results = pool.spmd(spmd_identity, "still-alive")
            assert sorted(r[0] for r in results) == [0, 1]
            assert all(r[2] == "still-alive" for r in results)
            assert counter.value == before
            assert not pool.broken
        finally:
            pool.close()

    def test_parent_interrupt_marks_pool_broken_quietly(self, monkeypatch):
        # A KeyboardInterrupt in the dispatching parent is a clean
        # shutdown request: the pool must re-raise and mark itself
        # broken WITHOUT booking the workers as crashed.
        from repro import obs

        counter = obs.counter(
            "repro_pool_worker_crashes_total", transport="shm"
        )
        pool = WorkerPool(2)
        try:
            before = counter.value

            def interrupted(*args, **kwargs):
                raise KeyboardInterrupt

            monkeypatch.setattr(pool, "_spmd_wait", interrupted)
            with pytest.raises(KeyboardInterrupt):
                pool.spmd(spmd_identity, None)
            assert pool.broken
            assert counter.value == before
        finally:
            pool.close()
        assert counter.value == before
