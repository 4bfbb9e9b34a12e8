"""A persistent pool of worker processes started from one forkserver.

One pool serves two call shapes:

* :meth:`WorkerPool.spmd` -- every worker runs the *same* function on the
  same payload, synchronising on a shared barrier (the distributed
  executor's lockstep plan replay);
* :meth:`WorkerPool.map_tasks` -- a task farm that fans independent
  items across workers (the experiment harness' grid fan-out).

Workers are started once and reused: the pool is module-global and
lives for the process (closed by ``atexit``), so repeated
``apply_circuit`` calls and whole experiment sweeps pay worker start-up
once.  Both this pool and the TCP loopback pool
(:mod:`repro.parallel.tcp`) start their workers from
:func:`start_context`, a ``forkserver`` context whose server imports
numpy and the worker modules once; each worker is a fork of that warm
interpreter, which never ran pool or user code, so a pool (re)build
costs a fork per worker rather than an interpreter boot and a numpy
import per worker.  Where the forkserver cannot run the context falls
back to ``spawn``.

A forked worker inherits the *server's* environment, which is frozen
when the first pool starts.  Every worker is therefore handed a
snapshot of the parent's ``os.environ`` and adopts it first thing
(:func:`adopt_environment`), so it sees the same environment a spawned
worker would.

Failure handling is explicit: a worker that raises aborts the shared
barrier so its peers unblock, and a worker that *dies* (SIGKILL, OOM)
is detected by the parent, which aborts the barrier on its behalf,
marks the pool broken and raises :class:`~repro.errors.PoolError`.  The
next :func:`get_pool` call builds a fresh pool.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import signal
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection, util
from typing import Any, Callable

from repro import obs, settings
from repro.errors import PoolError, ValidationError

__all__ = [
    "WorkerPool",
    "WorkerContext",
    "get_pool",
    "shutdown_pool",
    "default_pool_size",
    "in_worker",
]

#: Environment knob: explicit worker count for the global pool.
POOL_WORKERS_ENV = settings.POOL_WORKERS.name

#: Set inside worker processes so nested code never re-enters the pool.
_IN_WORKER_ENV = settings.IN_WORKER.name

#: Modules the forkserver imports before it forks any worker: the two
#: worker entry points and the plan stepper (which pull in numpy and
#: the kernels).
_PRELOAD = ["repro.parallel.pool", "repro.parallel.stepper", "repro.parallel.tcp"]

#: Longest Unix socket path the OS can bind (``sun_path`` less its NUL).
_SUN_PATH_MAX = 107

#: Length of the forkserver's socket name in the multiprocessing temp
#: directory: ``/listener-`` plus eight random characters.
_LISTENER_NAME_LEN = 18

_context = None


def start_context():
    """The one multiprocessing context every pool starts workers from.

    Chosen on first use: ``forkserver``, preloading the worker modules,
    unless the server cannot run here.  That is when the start method
    is missing, or when the server's Unix socket, created in the
    multiprocessing temp directory (under ``TMPDIR``), would have a
    path too long to bind; then ``spawn``.
    """
    global _context
    if _context is None:
        _context = _choose_context(util.get_temp_dir())
    return _context


def _choose_context(temp_dir: str):
    if (
        "forkserver" not in mp.get_all_start_methods()
        or len(temp_dir) + _LISTENER_NAME_LEN > _SUN_PATH_MAX
    ):
        return mp.get_context("spawn")
    # The preload list is process-global: any other forkserver user in
    # this process shares the server and its (harmless) extra imports.
    context = mp.get_context("forkserver")
    context.set_forkserver_preload(_PRELOAD)
    return context


def adopt_environment(env: dict) -> None:
    """Make this worker's environment the parent's ``env`` snapshot.

    Runs first in every worker.  State that modules derived from the
    environment at import time, inside the forkserver, is derived again
    here: today that is whether :mod:`repro.obs` traces (``REPRO_OBS``).
    """
    os.environ.clear()
    os.environ.update(env)
    if obs.env_enabled():
        obs.enable()
    else:
        obs.disable()


def _alive(proc) -> bool:
    """Whether the worker behind ``proc`` still runs.

    ``proc.is_alive()`` alone is not enough: a forkserver child reports
    its exit through the server, so if the server is killed every
    worker it forked reads as exited while it still serves.  A worker
    that reads as exited is asked about once more, by pid.
    """
    if proc.is_alive():
        return True
    try:
        os.kill(proc.pid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def in_worker() -> bool:
    """True inside a pool worker process."""
    return settings.get(settings.IN_WORKER)


def default_pool_size() -> int:
    """Worker count for the global pool.

    ``REPRO_POOL_WORKERS`` wins; otherwise one worker per core, capped
    at 8, with a floor of 2 so cross-worker exchange paths are always
    exercised (oversubscription on small hosts costs little -- the
    workers' numpy sweeps time-slice).
    """
    workers = settings.get(settings.POOL_WORKERS)
    if workers is not None:
        return workers
    return min(8, max(2, os.cpu_count() or 1))


@dataclass
class WorkerContext:
    """Hands SPMD tasks their identity and synchronisation primitives."""

    worker_id: int
    num_workers: int
    barrier: Any
    events: Any

    def emit(self, event: tuple) -> None:
        """Send a progress event to the parent (observer plumbing)."""
        self.events.put(event)


def _worker_main(
    worker_id: int, num_workers: int, conn, barrier, events, env: dict
) -> None:
    """Worker loop: execute commands from the parent until told to exit.

    Each command carries ``(collect, overrides)`` from the parent at
    dispatch time.  The function runs under the parent's settings
    (``overrides`` is its :func:`repro.settings.snapshot`), so values
    set or overridden after this worker started still apply.  With
    ``collect`` the worker enables its local span tracer for the
    duration of the command and appends its exported obs state to the
    reply, which the parent merges (``repro.obs.merge_state``); the
    flag mirrors the parent's enabled state, so workers never pay
    tracing overhead the parent did not ask for.
    """
    adopt_environment(env)
    os.environ[_IN_WORKER_ENV] = "1"
    # Ctrl-C is delivered to the whole foreground process group, so
    # without this every worker dies mid-``recv`` on an interactive
    # interrupt and the parent books the deaths as crashes (bumping
    # ``repro_pool_worker_crashes_total`` and triggering restart
    # logic).  Workers ignore SIGINT; the parent owns the interrupt
    # and turns it into a clean shutdown.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError) as exc:  # pragma: no cover - exotic host
        obs.swallowed("pool.worker_sigint_ignore", exc)
    ctx = WorkerContext(worker_id, num_workers, barrier, events)
    while True:
        try:
            command = conn.recv()
        except (EOFError, OSError):
            break
        kind = command[0]
        if kind == "close":
            break
        fn, payload, (collect, overrides) = command[1:]
        if collect:
            obs.reset()
            obs.enable()
        interrupted = False
        try:
            with settings.overridden(overrides):
                if kind == "spmd":
                    result = fn(ctx, payload)
                else:
                    result = fn(payload)
            reply = ("ok", result, None)
        except BaseException as exc:  # noqa: BLE001 - forwarded to parent
            if kind == "spmd":
                # Unblock peers waiting on the barrier for this worker.
                try:
                    barrier.abort()
                except Exception as abort_exc:  # pragma: no cover - best effort
                    obs.swallowed("pool.worker_barrier_abort", abort_exc)
            reply = (
                "err",
                f"{type(exc).__name__}: {exc}",
                traceback.format_exc(),
                None,
            )
            interrupted = isinstance(exc, KeyboardInterrupt)
        if collect:
            obs.disable()
            reply = reply[:-1] + (obs.export_state(clear=True),)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            break
        if interrupted:
            break
    conn.close()


def _probe_worker(ctx: "WorkerContext", rounds: int):
    """SPMD body of :meth:`WorkerPool.probe`: timed barrier round-trips."""
    for _ in range(rounds):
        t0 = time.perf_counter()
        ctx.barrier.wait()
        obs.histogram("repro_pool_barrier_wait_seconds").observe(
            time.perf_counter() - t0
        )
    return ctx.worker_id


class WorkerPool:
    """``num_workers`` persistent worker processes plus their plumbing."""

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise ValidationError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        context = start_context()
        self.barrier = context.Barrier(num_workers)
        self.events = context.SimpleQueue()
        self._pipes = []
        self._procs = []
        self._broken = False
        self._closing = False
        env = dict(os.environ)
        for i in range(num_workers):
            parent_end, child_end = context.Pipe()
            proc = context.Process(
                target=_worker_main,
                args=(i, num_workers, child_end, self.barrier, self.events, env),
                daemon=True,
                name=f"repro-pool-{i}",
            )
            proc.start()
            child_end.close()
            self._pipes.append(parent_end)
            self._procs.append(proc)

    # -- health ---------------------------------------------------------------

    @property
    def broken(self) -> bool:
        """True once a worker died or the pool was shut down."""
        return self._broken or not all(_alive(p) for p in self._procs)

    def worker_pids(self) -> list[int]:
        """PIDs of the worker processes (test/diagnostic hook)."""
        return [p.pid for p in self._procs]

    def _note_dead(self, count: int = 1) -> None:
        """Record worker deaths, distinguishing crashes from shutdown.

        A worker exiting while :meth:`close` is in flight (interpreter
        teardown races the atexit sweep) is expected and silent; one
        dying mid-run is a real crash, counted into
        ``repro_pool_worker_crashes_total`` and logged.
        """
        obs.counter("repro_pool_dead_workers_total").inc(count)
        if self._closing:
            return
        obs.counter("repro_pool_worker_crashes_total", transport="shm").inc(
            count
        )
        obs.log.warning(
            "%d pool worker(s) died unexpectedly; pool marked broken", count
        )

    def _drain_events(self, on_event) -> None:
        while not self.events.empty():
            event = self.events.get()
            if on_event is not None:
                on_event(event)

    @staticmethod
    def _merge_reply_obs(reply: tuple) -> None:
        """Fold a worker reply's piggybacked obs payload into this process."""
        payload = reply[2] if reply[0] == "ok" else reply[3]
        if payload:
            obs.merge_state(payload)

    def probe(self, rounds: int = 3) -> list[int]:
        """Measure barrier round-trip latency across every worker.

        Runs ``rounds`` synchronised barrier waits and feeds each wait
        into ``repro_pool_barrier_wait_seconds`` (shipped back through
        the obs seam when tracing is enabled).  Doubles as a liveness
        check: a dead worker surfaces as :class:`~repro.errors.PoolError`.
        """
        return self.spmd(_probe_worker, rounds)

    # -- SPMD mode -----------------------------------------------------------

    def spmd(
        self,
        fn: Callable[[WorkerContext, Any], Any],
        payload: Any,
        *,
        on_event: Callable[[tuple], None] | None = None,
    ) -> list[Any]:
        """Run ``fn(ctx, payload)`` on every worker; return all results.

        ``fn`` must be a picklable module-level function.  Progress
        events the workers :meth:`WorkerContext.emit` are forwarded to
        ``on_event`` while the parent waits.  Raises
        :class:`~repro.errors.PoolError` if any worker raises or dies.
        """
        if self.broken:
            raise PoolError("worker pool is broken; call get_pool() again")
        obs.counter("repro_pool_spmd_total").inc()
        context = (obs.is_enabled(), settings.snapshot())
        try:
            return self._spmd_wait(fn, payload, context, on_event)
        except KeyboardInterrupt:
            # An interactive interrupt is a shutdown request, not a
            # worker crash: mark the pool closing *before* the atexit
            # sweep reaps the workers so their exits stay out of
            # ``repro_pool_worker_crashes_total``.
            self._closing = True
            self._broken = True
            raise

    def _spmd_wait(self, fn, payload, context, on_event) -> list[Any]:
        """The send/wait/collect body of :meth:`spmd`."""
        for pipe in self._pipes:
            pipe.send(("spmd", fn, payload, context))
        results: dict[int, Any] = {}
        errors: dict[int, tuple[str, str]] = {}
        pending = set(range(self.num_workers))
        dead: set[int] = set()
        while pending:
            ready = connection.wait(
                [self._pipes[i] for i in pending], timeout=0.25
            )
            self._drain_events(on_event)
            if not ready:
                for i in list(pending):
                    if not _alive(self._procs[i]):
                        dead.add(i)
                        pending.discard(i)
                if dead:
                    # Peers may be blocked on the barrier waiting for the
                    # dead worker: break it so they answer, then fail.
                    self._broken = True
                    self._note_dead(len(dead))
                    try:
                        self.barrier.abort()
                    except Exception as exc:  # pragma: no cover
                        obs.swallowed("pool.barrier_abort", exc)
                continue
            for pipe in ready:
                i = self._pipes.index(pipe)
                try:
                    reply = pipe.recv()
                except (EOFError, OSError):
                    dead.add(i)
                    pending.discard(i)
                    self._broken = True
                    self._note_dead()
                    try:
                        self.barrier.abort()
                    except Exception as exc:  # pragma: no cover
                        obs.swallowed("pool.barrier_abort", exc)
                    continue
                pending.discard(i)
                self._merge_reply_obs(reply)
                if reply[0] == "ok":
                    results[i] = reply[1]
                else:
                    errors[i] = (reply[1], reply[2])
        self._drain_events(on_event)
        if dead:
            raise PoolError(
                f"worker(s) {sorted(dead)} died during an SPMD task; "
                "the pool has been marked broken"
            )
        if errors:
            self._reset_barrier()
            worker_id, (message, tb) = sorted(errors.items())[0]
            real = {
                i: m for i, (m, _t) in errors.items() if "BrokenBarrierError" not in m
            }
            if real:
                worker_id = sorted(real)[0]
                message, tb = errors[worker_id]
            raise PoolError(
                f"worker {worker_id} failed: {message}\n{tb}"
            )
        return [results[i] for i in range(self.num_workers)]

    def _reset_barrier(self) -> None:
        """Recover the barrier after an aborted SPMD task."""
        try:
            self.barrier.reset()
        except Exception as exc:  # pragma: no cover - broken pool caught later
            obs.swallowed("pool.barrier_reset", exc)
            self._broken = True

    # -- task-farm mode --------------------------------------------------------

    def map_tasks(self, fn: Callable[[Any], Any], items: list) -> list:
        """Apply ``fn`` to every item across the workers, preserving order.

        Independent tasks, no barrier: each worker gets a new item as
        soon as it finishes the last.  The first task error is re-raised
        as :class:`~repro.errors.PoolError` after all in-flight tasks
        drain (so the pool stays reusable).
        """
        if self.broken:
            raise PoolError("worker pool is broken; call get_pool() again")
        items = list(items)
        obs.counter("repro_pool_tasks_total").inc(len(items))
        context = (obs.is_enabled(), settings.snapshot())
        try:
            return self._map_tasks_wait(fn, items, context)
        except KeyboardInterrupt:
            # Same contract as :meth:`spmd`: Ctrl-C means shutdown,
            # not a crash -- keep the crash counter clean.
            self._closing = True
            self._broken = True
            raise

    def _map_tasks_wait(self, fn, items: list, context: tuple) -> list:
        """The dispatch/wait body of :meth:`map_tasks`."""
        results: list[Any] = [None] * len(items)
        first_error: tuple[int, str, str] | None = None
        next_item = 0
        inflight: dict[int, int] = {}  # worker -> item index
        idle = list(range(self.num_workers))
        while next_item < len(items) and idle:
            worker = idle.pop()
            self._pipes[worker].send(("task", fn, items[next_item], context))
            inflight[worker] = next_item
            next_item += 1
        while inflight:
            ready = connection.wait(
                [self._pipes[i] for i in inflight], timeout=0.25
            )
            self._drain_events(None)
            if not ready:
                for i in list(inflight):
                    if not _alive(self._procs[i]):
                        self._broken = True
                        self._note_dead()
                        raise PoolError(
                            f"worker {i} died during a task-farm run"
                        )
                continue
            for pipe in ready:
                worker = self._pipes.index(pipe)
                index = inflight.pop(worker)
                try:
                    reply = pipe.recv()
                except (EOFError, OSError):
                    self._broken = True
                    self._note_dead()
                    raise PoolError(
                        f"worker {worker} died during a task-farm run"
                    ) from None
                self._merge_reply_obs(reply)
                if reply[0] == "ok":
                    results[index] = reply[1]
                elif first_error is None:
                    first_error = (index, reply[1], reply[2])
                if next_item < len(items):
                    self._pipes[worker].send(("task", fn, items[next_item], context))
                    inflight[worker] = next_item
                    next_item += 1
        if first_error is not None:
            index, message, tb = first_error
            raise PoolError(f"task {index} failed: {message}\n{tb}")
        return results

    # -- shutdown -------------------------------------------------------------

    def close(self, *, timeout: float = 2.0) -> None:
        """Stop every worker (idempotent); terminate stragglers.

        Marks the pool closing first so workers exiting in response are
        booked as clean shutdowns, not crashes.
        """
        self._closing = True
        self._broken = True
        for pipe, proc in zip(self._pipes, self._procs):
            try:
                if _alive(proc):
                    pipe.send(("close",))
            except (BrokenPipeError, OSError) as exc:
                obs.swallowed("pool.close_send", exc)
        for proc in self._procs:
            proc.join(timeout=timeout)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        for pipe in self._pipes:
            try:
                pipe.close()
            except OSError as exc:  # pragma: no cover
                obs.swallowed("pool.pipe_close", exc)


_global_pool: WorkerPool | None = None


def get_pool() -> WorkerPool:
    """The process-wide pool, (re)built on first use or after breakage."""
    global _global_pool
    if in_worker():
        raise PoolError(
            "nested pools are not allowed: code running inside a pool "
            "worker must use the serial executor"
        )
    if _global_pool is not None and _global_pool.broken:
        obs.counter("repro_pool_rebuilds_total").inc()
        obs.log.debug("rebuilding broken worker pool")
        _global_pool.close()
        _global_pool = None
    if _global_pool is None:
        _global_pool = WorkerPool(default_pool_size())
    return _global_pool


def shutdown_pool() -> None:
    """Close the global pool (atexit hook; also a test-isolation hook)."""
    global _global_pool
    if _global_pool is not None:
        _global_pool.close()
        _global_pool = None


atexit.register(shutdown_pool)
