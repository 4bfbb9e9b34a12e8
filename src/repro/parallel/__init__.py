"""Parallel execution: worker pool, transports, segments, caching.

The package has six pieces:

* :mod:`repro.parallel.shm` -- named shared-memory segments with
  crash-safe unlink (finalizers + atexit sweep);
* :mod:`repro.parallel.pool` -- a persistent pool of worker processes
  with an SPMD mode (barrier lockstep) and a task-farm mode, and the
  one ``forkserver`` start context
  (:func:`~repro.parallel.pool.start_context`) from which both pools
  fork their workers;
* :mod:`repro.parallel.transport` -- the rank-transport seam: how a
  distributed step's pair exchanges move between ranks (shared memory
  or a TCP mesh), with chunked delivery for compute/comm overlap;
* :mod:`repro.parallel.tcp` -- the multi-host transport: a coordinator
  plus TCP workers (started on loopback, joined from other hosts via
  ``python -m repro.parallel.tcp``) with checkpoint streaming and
  worker-loss restart;
* :mod:`repro.parallel.stepper` -- the worker-side replay of compiled
  apply plans over a transport;
* :mod:`repro.parallel.cache` -- the content-addressed on-disk
  prediction cache backing the experiment harness.

:func:`resolve_executor` is the seam everything routes through: it maps
an explicit ``executor=`` argument or the ``REPRO_EXECUTOR`` environment
variable to a usable executor name, falling back to serial where the
pool cannot run (no transport available, or already inside a worker).
:func:`resolve_hosts` does the same for the pool's host list
(``hosts=`` argument or ``REPRO_POOL_HOSTS``): a non-empty host list
selects the TCP transport, no host list the shared-memory one.
"""

from __future__ import annotations

import os

from repro.errors import PoolError, ValidationError
from repro.parallel.pool import (
    POOL_WORKERS_ENV,
    WorkerPool,
    default_pool_size,
    get_pool,
    in_worker,
    shutdown_pool,
)
from repro.parallel.shm import SharedArray, attach_array, shm_available
from repro.parallel.tcp import POOL_HOSTS_ENV, parse_hosts

__all__ = [
    "EXECUTOR_ENV",
    "POOL_HOSTS_ENV",
    "POOL_WORKERS_ENV",
    "SharedArray",
    "WorkerPool",
    "attach_array",
    "default_pool_size",
    "get_pool",
    "in_worker",
    "resolve_executor",
    "resolve_executor_name",
    "resolve_hosts",
    "resolve_transport",
    "shm_available",
    "shutdown_pool",
]

#: Environment knob: default executor for new statevectors.
EXECUTOR_ENV = "REPRO_EXECUTOR"

_EXECUTORS = ("serial", "pool")


def resolve_executor_name(value: str | None = None) -> str:
    """Validate/normalise an executor name without capability checks.

    Precedence: explicit ``value`` > ``REPRO_EXECUTOR`` > ``"serial"``.
    This is the pure half of :func:`resolve_executor` -- pricing and
    fingerprinting paths use it so that a prediction *about* a pool run
    can be made on a host that cannot itself run the pool.
    """
    if value is None:
        value = os.environ.get(EXECUTOR_ENV) or "serial"
    value = value.strip().lower()
    if value not in _EXECUTORS:
        raise ValidationError(
            f"unknown executor {value!r}; expected one of {_EXECUTORS}"
        )
    return value


def resolve_hosts(hosts=None):
    """Resolve the pool host list: explicit > ``REPRO_POOL_HOSTS`` > None.

    Returns a tuple of :class:`~repro.parallel.tcp.HostSpec` when a
    host list is configured (which selects the TCP transport), else
    ``None`` (shared memory).  Inside a pool worker the answer is
    always ``None`` -- a worker must never recursively build a mesh.
    """
    if in_worker():
        return None
    if hosts is None:
        hosts = os.environ.get(POOL_HOSTS_ENV) or None
    if hosts is None:
        return None
    return parse_hosts(hosts)


def resolve_transport(hosts=None) -> str:
    """``"tcp"`` when a host list is configured, else ``"shm"``."""
    return "tcp" if resolve_hosts(hosts) else "shm"


def resolve_executor(value: str | None = None, *, hosts=None) -> str:
    """Resolve an executor request to a name the simulator can run.

    Precedence: explicit ``value`` > ``REPRO_EXECUTOR`` > ``"serial"``.
    The pool needs a transport: with a host list (``hosts=`` or
    ``REPRO_POOL_HOSTS``) it uses TCP and has no shared-memory
    requirement; without one it needs working named shared memory.  An
    *explicit* ``"pool"`` whose transport is unavailable raises
    :class:`~repro.errors.PoolError`; a pool selected via the
    environment degrades to serial instead (so a blanket
    ``REPRO_EXECUTOR=pool`` CI job still passes on exotic runners).
    Inside a pool worker the answer is always ``"serial"`` -- nested
    pools would deadlock.
    """
    explicit = value is not None
    value = resolve_executor_name(value)
    if value == "pool":
        if in_worker():
            return "serial"
        if resolve_hosts(hosts) is not None:
            return value  # TCP transport: no shm requirement
        if not shm_available():
            if explicit:
                raise PoolError(
                    "executor='pool' requested but named shared memory is "
                    "unavailable on this host (is /dev/shm mounted?); set "
                    f"{POOL_HOSTS_ENV} to use the TCP transport instead"
                )
            return "serial"
    return value
