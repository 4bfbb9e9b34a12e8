"""How pool workers start: from one forkserver, with the parent's environment.

Both pools fork their workers from a server that is started once per
parent process.  A forked worker would otherwise inherit the server's
environment, frozen when the first pool started; these tests pin that
every new pool's workers see the parent's environment as it is when
the pool is built, and that the pools survive losing the server.

The SPMD bodies live at module level so workers can unpickle them.
"""

from __future__ import annotations

import os
import signal
import time
from multiprocessing import forkserver

import numpy as np
import pytest

from repro import obs
from repro.circuits import random_circuit
from repro.parallel import get_pool, shm_available, shutdown_pool
from repro.parallel import pool as pool_mod
from repro.parallel.shm import SEGMENT_PREFIX
from repro.parallel.tcp import get_tcp_pool, shutdown_tcp_pools
from repro.statevector import gate_kernels
from repro.statevector.distributed import DistributedStatevector

LOOPBACK2 = "127.0.0.1:0,127.0.0.1:0"

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="named shared memory unavailable on this host"
)
needs_forkserver = pytest.mark.skipif(
    pool_mod.start_context().get_start_method() != "forkserver",
    reason="forkserver start method unavailable on this host",
)


def spmd_environment(ctx, names):
    return (
        [os.environ.get(name) for name in names],
        obs.is_enabled(),
        gate_kernels.get_backend(),
    )


@pytest.fixture(autouse=True)
def _fresh_pools():
    """Every test starts and ends without pools, so no worker outlives
    the environment it was built under."""
    shutdown_pool()
    shutdown_tcp_pools()
    yield
    shutdown_pool()
    shutdown_tcp_pools()


def _gone(pid: int) -> bool:
    """True once ``pid`` has exited (reaped, or a zombie awaiting it)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            return any(
                line.startswith("State:") and "Z" in line.split()[1]
                for line in fh
            )
    except FileNotFoundError:
        return True


def _wait_gone(pids, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(_gone(pid) for pid in pids):
            return True
        time.sleep(0.05)
    return False


class TestStartContext:
    @needs_forkserver
    def test_forkserver_when_its_socket_path_fits(self):
        context = pool_mod._choose_context("/tmp/pymp-abcdefgh")
        assert context.get_start_method() == "forkserver"

    def test_spawn_when_temp_dir_is_too_long_for_the_socket(self):
        # The server listens on <temp dir>/listener-XXXXXXXX; past the
        # OS limit the bind fails, so such a process must not use it.
        temp_dir = "/tmp/" + "d" * (pool_mod._SUN_PATH_MAX - 22)
        assert len(temp_dir) + pool_mod._LISTENER_NAME_LEN > pool_mod._SUN_PATH_MAX
        context = pool_mod._choose_context(temp_dir)
        assert context.get_start_method() == "spawn"


class TestEnvironmentReachesNewWorkers:
    @needs_shm
    def test_shm_pool_workers_see_environment_set_after_first_pool(
        self, monkeypatch
    ):
        get_pool().probe(1)
        shutdown_pool()
        monkeypatch.setenv("REPRO_KERNELS", "reference")
        monkeypatch.setenv(obs.OBS_ENV, "1")
        seen = get_pool().spmd(spmd_environment, ["REPRO_KERNELS", obs.OBS_ENV])
        assert seen == [(["reference", "1"], True, "reference")] * len(seen)

    def test_tcp_pool_workers_run_the_kernels_the_environment_names(
        self, monkeypatch
    ):
        # The strided and reference kernels round a random circuit
        # differently, so the result shows which ones the workers ran.
        circuit = random_circuit(10, 200, seed=3)
        with gate_kernels.using_backend("strided"):
            strided = _run(circuit, "serial")
            get_tcp_pool(LOOPBACK2).probe(1)
            shutdown_tcp_pools()
            monkeypatch.setenv("REPRO_KERNELS", "reference")
            pooled = _run(circuit, "pool", hosts=LOOPBACK2)
        with gate_kernels.using_backend("reference"):
            reference = _run(circuit, "serial")
        assert not np.array_equal(strided, reference)
        assert np.array_equal(pooled, reference)


def _run(circuit, executor, **kwargs):
    state = DistributedStatevector.zero_state(
        circuit.num_qubits, 4, executor=executor, **kwargs
    )
    return state.apply_circuit(circuit).gather()


@needs_shm
@needs_forkserver
class TestForkserverLoss:
    def test_pools_survive_and_rebuild_after_server_is_killed(self):
        pool = get_pool()
        pool.probe(1)
        tcp = get_tcp_pool(LOOPBACK2)
        tcp.probe(1)
        server = forkserver._forkserver._forkserver_pid
        os.kill(server, signal.SIGKILL)
        assert _wait_gone([server])

        # Live pools keep serving: their workers never needed the server.
        assert not pool.broken
        assert pool.probe(2) == list(range(pool.num_workers))
        assert len(tcp.probe(2)) == 2
        circuit = random_circuit(8, 60, seed=5)
        serial = _run(circuit, "serial")
        assert np.array_equal(_run(circuit, "pool"), serial)
        assert np.array_equal(_run(circuit, "pool", hosts=LOOPBACK2), serial)

        # Rebuilds start a new server.
        old_workers = pool.worker_pids() + tcp.worker_pids()
        shutdown_pool()
        fresh = get_pool()
        assert fresh is not pool
        assert fresh.probe(1) == list(range(fresh.num_workers))
        assert forkserver._forkserver._forkserver_pid != server
        shutdown_tcp_pools()
        assert len(get_tcp_pool(LOOPBACK2).probe(1)) == 1

        assert np.array_equal(_run(circuit, "pool"), serial)

        # The orphaned workers still exit when their pools close, and
        # no shared-memory segment of this process is left behind.
        assert _wait_gone(old_workers)
        mine = f"{SEGMENT_PREFIX}{os.getpid()}_"
        assert not [n for n in os.listdir("/dev/shm") if n.startswith(mine)]
