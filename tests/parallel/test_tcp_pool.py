"""The TCP rank transport: loopback pool, bit-identity, plumbing."""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import pickle
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hsettings
from hypothesis import strategies as st

from repro import obs
from repro.circuits.qft import qft_circuit
from repro.errors import PoolError
from repro.parallel import tcp as tcp_mod
from repro.parallel.tcp import (
    TcpPool,
    get_tcp_pool,
    shutdown_tcp_pools,
)
from repro.parallel.transport import LOCAL, PAIR, CopySpec, DictStore
from repro.statevector.distributed import DistributedStatevector
from repro.statevector.partition import Partition

LOOPBACK2 = "127.0.0.1:0,127.0.0.1:0"
LOOPBACK3 = "127.0.0.1:0,127.0.0.1:0,127.0.0.1:0"


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_tcp_pools()


def _serial(n, ranks, circuit, **kwargs):
    state = DistributedStatevector.zero_state(
        n, ranks, executor="serial", **kwargs
    )
    return state.apply_circuit(circuit).gather()


def _tcp(n, ranks, circuit, hosts=LOOPBACK2, **kwargs):
    state = DistributedStatevector.zero_state(
        n, ranks, executor="pool", hosts=hosts, **kwargs
    )
    return state.apply_circuit(circuit).gather()


class TestLoopbackPool:
    def test_probe_round_trips(self):
        pool = get_tcp_pool(LOOPBACK2)
        latencies = pool.probe(rounds=2)
        assert len(latencies) == 2
        assert all(t >= 0 for t in latencies)

    def test_pool_reuse_by_host_key(self):
        assert get_tcp_pool(LOOPBACK2) is get_tcp_pool(LOOPBACK2)

    def test_qft_bit_identical_to_serial(self):
        circuit = qft_circuit(8)
        assert np.array_equal(
            _serial(8, 8, circuit), _tcp(8, 8, circuit)
        )

    def test_three_workers_uneven_rank_split(self):
        # 8 ranks over 3 workers: round-robin ownership 3/3/2.
        circuit = qft_circuit(7)
        assert np.array_equal(
            _serial(7, 8, circuit), _tcp(7, 8, circuit, hosts=LOOPBACK3)
        )

    def test_halved_swaps_bit_identical(self):
        circuit = qft_circuit(7)
        assert np.array_equal(
            _serial(7, 8, circuit, halved_swaps=True),
            _tcp(7, 8, circuit, halved_swaps=True),
        )

    def test_dispatch_after_another_slice_length_is_bit_identical(self):
        # Workers keep their pair buffers and send scratch across
        # dispatches of one slice length and replace them for another:
        # 8 qubits, then 10, then 8 again, each against serial.
        from repro.circuits import random_circuit

        for n in (8, 10, 8):
            circuit = random_circuit(n, 40, seed=n)
            assert np.array_equal(_tcp(n, 4, circuit), _serial(n, 4, circuit))

    def test_kept_buffers_are_replaced_not_accumulated(self):
        kept = tcp_mod._KeptBuffers()
        first = kept.get(0, 16)
        assert kept.get(0, 16) is first
        kept.get(1, 16)
        assert kept.get(0, 32) is not first
        assert kept.by_rank.keys() == {0} and kept.length == 32

    def test_single_worker_degenerate_mesh(self):
        # W=1: no mesh sockets at all; every copy is direct.
        circuit = qft_circuit(6)
        assert np.array_equal(
            _serial(6, 4, circuit), _tcp(6, 4, circuit, hosts="127.0.0.1:0")
        )

    def test_small_chunks_force_many_frames(self, monkeypatch):
        # A 6-qubit state over 4 ranks has 16-amp slices; chunking at 4
        # amps forces 4 frames per exchange region and exercises the
        # per-chunk on_ready path hard.
        from repro.parallel.tcp import CHUNK_AMPS_ENV

        monkeypatch.setenv(CHUNK_AMPS_ENV, "4")
        circuit = qft_circuit(6)
        expected = _serial(6, 4, circuit)
        pool = TcpPool(LOOPBACK2)
        try:
            from repro.statevector.apply_plan import compile_plan
            from repro.statevector.fusion import resolve_fusion
            from repro.parallel.stepper import PlanTask

            plan = compile_plan(
                circuit, fusion=resolve_fusion(None), local_qubits=4
            )
            init = np.zeros(16, dtype=np.complex128)
            init[0] = 1.0
            task = PlanTask(
                partition=Partition(6, 4),
                halved_swaps=False,
                plan=plan,
            )
            finals, _ = pool.run_plan(
                task, {0: init, 1: None, 2: None, 3: None}
            )
            got = np.concatenate([finals[r] for r in range(4)])
            assert np.array_equal(expected, got)
        finally:
            pool.close()

    def test_multi_round_remap_three_workers_small_chunks(self):
        # Regression: a remap routes 2**g - 1 rounds under ONE plan step
        # index, and with >= 3 workers a fast peer's next-round frames
        # arrive while this worker's current round is still pumping.
        # Frames used to be tagged (step, seq) and collided across
        # rounds; the monotonic exchange counter keeps them apart.
        # Tiny chunks maximise the in-flight frame interleaving.
        from repro import settings
        from repro.circuits import Circuit
        from repro.gates import Gate
        from repro.parallel.stepper import PlanTask
        from repro.statevector.apply_plan import compile_plan
        from repro.statevector.fusion import resolve_fusion

        # 9 qubits over 8 ranks: 6 local qubits, remap pairs must span
        # local<->global.  Two g=2 remaps = two 3-round routings, with
        # enough surrounding gates to make every amplitude distinct.
        circuit = Circuit(9)
        for q in range(9):
            circuit.h(q)
        for q in range(8):
            circuit.cp(0.3 * (q + 1), q, q + 1)
        circuit.append(Gate.remap(((0, 6), (1, 7))))
        for q in range(6):
            circuit.p(0.1 * (q + 1), q)
        circuit.append(Gate.remap(((2, 7), (3, 8))))
        for q in range(9):
            circuit.h(q)
        expected = _serial(9, 8, circuit)
        plan = compile_plan(
            circuit, fusion=resolve_fusion(None), local_qubits=6
        )
        init = np.zeros(64, dtype=np.complex128)
        init[0] = 1.0
        task = PlanTask(
            partition=Partition(9, 8),
            halved_swaps=False,
            plan=plan,
        )
        pool = TcpPool(LOOPBACK3)
        try:
            with settings.overridden({tcp_mod.CHUNK_AMPS_ENV: "2"}):
                finals, _ = pool.run_plan(
                    task, {0: init, **{r: None for r in range(1, 8)}}
                )
            got = np.concatenate([finals[r] for r in range(8)])
            assert np.array_equal(expected, got)
        finally:
            pool.close()

    def test_schedule_accounting_matches_serial(self):
        circuit = qft_circuit(7)
        serial_state = DistributedStatevector.zero_state(
            7, 8, executor="serial"
        ).apply_circuit(circuit)
        tcp_state = DistributedStatevector.zero_state(
            7, 8, executor="pool", hosts=LOOPBACK2
        ).apply_circuit(circuit)
        assert serial_state.comm.stats == tcp_state.comm.stats
        assert serial_state.comm.stats.messages_sent > 0

    def test_events_replay_observer_in_order(self):
        from repro.statevector.plan import GatePlan

        seen: list[int] = []

        def observer(index, gate, plan):
            assert isinstance(plan, GatePlan)
            seen.append(index)

        circuit = qft_circuit(6)
        DistributedStatevector.zero_state(
            6, 4, executor="pool", hosts=LOOPBACK2, observer=observer
        ).apply_circuit(circuit)
        assert seen == list(range(len(circuit)))


def _loop_transport(owned, worker_of, slice_len=4, chunk_amps=None):
    """A one-peer transport over a socketpair (peer wid = 1)."""
    ours, theirs = socket.socketpair()
    ours.setblocking(False)
    local = {r: np.zeros(slice_len, dtype=np.complex128) for r in owned}
    pair = {r: np.empty(slice_len, dtype=np.complex128) for r in owned}
    store = DictStore(local, pair)
    transport = tcp_mod.TcpMeshTransport(
        {1: tcp_mod._Peer(1, ours)},
        worker_of,
        0,
        store,
        tuple(owned),
        slice_len,
        chunk_amps,
    )
    return transport, theirs


def _frame(payload: bytes) -> bytes:
    return tcp_mod._MSG_LEN.pack(len(payload)) + payload


class _GarbageFirst:
    """Start context whose first ``Process`` lets garbage clients in first.

    Each client connects to the coordinator and sends one frame before
    any worker starts, so the registration loop reads every garbage
    frame before the first real registration.
    """

    def __init__(self, context, frames):
        self._context = context
        self._frames = list(frames)
        self.clients = []

    def Process(self, *args, **kwargs):
        coord_host, coord_port = kwargs["args"][:2]
        while self._frames:
            client = socket.create_connection((coord_host, coord_port), timeout=5)
            client.sendall(self._frames.pop(0))
            self.clients.append(client)
        return self._context.Process(*args, **kwargs)


class TestControlFrames:
    @pytest.mark.parametrize(
        "prefix",
        [b"\xff" * 8, tcp_mod._MSG_LEN.pack(1 << 62)],
        ids=["all-ones", "2**62"],
    )
    def test_oversized_length_rejected_before_reading(self, prefix):
        ours, theirs = socket.socketpair()
        try:
            theirs.sendall(prefix)
            with pytest.raises(PoolError, match="exceeds"):
                tcp_mod._recv_msg(ours)
        finally:
            ours.close()
            theirs.close()

    def test_garbage_connections_do_not_abort_build(self, monkeypatch):
        # Regression: one frame with an absurd length prefix, non-pickle
        # bytes or a non-tuple message escaped the registration loop and
        # failed the whole build.
        frames = [
            b"\xff" * 8,
            _frame(b"junk!"),
            _frame(pickle.dumps(42)),
        ]
        context = _GarbageFirst(tcp_mod.start_context(), frames)
        monkeypatch.setattr(tcp_mod, "start_context", lambda: context)
        rejected = obs.counter(
            "repro_pool_rejected_connections_total", reason="malformed"
        )
        before = rejected.value
        pool = TcpPool(LOOPBACK2)
        try:
            assert len(pool.probe(1)) == 1
        finally:
            pool.close()
            for client in context.clients:
                client.close()
        assert len(context.clients) == 3
        assert rejected.value - before == 3


class TestMeshProtocol:
    def test_mesh_rejects_bad_token(self):
        token = "s3cret-token"
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        addr = listener.getsockname()
        addresses = {0: addr, 1: ("127.0.0.1", 1)}
        result = {}

        def accept_side():
            result["peers"] = tcp_mod._build_mesh(
                None, listener, 0, token, addresses
            )

        thread = threading.Thread(target=accept_side)
        thread.start()
        try:
            bad = socket.create_connection(addr, timeout=5)
            bad.settimeout(5)
            bad.sendall(tcp_mod._HELLO.pack(1, 5) + b"wrong")
            # The accept side closes unauthenticated connections.
            assert bad.recv(1) == b""
            bad.close()
            good = socket.create_connection(addr, timeout=5)
            payload = token.encode()
            good.sendall(tcp_mod._HELLO.pack(1, len(payload)) + payload)
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert set(result["peers"]) == {1}
            for peer in result["peers"].values():
                peer.sock.close()
            good.close()
        finally:
            listener.close()

    def test_duplicate_source_rank_send_rejected(self):
        # Scratch is packed per source rank; two sends from one rank in
        # a single exchange would overwrite queued bytes (see REVIEW).
        transport, theirs = _loop_transport((0,), {0: 0, 1: 1})
        sock = transport._peers[1].sock
        try:
            copies = [
                CopySpec(1, LOCAL, 0, 4, 0, LOCAL, 0, 4),
                CopySpec(1, PAIR, 0, 4, 0, LOCAL, 0, 4),
            ]
            with pytest.raises(PoolError, match="sends twice"):
                transport.exchange(0, copies)
        finally:
            sock.close()
            theirs.close()
            transport.close()

    def test_stalled_exchange_raises(self, monkeypatch):
        # A receive that never arrives must surface as a PoolError, not
        # block in select() forever (vanished host without RST/FIN).
        monkeypatch.setattr(tcp_mod, "_MESH_STALL_TIMEOUT_S", 0.2)
        transport, theirs = _loop_transport((0,), {0: 0, 1: 1})
        sock = transport._peers[1].sock
        try:
            copies = [CopySpec(0, PAIR, 0, 4, 1, LOCAL, 0, 4)]
            with pytest.raises(PoolError, match="stalled"):
                transport.exchange(0, copies)
        finally:
            sock.close()
            theirs.close()
            transport.close()

    def test_frame_from_wrong_peer_rejected(self):
        # A frame whose (exchange, seq) matches a pending receive but
        # which arrives from a peer that does not own the copy's source
        # rank is a protocol violation, not data to accept.  The chunk
        # holds the whole 64 B frame whatever $REPRO_POOL_CHUNK_AMPS
        # says, so the frame passes its size check and meets the peer
        # check.
        transport, theirs = _loop_transport(
            (0,), {0: 0, 1: 1, 2: 2}, chunk_amps=4
        )
        sock = transport._peers[1].sock
        try:
            # Expect rank 2's data (owned by worker 2) on exchange 0.
            copies = [CopySpec(0, PAIR, 0, 4, 2, LOCAL, 0, 4)]
            payload = np.arange(4, dtype=np.complex128).tobytes()
            header = tcp_mod._FRAME.pack(
                tcp_mod._KIND_DATA, 0, 0, 0, len(payload)
            )
            theirs.sendall(header + payload)  # from worker 1, not 2
            with pytest.raises(PoolError, match="belongs to worker 2"):
                transport.exchange(0, copies)
        finally:
            sock.close()
            theirs.close()
            transport.close()

    def _refused(self, frames, copies, match, slice_len=8, chunk_amps=16):
        """Feed ``frames`` for ``copies``; the exchange must raise
        ``match``.  Returns the pair buffer of rank 0 afterwards."""
        transport, theirs = _loop_transport(
            (0,), {0: 0, 1: 1}, slice_len, chunk_amps
        )
        sock = transport._peers[1].sock
        pair = transport.store.view(0, PAIR)
        pair[:] = -1.0
        try:
            theirs.sendall(b"".join(frames))
            with pytest.raises(PoolError, match=match):
                transport.exchange(0, copies)
            return pair.copy()
        finally:
            sock.close()
            theirs.close()
            transport.close()

    def test_frame_longer_than_its_region_rejected(self):
        # Regression: an 8-amplitude frame for a 4-amplitude region used
        # to be accepted and overwrote pair[4:8].
        got = self._refused(
            [_data_frame(0, 0, 0, np.arange(8, dtype=np.complex128))],
            [CopySpec(0, PAIR, 0, 4, 1, LOCAL, 0, 4)],
            "runs past its 64 B region",
        )
        assert np.all(got == -1.0)

    def test_frame_past_the_region_end_rejected(self):
        first = np.arange(2, dtype=np.complex128) + 1
        got = self._refused(
            [
                _data_frame(0, 0, 0, first),
                _data_frame(0, 0, 32, np.arange(3, dtype=np.complex128)),
            ],
            [CopySpec(0, PAIR, 0, 4, 1, LOCAL, 0, 4)],
            "48 B at offset 32 runs past",
        )
        assert np.array_equal(got[:2], first)
        assert np.all(got[2:] == -1.0)

    def test_frame_above_the_chunk_bound_rejected(self):
        got = self._refused(
            [_data_frame(0, 0, 0, np.arange(4, dtype=np.complex128))],
            [CopySpec(0, PAIR, 0, 4, 1, LOCAL, 0, 4)],
            "at most 32 B",
            chunk_amps=2,
        )
        assert np.all(got == -1.0)

    @pytest.mark.parametrize("length", [0, 24], ids=["empty", "half-amplitude"])
    def test_frame_of_partial_amplitudes_rejected(self, length):
        header = tcp_mod._FRAME.pack(tcp_mod._KIND_DATA, 0, 0, 0, length)
        got = self._refused(
            [header + b"\x01" * length],
            [CopySpec(0, PAIR, 0, 4, 1, LOCAL, 0, 4)],
            "whole amplitudes",
        )
        assert np.all(got == -1.0)

    def test_duplicate_of_a_completed_frame_rejected(self):
        # Two regions from worker 1; the first one's frame arrives twice.
        # A duplicate used to be stashed for an exchange that never came.
        amps = np.arange(2, dtype=np.complex128) + 1
        got = self._refused(
            [
                _data_frame(0, 0, 0, amps),
                _data_frame(0, 0, 0, amps),
                _data_frame(0, 1, 0, amps),
            ],
            [
                CopySpec(0, PAIR, 0, 2, 1, LOCAL, 0, 2),
                CopySpec(0, PAIR, 2, 4, 1, PAIR, 0, 2),
            ],
            "a duplicate",
        )
        assert np.array_equal(got[:2], amps)
        assert np.all(got[2:] == -1.0)

    def test_frame_of_unknown_kind_rejected(self):
        header = tcp_mod._FRAME.pack(9, 0, 0, 0, 16)
        self._refused(
            [header + bytes(16)],
            [CopySpec(0, PAIR, 0, 4, 1, LOCAL, 0, 4)],
            "unknown kind 9",
        )


def _data_frame(xid: int, seq: int, offset: int, amps: np.ndarray) -> bytes:
    payload = amps.tobytes()
    return (
        tcp_mod._FRAME.pack(tcp_mod._KIND_DATA, xid, seq, offset, len(payload))
        + payload
    )


def _blob_frame(xid: int, payload: bytes, sender: int = 1) -> bytes:
    return (
        tcp_mod._FRAME.pack(tcp_mod._KIND_BLOB, xid, sender, 0, len(payload))
        + payload
    )


def _chunks(xid: int, seq: int, amps: np.ndarray, chunk_amps: int) -> list[bytes]:
    return [
        _data_frame(xid, seq, lo * 16, amps[lo : lo + chunk_amps])
        for lo in range(0, len(amps), chunk_amps)
    ]


@contextlib.contextmanager
def _sender(sock, parts, pause=0.0):
    """Send ``parts`` from a thread, one ``sendall`` each."""
    sock.settimeout(10)

    def run():
        for part in parts:
            try:
                sock.sendall(part)
            except OSError:
                return
            if pause:
                time.sleep(pause)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield
    finally:
        thread.join(timeout=20)
    assert not thread.is_alive()


class TestMeshReceive:
    """The receive state machine: partial reads, the stash, the bound."""

    def test_frames_arriving_one_byte_per_send(self):
        transport, theirs = _loop_transport((0,), {0: 0, 1: 1}, 6, 4)
        sock = transport._peers[1].sock
        amps = np.arange(6, dtype=np.complex128) * (1 + 2j)
        ready = []
        wire = b"".join(_chunks(0, 0, amps, 4))
        try:
            with _sender(theirs, [wire[i : i + 1] for i in range(len(wire))], 1e-4):
                transport.exchange(
                    0,
                    [CopySpec(0, PAIR, 0, 6, 1, LOCAL, 0, 6)],
                    lambda c, lo, hi: ready.append((lo, hi)),
                )
            assert np.array_equal(transport.store.view(0, PAIR), amps)
            # on_ready fires once per frame, in order.
            assert ready == [(0, 4), (4, 6)]
        finally:
            sock.close()
            theirs.close()
            transport.close()

    def test_frame_of_a_later_exchange_is_stashed_then_consumed(self):
        transport, theirs = _loop_transport((0,), {0: 0, 1: 1}, 4, 2)
        sock = transport._peers[1].sock
        early = np.arange(4, dtype=np.complex128) + 10
        now = np.arange(4, dtype=np.complex128) + 20
        stashed = obs.counter("repro_transport_stashed_frames_total", transport="tcp")
        was_enabled = obs.is_enabled()
        obs.enable()
        try:
            before = stashed.value
            theirs.sendall(b"".join(_chunks(1, 0, early, 2) + _chunks(0, 0, now, 2)))
            transport.exchange(0, [CopySpec(0, PAIR, 0, 4, 1, LOCAL, 0, 4)])
            assert np.array_equal(transport.store.view(0, PAIR), now)
            assert len(transport._peers[1].stash) == 2
            assert stashed.value - before == 2
            transport.exchange(1, [CopySpec(0, LOCAL, 0, 4, 1, LOCAL, 0, 4)])
            assert np.array_equal(transport.store.view(0, LOCAL), early)
            assert transport._peers[1].stash == []
        finally:
            if not was_enabled:
                obs.disable()
            sock.close()
            theirs.close()
            transport.close()

    def test_blob_and_data_frames_interleaved(self):
        transport, theirs = _loop_transport((0,), {0: 0, 1: 1}, 4, 2)
        sock = transport._peers[1].sock
        first = np.arange(4, dtype=np.complex128) + 1j
        third = np.arange(4, dtype=np.complex128) - 1j
        head, tail = _chunks(0, 0, first, 2)
        try:
            theirs.sendall(
                b"".join(
                    [head, _blob_frame(1, b"peer"), tail, *_chunks(2, 0, third, 2)]
                )
            )
            transport.exchange(0, [CopySpec(0, PAIR, 0, 4, 1, LOCAL, 0, 4)])
            assert np.array_equal(transport.store.view(0, PAIR), first)
            assert transport.allgather_blob(0, b"mine") == [b"mine", b"peer"]
            transport.exchange(2, [CopySpec(0, LOCAL, 0, 4, 1, LOCAL, 0, 4)])
            assert np.array_equal(transport.store.view(0, LOCAL), third)
        finally:
            sock.close()
            theirs.close()
            transport.close()

    def test_expected_frames_allocate_no_payload_sized_object(self):
        # A 4 MiB region in 512 KiB frames: every payload byte is
        # received into the destination, so the exchange's peak is
        # bookkeeping, not payload.
        amps_count = 1 << 18
        transport, theirs = _loop_transport(
            (0,), {0: 0, 1: 1}, amps_count, tcp_mod.DEFAULT_CHUNK_AMPS
        )
        sock = transport._peers[1].sock
        amps = np.arange(amps_count, dtype=np.complex128)
        view = memoryview(amps).cast("B")
        chunk = transport.chunk_amps * 16
        parts = []
        for lo in range(0, view.nbytes, chunk):
            part = view[lo : lo + chunk]
            parts.append(
                tcp_mod._FRAME.pack(tcp_mod._KIND_DATA, 0, 0, lo, len(part))
            )
            parts.append(part)
        copies = [CopySpec(0, PAIR, 0, amps_count, 1, LOCAL, 0, amps_count)]
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            with _sender(theirs, parts):
                transport.exchange(0, copies)
            peak = tracemalloc.get_traced_memory()[1] - base
            assert np.array_equal(transport.store.view(0, PAIR), amps)
        finally:
            if started:
                tracemalloc.stop()
            sock.close()
            theirs.close()
            transport.close()
        assert peak <= 64 << 10, f"peak {peak} B while receiving 4 MiB"


class TestPoolLifecycle:
    def test_broken_pool_rejects_dispatch(self):
        pool = TcpPool(LOOPBACK2)
        pool.close()
        assert pool.broken
        with pytest.raises(PoolError, match="broken"):
            pool.probe()

    def test_close_idempotent(self):
        pool = TcpPool("127.0.0.1:0")
        pool.close()
        pool.close()

    def test_worker_pids_loopback(self):
        pool = TcpPool(LOOPBACK2)
        try:
            pids = pool.worker_pids()
            assert len(pids) == 2
            assert all(isinstance(p, int) for p in pids)
        finally:
            pool.close()

    def test_settings_changed_after_start_reach_workers(self, monkeypatch):
        # Workers adopt the environment once, at start; each plan then
        # runs under the coordinator's current settings.  A stall
        # timeout the workers reject proves they saw the override.
        from repro import settings

        monkeypatch.delenv(tcp_mod.STALL_TIMEOUT_ENV, raising=False)
        _tcp(6, 4, qft_circuit(6))  # the pool is up and has served
        with settings.overridden({tcp_mod.STALL_TIMEOUT_ENV: "nan"}):
            with pytest.raises(PoolError, match="REPRO_POOL_STALL_TIMEOUT"):
                _tcp(6, 4, qft_circuit(6))
        assert np.array_equal(
            _tcp(6, 4, qft_circuit(6)), _serial(6, 4, qft_circuit(6))
        )

    def test_nested_pool_rejected(self, monkeypatch):
        from repro.parallel.pool import _IN_WORKER_ENV

        monkeypatch.setenv(_IN_WORKER_ENV, "1")
        with pytest.raises(PoolError, match="nested"):
            get_tcp_pool(LOOPBACK2)


class TestStallTimeoutSeam:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(tcp_mod.STALL_TIMEOUT_ENV, raising=False)
        assert tcp_mod.resolve_stall_timeout() == tcp_mod._MESH_STALL_TIMEOUT_S

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(tcp_mod.STALL_TIMEOUT_ENV, "1.5")
        assert tcp_mod.resolve_stall_timeout() == 1.5

    @pytest.mark.parametrize("bad", ["abc", "", "-3", "0", "nan"])
    def test_bad_values_rejected_with_one_liner(self, monkeypatch, bad):
        from repro.errors import ValidationError

        monkeypatch.setenv(tcp_mod.STALL_TIMEOUT_ENV, bad)
        with pytest.raises(ValidationError, match="REPRO_POOL_STALL_TIMEOUT"):
            tcp_mod.resolve_stall_timeout()

    def test_env_applies_to_mesh_transport(self, monkeypatch):
        # Regression: the 300 s stall deadline was hardcoded; a stuck
        # exchange must now trip at the configured timeout instead.
        monkeypatch.setenv(tcp_mod.STALL_TIMEOUT_ENV, "0.2")
        transport, theirs = _loop_transport((0,), {0: 0, 1: 1})
        sock = transport._peers[1].sock
        try:
            copies = [CopySpec(0, PAIR, 0, 4, 1, LOCAL, 0, 4)]
            with pytest.raises(PoolError, match="stalled"):
                transport.exchange(0, copies)
        finally:
            sock.close()
            theirs.close()
            transport.close()


class TestBlobCollective:
    def test_allgather_blob_round_trip(self):
        transport, theirs = _loop_transport((0,), {0: 0, 1: 1})
        sock = transport._peers[1].sock
        try:
            peer_payload = b"peer-partial-norm"
            header = tcp_mod._FRAME.pack(
                tcp_mod._KIND_BLOB, 0, 1, 0, len(peer_payload)
            )
            theirs.sendall(header + peer_payload)
            out = transport.allgather_blob(0, b"own-partial-norms")
            assert out == [b"own-partial-norms", peer_payload]
            # Our frame reached the peer, seq-tagged with our wid.
            theirs.settimeout(5)
            raw = b""
            while len(raw) < tcp_mod._FRAME.size:
                raw += theirs.recv(4096)
            kind, xid, seq, _off, length = tcp_mod._FRAME.unpack(
                raw[: tcp_mod._FRAME.size]
            )
            assert (kind, xid, seq) == (tcp_mod._KIND_BLOB, 0, 0)
            body = raw[tcp_mod._FRAME.size :]
            while len(body) < length:
                body += theirs.recv(4096)
            assert body == b"own-partial-norms"
        finally:
            sock.close()
            theirs.close()
            transport.close()

    def test_blob_with_forged_sender_rejected(self):
        # seq carries the sender's worker id; it must match the
        # authenticated connection the frame arrived on.
        transport, theirs = _loop_transport((0,), {0: 0, 1: 1})
        sock = transport._peers[1].sock
        try:
            header = tcp_mod._FRAME.pack(tcp_mod._KIND_BLOB, 0, 2, 0, 4)
            theirs.sendall(header + b"evil")
            with pytest.raises(PoolError, match="claims sender 2"):
                transport.allgather_blob(0, b"mine")
        finally:
            sock.close()
            theirs.close()
            transport.close()

    def test_early_blob_is_stashed_for_its_collective(self):
        # A fast peer's blob for collective 1 can land while this
        # worker is still draining collective 0.
        transport, theirs = _loop_transport((0,), {0: 0, 1: 1})
        sock = transport._peers[1].sock
        try:
            for xid, payload in ((1, b"late"), (0, b"soon")):
                header = tcp_mod._FRAME.pack(
                    tcp_mod._KIND_BLOB, xid, 1, 0, len(payload)
                )
                theirs.sendall(header + payload)
            assert transport.allgather_blob(0, b"mine")[1] == b"soon"
            assert transport.allgather_blob(1, b"ours")[1] == b"late"
        finally:
            sock.close()
            theirs.close()
            transport.close()

    def test_oversized_blob_rejected_from_its_header(self, monkeypatch):
        # The header alone condemns the frame: no payload is ever sent,
        # so a transport waiting to buffer it would stall instead.
        from repro.parallel.transport import BLOB_SLOT_BYTES

        monkeypatch.setenv(tcp_mod.STALL_TIMEOUT_ENV, "2")
        transport, theirs = _loop_transport((0,), {0: 0, 1: 1})
        sock = transport._peers[1].sock
        try:
            header = tcp_mod._FRAME.pack(
                tcp_mod._KIND_BLOB, 0, 1, 0, BLOB_SLOT_BYTES + 1
            )
            theirs.sendall(header)
            with pytest.raises(PoolError, match="exceeds the 4096 B blob slot"):
                transport.allgather_blob(0, b"mine")
        finally:
            sock.close()
            theirs.close()
            transport.close()

    def test_blob_length_must_match_own_payload(self):
        transport, theirs = _loop_transport((0,), {0: 0, 1: 1})
        sock = transport._peers[1].sock
        try:
            header = tcp_mod._FRAME.pack(tcp_mod._KIND_BLOB, 0, 1, 0, 5)
            theirs.sendall(header + b"12345")
            with pytest.raises(PoolError, match="own is 4 B"):
                transport.allgather_blob(0, b"mine")
        finally:
            sock.close()
            theirs.close()
            transport.close()

    def test_pickled_measure_blob_is_never_unpickled(self):
        # A pickle padded to the measure blob's exact width still loads
        # (pickle ignores trailing bytes), so only a decoder that never
        # unpickles keeps the tripwire silent.
        from repro.circuits import Circuit
        from repro.parallel import stepper
        from repro.statevector.apply_plan import compile_plan

        del _TRIPWIRE_CALLS[:]
        # The wire width: two partial norms of 2098 + 26 + 1 bits each,
        # 266 B apiece.
        width = 532
        evil = pickle.dumps(_Tripwire(), protocol=pickle.HIGHEST_PROTOCOL)
        assert not _TRIPWIRE_CALLS and len(evil) < width
        evil = evil.ljust(width, b"\0")
        task = stepper.PlanTask(
            partition=Partition(3, 2),
            halved_swaps=False,
            plan=compile_plan(Circuit(3).measure(2), local_qubits=2),
        )
        transport, theirs = _loop_transport((0,), {0: 0, 1: 1})
        sock = transport._peers[1].sock
        try:
            header = tcp_mod._FRAME.pack(tcp_mod._KIND_BLOB, 0, 1, 0, width)
            theirs.sendall(header + evil)
            with pytest.raises(PoolError, match="measure blob"):
                stepper.execute_plan(
                    transport, transport.store, task, worker_id=0, num_workers=2
                )
            assert _TRIPWIRE_CALLS == []
        finally:
            sock.close()
            theirs.close()
            transport.close()


#: Calls of :func:`_tripwire_fired` -- one per unpickled ``_Tripwire``.
_TRIPWIRE_CALLS: list[str] = []


def _tripwire_fired():
    _TRIPWIRE_CALLS.append("unpickled")


class _Tripwire:
    """Unpickling this object calls :func:`_tripwire_fired`."""

    def __reduce__(self):
        return (_tripwire_fired, ())


# -- out-of-band control frames ------------------------------------------------

#: A small frame bound for the fuzz: at most 16 out-of-band buffers.
_FUZZ_MAX = 1 << 20


class _Capture:
    """Socket stand-in recording what ``_send_msg`` writes; each
    ``sendmsg`` call takes at most ``limit`` bytes (a short send)."""

    def __init__(self, limit=None):
        self.data = bytearray()
        self.limit = limit

    def sendmsg(self, parts):
        taken = b"".join(parts)[: self.limit]
        self.data += taken
        return len(taken)


def _frame_of(message, limit=None) -> bytes:
    sink = _Capture(limit)
    assert tcp_mod._send_msg(sink, message) == len(sink.data)
    return bytes(sink.data)


@contextlib.contextmanager
def _recorded_reads():
    """Every byte count ``_recv_frame`` asks to read, in order."""
    reads: list[int] = []
    real = tcp_mod._recv_into

    def recording(sock, view, at_boundary=False):
        reads.append(len(view))
        return real(sock, view, at_boundary)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tcp_mod, "_recv_into", recording)
        yield reads


def _receive(raw: bytes, max_bytes: int = tcp_mod._MSG_MAX_BYTES):
    """``_recv_frame`` over a socketpair whose peer sends ``raw`` and
    closes; a read waiting for bytes never sent fails, it cannot hang."""
    ours, theirs = socket.socketpair()
    try:
        ours.settimeout(5)
        theirs.sendall(raw)
        theirs.shutdown(socket.SHUT_WR)
        return tcp_mod._recv_frame(ours, max_bytes)
    finally:
        ours.close()
        theirs.close()


def _ckpt(amps: int, ranks=(0, 3)):
    rng = np.random.default_rng(amps)
    part = {
        r: rng.standard_normal(amps) + 1j * rng.standard_normal(amps)
        for r in ranks
    }
    return ("ckpt", 7, part)


@functools.cache
def _two_buffer_frame() -> bytes:
    return _frame_of(_ckpt(1 << 12))


class TestOutOfBandFrames:
    @pytest.mark.parametrize("amps", [1 << 12, 1 << 16, 1 << 20])
    def test_ckpt_round_trip_is_bitwise_and_writable(self, amps):
        message = _ckpt(amps)
        ours, theirs = socket.socketpair()
        sender = threading.Thread(target=tcp_mod._send_msg, args=(theirs, message))
        try:
            sender.start()
            with _recorded_reads() as reads:
                got, size = tcp_mod._recv_frame(ours)
            sender.join(timeout=30)
        finally:
            ours.close()
            theirs.close()
        assert got[:2] == ("ckpt", 7) and set(got[2]) == {0, 3}
        for rank, sent in message[2].items():
            assert got[2][rank].tobytes() == sent.tobytes()
            assert got[2][rank].flags.writeable
            assert got[2][rank].flags.aligned
        # Header reads, then the pickle: two out-of-band buffers, and a
        # pickle part that does not grow with the slices.
        length, count, table = reads[:3]
        assert (length, count, table) == (8, 4, 16)
        assert reads[3] < 1024
        assert reads[4:] == [amps * 16] * 2
        assert size == sum(reads)

    def test_short_sends_write_the_same_frame(self):
        message = _ckpt(1 << 12)
        full = _frame_of(message)
        assert _frame_of(message, limit=1000) == full
        got, size = _receive(full)
        assert size == len(full)
        assert got[2][3].tobytes() == message[2][3].tobytes()

    def test_buffers_after_an_odd_length_one_stay_aligned(self):
        odd = np.arange(16385, dtype=np.float32)  # 65540 B: not 8-aligned
        amps = np.arange(4096, dtype=np.complex128)
        got, _ = _receive(_frame_of(("ok", odd, amps)))
        assert got[1].tobytes() == odd.tobytes()
        assert got[2].tobytes() == amps.tobytes() and got[2].flags.aligned

    def test_small_buffers_stay_in_band(self):
        # A plan's gate matrices are small: out of band they would cost
        # a buffer each, in band they cost nothing extra.
        frame = _frame_of(("plan", np.eye(4, dtype=np.complex128)))
        (count,) = tcp_mod._MSG_COUNT.unpack_from(frame, tcp_mod._MSG_LEN.size)
        assert count == 0
        got, _ = _receive(frame)
        assert np.array_equal(got[1], np.eye(4)) and got[1].flags.writeable

    @given(
        length=st.one_of(
            st.integers(1, 2 * _FUZZ_MAX), st.integers(1, (1 << 64) - 1)
        ),
        count=st.one_of(st.integers(0, 20), st.integers(0, (1 << 32) - 1)),
        sizes=st.lists(
            st.one_of(
                st.integers(0, _FUZZ_MAX), st.integers(0, (1 << 64) - 1)
            ),
            max_size=16,
        ),
    )
    @hsettings(max_examples=200, deadline=None)
    def test_header_fuzz_raises_before_allocating(self, length, count, sizes):
        table = sizes[:count]
        raw = (
            tcp_mod._MSG_LEN.pack(length)
            + tcp_mod._MSG_COUNT.pack(count)
            + struct.pack(f"!{len(table)}Q", *table)
        )
        with _recorded_reads() as reads, pytest.raises(PoolError):
            _receive(raw, _FUZZ_MAX)
        # Only the header is read while any announced length is past
        # the bound, and no read is ever larger than the bound.
        if length > _FUZZ_MAX:
            assert reads == [8]
        elif count > _FUZZ_MAX // tcp_mod._OOB_MIN_BYTES:
            assert reads == [8, 4]
        elif len(table) == count and length + sum(table) > _FUZZ_MAX:
            assert reads == [8, 4, 8 * count]
        assert max(reads) <= _FUZZ_MAX

    def test_truncation_at_every_boundary_is_a_pool_error(self):
        raw = _two_buffer_frame()
        _, count = struct.unpack_from("!QI", raw)
        with _recorded_reads() as reads:
            _receive(raw)
        boundaries = set(itertools.accumulate(reads))
        cuts = {b + d for b in boundaries | {1} for d in (-1, 0, 1)}
        cuts = sorted(c for c in cuts if 0 < c < len(raw))
        assert count == 2 and len(cuts) > 15
        for cut in cuts:
            with pytest.raises(PoolError, match="peer closed"):
                _receive(raw[:cut])
        # Nothing at all is a clean close between frames, not a cut.
        with pytest.raises(EOFError) as clean:
            _receive(b"")
        assert not isinstance(clean.value, PoolError)

    @given(data=st.data())
    @hsettings(max_examples=50, deadline=None)
    def test_truncation_anywhere_is_a_pool_error(self, data):
        raw = _two_buffer_frame()
        cut = data.draw(st.integers(1, len(raw) - 1))
        with pytest.raises(PoolError, match="peer closed"):
            _receive(raw[:cut])

    def test_registration_with_out_of_band_buffer_is_malformed(self, monkeypatch):
        # The pre-auth frame is bounded below the out-of-band floor, so
        # a frame announcing any buffer is refused from its header --
        # however small that buffer is.
        register = ("register", 0, "not-the-token", ("127.0.0.1", 1))
        frames = [
            _frame_of(register + (np.zeros(1 << 12, dtype=np.complex128),)),
            tcp_mod._MSG_LEN.pack(1)
            + tcp_mod._MSG_COUNT.pack(1)
            + struct.pack("!Q", 0)
            + b".",
        ]
        context = _GarbageFirst(tcp_mod.start_context(), frames)
        monkeypatch.setattr(tcp_mod, "start_context", lambda: context)
        rejected = obs.counter(
            "repro_pool_rejected_connections_total", reason="malformed"
        )
        before = rejected.value
        pool = TcpPool(LOOPBACK2)
        try:
            assert len(pool.probe(1)) == 1
        finally:
            pool.close()
            for client in context.clients:
                client.close()
        assert rejected.value - before == 2


class TestPlanDispatch:
    def test_task_is_pickled_once_per_dispatch(self, monkeypatch):
        from repro.parallel.stepper import PlanTask

        pickled = []

        def counting(task, protocol):
            pickled.append(protocol)
            return object.__reduce_ex__(task, protocol)

        circuit = qft_circuit(8)
        expected = _serial(8, 8, circuit)
        monkeypatch.setattr(PlanTask, "__reduce_ex__", counting)
        got = _tcp(8, 8, circuit, hosts=LOOPBACK3)
        assert len(pickled) == 1
        assert np.array_equal(got, expected)

    def test_shared_object_keeps_the_buffer_rules(self):
        big = np.arange(1 << 13, dtype=np.complex128)  # 128 KiB
        small = np.eye(4, dtype=np.complex128)
        shared = tcp_mod._Pickled({"big": big, "small": small})
        frame = _frame_of(("plan", shared, {0: None}))
        (count,) = tcp_mod._MSG_COUNT.unpack_from(frame, tcp_mod._MSG_LEN.size)
        assert count == 1  # only the large buffer leaves the pickle
        got, size = _receive(frame)
        assert size == len(frame) and got[2] == {0: None}
        for name, sent in (("big", big), ("small", small)):
            assert got[1][name].tobytes() == sent.tobytes()
            assert got[1][name].flags.writeable


class TestControlChannelMetrics:
    def test_traced_run_counts_ctrl_bytes_and_checkpoint_time(self, monkeypatch):
        monkeypatch.setenv(tcp_mod.CHECKPOINT_STEPS_ENV, "2")
        circuit = qft_circuit(10)
        ctrl = obs.counter(
            "repro_transport_bytes_total", transport="tcp", direction="ctrl"
        )
        seconds = obs.histogram("repro_pool_checkpoint_seconds")
        streams = obs.counter("repro_pool_checkpoint_streams_total")
        was_enabled = obs.is_enabled()
        obs.enable()
        try:
            before = (ctrl.value, seconds.count, streams.value)
            traced = _tcp(10, 8, circuit)
            after = (ctrl.value, seconds.count, streams.value)
        finally:
            if not was_enabled:
                obs.disable()
        # The finals alone are the whole 16 KiB state.
        assert after[0] - before[0] >= 16 << 10
        assert after[2] - before[2] >= 2  # merged from both workers
        assert after[1] - before[1] == after[2] - before[2]
        if not was_enabled:
            # Untraced, neither side measures the control channel.
            assert np.array_equal(_tcp(10, 8, circuit), traced)
            assert (ctrl.value, seconds.count) == after[:2]


class TestJoinCommand:
    """``python -m repro.parallel.tcp`` in a fresh process."""

    def test_unreachable_coordinator_is_one_line_in_one_module_copy(
        self, tmp_path
    ):
        # A ``sitecustomize`` hook counts, at exit, the ``TcpPool``
        # classes alive: a second execution of tcp.py would add one.
        (tmp_path / "sitecustomize.py").write_text(
            "import atexit, gc\n"
            "def _count():\n"
            "    n = sum(isinstance(o, type) and o.__name__ == 'TcpPool'\n"
            "            for o in gc.get_objects())\n"
            f"    open({str(tmp_path / 'copies')!r}, 'w').write(str(n))\n"
            "atexit.register(_count)\n"
        )
        src = Path(tcp_mod.__file__).resolve().parents[2]
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(tmp_path), str(src)]),
            # Validating a host list imports repro.parallel.tcp.
            "REPRO_POOL_HOSTS": "127.0.0.1:0",
        }
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.parallel.tcp",
                "--connect", "127.0.0.1:1", "--worker-id", "0", "--token", "t",
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
            timeout=60,
        )
        lines = proc.stderr.splitlines()
        assert proc.returncode == 1, proc.stderr
        assert len(lines) == 1 and lines[0].startswith(
            "error: coordinator 127.0.0.1:1: "
        ), lines
        assert (tmp_path / "copies").read_text() == "1"
