"""Multi-host rank transport: a length-prefixed TCP worker mesh.

The shared-memory pool confines ``WorkerPool`` to one host.  This
module lets the same SPMD plan replay span hosts:

* a **coordinator** (the parent process) listens on a control socket
  (``REPRO_POOL_BIND``, default loopback/ephemeral) and dispatches
  plans, collects events/checkpoints/results;
* each **worker** owns its rank slices privately, connects to the
  coordinator, and builds a full mesh of worker-to-worker TCP
  connections over which distributed steps move amplitude regions as
  chunked, length-prefixed binary frames.

Workers on loopback entries (``127.0.0.1`` / ``localhost`` / ``local``)
are started by the coordinator itself, from the forkserver context the
shared-memory pool uses (:func:`repro.parallel.pool.start_context`) --
the single-host mode tests and CI exercise.  Remote entries are *waited
for*: start them on the other host with::

    python -m repro.parallel.tcp --connect COORD_HOST:PORT \
        --worker-id K --token TOKEN [--bind HOST[:PORT]]

Fault tolerance: workers stream their owned slices to the coordinator
every ``checkpoint_steps`` plan steps.  The task's own cadence wins;
otherwise ``REPRO_POOL_CHECKPOINT_STEPS`` sets it (``0`` disables
streaming), and when that is unset plans of 8 or more steps stream four
checkpoints (cadence ``len(steps) // 4``).  When a worker dies
mid-run the coordinator tears the pool down, respawns it, and
re-dispatches from the last *complete* checkpoint (falling back to the
original input state) instead of aborting -- up to
:data:`MAX_RESTARTS` times.

Wire formats (all integers big-endian):

* control channel: ``u64 pickle_len, u32 count`` and ``count`` times
  ``u64 buffer_len``, then a protocol-5 pickled tuple and its
  ``count`` out-of-band buffers as raw bytes (rank slices and other
  buffers of at least 64 KiB; smaller ones stay in the pickle);
* mesh HELLO (once per connection): ``u32 worker_id, u32 token_len``
  + token bytes -- the same registration token the control channel
  checks, so only authenticated workers can join the mesh;
* mesh channel: ``u8 kind, u32 exchange, u32 seq, u64 offset,
  u64 length`` + payload.  Kind 1 is a data chunk (raw amplitude
  bytes), kind 2 an abort (no payload), kind 3 a scalar-collective
  blob: ``seq`` carries the sender's worker id, ``offset`` is 0 and
  the payload is the measure step's two partial norms as fixed-width
  unsigned integers (:func:`repro.parallel.stepper.encode_partials`).
  A blob longer than :data:`~repro.parallel.transport.BLOB_SLOT_BYTES`
  is refused from its header, and one whose length differs from the
  receiver's own payload on arrival.  ``exchange`` is a per-plan
  monotonic exchange counter -- NOT the plan step index: one step may
  perform several exchanges (a remap routes ``2**g - 1`` rounds), and
  tagging by step index alone would let a fast peer's next-round
  frames collide with the current round's.  Blob collectives claim a
  tag from the same counter, so measurement's norm reduction stays
  ordered with the amplitude exchanges around it.
"""

from __future__ import annotations

if __name__ == "__main__":
    # ``python -m repro.parallel.tcp`` runs this file as ``__main__``.
    # Hand over to the imported module before defining anything, so the
    # process holds one copy of the module state (its pools, atexit
    # hook and classes) however often ``repro.parallel.tcp`` is imported.
    import sys

    from repro.parallel.tcp import main

    sys.exit(main())

import atexit
import multiprocessing as mp
import os
import pickle
import secrets
import selectors
import signal
import socket
import struct
import sys
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from repro import obs, settings
from repro.core.runner import NUMERIC_QUBIT_LIMIT
from repro.errors import PoolError, ValidationError
from repro.parallel.pool import (
    _IN_WORKER_ENV,
    adopt_environment,
    in_worker,
    start_context,
)
from repro.parallel.transport import (
    BLOB_SLOT_BYTES,
    LOCAL,
    PAIR,
    CopySpec,
    DictStore,
    RankTransport,
)

__all__ = [
    "POOL_HOSTS_ENV",
    "POOL_BIND_ENV",
    "POOL_TOKEN_ENV",
    "CHUNK_AMPS_ENV",
    "CHECKPOINT_STEPS_ENV",
    "STALL_TIMEOUT_ENV",
    "resolve_stall_timeout",
    "MAX_RESTARTS",
    "HostSpec",
    "parse_hosts",
    "TcpMeshTransport",
    "TcpPool",
    "get_tcp_pool",
    "shutdown_tcp_pools",
]

#: The TCP pool's environment knobs; :mod:`repro.settings` declares
#: each with its parser, default and doc.
POOL_HOSTS_ENV = settings.POOL_HOSTS.name
POOL_BIND_ENV = settings.POOL_BIND.name
POOL_TOKEN_ENV = settings.POOL_TOKEN.name
CHUNK_AMPS_ENV = settings.POOL_CHUNK_AMPS.name
CHECKPOINT_STEPS_ENV = settings.POOL_CHECKPOINT_STEPS.name
STALL_TIMEOUT_ENV = settings.POOL_STALL_TIMEOUT.name

#: Worker-loss restarts per ``run_plan`` before giving up.
MAX_RESTARTS = 3

#: Default exchange chunk: 2**15 amplitudes = 512 KiB per frame, small
#: enough that a 4 MiB slice exchange pipelines ~8 update chunks behind
#: the wire, large enough that header overhead stays <0.01%.
DEFAULT_CHUNK_AMPS = int(settings.POOL_CHUNK_AMPS.default)

_AMP_BYTES = 16  # complex128

_HELLO = struct.Struct("!II")  # worker_id, token_len (token bytes follow)
_MSG_LEN = struct.Struct("!Q")  # control frame: pickle length
_MSG_COUNT = struct.Struct("!I")  # then out-of-band buffer count
_FRAME = struct.Struct("!BIIQQ")  # kind, exchange, seq, offset, length
_KIND_DATA = 1
_KIND_ABORT = 2
_KIND_BLOB = 3

#: Upper bound on a HELLO token length (rejects garbage connections
#: before they can make us read an attacker-chosen byte count).
_TOKEN_MAX_BYTES = 1024

#: Upper bound on a control frame: the largest rank slice, a whole
#: ``NUMERIC_QUBIT_LIMIT``-qubit state owned by one worker, plus an
#: allowance for the pickled plan and message envelope.
_MSG_MAX_BYTES = (_AMP_BYTES << NUMERIC_QUBIT_LIMIT) + (64 << 20)

#: Upper bound on the registration frame, the one frame read before
#: the sender is authenticated (``("register", id, token, address)``).
#: It is below :data:`_OOB_MIN_BYTES`, so the frame may announce no
#: out-of-band buffer.
_REGISTER_MAX_BYTES = 4 * _TOKEN_MAX_BYTES

#: Smallest buffer a control frame sends out of band; smaller ones stay
#: in the pickle stream.  A frame bounded by ``max_bytes`` thus carries
#: at most ``max_bytes // _OOB_MIN_BYTES`` buffers, which bounds the
#: length table read before any buffer is allocated.
_OOB_MIN_BYTES = 64 << 10

#: Parts per ``sendmsg`` call (Linux ``IOV_MAX``).
_IOV_MAX = 1024

_CONNECT_TIMEOUT_S = 30.0
_DRAIN_TIMEOUT_S = 5.0

#: An exchange pump with pending receives that sees *zero* socket
#: events for this long raises instead of blocking forever.  TCP
#: keepalive (see :func:`_tune_socket`) detects vanished hosts in
#: ~60 s; this is the backstop for stalls keepalive cannot see.
#: Overridable per run via ``REPRO_POOL_STALL_TIMEOUT`` (seconds); see
#: :func:`resolve_stall_timeout`.
_MESH_STALL_TIMEOUT_S = 300.0

_LOOPBACK_NAMES = frozenset({"127.0.0.1", "localhost", "::1", "local", ""})


# -- host specs ---------------------------------------------------------------


@dataclass(frozen=True)
class HostSpec:
    """One worker entry: where it runs and where its mesh listener binds."""

    host: str
    port: int = 0

    @property
    def is_local(self) -> bool:
        """True for entries the coordinator spawns itself."""
        return self.host.lower() in _LOOPBACK_NAMES

    @property
    def bind_host(self) -> str:
        return "127.0.0.1" if self.is_local else self.host

    def label(self) -> str:
        return f"{self.host or '127.0.0.1'}:{self.port}"


def parse_hosts(spec) -> tuple[HostSpec, ...]:
    """Parse ``"host[:port],host[:port],..."`` (or a sequence) to specs.

    Port 0 (the default) binds the worker's mesh listener to an
    ephemeral port -- the only sensible choice for spawned loopback
    workers.  Remote entries usually pin a port so firewalls can admit
    the mesh.
    """
    if isinstance(spec, HostSpec):
        return (spec,)
    if isinstance(spec, (tuple, list)):
        entries = list(spec)
    else:
        entries = [e for e in str(spec).split(",") if e.strip()]
    if not entries:
        raise ValidationError(f"empty host list {spec!r}")
    out = []
    for entry in entries:
        if isinstance(entry, HostSpec):
            out.append(entry)
            continue
        out.append(HostSpec(*settings.POOL_BIND.parse(str(entry), "host entry")))
    return tuple(out)


# -- control-channel framing ---------------------------------------------------


class _FrameCut(PoolError, EOFError):
    """The peer closed its connection partway through a frame: a
    malformed frame, and a lost connection to every caller that
    handles ``EOFError``."""


def _recv_exact(
    sock: socket.socket, count: int, at_boundary: bool = False
) -> bytearray:
    """``count`` bytes; see :func:`_recv_into`."""
    buf = bytearray(count)
    _recv_into(sock, memoryview(buf), at_boundary)
    return buf


def _recv_into(
    sock: socket.socket, view: memoryview, at_boundary: bool = False
) -> None:
    """Fill ``view``.  End of stream raises :class:`_FrameCut`, or a
    plain ``EOFError`` when it comes before the first byte of a read
    ``at_boundary`` (the peer closed between frames)."""
    count = len(view)
    got = 0
    while got < count:
        n = sock.recv_into(view[got:])
        if not n:
            if got or not at_boundary:
                raise _FrameCut(
                    f"peer closed the connection {got} bytes into a "
                    f"{count}-byte read"
                )
            raise EOFError("peer closed the connection")
        got += n


def _send_msg(sock: socket.socket, message) -> int:
    """Send one control frame; returns its size in bytes.

    Buffers of at least :data:`_OOB_MIN_BYTES` (rank slices, large
    matrices) leave the pickle stream as protocol-5 out-of-band
    buffers and go to the socket straight from their arrays.
    """
    buffers: list[memoryview] = []

    def out_of_band(buf: pickle.PickleBuffer) -> bool:
        raw = buf.raw()
        if raw.nbytes < _OOB_MIN_BYTES:
            return True  # a true return keeps the buffer in-band
        buffers.append(raw)
        return False

    data = pickle.dumps(message, protocol=5, buffer_callback=out_of_band)
    sizes = [buf.nbytes for buf in buffers]
    # ``_MSG_LEN``, ``_MSG_COUNT``, then one ``!Q`` length per buffer.
    header = struct.pack(f"!QI{len(sizes)}Q", len(data), len(sizes), *sizes)
    parts = [memoryview(part) for part in (header, data, *buffers)]
    first = 0
    while first < len(parts):
        sent = sock.sendmsg(parts[first : first + _IOV_MAX])
        while sent:  # skip what went out; a part cut short resumes
            if sent < len(parts[first]):
                parts[first] = parts[first][sent:]
                break
            sent -= len(parts[first])
            first += 1
    return len(header) + len(data) + sum(sizes)


def _recv_frame(sock: socket.socket, max_bytes: int = _MSG_MAX_BYTES):
    """One control frame: ``(message, size in bytes)``.

    The pickle length, the buffer count and the sum of all lengths are
    checked against ``max_bytes`` before anything else is allocated or
    read.  The buffers are then received into one ``bytearray``, each
    at a 16-byte aligned offset (malloc's alignment, at least any numpy
    dtype's), so the arrays unpickled from them are writable and
    aligned.  One allocation per frame, not one per buffer: glibc sets
    its mmap threshold from the blocks freed, and a block per slice
    left later large allocations in the coordinator paying page faults
    (qaoa16-sample's shm and TCP legs ran about 25% slower).
    """
    head = _recv_exact(sock, _MSG_LEN.size, at_boundary=True)
    (length,) = _MSG_LEN.unpack(head)
    if length > max_bytes:
        raise PoolError(
            f"control frame of {length} bytes exceeds the {max_bytes}-byte bound"
        )
    (count,) = _MSG_COUNT.unpack(_recv_exact(sock, _MSG_COUNT.size))
    if count > max_bytes // _OOB_MIN_BYTES:
        raise PoolError(
            f"control frame announces {count} out-of-band buffers; a "
            f"{max_bytes}-byte frame carries at most "
            f"{max_bytes // _OOB_MIN_BYTES}"
        )
    sizes = struct.unpack(f"!{count}Q", _recv_exact(sock, 8 * count))
    total = length + sum(sizes)
    if total > max_bytes:
        raise PoolError(
            f"control frame of {total} bytes exceeds the {max_bytes}-byte bound"
        )
    data = _recv_exact(sock, length)
    offsets = [0]
    for size in sizes:
        offsets.append(offsets[-1] + -(-size // 16) * 16)
    payload = memoryview(bytearray(offsets[-1]))
    buffers = [payload[lo : lo + size] for lo, size in zip(offsets, sizes)]
    for buf in buffers:
        _recv_into(sock, buf)
    size = _MSG_LEN.size + _MSG_COUNT.size + 8 * count + total
    return pickle.loads(data, buffers=buffers), size


def _recv_msg(sock: socket.socket, max_bytes: int = _MSG_MAX_BYTES):
    """One control frame, unpickled; see :func:`_recv_frame`."""
    return _recv_frame(sock, max_bytes)[0]


def _tune_socket(sock: socket.socket) -> None:
    # Frames are small relative to kernel buffers; Nagle would add
    # 40 ms stalls to every barrier-free small exchange.
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    # A host that vanishes without RST/FIN (power loss, partition)
    # otherwise leaves peers blocked in the pump forever: keepalive
    # kills the connection after ~30s idle + 3 probes at 10s, turning
    # the silent partition into a ConnectionError the pump surfaces.
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    for opt, value in (
        ("TCP_KEEPIDLE", 30),
        ("TCP_KEEPINTVL", 10),
        ("TCP_KEEPCNT", 3),
    ):
        if hasattr(socket, opt):  # Linux; other platforms keep defaults
            sock.setsockopt(socket.IPPROTO_TCP, getattr(socket, opt), value)


# -- the mesh transport --------------------------------------------------------


class _Peer:
    """One mesh connection's buffered state (both directions)."""

    __slots__ = ("wid", "sock", "rx", "stash", "tx")

    def __init__(self, wid: int, sock: socket.socket):
        self.wid = wid
        self.sock = sock
        self.rx = bytearray()
        #: Parsed ``(kind, exchange, seq, offset, payload)`` frames not
        #: yet expected (the peer ran ahead), data and blob alike.
        self.stash: list[tuple[int, int, int, int, bytes]] = []
        self.tx: list[memoryview] = []


class TcpMeshTransport(RankTransport):
    """Chunked duplex exchanges over the worker mesh.

    Every worker enumerates the same global copy list (SPMD determinism)
    and keeps its share: copies whose destination rank it owns become
    receives, copies whose *source* rank it owns become sends, and
    copies it owns both ends of are direct in-memory moves.  Sends are
    packed into a per-rank scratch buffer first (double-buffering: the
    ``on_ready`` updates may overwrite the live slice while its bytes
    are still queued), then a select-driven pump drains all directions
    simultaneously -- no send ever waits behind a blocked receive, so
    symmetric full-buffer exchanges cannot deadlock.

    Frames are tagged with a per-transport monotonic **exchange
    counter**, incremented on every ``exchange`` call on every worker
    (even workers with nothing to move) -- the SPMD enumeration keeps
    the counters in lockstep, so the tag is globally unique within a
    plan.  The plan step index would NOT be: a remap step exchanges
    ``2**g - 1`` times under one step index, and with >= 3 workers a
    fast peer's next-round frames can arrive mid-round.  Frames from a
    *future* exchange are stashed per channel and consumed by the
    ``exchange`` call they belong to; delivery additionally checks the
    frame arrived from the peer that owns the copy's source rank.
    """

    direct_gather = False

    def __init__(
        self,
        peers: dict[int, _Peer],
        worker_of: dict[int, int],
        worker_id: int,
        store: DictStore,
        owned: tuple[int, ...],
        slice_len: int,
        chunk_amps: int | None = None,
    ):
        self._peers = peers
        self._worker_of = worker_of
        self._worker_id = worker_id
        self.store = store
        self._owned = frozenset(owned)
        self._slice_len = slice_len
        self.chunk_amps = chunk_amps or settings.get(settings.POOL_CHUNK_AMPS)
        #: Per-owned-rank send scratch (the "double buffer"): packed
        #: lazily on the first exchange that sends from that rank.
        self._scratch: dict[int, np.ndarray] = {}
        #: Monotonic exchange tag; see the class docstring.
        self._next_exchange = 0
        self._stall_timeout = resolve_stall_timeout()
        self._sel = selectors.DefaultSelector()
        for wid, peer in peers.items():
            peer.sock.setblocking(False)
            self._sel.register(peer.sock, selectors.EVENT_READ, wid)

    # -- scratch ---------------------------------------------------------------

    def _scratch_for(self, rank: int) -> np.ndarray:
        buf = self._scratch.get(rank)
        if buf is None:
            buf = np.empty(self._slice_len, dtype=np.complex128)
            self._scratch[rank] = buf
        return buf

    # -- the exchange ----------------------------------------------------------

    def exchange(
        self,
        step_index: int,
        copies: list[CopySpec],
        on_ready=None,
    ) -> None:
        t0 = time.perf_counter() if obs.is_enabled() else None
        # Claim this exchange's tag unconditionally -- even when this
        # worker has nothing to send or receive -- so every worker's
        # counter advances in lockstep with the SPMD enumeration.
        xid = self._next_exchange
        self._next_exchange += 1
        sends: list[tuple[int, int, memoryview]] = []  # (peer_wid, seq, bytes)
        recvs: dict[tuple[int, int, int], _Recv] = {}
        direct: list[CopySpec] = []
        packed: set[int] = set()
        tx_bytes = 0
        for seq, c in enumerate(copies):
            dst_mine = c.dst_rank in self._owned
            src_mine = c.src_rank in self._owned
            if dst_mine and src_mine:
                direct.append(c)
                continue
            if src_mine:
                # Pack the outgoing region into scratch *now*: the live
                # buffer may be mutated by on_ready updates before the
                # pump finishes writing these bytes out.
                if c.src_rank in packed:
                    # Scratch is per source rank; a second send from the
                    # same rank would overwrite bytes still queued.
                    raise PoolError(
                        f"exchange {xid} sends twice from rank "
                        f"{c.src_rank}: one scratch buffer per source "
                        "rank per exchange"
                    )
                packed.add(c.src_rank)
                scratch = self._scratch_for(c.src_rank)[: c.length]
                np.copyto(
                    scratch,
                    self.store.view(c.src_rank, c.src_kind)[c.src_lo : c.src_hi],
                )
                view = memoryview(scratch).cast("B")
                sends.append((self._worker_of[c.dst_rank], seq, view))
                tx_bytes += len(view)
            elif dst_mine:
                recvs[(_KIND_DATA, xid, seq)] = _Recv(self, c, on_ready)
        # Direct moves complete before any update mutates a source.
        for c in direct:
            dst = self.store.view(c.dst_rank, c.dst_kind)
            src = self.store.view(c.src_rank, c.src_kind)
            dst[c.dst_lo : c.dst_hi] = src[c.src_lo : c.src_hi]
        for c in direct:
            if on_ready is not None:
                on_ready(c, c.dst_lo, c.dst_hi)
        if sends or recvs:
            for wid, seq, payload in sends:
                self._queue_frames(self._peers[wid], xid, seq, payload)
            self._pump(xid, recvs)
            if obs.is_enabled():
                obs.counter(
                    "repro_transport_bytes_total",
                    transport="tcp",
                    direction="tx",
                ).inc(tx_bytes)
                obs.histogram("repro_transport_exchange_seconds").observe(
                    time.perf_counter() - t0
                )

    def _queue_frames(
        self, peer: _Peer, xid: int, seq: int, payload: memoryview
    ) -> None:
        chunk_bytes = self.chunk_amps * _AMP_BYTES
        offset = 0
        total = len(payload)
        while offset < total:
            part = payload[offset : offset + chunk_bytes]
            header = _FRAME.pack(_KIND_DATA, xid, seq, offset, len(part))
            peer.tx.append(memoryview(header))
            peer.tx.append(part)
            offset += len(part)

    def _pump(self, xid: int, recvs: dict) -> None:
        """Drain every queued send and fill ``recvs``, keyed by
        ``(kind, exchange, seq)`` (:class:`_Recv` or :class:`_BlobRecv`)."""
        # Replay stashed frames a fast peer delivered early.
        for peer in self._peers.values():
            if not peer.stash:
                continue
            pending, peer.stash = peer.stash, []
            for frame in pending:
                self._deliver(peer, frame, recvs)
        rx_pending = sum(1 for r in recvs.values() if not r.complete)
        deadline = time.monotonic() + self._stall_timeout
        while rx_pending or any(p.tx for p in self._peers.values()):
            for peer in self._peers.values():
                events = selectors.EVENT_READ
                if peer.tx:
                    events |= selectors.EVENT_WRITE
                self._sel.modify(peer.sock, events, peer.wid)
            now = time.monotonic()
            ready = self._sel.select(timeout=min(1.0, max(0.0, deadline - now)))
            if not ready:
                if time.monotonic() >= deadline:
                    raise PoolError(
                        f"mesh exchange {xid} stalled: no socket activity "
                        f"for {self._stall_timeout:.0f}s with "
                        f"{rx_pending} receive(s) outstanding (peer hung "
                        "or network partitioned?)"
                    )
                continue
            deadline = time.monotonic() + self._stall_timeout
            for key, events in ready:
                peer = self._peers[key.data]
                if events & selectors.EVENT_WRITE:
                    self._drain_tx(peer)
                if events & selectors.EVENT_READ:
                    rx_pending -= self._drain_rx(peer, recvs)

    def allgather_blob(self, tag: int, payload: bytes) -> list[bytes]:
        """Mesh allgather of one small byte string per worker.

        Claims a tag from the same monotonic exchange counter as the
        amplitude exchanges (every worker reaches the collective at the
        same point of the SPMD enumeration), sends the payload to every
        peer as a single ``_KIND_BLOB`` frame whose ``seq`` field
        carries the sender's worker id, and pumps the mesh until every
        peer's blob for this tag has arrived.  Every worker's payload
        has the same length, so a blob of any other length is refused.
        """
        xid = self._next_exchange
        self._next_exchange += 1
        own = bytes(payload)
        header = _FRAME.pack(_KIND_BLOB, xid, self._worker_id, 0, len(own))
        frame = memoryview(header + own)
        for peer in self._peers.values():
            peer.tx.append(frame)
        recvs = {
            (_KIND_BLOB, xid, wid): _BlobRecv(wid, len(own))
            for wid in self._peers
        }
        self._pump(xid, recvs)
        out = {key[2]: recv.payload for key, recv in recvs.items()}
        out[self._worker_id] = own
        return [out[wid] for wid in sorted(out)]

    def _drain_tx(self, peer: _Peer) -> None:
        while peer.tx:
            try:
                sent = peer.sock.send(peer.tx[0])
            except BlockingIOError:
                return
            except (BrokenPipeError, ConnectionError, OSError) as exc:
                raise PoolError(
                    f"mesh peer disconnected during send: {exc}"
                ) from None
            if sent == len(peer.tx[0]):
                peer.tx.pop(0)
            else:
                peer.tx[0] = peer.tx[0][sent:]
                return

    def _drain_rx(self, peer: _Peer, recvs) -> int:
        """Read available bytes, deliver complete frames; returns #completed."""
        try:
            data = peer.sock.recv(1 << 20)
        except BlockingIOError:
            return 0
        except (ConnectionError, OSError) as exc:
            raise PoolError(
                f"mesh peer disconnected during receive: {exc}"
            ) from None
        if not data:
            raise PoolError(
                "mesh peer closed its connection mid-exchange (worker died?)"
            )
        peer.rx.extend(data)
        completed = 0
        while True:
            if len(peer.rx) < _FRAME.size:
                return completed
            kind, xid, seq, offset, length = _FRAME.unpack_from(peer.rx)
            if kind == _KIND_ABORT:
                raise PoolError("mesh peer aborted the exchange")
            if kind == _KIND_BLOB:
                # Checked from the header, before the payload is read.
                # ``seq`` is the sender's worker id; the frame arrived
                # over that worker's authenticated mesh connection, so
                # a mismatch means a protocol bug (or an impersonation
                # attempt) -- refuse it either way.
                if length > BLOB_SLOT_BYTES:
                    raise PoolError(
                        f"mesh blob of {length} B for exchange {xid} "
                        f"exceeds the {BLOB_SLOT_BYTES} B blob slot"
                    )
                if seq != peer.wid:
                    raise PoolError(
                        f"mesh blob for exchange {xid} claims sender "
                        f"{seq} but arrived from worker {peer.wid}"
                    )
            end = _FRAME.size + length
            if len(peer.rx) < end:
                return completed
            payload = bytes(peer.rx[_FRAME.size : end])
            del peer.rx[:end]
            completed += self._deliver(
                peer, (kind, xid, seq, offset, payload), recvs
            )

    def _deliver(self, peer: _Peer, frame: tuple, recvs) -> int:
        kind, xid, seq, offset, payload = frame
        recv = recvs.get((kind, xid, seq))
        if recv is None or recv.complete:
            # A frame for an exchange this worker has not reached yet.
            peer.stash.append(frame)
            return 0
        if peer.wid != recv.src_wid:
            raise PoolError(
                f"mesh frame for exchange {xid} seq {seq} arrived from "
                f"worker {peer.wid}, but its source belongs to worker "
                f"{recv.src_wid}"
            )
        recv.accept(offset, payload)
        return 1 if recv.complete else 0

    def abort(self) -> None:
        """Best-effort abort frames so peers fail fast instead of hanging."""
        header = _FRAME.pack(_KIND_ABORT, 0, 0, 0, 0)
        for peer in self._peers.values():
            try:
                peer.sock.setblocking(True)
                peer.sock.sendall(header)
            except OSError as exc:
                obs.swallowed("tcp.abort_send", exc)

    def close(self) -> None:
        """Release the selector.  The mesh sockets outlive the transport:
        they belong to the worker loop and carry every subsequent plan."""
        self._sel.close()
        self._peers = {}


class _Recv:
    """One expected inbound region and its chunk-application state."""

    __slots__ = ("copy", "src_wid", "dst_mv", "received", "total", "on_ready")

    def __init__(self, transport: TcpMeshTransport, copy: CopySpec, on_ready):
        self.copy = copy
        self.src_wid = transport._worker_of[copy.src_rank]
        self.on_ready = on_ready
        self.received = 0
        self.total = copy.length * _AMP_BYTES
        dst = transport.store.view(copy.dst_rank, copy.dst_kind)
        self.dst_mv = memoryview(dst).cast("B")

    @property
    def complete(self) -> bool:
        return self.received >= self.total

    def accept(self, offset: int, payload: bytes) -> None:
        if offset != self.received:
            raise PoolError(
                f"out-of-order mesh frame: offset {offset}, "
                f"expected {self.received}"
            )
        start = self.copy.dst_lo * _AMP_BYTES + offset
        self.dst_mv[start : start + len(payload)] = payload
        self.received = offset + len(payload)
        if obs.is_enabled():
            obs.counter(
                "repro_transport_bytes_total", transport="tcp", direction="rx"
            ).inc(len(payload))
        if self.on_ready is not None:
            amp_lo = self.copy.dst_lo + offset // _AMP_BYTES
            amp_hi = self.copy.dst_lo + self.received // _AMP_BYTES
            self.on_ready(self.copy, amp_lo, amp_hi)


class _BlobRecv:
    """One peer's expected blob in a scalar collective."""

    __slots__ = ("src_wid", "size", "payload")

    def __init__(self, src_wid: int, size: int):
        self.src_wid = src_wid
        self.size = size
        self.payload: bytes | None = None

    @property
    def complete(self) -> bool:
        return self.payload is not None

    def accept(self, offset: int, payload: bytes) -> None:
        if offset != 0 or len(payload) != self.size:
            raise PoolError(
                f"mesh blob of {len(payload)} B at offset {offset} from "
                f"worker {self.src_wid}; this worker's own is {self.size} B"
            )
        self.payload = payload


def resolve_stall_timeout() -> float:
    """Mesh stall-detection timeout: env override or the 300 s default."""
    value = settings.get(settings.POOL_STALL_TIMEOUT)
    return _MESH_STALL_TIMEOUT_S if value is None else value


# -- worker side ---------------------------------------------------------------


def _worker_of_map(num_workers: int, partition) -> dict[int, int]:
    worker_of: dict[int, int] = {}
    for wid in range(num_workers):
        for rank in partition.ranks_for_worker(wid, num_workers):
            worker_of[rank] = wid
    return worker_of


def _build_mesh(
    ctrl: socket.socket,
    listener: socket.socket,
    worker_id: int,
    token: str,
    addresses: dict[int, tuple[str, int]],
) -> dict[int, _Peer]:
    """Full mesh: connect to lower ids, accept from higher ids.

    Every connection opens with a HELLO carrying the pool token; the
    accepting side rejects (closes and keeps waiting) any connection
    whose token does not match -- the mesh listener may be reachable
    from beyond the pool (remote workers bind non-loopback), and an
    unauthenticated peer must not be able to inject amplitude data or
    abort frames into a run.
    """
    token_bytes = token.encode()
    hello = _HELLO.pack(worker_id, len(token_bytes)) + token_bytes
    peers: dict[int, _Peer] = {}
    for wid in sorted(addresses):
        if wid >= worker_id:
            continue
        sock = socket.create_connection(
            tuple(addresses[wid]), timeout=_CONNECT_TIMEOUT_S
        )
        _tune_socket(sock)
        sock.sendall(hello)
        peers[wid] = _Peer(wid, sock)
    expect = {wid for wid in addresses if wid > worker_id}
    deadline = time.monotonic() + _CONNECT_TIMEOUT_S
    while expect:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise PoolError(
                f"timed out waiting for mesh peers {sorted(expect)}"
            )
        listener.settimeout(remaining)
        try:
            sock, _addr = listener.accept()
        except socket.timeout:
            continue
        try:
            sock.settimeout(_CONNECT_TIMEOUT_S)
            wid, token_len = _HELLO.unpack(
                _recv_exact(sock, _HELLO.size)
            )
            if token_len > _TOKEN_MAX_BYTES:
                raise EOFError("oversized hello token")
            peer_token = _recv_exact(sock, token_len)
        except (EOFError, OSError, socket.timeout):
            sock.close()
            continue
        if wid not in expect or not secrets.compare_digest(
            peer_token, token_bytes
        ):
            obs.log.warning(
                "rejecting unauthenticated mesh connection (worker id %r)",
                wid,
            )
            sock.close()
            continue
        sock.settimeout(None)
        _tune_socket(sock)
        peers[wid] = _Peer(wid, sock)
        expect.discard(wid)
    return peers


def _run_plan_in_worker(ctrl, peers, worker_id, num_workers, task, slices):
    from repro.parallel.stepper import execute_plan
    from repro.statevector.partition import Partition

    partition = Partition(task.num_qubits, task.num_ranks)
    owned = partition.ranks_for_worker(worker_id, num_workers)
    n = partition.local_amplitudes
    local: dict[int, np.ndarray] = {}
    for rank in owned:
        provided = slices.get(rank)
        if provided is None:
            local[rank] = np.zeros(n, dtype=np.complex128)
        else:
            local[rank] = np.array(provided, dtype=np.complex128, copy=True)
    pair = (
        {rank: np.empty(n, dtype=np.complex128) for rank in owned}
        if task.needs_pair
        else {}
    )
    store = DictStore(local, pair)
    transport = TcpMeshTransport(
        peers,
        _worker_of_map(num_workers, partition),
        worker_id,
        store,
        owned,
        n,
        task.chunk_amps,
    )

    def emit(event):
        _send_msg(ctrl, ("event", event))

    def checkpoint(step_index):
        obs.counter("repro_pool_checkpoint_streams_total").inc()
        t0 = time.perf_counter() if obs.is_enabled() else None
        _send_msg(ctrl, ("ckpt", step_index, {r: local[r] for r in owned}))
        if t0 is not None:
            obs.histogram("repro_pool_checkpoint_seconds").observe(
                time.perf_counter() - t0
            )

    try:
        execute_plan(
            transport,
            store,
            task,
            worker_id=worker_id,
            num_workers=num_workers,
            emit=emit,
            checkpoint=checkpoint,
        )
    except BaseException:
        transport.abort()
        raise
    finally:
        transport.close()
    return {rank: local[rank] for rank in owned}


def _worker_loop(ctrl, listener, worker_id, num_workers, token) -> None:
    """Serve coordinator commands until close/EOF."""
    peers: dict[int, _Peer] = {}
    try:
        while True:
            try:
                message = _recv_msg(ctrl)
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "close":
                break
            if kind == "mesh":
                peers = _build_mesh(
                    ctrl, listener, worker_id, token, message[1]
                )
                _send_msg(ctrl, ("ready", worker_id))
            elif kind == "ping":
                _send_msg(ctrl, ("pong", worker_id))
            elif kind == "plan":
                # The plan runs under the coordinator's settings.
                _, task, slices, (collect, overrides) = message
                if collect:
                    obs.reset()
                    obs.enable()
                try:
                    with settings.overridden(overrides):
                        finals = _run_plan_in_worker(
                            ctrl, peers, worker_id, num_workers, task, slices
                        )
                    reply = ("ok", finals, None)
                except BaseException as exc:  # noqa: BLE001 - forwarded
                    reply = (
                        "err",
                        f"{type(exc).__name__}: {exc}",
                        traceback.format_exc(),
                        None,
                    )
                if collect:
                    obs.disable()
                    reply = reply[:-1] + (obs.export_state(clear=True),)
                try:
                    _send_msg(ctrl, reply)
                except (BrokenPipeError, OSError):
                    break
    finally:
        for peer in peers.values():
            try:
                peer.sock.close()
            except OSError:
                pass
        try:
            ctrl.close()
        except OSError:
            pass
        listener.close()


def _connect_and_serve(
    coord_host: str,
    coord_port: int,
    worker_id: int,
    token: str,
    bind_host: str,
    bind_port: int,
) -> None:
    """Register with the coordinator and serve (both spawn and CLI path)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((bind_host, bind_port))
    listener.listen(16)
    mesh_addr = (bind_host, listener.getsockname()[1])
    ctrl = socket.create_connection(
        (coord_host, coord_port), timeout=_CONNECT_TIMEOUT_S
    )
    _tune_socket(ctrl)
    ctrl.settimeout(None)
    _send_msg(ctrl, ("register", worker_id, token, mesh_addr))
    welcome = _recv_msg(ctrl)
    if welcome[0] != "welcome":
        raise PoolError(f"unexpected coordinator reply {welcome[0]!r}")
    num_workers = welcome[1]
    _worker_loop(ctrl, listener, worker_id, num_workers, token)


def _spawned_worker_main(
    coord_host: str, coord_port: int, worker_id: int, token: str, env: dict
) -> None:
    adopt_environment(env)
    os.environ[_IN_WORKER_ENV] = "1"
    # Same contract as the shm pool's workers: Ctrl-C hits the whole
    # process group, but the interrupt belongs to the coordinator,
    # which turns it into a clean close instead of a booked crash.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError) as exc:  # pragma: no cover - exotic host
        obs.swallowed("tcp.worker_sigint_ignore", exc)
    try:
        _connect_and_serve(
            coord_host, coord_port, worker_id, token, "127.0.0.1", 0
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass


# -- coordinator side ----------------------------------------------------------


def _recv_registration(sock: socket.socket) -> tuple:
    """A would-be worker's first frame: ``("register", id, token, address)``.

    Any other message raises ``ValueError``; garbage bytes raise from
    the length bound or from unpickling.
    """
    message = _recv_msg(sock, _REGISTER_MAX_BYTES)
    if not (
        isinstance(message, tuple)
        and len(message) == 4
        and message[0] == "register"
    ):
        raise ValueError("not a registration message")
    return message


def _reject(sock: socket.socket, reason: str, message: str, *args) -> None:
    """Close a would-be worker's connection; log and count why."""
    obs.counter("repro_pool_rejected_connections_total", reason=reason).inc()
    obs.log.warning(message, *args)
    sock.close()


class _WorkerLost(Exception):
    """Internal: a worker died mid-dispatch; carries the best checkpoint."""

    def __init__(self, lost: set[int], checkpoint):
        super().__init__(f"worker(s) {sorted(lost)} lost")
        self.lost = lost
        self.checkpoint = checkpoint  # (resume_step, {rank: array}) | None


class TcpPool:
    """Coordinator for one mesh of TCP workers (one per host entry)."""

    def __init__(self, hosts):
        self.hosts = parse_hosts(hosts)
        self.num_workers = len(self.hosts)
        self._ctrl: dict[int, socket.socket] = {}
        self._procs: dict[int, mp.process.BaseProcess] = {}
        self._listener: socket.socket | None = None
        self._broken = True
        self._closing = False
        self._fail_injection: tuple[tuple[int, int], ...] = ()
        #: Step the most recent worker-loss restart resumed from
        #: (diagnostic/test hook; 0 = restarted from scratch or no loss).
        self.last_resume_step = 0
        self.restarts = 0
        self._build()

    # -- lifecycle -------------------------------------------------------------

    def _build(self) -> None:
        # Loopback-only pools mint a private token; remote entries need
        # a shared secret the operator distributes out of band (the
        # token authenticates both the control channel and the worker
        # mesh, and is deliberately never logged).
        token = settings.get(settings.POOL_TOKEN)
        bind_host, bind_port = settings.get(settings.POOL_BIND)
        if not token:
            if not all(spec.is_local for spec in self.hosts):
                raise ValidationError(
                    f"remote host entries require {POOL_TOKEN_ENV} to be "
                    "set (same value on the coordinator and every remote "
                    "worker); the token is never printed or logged"
                )
            token = secrets.token_hex(16)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((bind_host or "127.0.0.1", bind_port))
        # The default backlog, not one slot per worker: stray
        # connections queued during registration must not crowd out a
        # worker's connect.
        listener.listen()
        listener.settimeout(_CONNECT_TIMEOUT_S)
        self._listener = listener
        coord_host, coord_port = listener.getsockname()[:2]
        self._procs = {}
        env = dict(os.environ)
        for wid, spec in enumerate(self.hosts):
            if spec.is_local:
                proc = start_context().Process(
                    target=_spawned_worker_main,
                    args=(coord_host, coord_port, wid, token, env),
                    daemon=True,
                    name=f"repro-tcp-{wid}",
                )
                proc.start()
                self._procs[wid] = proc
            else:
                obs.log.info(
                    "waiting for remote worker %d to register from %s "
                    "(%s=... python -m repro.parallel.tcp --connect %s:%d "
                    "--worker-id %d); the token is not logged -- use the "
                    "%s value this coordinator was started with",
                    wid,
                    spec.label(),
                    POOL_TOKEN_ENV,
                    coord_host,
                    coord_port,
                    wid,
                    POOL_TOKEN_ENV,
                )
        self._ctrl = {}
        mesh_addrs: dict[int, tuple[str, int]] = {}
        deadline = time.monotonic() + _CONNECT_TIMEOUT_S
        while len(self._ctrl) < self.num_workers:
            if time.monotonic() > deadline:
                self._teardown()
                raise PoolError(
                    f"timed out waiting for pool workers to register "
                    f"({len(self._ctrl)}/{self.num_workers} connected)"
                )
            try:
                sock, _addr = listener.accept()
            except socket.timeout:
                continue
            _tune_socket(sock)
            sock.settimeout(_CONNECT_TIMEOUT_S)
            try:
                message = _recv_registration(sock)
            except (EOFError, OSError):
                sock.close()
                continue
            except Exception as exc:  # noqa: BLE001 - any garbage frame
                _reject(
                    sock,
                    "malformed",
                    "rejecting malformed registration frame (%s)",
                    type(exc).__name__,
                )
                continue
            if not (
                isinstance(message[2], str)
                and secrets.compare_digest(message[2], token)
            ):
                _reject(
                    sock,
                    "unauthenticated",
                    "rejecting unauthenticated pool connection",
                )
                continue
            wid, mesh_addr = message[1], message[3]
            if (
                type(wid) is not int
                or not (0 <= wid < self.num_workers)
                or wid in self._ctrl
            ):
                _reject(
                    sock,
                    "worker_id",
                    "rejecting duplicate/out-of-range worker %r",
                    wid,
                )
                continue
            _send_msg(sock, ("welcome", self.num_workers))
            sock.settimeout(None)
            self._ctrl[wid] = sock
            mesh_addrs[wid] = tuple(mesh_addr)
        for sock in self._ctrl.values():
            _send_msg(sock, ("mesh", mesh_addrs))
        ready = set()
        for wid, sock in self._ctrl.items():
            message = _recv_msg(sock)
            if message[0] != "ready":
                raise PoolError(f"worker {wid} failed mesh setup: {message!r}")
            ready.add(message[1])
        if ready != set(range(self.num_workers)):  # pragma: no cover
            raise PoolError(f"mesh setup incomplete: ready={sorted(ready)}")
        self._broken = False

    @property
    def broken(self) -> bool:
        """True once the pool was torn down or gave up restarting."""
        return self._broken

    def worker_pids(self) -> list[int | None]:
        """PIDs of locally spawned workers (None for remote entries)."""
        return [
            self._procs[wid].pid if wid in self._procs else None
            for wid in range(self.num_workers)
        ]

    def _teardown(self) -> None:
        for sock in self._ctrl.values():
            try:
                sock.close()
            except OSError as exc:
                obs.swallowed("tcp.ctrl_close", exc)
        self._ctrl = {}
        for proc in self._procs.values():
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._procs = {}
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError as exc:
                obs.swallowed("tcp.listener_close", exc)
            self._listener = None
        self._broken = True

    def close(self) -> None:
        """Stop every worker (idempotent, clean shutdown -- no crash count)."""
        self._closing = True
        for sock in self._ctrl.values():
            try:
                _send_msg(sock, ("close",))
            except (BrokenPipeError, OSError) as exc:
                obs.swallowed("tcp.close_send", exc)
        self._teardown()

    # -- diagnostics -----------------------------------------------------------

    def probe(self, rounds: int = 3) -> list[float]:
        """Control-channel round-trip latency to every worker, per round."""
        if self._broken:
            raise PoolError("TCP pool is broken; call get_tcp_pool() again")
        latencies = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            for sock in self._ctrl.values():
                _send_msg(sock, ("ping",))
            for sock in self._ctrl.values():
                reply = _recv_msg(sock)
                if reply[0] != "pong":  # pragma: no cover - protocol bug
                    raise PoolError(f"bad ping reply {reply!r}")
            dt = time.perf_counter() - t0
            latencies.append(dt)
            obs.histogram("repro_transport_rtt_seconds").observe(dt)
        return latencies

    def inject_failures(self, fail_at) -> None:
        """Arm fail-stop injection for the *next* ``run_plan`` dispatch.

        ``fail_at`` is ``[(worker_id, step_index), ...]``.  Injection is
        one-shot: a restarted dispatch does not re-arm it (fail-stop
        semantics).
        """
        self._fail_injection = tuple(
            (int(w), int(s)) for w, s in fail_at
        )

    # -- dispatch --------------------------------------------------------------

    def run_plan(self, task, slices, *, on_event=None) -> dict[int, np.ndarray]:
        """Run one PlanTask over the mesh; returns the final rank slices.

        ``slices`` maps every rank to its input amplitudes (None for an
        implicit zero slice).  A worker loss triggers teardown, respawn
        and re-dispatch from the last complete streamed checkpoint
        (or the original inputs), up to :data:`MAX_RESTARTS` times.
        """
        if self._broken:
            raise PoolError("TCP pool is broken; call get_tcp_pool() again")
        if task.checkpoint_steps is None:
            # An explicit 0 from the environment disables streaming (the
            # stepper treats a zero cadence as "never"); only an unset
            # variable falls back to the default.
            env_steps = settings.get(settings.POOL_CHECKPOINT_STEPS)
            if env_steps is None and len(task.plan.steps) >= 8:
                # Default cadence: four checkpoints across the plan.
                env_steps = max(1, len(task.plan.steps) // 4)
            task = replace(task, checkpoint_steps=env_steps)
        injection = self._fail_injection
        self._fail_injection = ()
        resume = 0
        current = dict(slices)
        attempts = 0
        while True:
            attempt_task = replace(
                task, resume_step=resume, fail_at=injection
            )
            try:
                return self._dispatch(attempt_task, current, on_event)
            except _WorkerLost as lost:
                injection = ()  # fail-stop fires once
                attempts += 1
                self.restarts += 1
                obs.counter(
                    "repro_pool_worker_crashes_total", transport="tcp"
                ).inc(len(lost.lost))
                self._teardown()
                if attempts > MAX_RESTARTS:
                    raise PoolError(
                        f"worker(s) {sorted(lost.lost)} died and the pool "
                        f"exhausted {MAX_RESTARTS} restarts"
                    ) from None
                if not all(spec.is_local for spec in self.hosts):
                    raise PoolError(
                        f"worker(s) {sorted(lost.lost)} died; remote workers "
                        "cannot be respawned by the coordinator -- restart "
                        "them and call get_tcp_pool() again"
                    ) from None
                if lost.checkpoint is not None:
                    resume = lost.checkpoint[0]
                    current = dict(lost.checkpoint[1])
                else:
                    resume = 0
                    current = dict(slices)
                self.last_resume_step = resume
                obs.counter("repro_pool_restarts_total").inc()
                obs.log.warning(
                    "pool worker(s) %s lost; restarting from step %d "
                    "(attempt %d/%d)",
                    sorted(lost.lost),
                    resume,
                    attempts,
                    MAX_RESTARTS,
                )
                self._build()

    def _dispatch(self, task, slices, on_event) -> dict[int, np.ndarray]:
        from repro.statevector.partition import Partition

        context = (obs.is_enabled(), settings.snapshot())
        partition = Partition(task.num_qubits, task.num_ranks)
        ctrl_bytes = 0
        for wid, sock in self._ctrl.items():
            owned = partition.ranks_for_worker(wid, self.num_workers)
            payload = {rank: slices.get(rank) for rank in owned}
            ctrl_bytes += _send_msg(sock, ("plan", task, payload, context))
        finals: dict[int, np.ndarray] = {}
        errors: dict[int, tuple[str, str]] = {}
        lost: set[int] = set()
        ckpt_parts: dict[int, dict[int, dict[int, np.ndarray]]] = {}
        last_ckpt: tuple[int, dict[int, np.ndarray]] | None = None
        pending = set(self._ctrl)
        sel = selectors.DefaultSelector()
        for wid, sock in self._ctrl.items():
            sel.register(sock, selectors.EVENT_READ, wid)
        drain_deadline: float | None = None
        try:
            while pending:
                if lost and drain_deadline is None:
                    drain_deadline = time.monotonic() + _DRAIN_TIMEOUT_S
                if drain_deadline is not None and time.monotonic() > drain_deadline:
                    break  # survivors are wedged; the restart replaces them
                events = sel.select(timeout=0.5)
                for key, _mask in events:
                    wid = key.data
                    if wid not in pending:
                        continue
                    try:
                        message, size = _recv_frame(key.fileobj)
                    except (EOFError, OSError):
                        lost.add(wid)
                        pending.discard(wid)
                        sel.unregister(key.fileobj)
                        continue
                    ctrl_bytes += size
                    kind = message[0]
                    if kind == "event":
                        if on_event is not None:
                            on_event(message[1])
                    elif kind == "ckpt":
                        step, part = message[1], message[2]
                        ckpt_parts.setdefault(step, {})[wid] = part
                        if len(ckpt_parts[step]) == self.num_workers:
                            merged: dict[int, np.ndarray] = {}
                            for piece in ckpt_parts.pop(step).values():
                                merged.update(piece)
                            if last_ckpt is None or step > last_ckpt[0]:
                                last_ckpt = (step, merged)
                            obs.counter("repro_pool_checkpoints_total").inc()
                    elif kind == "ok":
                        pending.discard(wid)
                        sel.unregister(key.fileobj)
                        finals.update(message[1])
                        if message[2]:
                            obs.merge_state(message[2])
                    elif kind == "err":
                        pending.discard(wid)
                        sel.unregister(key.fileobj)
                        errors[wid] = (message[1], message[2])
                        if message[3]:
                            obs.merge_state(message[3])
        finally:
            sel.close()
            if obs.is_enabled():
                obs.counter(
                    "repro_transport_bytes_total", transport="tcp", direction="ctrl"
                ).inc(ctrl_bytes)
        if lost:
            raise _WorkerLost(lost, last_ckpt)
        if errors:
            wid, (message, tb) = sorted(errors.items())[0]
            real = {
                w: m
                for w, (m, _t) in errors.items()
                if "mesh peer" not in m
            }
            if real:
                wid = sorted(real)[0]
                message, tb = errors[wid]
            self._teardown()
            raise PoolError(f"TCP pool worker {wid} failed: {message}\n{tb}")
        return finals


_pools: dict[tuple[HostSpec, ...], TcpPool] = {}


def get_tcp_pool(hosts) -> TcpPool:
    """The process-wide TCP pool for this host list (rebuilt on breakage)."""
    if in_worker():
        raise PoolError(
            "nested pools are not allowed: code running inside a pool "
            "worker must use the serial executor"
        )
    key = parse_hosts(hosts)
    pool = _pools.get(key)
    if pool is not None and pool.broken:
        obs.counter("repro_pool_rebuilds_total").inc()
        pool.close()
        pool = None
    if pool is None:
        pool = TcpPool(key)
        _pools[key] = pool
    return pool


def shutdown_tcp_pools() -> None:
    """Close every TCP pool (atexit hook; also a test-isolation hook)."""
    while _pools:
        _key, pool = _pools.popitem()
        pool.close()


atexit.register(shutdown_tcp_pools)


# -- remote-worker CLI ---------------------------------------------------------


def main(argv=None) -> int:
    """``python -m repro.parallel.tcp``: join a coordinator as one worker.

    A bad flag or ``REPRO_*`` variable is a one-line error, exit 2; a
    coordinator that cannot be reached, or that drops this worker, is a
    one-line error, exit 1.
    """
    from repro.utils.cli import ArgumentParser, fail

    parser = ArgumentParser(
        prog="python -m repro.parallel.tcp",
        description="Join a repro TCP worker pool from another host.",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address (printed by the coordinator at start-up)",
    )
    parser.add_argument(
        "--worker-id", type=int, required=True, help="this worker's id"
    )
    parser.add_argument(
        "--token",
        default=settings.get(settings.POOL_TOKEN),
        help=f"registration token (or env {POOL_TOKEN_ENV}); also "
        "authenticates incoming mesh connections",
    )
    parser.add_argument(
        "--bind",
        default="0.0.0.0:0",
        metavar="HOST[:PORT]",
        help="mesh listener bind address (default 0.0.0.0:ephemeral). "
        "Mesh connections are token-authenticated, but prefer binding "
        "the cluster-facing interface over 0.0.0.0 on multi-homed "
        "hosts",
    )
    args = parser.parse_args(argv)
    try:
        if not args.token:
            raise ValidationError(f"--token (or env {POOL_TOKEN_ENV}) is required")
        settings.validate()
        host, port = settings.POOL_BIND.parse(args.connect, "--connect")
        bind_host, bind_port = settings.POOL_BIND.parse(args.bind, "--bind")
    except ValidationError as exc:
        return fail(str(exc))
    os.environ[_IN_WORKER_ENV] = "1"
    try:
        _connect_and_serve(
            host, port, args.worker_id, args.token, bind_host or "0.0.0.0", bind_port
        )
    except (OSError, EOFError, PoolError) as exc:
        return fail(f"coordinator {args.connect}: {exc}", 1)
    return 0
