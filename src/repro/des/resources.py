"""Resource models: NICs, switch uplinks and per-node compute tokens.

The fabric mirrors the paper's ARCHER2 picture: every node owns a
full-duplex NIC (independent transmit and receive directions), nodes
hang off Slingshot switches in groups of 8, and traffic leaving a group
crosses the source group's up-link and the destination group's
down-link.  Each direction of each link is a deterministic
FIFO-reservation server: a transfer starts when the link (and every
other link on its path) is free, occupies them for ``bytes / rate``,
and queues behind earlier reservations otherwise -- which is exactly
how contention between co-located ranks or oversubscribed up-links
shows up in the replayed timeline.

Compute is modelled as a per-node token pool (one token per resident
rank): a rank holds a token for the duration of a compute span, so an
oversubscribed node serialises -- the closed-form model divides
bandwidth instead, and the DES cross-check confirms the two views agree
when occupancy is uniform.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

from repro.errors import DesError
from repro.des.engine import Engine, Signal

__all__ = [
    "Link",
    "TokenPool",
    "Fabric",
    "FlowReservation",
]


def exact_units(seconds: float, times: int = 1) -> int:
    """``times * seconds`` as an exact integer count of ``2**-1074`` s.

    Every finite double is a whole multiple of that step, so sums kept
    in these units are exact and do not depend on the order of their
    terms; :func:`from_exact_units` rounds the total once.
    """
    num, den = seconds.as_integer_ratio()
    return (num * times) << (1075 - den.bit_length())


def from_exact_units(units: int) -> float:
    """The correctly rounded seconds of an :func:`exact_units` total."""
    return units / (1 << 1074)


class Link:
    """One direction of a network link: ``channels`` parallel servers.

    A NIC direction has a single channel; a switch up-link gets one
    channel per non-oversubscribed node so that simultaneous flows from
    different nodes of a group do not falsely serialise.

    Busy time on a single channel is a running float sum: its flows
    are booked in time order, so the sum is canonical.  A shared link
    receives same-instant flows in event-loop order, which the orbit
    replay does not reproduce, so it sums exactly (:func:`exact_units`).
    """

    __slots__ = (
        "name",
        "bandwidth",
        "_free",
        "_busy",
        "bytes_moved",
        "intervals",
        "multiplicity",
    )

    def __init__(
        self,
        name: str,
        bandwidth: float,
        *,
        channels: int = 1,
        record_intervals: bool = False,
    ):
        if not math.isfinite(bandwidth) or bandwidth <= 0:
            raise DesError(
                f"link bandwidth must be finite and > 0, got {bandwidth}"
            )
        if channels < 1:
            raise DesError(f"link needs >= 1 channel, got {channels}")
        self.name = name
        self.bandwidth = bandwidth
        self._free = [0.0] * channels
        self._busy: float | int = 0.0 if channels == 1 else 0
        self.bytes_moved = 0
        self.intervals: list[tuple[float, float]] | None = (
            [] if record_intervals else None
        )
        #: Identical flows each commit (and each recorded interval)
        #: stands for; see :meth:`Fabric.fold`.
        self.multiplicity = 1

    @property
    def busy_s(self) -> float:
        """Total booked channel time."""
        if len(self._free) == 1:
            return self._busy
        return from_exact_units(self._busy)

    def next_free(self) -> float:
        """Earliest time any channel is available."""
        return min(self._free)

    def commit(self, start: float, end: float, nbytes: int) -> None:
        """Book a channel for ``[start, end)``.

        Best fit: the channel whose free time is latest while still at
        or before ``start``.  Least-loaded (min-free) selection would
        fragment the channels -- a flow's second chunk would book a
        fresh channel instead of reusing the one its first chunk just
        vacated, spuriously delaying later flows in the same group.
        """
        free = self._free
        if len(free) == 1:
            free[0] = end
            self._busy += end - start
        else:
            eps = 1e-12 * (1.0 + abs(start))
            best = None
            for channel, t in enumerate(free):
                if t <= start + eps and (best is None or t > free[best]):
                    best = channel
            channel = best if best is not None else free.index(min(free))
            free[channel] = end
            self._busy += exact_units(end - start, self.multiplicity)
        self.bytes_moved += nbytes * self.multiplicity
        if self.intervals is not None:
            self.intervals.append((start, end))

    def utilisation(self, horizon: float) -> float:
        """Mean busy fraction over ``[0, horizon]`` across channels."""
        if horizon <= 0:
            return 0.0
        return self.busy_s / (horizon * len(self._free))


class TokenPool:
    """Counting semaphore for a node's compute capacity.

    ``request`` either grants immediately (returns ``None``) or returns
    a :class:`Signal` the caller must yield on; ``release`` hands the
    token to the longest-waiting requester (FIFO, deterministic).
    """

    __slots__ = ("engine", "capacity", "available", "_queue")

    def __init__(self, engine: Engine, capacity: int):
        if capacity < 1:
            raise DesError(f"token pool capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.available = capacity
        self._queue: deque[Signal] = deque()

    def request(self) -> Signal | None:
        if self.available > 0:
            self.available -= 1
            return None
        signal = self.engine.signal()
        self._queue.append(signal)
        return signal

    def release(self) -> None:
        if self._queue:
            # The token transfers directly to the next waiter.
            self._queue.popleft().fire()
            return
        if self.available >= self.capacity:
            raise DesError("token released more times than acquired")
        self.available += 1


class FlowReservation(NamedTuple):
    """Outcome of booking one chunk across its link path."""

    start: float
    end: float


class Fabric:
    """The job's network: per-node NICs plus per-group switch up/down links.

    ``bandwidth`` is the calibrated effective per-flow rate for the
    run's communication mode (the DES adds message-level serialisation,
    overlap and contention *on top of* the same calibration the
    closed-form model prices with -- that shared anchoring is what makes
    the two predictors comparable).
    """

    def __init__(
        self,
        num_nodes: int,
        *,
        bandwidth: float,
        nodes_per_switch: int = 8,
        uplink_oversubscription: float = 1.0,
        record_intervals: bool = False,
    ):
        if num_nodes < 1:
            raise DesError(f"num_nodes must be >= 1, got {num_nodes}")
        if not math.isfinite(uplink_oversubscription) or uplink_oversubscription < 1.0:
            raise DesError(
                "uplink_oversubscription must be finite and >= 1 "
                f"(1 = full bisection), got {uplink_oversubscription}"
            )
        self.num_nodes = num_nodes
        self.nodes_per_switch = nodes_per_switch
        self.bandwidth = bandwidth
        num_groups = -(-num_nodes // nodes_per_switch)
        uplink_channels = max(
            1, round(min(nodes_per_switch, num_nodes) / uplink_oversubscription)
        )
        self.nic_tx = [
            Link(f"node{n}.tx", bandwidth, record_intervals=record_intervals)
            for n in range(num_nodes)
        ]
        self.nic_rx = [
            Link(f"node{n}.rx", bandwidth, record_intervals=record_intervals)
            for n in range(num_nodes)
        ]
        self.uplink_up = [
            Link(
                f"switch{g}.up",
                bandwidth,
                channels=uplink_channels,
                record_intervals=record_intervals,
            )
            for g in range(num_groups)
        ]
        self.uplink_down = [
            Link(
                f"switch{g}.down",
                bandwidth,
                channels=uplink_channels,
                record_intervals=record_intervals,
            )
            for g in range(num_groups)
        ]
        self._paths: dict[tuple[int, int], tuple[Link, ...]] = {}

    def fold(self, node_mask: int) -> None:
        """Alias every node's links to those of node ``n & ~node_mask``.

        Used by the orbit replay (:mod:`repro.des.replay`), which runs
        only the ranks on representative nodes: their image nodes would
        book identical flows at identical instants, so one link object
        stands for all of them.  Nodes that share a switch group also
        share its up/down links, so each commit there counts once per
        in-group image (:attr:`Link.multiplicity`).  Needs
        ``nodes_per_switch`` to be a power of two dividing ``num_nodes``
        (or a single switch group).
        """
        if not node_mask:
            return
        num_groups = len(self.uplink_up)
        per_switch = self.nodes_per_switch
        if num_groups > 1 and (
            per_switch & (per_switch - 1) or self.num_nodes % per_switch
        ):
            raise DesError(
                f"cannot fold {self.num_nodes} nodes over switches of "
                f"{per_switch}"
            )
        self.nic_tx = [self.nic_tx[n & ~node_mask] for n in range(self.num_nodes)]
        self.nic_rx = [self.nic_rx[n & ~node_mask] for n in range(self.num_nodes)]
        if num_groups > 1:
            group_bits = per_switch.bit_length() - 1
            group_mask = node_mask >> group_bits
            images = 1 << bin(node_mask & (per_switch - 1)).count("1")
            for links in (self.uplink_up, self.uplink_down):
                for link in links:
                    link.multiplicity = images
                links[:] = [links[g & ~group_mask] for g in range(num_groups)]
        self._paths.clear()

    def group_of(self, node: int) -> int:
        """Which switch group a node belongs to (dense packing)."""
        return node // self.nodes_per_switch

    def path(self, src_node: int, dst_node: int) -> list[Link]:
        """The link path of one directed flow (empty for same-node)."""
        if src_node == dst_node:
            return []
        links = [self.nic_tx[src_node], self.nic_rx[dst_node]]
        src_group, dst_group = self.group_of(src_node), self.group_of(dst_node)
        if src_group != dst_group:
            links.insert(1, self.uplink_up[src_group])
            links.insert(2, self.uplink_down[dst_group])
        return links

    def transfer(
        self,
        src_node: int,
        dst_node: int,
        nbytes: int,
        *,
        earliest: float,
        latency: float = 0.0,
    ) -> FlowReservation:
        """Book one chunk src -> dst; cut-through across the whole path.

        The flow starts when every link on the path has a free channel,
        moves at the bottleneck rate, and occupies all links for its
        duration (plus the message latency, which models the software
        injection cost and so does occupy the NIC).
        """
        if nbytes < 0:
            raise DesError(f"transfer size must be >= 0, got {nbytes}")
        key = (src_node, dst_node)
        links = self._paths.get(key)
        if links is None:
            links = tuple(self.path(src_node, dst_node))
            self._paths[key] = links
        if not links:
            return FlowReservation(earliest, earliest)
        start = earliest
        rate = self.bandwidth
        for link in links:
            free = min(link._free)
            if free > start:
                start = free
            if link.bandwidth < rate:
                rate = link.bandwidth
        end = start + latency + nbytes / rate
        for link in links:
            link.commit(start, end, nbytes)
        return FlowReservation(start, end)

    # -- accounting ----------------------------------------------------------

    def nic_links(self) -> list[Link]:
        """Both directions of every NIC."""
        return [*self.nic_tx, *self.nic_rx]

    def uplink_links(self) -> list[Link]:
        """Both directions of every switch up-link."""
        return [*self.uplink_up, *self.uplink_down]

    def bytes_on_network(self) -> int:
        """Total bytes that crossed any NIC (each flow counted once)."""
        return sum(link.bytes_moved for link in self.nic_tx)
