"""Run options: the user-facing knobs of a simulation campaign.

These map one-to-one onto the paper's experimental dimensions: node
type, CPU frequency, blocking vs non-blocking communication, cache
blocking, and the future-work halved-SWAP exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.machine.frequency import CpuFrequency
from repro.mpi.chunking import MAX_MESSAGE_BYTES
from repro.mpi.datatypes import CommMode
from repro.perfmodel.calibration import DEFAULT_CALIBRATION, Calibration

__all__ = ["RunOptions"]


@dataclass(frozen=True)
class RunOptions:
    """How to run a circuit (sensible ARCHER2 defaults throughout)."""

    node_type: str = "standard"
    frequency: CpuFrequency = CpuFrequency.MEDIUM
    comm_mode: CommMode = CommMode.BLOCKING
    #: Transpilation strategy (``repro.transpile``):
    #: ``"naive"``/``"blocked"``/``"grouped"``; ``"blocked"`` is the
    #: paper's cache blocking.  ``None`` defers to ``REPRO_TRANSPILE``
    #: (default: no transpilation).
    transpile: str | None = None
    #: Use the halved-communication distributed SWAP (paper future work).
    halved_swaps: bool = False
    #: Explicit node count; None sizes the job minimally.
    num_nodes: int | None = None
    max_message: int = MAX_MESSAGE_BYTES
    calibration: Calibration = field(default=DEFAULT_CALIBRATION)
    #: Numeric-execution engine: ``None`` defers to ``REPRO_EXECUTOR``
    #: (default serial); ``"pool"`` runs rank sweeps across the
    #: shared-memory worker pool.  Model-only runs ignore this.
    executor: str | None = None
    #: Gate-fusion mode for compiled apply plans:
    #: ``"off"``/``"diag"``/``"full[:k]"``.  ``None`` defers to
    #: ``REPRO_FUSION`` (default diag).  Model-only runs ignore this.
    fusion: str | None = None
    #: Pool worker hosts (``"host:port,..."`` or a tuple of entries):
    #: selects the TCP rank transport so the pool spans machines.
    #: ``None`` defers to ``REPRO_POOL_HOSTS`` (default: shared memory
    #: on this host).  Only meaningful with ``executor="pool"``.
    hosts: str | tuple[str, ...] | None = None

    def fast(self) -> "RunOptions":
        """The paper's 'Fast' configuration: cache-blocked, non-blocking.

        An explicit ``transpile`` strategy is kept; otherwise the copy
        selects ``"blocked"``, which takes precedence over
        ``REPRO_TRANSPILE``.
        """
        return replace(
            self,
            comm_mode=CommMode.NONBLOCKING,
            transpile=self.transpile or "blocked",
        )
