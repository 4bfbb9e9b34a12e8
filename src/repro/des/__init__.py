"""Discrete-event execution engine: contention-aware schedule replay.

An independent cross-check of the closed-form performance model
(:mod:`repro.perfmodel`).  The same per-gate plans the analytic model
prices are exported as per-rank schedules of compute spans and chunked
pairwise exchanges, then *replayed* on a deterministic event engine
against explicit resources -- full-duplex NICs, shared switch up-links
(one switch per 8 nodes on ARCHER2), per-node compute tokens.  Where
the closed form sums per-gate formulas, the DES plays out the timeline:
blocking ``Sendrecv`` chunk serialisation, non-blocking
post-all-then-wait pipelining, rendezvous skew between partially-active
gates, and link contention.

Layers (each its own module):

* :mod:`~repro.des.engine` -- event heap, simulated clock, processes.
* :mod:`~repro.des.resources` -- NIC / up-link / compute-token models.
* :mod:`~repro.des.schedule` -- trace -> per-rank op export.
* :mod:`~repro.des.rank` -- rank actors and exchange drivers.
* :mod:`~repro.des.timeline` -- Gantt spans and link utilisation.
* :mod:`~repro.des.replay` -- one-call :func:`simulate` entry point.
* :mod:`~repro.des.validation` -- the analytic-vs-DES agreement gate.

Quickstart::

    from repro import RunConfiguration, builtin_qft_circuit
    from repro.des import simulate

    result = simulate(builtin_qft_circuit(34), config)
    print(result.makespan_s, result.timeline.gantt())
"""

from repro.des.engine import Engine, Process, Signal, Timeout
from repro.des.replay import DesResult, simulate, simulate_trace
from repro.des.resources import Fabric, Link, TokenPool
from repro.des.schedule import (
    ComputeOp,
    ExchangeOp,
    RankSchedule,
    ScheduleSet,
    export_schedules,
)
from repro.des.timeline import Span, Timeline, utilisation_series
from repro.des.validation import (
    DEFAULT_TOLERANCE,
    CrossCheck,
    assert_crosscheck,
    crosscheck,
)

__all__ = [
    "Engine",
    "Timeout",
    "Signal",
    "Process",
    "Link",
    "TokenPool",
    "Fabric",
    "ComputeOp",
    "ExchangeOp",
    "RankSchedule",
    "ScheduleSet",
    "export_schedules",
    "Span",
    "Timeline",
    "utilisation_series",
    "DesResult",
    "simulate",
    "simulate_trace",
    "CrossCheck",
    "crosscheck",
    "assert_crosscheck",
    "DEFAULT_TOLERANCE",
]
