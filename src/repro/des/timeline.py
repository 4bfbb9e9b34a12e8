"""Timeline output of a DES replay: Gantt spans and link utilisation.

Every rank actor records what it was doing and when -- computing,
exchanging, or waiting (on a partner's arrival or a contended
resource).  The :class:`Timeline` turns that into an ASCII per-rank
Gantt chart (with injected fault events on their own row), and
:func:`utilisation_series` bins recorded link intervals into a
busy-fraction series.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.des.resources import Link, exact_units, from_exact_units

__all__ = [
    "Span",
    "TimelineEvent",
    "Timeline",
    "utilisation_series",
]

#: Gantt symbol per span kind (priority when bins overlap: comm wins).
_SYMBOLS = {"comm": "#", "compute": "=", "wait": "."}
_PRIORITY = {"comm": 3, "compute": 2, "wait": 1}

#: Marker symbol per injected-event kind on the Gantt event row.
_EVENT_SYMBOLS = {"failure": "F", "restart": "R", "checkpoint": "C", "retry": "~"}
#: Priority when several events land in one column (failures win).
_EVENT_PRIORITY = {"failure": 4, "restart": 3, "checkpoint": 2, "retry": 1}


@dataclass(frozen=True)
class Span:
    """One contiguous activity of one rank."""

    rank: int
    kind: str  # "compute" | "comm" | "wait"
    start: float
    end: float
    #: Gate index range [gate_lo, gate_hi] this span belongs to.
    gate_lo: int
    gate_hi: int
    #: For "wait" spans: the partner rank whose progress was awaited
    #: (None when waiting on a resource rather than a rank).
    blocked_on: int | None = None

    @property
    def duration(self) -> float:
        """Span length in simulated seconds."""
        return self.end - self.start


@dataclass(frozen=True)
class TimelineEvent:
    """One injected occurrence (failure, checkpoint, restart, retry).

    Unlike spans, events are instants; they are annotated onto the
    timeline by the fault-injection layer so Gantt output shows *where*
    a replay was bent, not just that it got longer.  ``time`` may
    exceed the span makespan: checkpoint/restart overlay events live on
    the stretched wall clock.
    """

    time: float
    kind: str  # "failure" | "restart" | "checkpoint" | "retry"
    rank: int | None = None
    node: int | None = None
    label: str = ""


#: Span.kind <-> compact code for the columnar pickle form.
_KIND_CODES = {"compute": 0, "comm": 1, "wait": 2}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}


class Timeline:
    """Per-rank span lists plus the queries the experiments need.

    An orbit replay records only representative ranks
    (``rank & symmetry == 0``); every other rank's spans are its
    representative's, relabelled on demand by :meth:`spans_of`.

    A replay at thousands of ranks can still record many spans;
    pickling them as dataclass instances is what dominated
    prediction-cache hits.  The timeline therefore pickles *columnar*
    (seven numpy arrays) and re-inflates the per-rank ``Span`` lists
    lazily -- a cache hit that never looks at the timeline pays only
    the array load.
    """

    def __init__(self, num_ranks: int, *, symmetry: int = 0):
        self.num_ranks = num_ranks
        #: XOR mask of the rank bits the replay folded (0: none).
        self.symmetry = symmetry
        self._spans_cache: list[list[Span]] | None = [
            [] for _ in range(num_ranks)
        ]
        self._packed = None
        #: Injected events, in annotation order (sorted by the fault layer).
        self.events: list[TimelineEvent] = []

    @property
    def _spans(self) -> list[list[Span]]:
        if self._spans_cache is None:
            self._spans_cache = self._inflate(self._packed)
            self._packed = None
        return self._spans_cache

    def __getstate__(self):
        import numpy as np

        spans = [span for rank_spans in self._spans for span in rank_spans]
        packed = {
            "rank": np.array([s.rank for s in spans], dtype=np.int32),
            "kind": np.array(
                [_KIND_CODES[s.kind] for s in spans], dtype=np.int8
            ),
            "start": np.array([s.start for s in spans], dtype=np.float64),
            "end": np.array([s.end for s in spans], dtype=np.float64),
            "gate_lo": np.array([s.gate_lo for s in spans], dtype=np.int32),
            "gate_hi": np.array([s.gate_hi for s in spans], dtype=np.int32),
            "blocked_on": np.array(
                [-1 if s.blocked_on is None else s.blocked_on for s in spans],
                dtype=np.int32,
            ),
        }
        return {
            "num_ranks": self.num_ranks,
            "symmetry": self.symmetry,
            "events": self.events,
            "packed": packed,
        }

    def __setstate__(self, state):
        self.num_ranks = state["num_ranks"]
        self.symmetry = state.get("symmetry", 0)
        self.events = state["events"]
        self._packed = state["packed"]
        self._spans_cache = None

    def _inflate(self, packed) -> list[list[Span]]:
        spans: list[list[Span]] = [[] for _ in range(self.num_ranks)]
        for rank, kind, start, end, gate_lo, gate_hi, blocked_on in zip(
            packed["rank"].tolist(),
            packed["kind"].tolist(),
            packed["start"].tolist(),
            packed["end"].tolist(),
            packed["gate_lo"].tolist(),
            packed["gate_hi"].tolist(),
            packed["blocked_on"].tolist(),
        ):
            spans[rank].append(
                Span(
                    rank=rank,
                    kind=_KIND_NAMES[kind],
                    start=start,
                    end=end,
                    gate_lo=gate_lo,
                    gate_hi=gate_hi,
                    blocked_on=None if blocked_on < 0 else blocked_on,
                )
            )
        return spans

    def annotate(self, event: TimelineEvent) -> None:
        """Record one injected event."""
        self.events.append(event)

    def add(self, span: Span) -> None:
        """Record one span (zero-length spans are dropped)."""
        if span.end > span.start:
            self._spans[span.rank].append(span)

    def spans_of(self, rank: int) -> list[Span]:
        """All spans of one rank, in recording (= time) order."""
        rep = rank & ~self.symmetry
        spans = self._spans[rep]
        if rep == rank:
            return spans
        shift = rank ^ rep
        return [
            Span(
                rank,
                span.kind,
                span.start,
                span.end,
                span.gate_lo,
                span.gate_hi,
                None if span.blocked_on is None else span.blocked_on ^ shift,
            )
            for span in spans
        ]

    def span_counts(self) -> dict[str, int]:
        """Spans per kind over every rank, without relabelling any."""
        orbit_size = 1 << bin(self.symmetry).count("1")
        counts: dict[str, int] = {}
        for spans in self._spans:
            for span in spans:
                counts[span.kind] = counts.get(span.kind, 0) + orbit_size
        return counts

    @property
    def makespan(self) -> float:
        """Latest span end of any rank.

        A rank's last-recorded span need not end last: an overlapped
        exchange records its hidden compute after the longer comm span.
        """
        return max(
            (span.end for spans in self._spans for span in spans), default=0.0
        )

    # -- rendering -----------------------------------------------------------

    def gantt(
        self,
        *,
        width: int = 72,
        max_ranks: int = 8,
        ranks: list[int] | None = None,
    ) -> str:
        """ASCII Gantt chart: one row per rank, ``#``=comm ``=``=compute ``.``=wait.

        Large jobs are symmetric, so showing the first ``max_ranks``
        ranks (or an explicit ``ranks`` selection) tells the story.
        """
        horizon = self.makespan
        if horizon <= 0:
            return "(empty timeline)"
        if ranks is None:
            ranks = list(range(min(self.num_ranks, max_ranks)))
        label_width = max(len(f"rank {r}") for r in ranks)
        lines = []
        for rank in ranks:
            row = [" "] * width
            priority = [0] * width
            for span in self.spans_of(rank):
                lo = int(span.start / horizon * width)
                hi = int(span.end / horizon * width)
                hi = min(max(hi, lo + 1), width)
                p = _PRIORITY[span.kind]
                symbol = _SYMBOLS[span.kind]
                for col in range(lo, hi):
                    if p > priority[col]:
                        priority[col] = p
                        row[col] = symbol
            lines.append(f"{f'rank {rank}'.rjust(label_width)} |{''.join(row)}|")
        pad = " " * label_width
        if self.events:
            lines.append(self._event_row(pad, width, horizon))
        lines.append(f"{pad} 0{' ' * (width - len(f'{horizon:.3g}'))}{horizon:.3g}s")
        lines.append(
            f"{pad}  " + "   ".join(f"{sym} {kind}" for kind, sym in _SYMBOLS.items())
        )
        if self.events:
            lines.extend(self._event_legend(pad))
        return "\n".join(lines)

    def _event_row(self, pad: str, width: int, horizon: float) -> str:
        """One marker row placing each injected event on the time axis."""
        row = [" "] * width
        priority = [0] * width
        for event in self.events:
            if event.time > horizon:
                continue  # overlay events past the replay; listed below
            col = min(width - 1, int(event.time / horizon * width))
            p = _EVENT_PRIORITY.get(event.kind, 0)
            if p > priority[col]:
                priority[col] = p
                row[col] = _EVENT_SYMBOLS.get(event.kind, "!")
        return f"{'faults'.rjust(len(pad))} |{''.join(row)}|"

    def _event_legend(self, pad: str, max_listed: int = 8) -> list[str]:
        """Textual annotations: one line per event (capped)."""
        lines = [
            f"{pad}  "
            + "   ".join(
                f"{sym} {kind}" for kind, sym in _EVENT_SYMBOLS.items()
            )
        ]
        for event in sorted(self.events, key=lambda e: e.time)[:max_listed]:
            where = ""
            if event.node is not None:
                where = f" node {event.node}"
            elif event.rank is not None:
                where = f" rank {event.rank}"
            label = f" ({event.label})" if event.label else ""
            lines.append(
                f"{pad}  @ {event.time:.4g}s {event.kind}{where}{label}"
            )
        if len(self.events) > max_listed:
            lines.append(
                f"{pad}  ... and {len(self.events) - max_listed} more events"
            )
        return lines



def utilisation_series(
    links: list[Link], *, horizon: float, bins: int = 32
) -> list[tuple[float, float]]:
    """Mean busy fraction of a link set over time, as (t, fraction) points.

    Requires the links to have been built with ``record_intervals``;
    links without recorded intervals contribute nothing.  Bins sum
    exactly (:func:`~repro.des.resources.exact_units`), so the series
    depends neither on the order flows were booked in nor on whether a
    folded link stands for several (listed repeatedly, or through
    :attr:`Link.multiplicity`).
    """
    if horizon <= 0 or bins < 1 or not links:
        return []
    width = horizon / bins
    weights: dict[int, list] = {}
    for link in links:
        if link.intervals is not None:
            entry = weights.setdefault(id(link), [link, 0])
            entry[1] += link.multiplicity
    if not weights:
        return []
    busy = [0] * bins
    for link, weight in weights.values():
        for start, end in link.intervals:
            lo = max(0, int(start / width))
            hi = min(bins - 1, int(end / width))
            for b in range(lo, hi + 1):
                bin_lo, bin_hi = b * width, (b + 1) * width
                overlap = min(end, bin_hi) - max(start, bin_lo)
                if overlap > 0:
                    busy[b] += exact_units(overlap, weight)
    recorded = sum(link.intervals is not None for link in links)
    return [
        ((b + 0.5) * width, from_exact_units(busy[b]) / (width * recorded))
        for b in range(bins)
    ]
