"""Host-speed scaling, sample summaries and the comparison rule.

The shared 2-vCPU reference host runs the benchmark up to about 1.6x
slower while a co-tenant is busy, for seconds to minutes at a time.  So
every timed operation is paired with :func:`host_probe`, a fixed
pure-Python loop run just before and just after it, and reported at the
reference host's uncontended speed: ``seconds * PROBE_REFERENCE_S /
probe``.  The raw seconds are kept beside the scaled ones (README.md
has the measurements behind this).

Every timing is summarised the same way: the sample count, the median,
and the highest percentile that still has at least ten samples above it
(p66 at n=30), all of the scaled times, plus the raw median.  Only the
median is gated.

:func:`verdict` is the rule a change is judged by, per end-to-end metric
and workload, over alternating parent/change runs:

* a *gain* needs at least 10 pairs, the change winning at least 9/10 of
  them (ties count for neither side), and the medians differing by more
  than the parent's own inter-quartile range;
* otherwise the change is a *regression* when its median is worse than
  the parent's by more than the metric's bound, *unresolved* when the
  parent's own spread is wider than the bound (unless every change run
  beats every parent run), and *unchanged* otherwise.
"""

from __future__ import annotations

import statistics
import time

#: Fewest alternating pairs a verdict may rest on.
MIN_PAIRS = 10

#: Share of the pairs the change must win to claim a gain.
WIN_SHARE = 0.9

#: Samples that must lie above the reported tail percentile.
TAIL_SAMPLES = 10

#: Iterations of the host-speed probe's arithmetic loop.
PROBE_ITERATIONS = 20_000

#: Tuples the host-speed probe builds, sorts and folds.
PROBE_ITEMS = 4_000

#: The probe's time on the reference host when no co-tenant is busy
#: (5th percentile of 1200 probes).
PROBE_REFERENCE_S = 2.05e-3


def host_probe() -> float:
    """Seconds a fixed pure-Python workload takes right now.

    An arithmetic loop plus building, sorting and folding a list of
    tuples: interpreter and allocator work like the model and dispatch
    code's.  Either part alone tracked contention less well.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i
    items = []
    for i in range(PROBE_ITEMS):
        items.append((i & 255, i))
    items.sort()
    folded: dict[int, int] = {}
    for key, value in items:
        folded[key] = folded.get(key, 0) + value
    return time.perf_counter() - t0


def summarize(pairs: list[tuple[float, float]]) -> dict:
    """Summary of ``(seconds, probe seconds)`` samples of one operation.

    ``median`` and the tail are of the probe-scaled times;
    ``tail_pct``/``tail`` are None when there are too few samples for a
    percentile with 10 samples above it to exist (n <= 10).
    """
    ordered = sorted(t * PROBE_REFERENCE_S / probe for t, probe in pairs)
    n = len(ordered)
    out = {
        "n": n,
        "median": statistics.median(ordered),
        "tail_pct": None,
        "tail": None,
        "raw_median": statistics.median(t for t, _probe in pairs),
    }
    k = n - TAIL_SAMPLES  # 1-based rank of the tail value
    if k >= 1:
        out["tail_pct"] = round(100.0 * k / n, 1)
        out["tail"] = ordered[k - 1]
    return out


def iqr(values: list[float]) -> float:
    """Distance between the first and third quartile."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> str:
    """Judge one metric on one workload from runs paired by index.

    Returns ``gain``, ``regression``, ``unresolved``, ``unchanged`` or
    ``too-few-pairs``.  ``better`` is ``"lower"`` or ``"higher"``;
    ``bound`` is the share of the parent median the change may lose.
    """
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return "too-few-pairs"
    parent = [p for p, _c in pairs]
    change = [c for _p, c in pairs]
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    mp = statistics.median(parent)
    mc = statistics.median(change)
    spread = iqr(parent)
    if wins >= WIN_SHARE * len(pairs) and sign * (mp - mc) > spread:
        return "gain"
    if better == "lower":
        every_run_better = max(change) < min(parent)
    else:
        every_run_better = min(change) > max(parent)
    if every_run_better:
        return "unchanged"
    if mp and spread / abs(mp) > bound:
        return "unresolved"
    worse = sign * (mc - mp) / abs(mp) if mp else 0.0
    return "regression" if worse > bound else "unchanged"
