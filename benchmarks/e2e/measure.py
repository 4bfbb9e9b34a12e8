"""One workload in one fresh process: set up, warm up, run the closed loop.

Run by the orchestrator (``benchmarks.e2e.cli``) as::

    python -m benchmarks.e2e.measure --workload NAME --seed N --workdir DIR
        [--seconds S] [--quick] [--trace] [--setup-only] [--trace-out PATH]

and prints one JSON object as its last line.  ``ready_at`` is the
``time.perf_counter()`` reading (CLOCK_MONOTONIC, shared by every
process on the host) when set-up finished, from which the orchestrator
derives ``setup_s``.

The load is a closed loop in this one process: each timed operation
starts when the previous one ends.  Within a round the legs run
round-robin and the starting leg rotates from round to round, so host
drift hits every leg alike.  Every leg runs once untimed first.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from collections import defaultdict

from repro.parallel import get_pool
from repro.parallel.tcp import get_tcp_pool

from benchmarks.e2e.stats import host_probe
from benchmarks.e2e.workloads import (
    EXECUTOR_LEGS,
    HOSTS,
    LEGS,
    REFERENCE_SECONDS,
    SPECS,
    Tracer,
    des_agrees,
    executor_check,
    executor_op,
    frontier_key,
    predict_op,
    prediction_key,
    quick_spec,
    setup,
    tune_ops,
)

#: The warm-up runs serial first: its result is every check's reference.
WARMUP_ORDER = ("serial",) + tuple(leg for leg in LEGS if leg != "serial")


def rotated(legs: tuple[str, ...], start: int) -> tuple[str, ...]:
    """``legs`` starting at index ``start`` (mod len), wrapping around."""
    k = start % len(legs)
    return legs[k:] + legs[:k]


def due(index: int, repeats: int, rounds: int) -> bool:
    """Whether a leg owed ``repeats`` of ``rounds`` runs in round ``index``.

    Spreads the repeats evenly over the rounds, so a leg with few
    repeats samples the whole run, not just its start.
    """
    return (index + 1) * repeats // rounds > index * repeats // rounds


class Loop:
    """The closed loop over one workload's legs, with output checks.

    ``attempted`` counts every operation run (warm-ups included) and
    ``failed`` every one that raised or returned a wrong result.  An
    optional ``observer`` (``before()`` / ``after(metric, token, result)``)
    sees each operation outside its timed region.
    """

    def __init__(self, inputs, tracer: Tracer):
        self.inputs = inputs
        self.tracer = tracer
        self.executors = {leg: executor_op(inputs, leg, tracer) for leg in EXECUTOR_LEGS}
        self.predict = predict_op(inputs, "analytic", tracer)
        self.des = predict_op(inputs, "des", tracer)
        self.tune_cold, self.tune_warm, self.tune_cleanup = tune_ops(inputs, tracer)
        self.refs: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.observer = None

    def _timed(self, metric: str, fn, check, into):
        """Run, time and check one operation; returns (result, seconds).

        ``into[metric]`` receives ``[seconds, probe]``, where ``probe``
        is the mean host-speed probe just before and just after the
        operation (see :mod:`benchmarks.e2e.stats`).
        """
        token = self.observer.before() if self.observer else None
        self.attempted += 1
        self.tracer.new_op()
        probe_before = host_probe()
        t0 = time.perf_counter()
        try:
            with self.tracer.span(f"op:{metric}", "benchmark"):
                result = fn()
        except Exception:  # an operation that raises is a counted failure
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None, time.perf_counter() - t0
        dt = time.perf_counter() - t0
        probe = (probe_before + host_probe()) / 2
        try:
            ok = check(result)
        except Exception:  # a check that cannot run counts as failing
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            print(f"check failed: {self.inputs.spec.name} {metric}", file=sys.stderr)
        if into is not None:
            into[metric].append([dt, probe])
        if self.observer:
            self.observer.after(metric, token, result)
        return result, dt

    def _first_or_equal(self, key: str, value) -> bool:
        """The first value of ``key`` becomes its reference; later ones must equal it."""
        if key not in self.refs:
            self.refs[key] = value
            return True
        return self.refs[key] == value

    def _check_serial(self, result) -> bool:
        if "serial" not in self.refs:
            self.refs["serial"] = result
            return True
        return executor_check("serial", result, self.refs["serial"])

    def run_leg(self, leg: str, into) -> float:
        """Run one leg (tune runs cold then warm); returns its seconds."""
        if leg == "serial":
            return self._timed("serial_s", self.executors[leg], self._check_serial, into)[1]
        if leg in EXECUTOR_LEGS:

            def check(result, leg=leg):
                return executor_check(leg, result, self.refs.get("serial"))

            return self._timed(f"{leg}_s", self.executors[leg], check, into)[1]
        if leg == "predict":

            def check(result):
                return self._first_or_equal("predict", prediction_key(result))

            return self._timed("predict_s", self.predict, check, into)[1]
        if leg == "des":

            def check(result):
                return des_agrees(result) and self._first_or_equal("des", prediction_key(result))

            return self._timed("des_s", self.des, check, into)[1]
        try:
            cold, t_cold = self._timed(
                "tune_s",
                self.tune_cold,
                lambda r: self._first_or_equal("tune", frontier_key(r)),
                into,
            )
            expected = frontier_key(cold) if cold is not None else None
            _warm, t_warm = self._timed(
                "tune_warm_s",
                self.tune_warm,
                lambda r: expected is not None and frontier_key(r) == expected,
                into,
            )
        finally:
            self.tune_cleanup()
        return t_cold + t_warm

    def warmup(self) -> None:
        for leg in WARMUP_ORDER:
            self.run_leg(leg, None)

    def run_round(self, index: int, repeats: dict[str, int], into) -> float:
        """One round of the legs due in it, rotated by ``index``."""
        rounds = max(repeats.values())
        return sum(
            self.run_leg(leg, into)
            for leg in rotated(LEGS, index)
            if due(index, repeats[leg], rounds)
        )

    def run(self, scale: float) -> dict[str, list[list[float]]]:
        """Every leg's fixed repeat count; ``[seconds, probe]`` by metric."""
        repeats = {leg: self.inputs.spec.repeats(leg, scale) for leg in LEGS}
        timings: dict[str, list[list[float]]] = defaultdict(list)
        for index in range(max(repeats.values())):
            self.run_round(index, repeats, timings)
        return dict(timings)


def _vm_hwm_bytes(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus every live pool worker, in MB.

    An over-count: pages shared between processes (numpy, the repro
    package, shared-memory segments) count once per process.
    """
    pids = [os.getpid()]
    pids += [p for p in get_pool().worker_pids() if p]
    pids += [p for p in get_tcp_pool(HOSTS).worker_pids() if p]
    return sum(_vm_hwm_bytes(pid) for pid in pids) / 1e6


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.measure")
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", help="Chrome trace path (with --trace)")
    args = parser.parse_args(argv)

    spec = SPECS[args.workload]
    if args.quick:
        spec = quick_spec(spec)
    inputs = setup(spec, args.seed, args.workdir)
    ready_at = time.perf_counter()
    record: dict = {"ready_at": ready_at}
    if not args.setup_only:
        tracer = Tracer()
        loop = Loop(inputs, tracer)
        loop.warmup()
        if args.trace:
            from benchmarks.e2e.layers import measure_layers

            record.update(measure_layers(loop, quick=args.quick, trace_out=args.trace_out))
        else:
            record["timings"] = loop.run(args.seconds / REFERENCE_SECONDS)
            record["peak_rss_mb"] = peak_rss_mb()
        record["attempted"] = loop.attempted
        record["failed"] = loop.failed
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
