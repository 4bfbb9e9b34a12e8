"""``python -m benchmarks.e2e``: run the workloads, print, check, compare.

Run::

    python -m benchmarks.e2e --seed 7 [--workload NAME] [--trace] [--out PATH]
    python -m benchmarks.e2e compare PARENT.json CHANGE.json [CHANGE.json ...]

Each workload runs in fresh subprocesses (``benchmarks.e2e.measure``):
four that only set up, and one that sets up and then measures, so
``setup_s`` is the median of five.  Every metric is printed by name
with its unit; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is non-zero when any operation failed or returned a wrong result.

``--trace`` (or ``--trace 1``) runs the traced per-layer measurement
instead and reports the per-layer metrics.  ``--out PATH`` appends the
run's full records (sample counts, medians, tail percentiles, host
details) to ``PATH``; ``compare`` reads two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e.stats import MIN_PAIRS, host_probe, summarize, verdict

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
OUT_DIR = BENCH_DIR / "out"

#: Fresh processes behind each ``setup_s`` median.
SETUP_SAMPLES = 5

#: Wall-clock limit of one child process, in seconds.
CHILD_TIMEOUT_S = 150

#: Thread settings every child runs with (one BLAS thread per process),
#: and a fixed string-hash seed so dict layouts repeat from run to run.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: Pool size: two workers, the host's core count.
POOL_ENV = {"REPRO_POOL_WORKERS": "2"}


class ChildFailed(RuntimeError):
    """A measurement subprocess exited non-zero or printed no record."""


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _child_env(workdir: Path) -> dict:
    """The parent environment without ``REPRO_*`` knobs, plus fixed settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(THREAD_ENV)
    env.update(POOL_ENV)
    env["TMPDIR"] = str(workdir)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def run_child(args: list[str], workdir: Path) -> dict:
    """Run one measurement subprocess; its record plus ``setup_s``.

    ``setup_probe``, which scales ``setup_s``, is the median of three
    host-speed probes just before the child starts.
    """
    setup_probe = statistics.median(host_probe() for _ in range(3))
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.measure", *args, "--workdir", str(workdir)],
        cwd=ROOT,
        env=_child_env(workdir),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"measurement process exited {proc.returncode}: {' '.join(args)}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready_at"] - started
    record["setup_probe"] = setup_probe
    return record


def host_details() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        **THREAD_ENV,
        **POOL_ENV,
    }


def run_workload(name: str, seed: int, *, seconds: float, quick: bool, trace: bool) -> dict:
    """Measure one workload; returns its full record.

    The traced run writes its Chrome trace to
    ``benchmarks/e2e/out/trace-<workload>-<seed>.json``.
    """
    bench = load_benchmark()
    workdir = OUT_DIR / f"work-{os.getpid()}-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed)] + (["--quick"] if quick else [])
    try:
        setups = []
        if not trace and not quick:
            setups = [
                run_child(common + ["--setup-only"], workdir)
                for _ in range(SETUP_SAMPLES - 1)
            ]
        extra = ["--seconds", str(seconds)]
        if trace:
            extra += ["--trace", "--trace-out", str(OUT_DIR / f"trace-{name}-{seed}.json")]
        child = run_child(common + extra, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics: dict[str, dict] = {}
    if trace:
        for entry in bench["per_layer"]:
            if entry["name"] in child["layers"]:
                metrics[entry["name"]] = {
                    "value": child["layers"][entry["name"]],
                    "unit": entry["unit"],
                }
    else:
        samples = dict(child["timings"])
        samples["setup_s"] = [[r["setup_s"], r["setup_probe"]] for r in setups + [child]]
        for entry in bench["end_to_end"]:
            metric = entry["name"]
            if metric == "peak_rss_mb":
                metrics[metric] = {"value": child["peak_rss_mb"], "unit": entry["unit"]}
            elif samples.get(metric):
                summary = summarize(samples[metric])
                metrics[metric] = {
                    "value": summary["median"],
                    "unit": entry["unit"],
                    **summary,
                    "samples": samples[metric],
                }
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    missing = [e["name"] for e in expected if e["name"] not in metrics]
    failed = child["failed"] + len(missing)
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "quick": quick,
        "correct": failed == 0,
        "attempted": child["attempted"],
        "failed": failed,
        "failure_rate": failed / max(1, child["attempted"]),
        "missing": missing,
        "metrics": metrics,
        "host": host_details(),
    }
    if trace:
        record["layer_table"] = child["layer_table"]
        record["memory"] = child["memory"]
        record["trace_path"] = os.path.relpath(child["trace_path"], ROOT)
    return record


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_record(record: dict) -> None:
    print(
        f"== {record['workload']} seed={record['seed']} "
        f"{'traced' if record['trace'] else 'untraced'}: "
        f"{record['attempted']} ops, {record['failed']} failed "
        f"(failure_rate {record['failure_rate']:.4g})"
    )
    for name, m in record["metrics"].items():
        line = f"  {name:<34} {_fmt(m['value']):>12} {m['unit']}"
        if "n" in m:
            tail = f", p{m['tail_pct']:g} {_fmt(m['tail'])}" if m["tail"] is not None else ""
            line += f"  (n={m['n']}, median{tail}; raw median {_fmt(m['raw_median'])})"
        print(line)
    for name in record["missing"]:
        print(f"  {name:<34} MISSING")
    if record.get("memory"):
        mem = record["memory"]
        print(f"  stream array {mem['stream_bytes']} B, last-level cache {mem['llc_bytes']} B")
    if record.get("layer_table"):
        print(f"  {'op':<14} {'layer':<26} {'where':<8} {'self s/op':>11} {'share':>7}")
        for row in record["layer_table"]:
            print(
                f"  {row['op']:<14} {row['layer']:<26} {row['where']:<8} "
                f"{row['self_s']:>11.6f} {row['share']:>7.1%}"
            )
        print(f"  chrome trace: {record['trace_path']}")


def append_out(path: Path, records: list[dict]) -> None:
    """Append ``records`` to the ``runs`` list of the JSON file at ``path``."""
    doc = {"runs": []}
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["runs"].extend(records)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def result_line(records: list[dict]) -> dict:
    """The final JSON line: one workload flat, several nested by workload."""
    plain = {
        r["workload"]: {k: {"value": m["value"], "unit": m["unit"]} for k, m in r["metrics"].items()}
        for r in records
    }
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": plain[records[0]["workload"]] if len(records) == 1 else plain,
    }


def compare(parent_path: Path, change_path: Path, bench: dict) -> int:
    """Print one row per workload; returns 1 on any regression."""
    def runs(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        out: dict[str, list[dict]] = {}
        for r in doc["runs"]:
            if not r["trace"] and not r.get("quick"):
                out.setdefault(r["workload"], []).append(r)
        return out

    parent, change = runs(parent_path), runs(change_path)
    print(f"compare {parent_path} -> {change_path}")
    print(f"  {'workload':<15} {'pairs':>5}  gains | regressions | unresolved")
    worst = 0
    for workload in sorted(set(parent) & set(change)):
        pairs = min(len(parent[workload]), len(change[workload]))
        by_verdict: dict[str, list[str]] = {}
        details = []
        for entry in bench["end_to_end"]:
            name = entry["name"]
            p = [r["metrics"][name]["value"] for r in parent[workload][:pairs]]
            c = [r["metrics"][name]["value"] for r in change[workload][:pairs]]
            v = verdict(p, c, entry["bound"], entry["better"])
            by_verdict.setdefault(v, []).append(name)
            details.append(
                f"    {name:<14} parent {statistics.median(p):.6g}  "
                f"change {statistics.median(c):.6g} {entry['unit']}  {v}"
            )
        if "too-few-pairs" in by_verdict:
            print(f"  {workload:<15} {pairs:>5}  fewer than {MIN_PAIRS} pairs: no verdict")
            worst = max(worst, 2)
            continue
        print(
            f"  {workload:<15} {pairs:>5}  "
            f"{', '.join(by_verdict.get('gain', [])) or '-'} | "
            f"{', '.join(by_verdict.get('regression', [])) or '-'} | "
            f"{', '.join(by_verdict.get('unresolved', [])) or '-'}"
        )
        print("\n".join(details))
        if "regression" in by_verdict:
            worst = max(worst, 1)
    return worst


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    bench = load_benchmark()
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
        parser.add_argument("parent", type=Path)
        parser.add_argument("changes", type=Path, nargs="+")
        args = parser.parse_args(argv[1:])
        return max(compare(args.parent, change, bench) for change in args.changes)

    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="run the traced per-layer measurement instead",
    )
    parser.add_argument("--quick", action="store_true", help="tiny sizes, one repeat")
    parser.add_argument("--out", type=Path, help="append full records to this JSON file")
    args = parser.parse_args(argv)

    records = []
    for name in [args.workload] if args.workload else names:
        try:
            record = run_workload(
                name, args.seed, seconds=args.seconds, quick=args.quick, trace=bool(args.trace)
            )
        except (ChildFailed, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_record(record)
        records.append(record)
    if args.out:
        append_out(args.out, records)
    line = result_line(records)
    print(json.dumps(line))
    return 0 if line["correct"] else 1
