"""Command-line entry point: ``repro-experiments [ids...]``.

Running with no arguments regenerates every table and figure; passing
ids (``fig2 tab1 ...``) restricts the set.  ``--list`` prints the
registry.  ``--trace-out``/``--metrics`` turn on the observability
layer (:mod:`repro.obs`): the run emits a Perfetto-loadable Chrome
trace and a metrics dump covering the predictor, the cache, the worker
pool and the DES replay.
"""

from __future__ import annotations

import argparse
import sys

from repro import settings
from repro.errors import ValidationError
from repro.utils.cli import ArgumentParser, fail

__all__ = ["main"]

#: The settings whose variables these flags override, for one command.
_FLAGS = (settings.CACHE_DIR, settings.TRANSPILE, settings.FUSION, settings.SHOTS)


def main(argv: list[str] | None = None) -> int:
    """CLI driver (returns a process exit code)."""
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] == "tune":
        # The auto-tuner rides along as a subcommand:
        # ``repro-experiments tune qft-20 --deadline 0.01 ...``.
        from repro.tune.cli import main as tune_main

        return tune_main(raw[1:])
    parser = ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'Energy Efficiency of "
            "Quantum Statevector Simulation at Scale' (SC-W 2023) from "
            "the calibrated ARCHER2 model."
        ),
    )
    parser.add_argument(
        "ids",
        nargs="*",
        help="experiment ids to run (default: all)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON document with every result instead of tables",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        help="also write every result as one markdown report",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run experiments across N pool workers (default: inline, or "
            "2 workers when --trace-out/--metrics is given)"
        ),
    )
    settings.add_flags(parser, *_FLAGS)
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help=(
            "enable span tracing and write a Chrome trace_event JSON "
            "file (load it at https://ui.perfetto.dev)"
        ),
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="enable observability and print the metrics summary to stderr",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        help=(
            "enable observability and write the metrics registry in "
            "Prometheus text format"
        ),
    )
    args = parser.parse_args(raw)
    with settings.flags_applied(args, *_FLAGS):
        return _run(args)


def _run(args: argparse.Namespace) -> int:
    """Everything after argument parsing, under the flags' settings."""
    # Every REPRO_* variable and settings flag, checked before any work
    # and before the registry import pulls in the modules that read them.
    try:
        settings.validate()
    except ValidationError as exc:
        return fail(str(exc))

    from repro.experiments.registry import experiment_ids

    if args.list:
        for experiment_id in experiment_ids():
            print(experiment_id)
        return 0

    # Rejected here with a one-line error, not a traceback from deep
    # inside parallel_runner.
    if args.jobs is not None and args.jobs < 1:
        return fail(f"--jobs must be >= 1, got {args.jobs}")

    from repro import obs

    observing = bool(args.trace_out or args.metrics or args.metrics_out)
    if observing:
        obs.reset()
        obs.enable()
    jobs = args.jobs
    if jobs is None:
        # Under observability, default to a small pool so the trace
        # shows the cross-process seams (worker spans, barrier waits).
        jobs = 2 if observing else 1

    from repro.experiments.parallel_runner import run_experiments_parallel

    ids = args.ids or experiment_ids()
    status = 0
    collected = []
    results = []
    printed = 0
    for experiment_id, result, error in run_experiments_parallel(
        ids, jobs=jobs
    ):
        if error is not None:
            print(f"error: {experiment_id}: {error}", file=sys.stderr)
            status = 2
            continue
        results.append(result)
        if args.json:
            collected.append(result.to_dict())
        else:
            if printed:
                print()
            printed += 1
            print(result.render())
    if args.json:
        import json

        print(json.dumps(collected, indent=2))
    if args.report:
        header = (
            "# Reproduction report: Energy Efficiency of Quantum "
            "Statevector Simulation at Scale\n\n"
            "Regenerated by `repro-experiments`; see EXPERIMENTS.md for "
            "the paper-vs-measured discussion.\n\n"
        )
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(header)
            fh.write("\n".join(r.to_markdown() for r in results))
        print(f"report written to {args.report}", file=sys.stderr)
    if args.trace_out:
        events = obs.write_chrome_trace(args.trace_out)
        print(
            f"trace written to {args.trace_out} ({events} spans)",
            file=sys.stderr,
        )
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(obs.prometheus_text())
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    if args.metrics:
        print(obs.summary(), file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
