"""Command-line auto-tuner: ``repro-experiments tune WORKLOAD [...]``.

Also installed standalone as ``repro-tune``.  Takes a workload spec
(``qft-20``, ``qaoa-16``, ``random-14``, ...), an optional constraint
(``--deadline``/``--budget``/``--cost-cap``, plus ``--mtbf`` to tune
the checkpoint interval under a fault rate), and lever-space overrides,
and prints the Pareto frontier; ``--pareto-out`` writes the canonical
JSON document (byte-identical for identical requests).
"""

from __future__ import annotations

import argparse
import sys

from repro import settings
from repro.errors import ReproError
from repro.utils.cli import ArgumentParser, fail

__all__ = ["main"]

#: ``--shots`` prices N readout shots into every candidate point.
_FLAGS = (settings.SHOTS, settings.CACHE_DIR)


def _csv(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    """The tune subcommand's argument parser."""
    parser = ArgumentParser(
        prog="repro-tune",
        description=(
            "Search the lever space (frequency, nodes, ranks-per-node, "
            "comm mode, transpile strategy, fusion mode, checkpoint "
            "interval) for a workload's Pareto frontier of "
            "(energy, runtime, cost)."
        ),
    )
    parser.add_argument(
        "workload",
        help="workload spec: FAMILY-QUBITS (e.g. qft-20, qaoa-16, random-14)",
    )
    parser.add_argument(
        "--deadline", type=float, metavar="S",
        help="feasibility bound on predicted runtime (seconds)",
    )
    parser.add_argument(
        "--budget", type=float, metavar="J",
        help="feasibility bound on predicted energy (joules)",
    )
    parser.add_argument(
        "--cost-cap", type=float, metavar="CU",
        help="feasibility bound on node-hour cost (CUs)",
    )
    parser.add_argument(
        "--mtbf", type=float, metavar="S",
        help=(
            "job-level mean time between failures; enables the "
            "checkpoint-interval lever (see --checkpoints)"
        ),
    )
    parser.add_argument(
        "--nodes", metavar="N,N,...", default=None,
        help="node counts to sweep (default: 8,16,32)",
    )
    parser.add_argument(
        "--ranks-per-node", metavar="R,R,...", default=None,
        help="ranks-per-node values to sweep (default: 1)",
    )
    parser.add_argument(
        "--frequencies", metavar="F,F,...", default=None,
        help="frequencies to sweep, in GHz (default: 1.5,2.0,2.25)",
    )
    parser.add_argument(
        "--comm", metavar="MODE,...", default=None,
        help="comm modes to sweep (default: blocking,nonblocking)",
    )
    parser.add_argument(
        "--transpile", metavar="S,S,...", default=None,
        help="transpile strategies to sweep (default: naive,blocked,grouped)",
    )
    parser.add_argument(
        "--fusion", metavar="M,M,...", default=None,
        help="fusion modes to sweep (default: off,diag,full:4)",
    )
    parser.add_argument(
        "--checkpoints", metavar="S,S,...", default=None,
        help=(
            "checkpoint intervals (seconds) to sweep under --mtbf; "
            "'none' adds the no-checkpoint point"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="workload seed for seeded families (default: 23)",
    )
    parser.add_argument(
        "--no-spot-check", action="store_true",
        help="skip the DES replay of the frontier points",
    )
    parser.add_argument(
        "--pareto-out", metavar="FILE",
        help="write the frontier as canonical JSON",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the canonical JSON document instead of the table",
    )
    settings.add_flags(parser, *_FLAGS)
    return parser


def _build_space(args) -> "LeverSpace":
    from repro.machine.frequency import CpuFrequency
    from repro.mpi.datatypes import CommMode
    from repro.tune.levers import LeverSpace

    kwargs = {}
    if args.nodes:
        kwargs["node_counts"] = tuple(int(n) for n in _csv(args.nodes))
    if args.ranks_per_node:
        kwargs["ranks_per_node"] = tuple(
            int(r) for r in _csv(args.ranks_per_node)
        )
    if args.frequencies:
        kwargs["frequencies"] = tuple(
            CpuFrequency.from_ghz(float(f)) for f in _csv(args.frequencies)
        )
    if args.comm:
        kwargs["comm_modes"] = tuple(CommMode(m) for m in _csv(args.comm))
    if args.transpile:
        kwargs["transpile_strategies"] = tuple(_csv(args.transpile))
    if args.fusion:
        kwargs["fusion_modes"] = tuple(_csv(args.fusion))
    if args.checkpoints:
        intervals = []
        for token in _csv(args.checkpoints):
            intervals.append(None if token == "none" else float(token))
        kwargs["checkpoint_intervals_s"] = tuple(intervals)
    return LeverSpace(**kwargs)


def main(argv: list[str] | None = None) -> int:
    """CLI driver (returns a process exit code)."""
    args = build_parser().parse_args(argv)
    with settings.flags_applied(args, *_FLAGS):
        return _run(args)


def _run(args: argparse.Namespace) -> int:
    """Everything after argument parsing, under the flags' settings."""
    from repro.statevector.sampling import resolve_shots
    from repro.tune.search import Constraint, tune
    from repro.tune.workloads import DEFAULT_SEED, parse_workload

    try:
        settings.validate()
        shots = resolve_shots()
        workload = parse_workload(
            args.workload,
            seed=args.seed if args.seed is not None else DEFAULT_SEED,
        )
        space = _build_space(args)
        constraint = Constraint(
            deadline_s=args.deadline,
            energy_budget_j=args.budget,
            cost_cap_cu=args.cost_cap,
            mtbf_s=args.mtbf,
        )
        result = tune(
            workload,
            constraint,
            space,
            spot_check=not args.no_spot_check,
            shots=shots,
        )
    except (ReproError, ValueError) as exc:
        return fail(str(exc))

    if args.json:
        sys.stdout.write(result.to_json())
    else:
        print(result.render())
        best = result.best
        if best is not None:
            print(
                f"best (lowest energy): {best.lever.label()} -- "
                f"{best.objectives.energy_j:.2f} J in "
                f"{best.objectives.runtime_s:.4f} s"
            )
        if result.flagged:
            print(
                f"warning: DES disputes {len(result.flagged)} frontier "
                f"point(s) by more than 10%",
                file=sys.stderr,
            )
    if args.pareto_out:
        with open(args.pareto_out, "w", encoding="utf-8") as fh:
            fh.write(result.to_json())
        print(f"frontier written to {args.pareto_out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
