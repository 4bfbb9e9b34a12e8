"""Experiment registry: every table/figure/extension by id."""

from __future__ import annotations

import sys
from collections.abc import Callable

from repro.errors import ExperimentError
from repro.experiments import (
    ext_comm_modes,
    ext_des_crosscheck,
    ext_frequency,
    ext_fusion,
    ext_generic_cb,
    ext_gpu,
    ext_halved_swap,
    ext_layout,
    ext_overlap,
    ext_parallel,
    ext_precision,
    ext_ranks_per_node,
    ext_resilience,
    ext_sampling,
    ext_scaling,
    ext_transpile,
    ext_tune,
    ext_workloads,
    fig1_circuits,
    fig2_runtimes,
    fig3_fractional,
    fig4_swap,
    fig5_profiles,
    table1_hadamard,
    table2_best,
    validate,
)
from repro.experiments.reporting import Claim, ExperimentResult

__all__ = ["EXPERIMENTS", "run_experiment", "experiment_ids", "claims_of"]

#: id -> zero-config runner.
EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "fig1": fig1_circuits.run,
    "fig2": fig2_runtimes.run,
    "fig3": fig3_fractional.run,
    "tab1": table1_hadamard.run,
    "fig4": fig4_swap.run,
    "fig5": fig5_profiles.run,
    "tab2": table2_best.run,
    "ext-halved-swap": ext_halved_swap.run,
    "ext-frequency": ext_frequency.run,
    "ext-comm-modes": ext_comm_modes.run,
    "ext-generic-cb": ext_generic_cb.run,
    "ext-fusion": ext_fusion.run,
    "ext-gpu": ext_gpu.run,
    "ext-layout": ext_layout.run,
    "ext-precision": ext_precision.run,
    "ext-scaling": ext_scaling.run,
    "ext-ranks-per-node": ext_ranks_per_node.run,
    "ext-workloads": ext_workloads.run,
    "ext-overlap": ext_overlap.run,
    "ext-parallel": ext_parallel.run,
    "ext-des-crosscheck": ext_des_crosscheck.run,
    "ext-resilience": ext_resilience.run,
    "ext-sampling": ext_sampling.run,
    "ext-transpile": ext_transpile.run,
    "ext-tune": ext_tune.run,
    "validate": validate.run,
}


#: Spelled-out synonyms accepted on the command line.
ALIASES: dict[str, str] = {
    "table1": "tab1",
    "table2": "tab2",
    "figure1": "fig1",
    "figure2": "fig2",
    "figure3": "fig3",
    "figure4": "fig4",
    "figure5": "fig5",
}


def experiment_ids() -> list[str]:
    """All registered experiment ids, paper artefacts first."""
    return list(EXPERIMENTS)


def _runner(experiment_id: str) -> Callable[..., ExperimentResult]:
    canonical = experiment_id.replace("_", "-")
    canonical = ALIASES.get(canonical, canonical)
    runner = EXPERIMENTS.get(experiment_id) or EXPERIMENTS.get(canonical)
    if runner is None:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r} "
            f"(available: {', '.join(EXPERIMENTS)})"
        )
    return runner


def claims_of(experiment_id: str) -> tuple[Claim, ...]:
    """The claims declared next to an experiment (its module's ``CLAIMS``)."""
    runner = _runner(experiment_id)
    return getattr(sys.modules[runner.__module__], "CLAIMS", ())


def _call(
    runner: Callable[..., ExperimentResult],
    experiment_id: str,
    params: dict[str, object],
) -> ExperimentResult:
    try:
        return runner(**params)
    except TypeError as exc:
        if params:
            raise ExperimentError(
                f"bad parameters for {experiment_id!r}: {exc}"
            ) from exc
        raise


def run_experiment(experiment_id: str, **params: object) -> ExperimentResult:
    """Run one experiment by id (underscores accepted as dashes,
    ``table2``/``figure4``-style long forms accepted as aliases) and
    check its claims.

    Keyword ``params`` are forwarded to the runner, so shared constants
    (register sizes, node counts, workload seeds) can be overridden per
    call instead of living hard-coded in the experiment module:
    ``run_experiment("ext-workloads", num_qubits=12, seed=7)``.

    The verdicts land in ``result.verdicts``.  A default run checks
    every claim, running each non-default configuration a claim is made
    at once more; a run with ``params`` checks only the claims made at
    exactly those params.
    """
    runner = _runner(experiment_id)
    result = _call(runner, experiment_id, params)
    runs = [(params, result)]
    for claim in claims_of(experiment_id):
        if params and claim.params != params:
            continue
        run = next((r for p, r in runs if p == claim.params), None)
        if run is None:
            run = _call(runner, experiment_id, claim.params)
            runs.append((claim.params, run))
        result.verdicts.append(claim.check(run.metrics))
    return result
