"""``repro.transpile``: the communication-minimizing pass pipeline.

The paper's cache-blocking transpiler makes every pairing gate local by
inserting full-buffer SWAP exchanges.  This package generalises it into
a Qiskit-style pass manager whose headline strategy, ``grouped``,
replaces those SWAPs with *remap collectives*: batched local/global
transpositions executed as bucket routing, moving ``(2**g - 1)/2**g``
of a rank's slice instead of one-or-more full buffers (see
``docs/TRANSPILE.md`` for the pass catalog and a worked QFT example).

Strategies::

    naive    -- run the circuit as written (identity pipeline)
    blocked  -- the paper's cache-blocking pass (full-exchange SWAPs)
    grouped  -- commutation-aware reorder + gate grouping + remaps

Entry point::

    from repro.transpile import transpile
    result = transpile(circuit, partition, strategy="grouped")
    # result.circuit, result.output_permutation, result.stats

``REPRO_TRANSPILE=<strategy>`` selects a strategy globally (the runner
consults it when ``RunOptions.transpile`` is unset); an unknown value
fails with a one-line :class:`~repro.errors.ValidationError`.
"""

from __future__ import annotations

from repro import obs, settings
from repro.circuits.circuit import Circuit
from repro.errors import ValidationError
from repro.statevector.partition import Partition
from repro.transpile.analysis import (
    CommutationAnalysis,
    QubitInteractionAnalysis,
    gates_commute,
)
from repro.transpile.basepass import (
    AnalysisPass,
    PassResult,
    TransformationPass,
    TranspilePassManager,
    identity_permutation,
)
from repro.transpile.cache_blocking import CacheBlockingPass, cache_block
from repro.transpile.grouping import GateGroupFormationPass
from repro.transpile.metrics import ScheduleMetrics, schedule_metrics
from repro.transpile.property_set import PropertySet
from repro.transpile.reorder import CommutationReorderPass
from repro.transpile.result import TranspileResult
from repro.transpile.selection import GlobalQubitSelectionPass

__all__ = [
    "STRATEGIES",
    "TRANSPILE_ENV",
    "resolve_strategy",
    "build_pipeline",
    "transpile",
    "TranspileResult",
    "TranspilePassManager",
    "AnalysisPass",
    "TransformationPass",
    "PassResult",
    "PropertySet",
    "QubitInteractionAnalysis",
    "CommutationAnalysis",
    "CommutationReorderPass",
    "GlobalQubitSelectionPass",
    "GateGroupFormationPass",
    "CacheBlockingPass",
    "cache_block",
    "ScheduleMetrics",
    "schedule_metrics",
    "gates_commute",
]

#: Recognised strategies, in increasing communication savings.
STRATEGIES = settings.TRANSPILE.choices

#: Environment knob: selects a strategy when the caller passes none.
TRANSPILE_ENV = settings.TRANSPILE.name


def resolve_strategy(
    value: str | None = None, *, default: str | None = None
) -> str | None:
    """The strategy: explicit ``value``, else ``$REPRO_TRANSPILE``, else
    ``default``.  An unknown name is a one-line :class:`ValidationError`."""
    if value is None:
        value = settings.get(settings.TRANSPILE)
        return default if value is None else value
    return settings.TRANSPILE.parse(value, "strategy")


def build_pipeline(
    strategy: str,
    *,
    max_remap_pairs: int = 1,
    lookahead: int = 64,
) -> list[AnalysisPass | TransformationPass]:
    """The pass list of one strategy (empty for ``naive``)."""
    name = resolve_strategy(strategy)
    if name == "naive":
        return []
    if name == "blocked":
        return [CacheBlockingPass()]
    return [
        QubitInteractionAnalysis(),
        CommutationAnalysis(),
        CommutationReorderPass(),
        GlobalQubitSelectionPass(),
        GateGroupFormationPass(
            max_remap_pairs=max_remap_pairs, lookahead=lookahead
        ),
    ]


def transpile(
    circuit: Circuit,
    partition: Partition,
    *,
    strategy: str | None = None,
    max_remap_pairs: int = 1,
    lookahead: int = 64,
) -> TranspileResult:
    """Transpile ``circuit`` for ``partition`` under one strategy.

    ``strategy=None`` defers to ``$REPRO_TRANSPILE``, falling back to
    ``grouped``.  The result's ``output_permutation`` records where each
    logical qubit ended up; executing ``result.circuit`` equals
    executing ``circuit`` with the statevector's index bits relabelled
    by that map (the property suite asserts this across executors).
    """
    name = resolve_strategy(strategy, default="grouped")
    if name == "grouped" and circuit.has_measurements():
        # The commutation reorder assumes a unitary gate stream;
        # commuting a gate across a collapse changes the sampled
        # distribution, not just the layout.  ``blocked`` keeps gate
        # order and only relabels qubits, so it passes.
        raise ValidationError(
            f"transpile strategy {name!r} cannot reorder a circuit with "
            "mid-circuit measurements; use strategy='naive' or 'blocked'"
        )
    before = schedule_metrics(circuit, partition)
    passes = build_pipeline(
        name, max_remap_pairs=max_remap_pairs, lookahead=lookahead
    )
    with obs.span(
        "transpile",
        strategy=name,
        gates=len(circuit),
        qubits=circuit.num_qubits,
        ranks=partition.num_ranks,
    ):
        if not passes:
            result = PassResult(
                circuit=Circuit(
                    circuit.num_qubits, circuit.gates, name=circuit.name
                ),
                output_permutation=identity_permutation(circuit.num_qubits),
            )
            properties = PropertySet()
        else:
            manager = TranspilePassManager(passes)
            result, properties = manager.run(circuit, partition)
    # The identity pipeline returns the input's gates unchanged, so its
    # metrics are the input's; otherwise plan the output (inside a
    # plan_reuse() scope, later traces of it reuse these plans).
    after = (
        before if not passes else schedule_metrics(result.circuit, partition)
    )
    eliminated = max(0, before.exchange_rounds - after.exchange_rounds)
    stats = dict(result.stats)
    stats["exchange_rounds_before"] = before.exchange_rounds
    stats["exchange_rounds_after"] = after.exchange_rounds
    stats["exchange_rounds_eliminated"] = eliminated

    groups = stats.get("gate_grouping.groups_formed", 0)
    remap_pairs = stats.get("gate_grouping.remap_pairs", 0)
    obs.counter("repro_transpile_runs_total", strategy=name).inc()
    if groups:
        obs.counter("repro_transpile_groups_total").inc(groups)
    if remap_pairs:
        obs.counter("repro_transpile_remaps_total").inc(remap_pairs)
    if eliminated:
        obs.counter("repro_transpile_exchanges_eliminated_total").inc(
            eliminated
        )
    return TranspileResult(
        circuit=result.circuit,
        output_permutation=result.output_permutation,
        strategy=name,
        stats=stats,
        properties=properties,
    )
