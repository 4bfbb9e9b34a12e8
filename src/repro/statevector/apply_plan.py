"""Per-circuit compiled apply plans for the numeric simulators.

Applying a circuit gate by gate repeats per-gate work that depends only
on the circuit, not on the amplitudes: registry lookups and matrix
construction in :meth:`Gate.matrix`, the diagonal/swap/single/generic
classification, and the kernel dispatch.  :func:`compile_plan` does all
of that once, producing a sequence of :class:`ApplyStep` records with
the gate matrix (or diagonal vector) already materialised, and fuses
runs of adjacent diagonal gates into a single strided sweep (the same
optimisation QuEST applies to the QFT's phase ladders, here applied to
*any* adjacent diagonals).

Under ``REPRO_FUSION=full`` (or an explicit ``fusion=`` argument) a
second, cost-model-gated pass additionally collapses runs of adjacent
gates whose combined target/control support fits in ``k`` qubits into a
single ``fused_block`` batched matmul, and runs of disjoint uncontrolled
local SWAPs into one gather permutation -- mpiQulacs-style general gate
fusion.  Every fuse decision compares the estimated memory-pass cost of
the run against the fused kernel using the calibrated model in
:mod:`repro.statevector.fusion`, so diagonal sweeps, 2x2 fast paths and
other ill-suited runs keep their existing cheaper lowerings.  Fusion
runs *after* the transpiler's gate stream is fixed and *before* kernel
lowering (see ``docs/TRANSPILE.md``); block/permutation fusion is
locality-aware -- on the distributed executors only runs entirely
inside the local qubit range fuse, so the exchange layer still sees
every communicating gate individually.

Both executors consume plans: :meth:`DenseStatevector.apply_circuit`
runs each step directly on the full amplitude array, and
:meth:`DistributedStatevector.apply_circuit` runs the local part of each
step per rank (reducing fused diagonals over the rank-index bits).
Plans are cached per circuit, so re-applying the same circuit object --
the common pattern in parameter sweeps and the property suite -- skips
compilation entirely.

Compilation has a structural half and a materialising half.
:func:`fusion_units` decides which gates merge into which steps, from
gate structure alone; :func:`compile_plan` then builds each step's
operator.  The tuner prices fusion modes from the structural half only
(:func:`~repro.statevector.fusion.unit_cost`), since a step's kernel
class depends only on its unit gate.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, replace

import numpy as np

from repro.circuits.circuit import Circuit
from repro.errors import SimulationError
from repro.gates import Gate
from repro.statevector import gate_kernels as kernels
from repro.statevector.fusion import (
    FusionConfig,
    resolve_fusion,
    should_fuse_block,
    should_fuse_perm,
)

__all__ = [
    "StepKind",
    "ApplyStep",
    "ApplyPlan",
    "compile_plan",
    "compile_gate_step",
    "fusion_units",
    "fused_circuit",
    "reduce_diagonal",
    "clear_plan_cache",
    "MAX_FUSED_QUBITS",
]

#: Fused diagonal sweeps are capped at this many distinct qubits so the
#: materialised diagonal vector (``2**k`` entries) stays trivially small.
MAX_FUSED_QUBITS = 10


class StepKind(enum.Enum):
    """Kernel class of one apply step (fixed at compile time)."""

    DIAGONAL = "diagonal"
    SINGLE = "single"
    SWAP = "swap"
    GENERIC = "generic"
    REMAP = "remap"
    FUSED = "fused"
    MEASURE = "measure"


@dataclass(frozen=True)
class ApplyStep:
    """One compiled operation: classified, with its operator materialised.

    ``gate`` is the gate the executors plan/observe with (for a fused
    run it is the synthetic ``fused_diag`` gate); ``gates`` are the
    original circuit gates the step covers, in order.
    """

    kind: StepKind
    gate: Gate
    gates: tuple[Gate, ...]
    targets: tuple[int, ...]
    controls: tuple[int, ...]
    #: Target-space matrix for SINGLE/GENERIC steps, else None.
    matrix: np.ndarray | None = None
    #: Diagonal vector (first target = LSB) for DIAGONAL steps, else None.
    diag: np.ndarray | None = None

    @property
    def num_gates(self) -> int:
        """Original gates covered (> 1 only for fused diagonal runs)."""
        return len(self.gates)

    def run_local(self, amps: np.ndarray) -> None:
        """Execute the step on a local amplitude array, in place."""
        if self.kind is StepKind.MEASURE:
            raise SimulationError(
                "a MEASURE step needs executor state (seed, ordinal, "
                "norm reduction); dispatch it via the executor, not "
                "run_local"
            )
        if self.kind is StepKind.DIAGONAL:
            kernels.apply_diagonal(amps, self.diag, self.targets, self.controls)
        elif self.kind is StepKind.SWAP:
            kernels.apply_swap_local(
                amps, self.targets[0], self.targets[1], self.controls
            )
        elif self.kind is StepKind.REMAP:
            kernels.apply_permutation(amps, self.gate.swap_pairs())
        elif self.kind is StepKind.FUSED:
            kernels.apply_unitary_batched(
                amps, self.matrix, self.targets, self.controls
            )
        else:
            kernels.apply_matrix(amps, self.matrix, self.targets, self.controls)


@dataclass(frozen=True)
class ApplyPlan:
    """A compiled circuit: the step sequence both executors run."""

    num_qubits: int
    steps: tuple[ApplyStep, ...]
    #: Gates in the source circuit (>= len(steps) when runs were fused).
    num_gates: int

    def run_dense(self, amps: np.ndarray, *, on_measure=None) -> None:
        """Execute every step on a full statevector, in place.

        ``on_measure`` receives ``(step, amps)`` for each MEASURE step;
        running a measuring plan without a handler is an error (the
        handler owns the seed/ordinal bookkeeping).
        """
        for step in self.steps:
            if step.kind is StepKind.MEASURE:
                if on_measure is None:
                    raise SimulationError(
                        "circuit contains measure gates; execute it "
                        "through a simulator that supplies a "
                        "measurement handler"
                    )
                on_measure(step, amps)
            else:
                step.run_local(amps)

    @property
    def num_fused(self) -> int:
        """Original gates absorbed into multi-gate fused steps."""
        return sum(s.num_gates for s in self.steps if s.num_gates > 1)


def compile_gate_step(gate: Gate) -> ApplyStep:
    """Classify one gate and materialise its operator."""
    if gate.name == "measure":
        return ApplyStep(
            kind=StepKind.MEASURE,
            gate=gate,
            gates=(gate,),
            targets=gate.targets,
            controls=(),
        )
    if gate.name == "fused_diag":
        return ApplyStep(
            kind=StepKind.DIAGONAL,
            gate=gate,
            gates=(gate,),
            targets=gate.targets,
            controls=(),
            diag=gate.diagonal_vector(),
        )
    if gate.name == "fused_block":
        # A one-qubit block is just a composed 2x2: lower it as SINGLE so
        # it takes the strided fast paths instead of the batched matmul.
        kind = StepKind.SINGLE if len(gate.targets) == 1 else StepKind.FUSED
        return ApplyStep(
            kind=kind,
            gate=gate,
            gates=(gate,),
            targets=gate.targets,
            controls=(),
            matrix=gate.matrix(),
        )
    if gate.name == "remap":
        return ApplyStep(
            kind=StepKind.REMAP,
            gate=gate,
            gates=(gate,),
            targets=gate.targets,
            controls=(),
        )
    if gate.is_diagonal():
        return ApplyStep(
            kind=StepKind.DIAGONAL,
            gate=gate,
            gates=(gate,),
            targets=gate.targets,
            controls=gate.controls,
            diag=np.diag(gate.matrix()),
        )
    if gate.is_swap():
        return ApplyStep(
            kind=StepKind.SWAP,
            gate=gate,
            gates=(gate,),
            targets=gate.targets,
            controls=gate.controls,
        )
    kind = StepKind.SINGLE if len(gate.targets) == 1 else StepKind.GENERIC
    return ApplyStep(
        kind=kind,
        gate=gate,
        gates=(gate,),
        targets=gate.targets,
        controls=gate.controls,
        matrix=gate.matrix(),
    )


#: Full-mode diagonal sweeps widen scattered low supports: the broadcast
#: multiply's contiguous run is ``2**b`` where ``b`` is the first bit
#: missing from the support's low prefix, and runs under
#: ``2**_SWEEP_RUN_BITS`` leave numpy re-dispatching its inner loop
#: every few elements (the split pieces of a wide QFT phase ladder are
#: the canonical offenders).  Padding the support's low end out to bit
#: ``_SWEEP_WIDEN_BITS`` re-indexes the table so the low prefix is
#: contiguous, which restores long inner runs without materialising the
#: whole span; tables stay under ``_SWEEP_TABLE_ENTRIES`` so they remain
#: cache-resident.  Entries are only replicated, never changed, so the
#: multiply stays bitwise identical.
_SWEEP_RUN_BITS = 4
_SWEEP_WIDEN_BITS = 6
_SWEEP_TABLE_ENTRIES = 1 << 18


def _widen_diag_step(step: ApplyStep, num_qubits: int) -> ApplyStep:
    """Re-index a scattered low-support diagonal over a padded low prefix."""
    if (
        step.kind is not StepKind.DIAGONAL
        or step.controls
        or len(step.targets) < 2
        or num_qubits < _SWEEP_WIDEN_BITS
    ):
        return step
    targets = step.targets
    present = set(targets)
    first_missing = 0
    while first_missing in present:
        first_missing += 1
    run_bits = max(first_missing, targets[0])
    if run_bits >= _SWEEP_RUN_BITS:
        return step
    low = _SWEEP_WIDEN_BITS
    widened = tuple(range(low)) + tuple(t for t in targets if t >= low)
    if (1 << len(widened)) > _SWEEP_TABLE_ENTRIES:
        return step
    # Index of each widened bit in the original table (-1 = padding).
    positions = {t: j for j, t in enumerate(targets)}
    idx = np.arange(1 << len(widened), dtype=np.int64)
    sub = np.zeros_like(idx)
    for i, t in enumerate(widened):
        j = positions.get(t)
        if j is not None:
            sub |= ((idx >> i) & 1) << j
    return replace(step, targets=widened, diag=step.diag[sub])


#: A fusion *unit*: the gate the executors will see, plus the original
#: circuit gates it covers (for observers and num_fused accounting).
FusionUnit = tuple[Gate, tuple[Gate, ...]]


def _unit_step(gate: Gate, covered: tuple[Gate, ...]) -> ApplyStep:
    """Compile one unit, recording the original gates it covers."""
    step = compile_gate_step(gate)
    if covered != step.gates:
        step = replace(step, gates=covered)
    return step


def _diag_fusion_units(
    circuit: Circuit, fuse_diagonals: bool, diag_qubits: int
) -> list[FusionUnit]:
    """Stage 1: greedy merge of adjacent diagonal runs into fused_diag.

    Diagonal fusion needs no locality bound -- diagonal gates never
    communicate, and the distributed executor reduces the fused diagonal
    over its rank-index bits -- only the ``diag_qubits`` cap on the
    materialised ``2**k`` vector.
    """
    units: list[FusionUnit] = []
    run: list[Gate] = []
    run_qubits: set[int] = set()

    def flush() -> None:
        if not run:
            return
        if len(run) == 1:
            units.append((run[0], (run[0],)))
        else:
            units.append((Gate.fused(run), tuple(run)))
        run.clear()
        run_qubits.clear()

    for gate in circuit:
        if fuse_diagonals and gate.is_diagonal():
            qubits = set(gate.targets) | set(gate.controls)
            if run and len(run_qubits | qubits) > diag_qubits:
                flush()
            if len(qubits) <= diag_qubits:
                run.append(gate)
                run_qubits.update(qubits)
                continue
        flush()
        units.append((gate, (gate,)))
    flush()
    return units


def _is_local(gate: Gate, local_qubits: int | None) -> bool:
    return local_qubits is None or all(
        q < local_qubits for q in gate.targets + gate.controls
    )


def _blockable(gate: Gate, local_qubits: int | None) -> bool:
    """True when the gate may become a fused_block constituent here."""
    return gate.name not in ("remap", "measure") and _is_local(
        gate, local_qubits
    )


def _block_fusion_units(
    units: list[FusionUnit], config: FusionConfig, local_qubits: int | None
) -> list[FusionUnit]:
    """Stage 2 (``full`` mode): cost-gated block and permutation fusion.

    Left-to-right scan over the stage-1 units.  At each position it
    first tries a *permutation run* (maximal adjacent disjoint
    uncontrolled local SWAPs -> one ``remap`` gather), then a *block
    run* (maximal adjacent local units whose combined support fits in
    ``config.block_qubits`` -> one ``fused_block`` batched matmul);
    either fires only when :mod:`~repro.statevector.fusion`'s cost model
    says the fused kernel beats the per-unit kernels.
    """
    out: list[FusionUnit] = []
    i = 0
    while i < len(units):
        gate, _covered = units[i]

        if gate.is_swap() and not gate.controls and _is_local(gate, local_qubits):
            j = i
            touched: set[int] = set()
            while j < len(units):
                h = units[j][0]
                if (
                    h.is_swap()
                    and not h.controls
                    and _is_local(h, local_qubits)
                    and not (set(h.targets) & touched)
                ):
                    touched.update(h.targets)
                    j += 1
                else:
                    break
            run = units[i:j]
            if should_fuse_perm(tuple(u[0] for u in run)):
                remap = Gate.remap(tuple(u[0].targets for u in run))
                out.append((remap, tuple(g for u in run for g in u[1])))
                i = j
                continue

        if _blockable(gate, local_qubits):
            j = i
            support: set[int] = set()
            while j < len(units):
                h = units[j][0]
                if not _blockable(h, local_qubits):
                    break
                new_support = support | set(h.targets) | set(h.controls)
                if len(new_support) > config.block_qubits:
                    break
                support = new_support
                j += 1
            run = units[i:j]
            if len(run) >= 2 and should_fuse_block(
                tuple(u[0] for u in run), tuple(sorted(support))
            ):
                block = Gate.fused_block(tuple(u[0] for u in run))
                out.append((block, tuple(g for u in run for g in u[1])))
                i = j
                continue

        out.append(units[i])
        i += 1
    return out


def fusion_units(
    circuit: Circuit,
    fusion: str | FusionConfig | None = None,
    *,
    max_fused_qubits: int = MAX_FUSED_QUBITS,
    local_qubits: int | None = None,
) -> list[FusionUnit]:
    """The structural half of :func:`compile_plan`: its fusion units.

    Runs the diagonal-run stage and, in ``full`` mode, the block and
    permutation stage, and returns one ``(gate, covered)`` unit per
    step the plan will have -- ``gate`` is the (possibly synthetic)
    gate the step executes, ``covered`` the circuit gates it absorbs.
    No fused diagonal or block matrix is built, so pricing a fusion
    mode from the unit gates (:func:`~repro.statevector.fusion.unit_cost`)
    costs only the structural scan.  Arguments mean what they mean for
    :func:`compile_plan`.
    """
    config = resolve_fusion(fusion)
    diag_qubits = (
        config.diag_qubits if config.diag_qubits is not None else max_fused_qubits
    )
    units = _diag_fusion_units(circuit, config.fuse_diagonals, diag_qubits)
    if config.fuse_blocks:
        units = _block_fusion_units(units, config, local_qubits)
    return units


# Plans are cached keyed on the circuit's identity; the stored gate tuple
# guards against in-place circuit mutation between applications, and a
# weakref finaliser evicts entries when the circuit is collected.  The
# option key includes the resolved fusion config and the locality bound,
# so plans compiled under different REPRO_FUSION settings (or different
# rank partitions) never alias.
_plan_cache: dict[int, tuple] = {}


def clear_plan_cache() -> None:
    """Drop every cached plan (test isolation hook)."""
    _plan_cache.clear()


def compile_plan(
    circuit: Circuit,
    *,
    fusion: str | FusionConfig | None = None,
    fuse_diagonals: bool | None = None,
    max_fused_qubits: int = MAX_FUSED_QUBITS,
    local_qubits: int | None = None,
    cache: bool = True,
) -> ApplyPlan:
    """Compile a circuit into an :class:`ApplyPlan`.

    ``fusion`` selects the fusion pass: a :class:`FusionConfig`, a mode
    string (``"off"`` | ``"diag"`` | ``"full[:k]"``), or ``None`` to
    resolve from ``$REPRO_FUSION`` (default ``diag``, the behaviour of
    every prior release).  ``fuse_diagonals`` is the legacy boolean
    control: ``False`` forces fusion fully off (per-gate granularity for
    observers), ``True`` guarantees at least diagonal-run fusion.

    ``local_qubits`` bounds block/permutation fusion to gates whose
    support lies entirely below it (the distributed executors pass their
    partition's local-qubit count; ``None`` means everything is local).
    Diagonal fusion is exempt -- diagonals never communicate.
    """
    if max_fused_qubits < 1:
        raise SimulationError(
            f"max_fused_qubits must be >= 1, got {max_fused_qubits}"
        )
    config = resolve_fusion(fusion)
    if fuse_diagonals is False:
        config = FusionConfig(mode="off")
    elif fuse_diagonals and config.mode == "off":
        config = FusionConfig(mode="diag")
    key = (config.cache_key(), max_fused_qubits, local_qubits)
    if cache:
        entry = _plan_cache.get(id(circuit))
        if (
            entry is not None
            and entry[0]() is circuit
            and entry[1] == key
            and entry[2] == circuit.gates
        ):
            return entry[3]

    units = fusion_units(
        circuit,
        config,
        max_fused_qubits=max_fused_qubits,
        local_qubits=local_qubits,
    )
    steps = tuple(_unit_step(gate, covered) for gate, covered in units)
    if config.fuse_blocks:
        steps = tuple(
            _widen_diag_step(step, circuit.num_qubits) for step in steps
        )

    plan = ApplyPlan(
        num_qubits=circuit.num_qubits,
        steps=tuple(steps),
        num_gates=len(circuit),
    )
    if cache:
        cid = id(circuit)
        ref = weakref.ref(circuit, lambda _r, cid=cid: _plan_cache.pop(cid, None))
        _plan_cache[cid] = (ref, key, circuit.gates, plan)
    return plan


def fused_circuit(plan: ApplyPlan) -> Circuit:
    """The plan's step stream as a circuit (one gate per step).

    Lets the analytic/DES cost models price the *fused* gate stream --
    a fused block or permutation is one pass over the local amplitudes,
    not one per constituent -- by feeding the synthetic gates through
    the ordinary ``plan_gate`` accounting.
    """
    out = Circuit(plan.num_qubits)
    for step in plan.steps:
        out.append(step.gate)
    return out


def reduce_diagonal(
    diag: np.ndarray,
    targets: tuple[int, ...],
    fixed_bits: dict[int, int],
) -> tuple[tuple[int, ...], np.ndarray]:
    """Restrict a diagonal to the targets *not* listed in ``fixed_bits``.

    ``fixed_bits`` maps a target qubit to the (0/1) value its index bit
    takes -- on the distributed executor these are the rank-index bits,
    whose value is constant across a rank's whole slice.  Returns the
    remaining targets (original order) and the ``2**k_remaining`` entry
    diagonal over them.
    """
    free_positions = [j for j, t in enumerate(targets) if t not in fixed_bits]
    base = 0
    for j, t in enumerate(targets):
        if t in fixed_bits:
            base |= (fixed_bits[t] & 1) << j
    a = np.arange(1 << len(free_positions), dtype=np.int64)
    full = np.full(a.shape, base, dtype=np.int64)
    for i, j in enumerate(free_positions):
        full |= ((a >> i) & 1) << j
    reduced = diag[full]
    remaining = tuple(targets[j] for j in free_positions)
    return remaining, reduced
