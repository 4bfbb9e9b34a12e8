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

Under ``diag`` and ``full`` a relabel stage also runs: a SWAP (or
REMAP) between two local qubits moves no data between ranks, so it
becomes a rename of the qubits every later step touches instead of a
read+write pass over the state, and the plan closes with the fewest
local swaps that put the qubits back in order.

Every executor runs plans through one step interpreter,
:func:`repro.parallel.stepper.execute_plan`:
:meth:`DistributedStatevector.apply_circuit` on its partition, and
:meth:`DenseStatevector.apply_circuit` as its one-rank case.  Plans are
cached per circuit and option key, so re-applying the same circuit
object -- the common pattern in parameter sweeps and the property suite
-- skips compilation entirely.

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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro.circuits.circuit import Circuit
from repro.errors import SimulationError
from repro.gates import Gate
from repro.statevector import gate_kernels as kernels
from repro.statevector import native
from repro.statevector.gate_kernels import reduce_diagonal
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
    "compile_gate_plan",
    "op_table",
    "fusion_units",
    "relabels",
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
    run it is the synthetic ``fused_diag`` gate; after a relabel, the
    gate renamed to physical qubits); ``gates`` are the original circuit
    gates the step covers, in order, including any relabelled SWAPs and
    REMAPs riding ahead of it.
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
    def measured_qubit(self) -> int:
        """The circuit qubit a MEASURE step records.

        ``targets`` hold the physical bit the step collapses, which a
        relabel may have renamed; the covered measure gate keeps the
        logical qubit.
        """
        return next(g for g in self.gates if g.name == "measure").targets[0]

    @property
    def num_gates(self) -> int:
        """Original gates covered (> 1 for fused runs and relabels)."""
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
    #: The steps packed for one C call per rank per run of local steps
    #: (:func:`op_table`); every compiled plan carries it.
    ops: native.OpTable | None = None
    #: What executors derive from this plan alone (:meth:`memoised`);
    #: neither compared nor pickled, so it dies with the plan.
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def num_fused(self) -> int:
        """Original gates covered by multi-gate steps (fused runs, and
        steps carrying relabelled SWAPs)."""
        return sum(s.num_gates for s in self.steps if s.num_gates > 1)

    def memoised(self, key, build):
        """``build()``, once per ``key`` for this plan (a raise stores nothing)."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    def __getstate__(self) -> dict:
        # Steps ship as rows of fields; a table step without its
        # operator, which the table's coefficients hold (op_table).
        state = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        if self.ops is not None:
            state["steps"] = tuple(
                (s.kind, s.gate, s.gates, s.targets, s.controls)
                + ((None, None) if row[native.OP_KIND] else (s.matrix, s.diag))
                for s, row in zip(self.steps, self.ops.ops.tolist())
            )
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _memo={})
        if self.ops is not None:
            steps, coeffs = [], self.ops.coeffs
            for row, (kind, k, *_, at) in zip(self.steps, self.ops.ops.tolist()):
                if kind == native.OP_SINGLE:
                    row = row[:5] + (coeffs[at : at + 4].reshape(2, 2), None)
                elif kind == native.OP_DIAGONAL:
                    row = row[:5] + (None, coeffs[at : at + (1 << k)])
                steps.append(ApplyStep(*row))
            self.__dict__["steps"] = tuple(steps)


def op_table(
    steps: tuple[ApplyStep, ...], num_qubits: int, local_qubits: int
) -> native.OpTable:
    """The :class:`~repro.statevector.native.OpTable` of ``steps`` on a
    partition with ``local_qubits`` local qubits.

    It has a row for every DIAGONAL step and every SINGLE step whose
    target is local -- the steps a rank runs on its own slice with no
    exchange -- and an empty row for every other step.  The distributed
    executors run each stretch of consecutive table steps as one
    :func:`~repro.statevector.gate_kernels.apply_run` per rank.
    """
    m = local_qubits
    rows = np.zeros((len(steps), native.OP_WORDS), dtype=np.uint64)
    targets: list[int] = []
    coeffs: list[np.ndarray] = []
    ncoeffs = 0
    for i, step in enumerate(steps):
        if step.kind is StepKind.DIAGONAL:
            kind, values = native.OP_DIAGONAL, step.diag
        elif step.kind is StepKind.SINGLE and step.targets[0] < m:
            kind, values = native.OP_SINGLE, step.matrix
        else:
            continue
        values = np.asarray(values, dtype=np.complex128).ravel()
        cmask = sum(1 << c for c in step.controls if c < m)
        rcmask = sum(1 << (c - m) for c in step.controls if c >= m)
        rows[i] = (kind, len(step.targets), cmask, rcmask, len(targets), ncoeffs)
        targets += step.targets
        coeffs.append(values)
        ncoeffs += values.shape[0]
    return native.OpTable(
        num_qubits,
        m,
        rows,
        np.array(targets, dtype=np.uint8),
        np.concatenate(coeffs) if coeffs else np.zeros(0, dtype=np.complex128),
    )


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


def compile_gate_plan(gate: Gate, num_qubits: int, local_qubits: int) -> ApplyPlan:
    """A one-step plan of ``gate`` with its :func:`op_table`."""
    steps = (compile_gate_step(gate),)
    ops = op_table(steps, num_qubits, local_qubits)
    return ApplyPlan(num_qubits, steps, num_gates=1, ops=ops)


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


def relabels(gate: Gate, local_qubits: int | None) -> bool:
    """True when the relabel stage turns ``gate`` into a map update.

    Uncontrolled SWAPs and REMAPs whose qubits are all local only rename
    qubits; every other gate -- controlled, rank-crossing, or not a
    permutation at all -- still runs as a step.
    """
    return (
        gate.name == "remap" or (gate.is_swap() and not gate.controls)
    ) and _is_local(gate, local_qubits)


def _restore_layers(phys: list[int]) -> list[list[tuple[int, int]]]:
    """The fewest in-place swaps that move each logical qubit home.

    ``phys[q]`` is where logical qubit ``q`` lives.  Each cycle of
    ``k`` positions is a rotation, the product of two reflections of
    the cycle, and each reflection is a set of disjoint swaps: the
    ``k - 1`` swaps come out as (at most) two layers of disjoint swaps,
    which is what ``full`` mode's permutation-run rule merges.  A bare
    transposition needs only the second layer.
    """
    # Data at position p belongs at position home[p].
    home = [0] * len(phys)
    for q, p in enumerate(phys):
        home[p] = q
    seen = [False] * len(phys)
    first: list[tuple[int, int]] = []
    second: list[tuple[int, int]] = []
    for start in range(len(phys)):
        cycle = []
        p = start
        while not seen[p]:
            seen[p] = True
            cycle.append(p)
            p = home[p]
        # Position i of the cycle moves to -i, then to 1 - i: net +1.
        k = len(cycle)
        first += [(cycle[i], cycle[k - i]) for i in range(1, (k + 1) // 2)]
        second += [(cycle[i], cycle[1 - i]) for i in range(1, k // 2 + 1)]
    layers = ([tuple(sorted(pair)) for pair in layer] for layer in (first, second))
    return [sorted(layer) for layer in layers if layer]


def _relabel_units(
    units: list[FusionUnit], num_qubits: int, local_qubits: int | None
) -> list[FusionUnit]:
    """Local SWAPs and all-local REMAPs become qubit relabels.

    A logical-to-physical map over the local positions absorbs each
    gate :func:`relabels` accepts, and every later unit runs renamed
    through it (:meth:`Gate.remapped`; a diagonal's table is rebuilt
    over the renamed targets, same values).  A measurement collapses
    the physical bit; its covered gate keeps the logical qubit, which
    the executors record.  The plan ends with the fewest local swaps
    that restore logical order, never more passes than it absorbed.

    An absorbed gate rides at the front of the next unit's covered
    gates (the restore's, at the end), so the covered runs still tile
    the circuit in order.  The map never leaves the local positions,
    so every communicating gate keeps its rank bits and its place.
    """
    num_local = num_qubits if local_qubits is None else local_qubits
    phys = list(range(num_local))
    out: list[FusionUnit] = []
    pending: list[Gate] = []
    passes = 0
    for gate, covered in units:
        if relabels(gate, local_qubits):
            pairs = gate.swap_pairs() if gate.name == "remap" else (gate.targets,)
            for a, b in pairs:
                phys[a], phys[b] = phys[b], phys[a]
            pending += covered
            passes += 1
            continue
        mapping = {q: p for q, p in enumerate(phys) if q != p}
        if mapping:
            gate = gate.remapped(mapping)
        out.append((gate, (*pending, *covered)))
        pending.clear()
    if not passes:
        return units
    layers = _restore_layers(phys)
    if sum(map(len, layers)) > passes:
        # Only absorbed REMAPs leave more swaps than passes; a layer of
        # disjoint swaps is then one REMAP, so at most two passes.
        restore = [
            Gate.remap(layer) if len(layer) > 1 else Gate.named("swap", layer[0])
            for layer in layers
        ]
    else:
        restore = [Gate.named("swap", pair) for layer in layers for pair in layer]
    if not restore:
        if out:
            gate, covered = out[-1]
            out[-1] = (gate, (*covered, *pending))
        return out
    # One trailing gate per restoring swap: a closing bit reversal (the
    # QFT's) then compiles to exactly the steps it did before relabels.
    for i, gate in enumerate(restore):
        last = i == len(restore) - 1
        out.append((gate, tuple(pending[i:] if last else pending[i : i + 1])))
    return out


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
    local_qubits: int | None = None,
) -> list[FusionUnit]:
    """The structural half of :func:`compile_plan`: its fusion units.

    Runs the diagonal-run stage; then, in ``diag`` and ``full`` mode,
    the relabel stage, which turns local SWAPs and all-local REMAPs into
    a qubit map, renames every later unit through it and closes with
    the fewest local swaps that restore logical order; then, in
    ``full`` mode, the block and permutation stage (which also merges
    the restoring swaps).  ``off`` mode stays per-gate.  Returns one ``(gate, covered)`` unit per
    step the plan will have: ``gate`` is the (possibly synthetic or
    renamed) gate the step executes, ``covered`` the circuit gates it
    accounts for, relabelled ones included.  No fused diagonal or
    block matrix is built, so pricing a fusion mode from the unit gates
    (:func:`~repro.statevector.fusion.unit_cost`) costs only the
    structural scan.  Arguments mean what they mean for
    :func:`compile_plan`.
    """
    config = resolve_fusion(fusion)
    diag_qubits = (
        config.diag_qubits if config.diag_qubits is not None else MAX_FUSED_QUBITS
    )
    units = _diag_fusion_units(circuit, config.fuse_diagonals, diag_qubits)
    if config.fuse_diagonals:
        units = _relabel_units(units, circuit.num_qubits, local_qubits)
    if config.fuse_blocks:
        units = _block_fusion_units(units, config, local_qubits)
    return units


# Plans are cached keyed on the circuit's identity, one plan per option
# key (the resolved fusion config and the locality bound), so plans for
# different REPRO_FUSION settings or partitions -- a dense and a
# distributed run of one circuit -- neither alias nor evict each other.
# The stored gate tuple guards against in-place circuit mutation between
# applications, and a weakref finaliser evicts entries when the circuit
# is collected.
_plan_cache: dict[int, tuple] = {}


def clear_plan_cache() -> None:
    """Drop every cached plan (test isolation hook)."""
    _plan_cache.clear()


def compile_plan(
    circuit: Circuit,
    *,
    fusion: str | FusionConfig | None = None,
    local_qubits: int | None = None,
    cache: bool = True,
) -> ApplyPlan:
    """Compile a circuit into an :class:`ApplyPlan`.

    ``fusion`` selects the fusion pass: a :class:`FusionConfig`, a mode
    string (``"off"`` | ``"diag"`` | ``"full[:k]"``), or ``None`` to
    resolve from ``$REPRO_FUSION`` (default ``diag``, the behaviour of
    every prior release).  ``"off"`` keeps per-gate granularity.

    ``local_qubits`` bounds block/permutation fusion to gates whose
    support lies entirely below it (the distributed executors pass their
    partition's local-qubit count; ``None`` means everything is local,
    the dense executor's one rank).  Diagonal fusion is exempt --
    diagonals never communicate.  The plan carries its :func:`op_table`.
    """
    config = resolve_fusion(fusion)
    if local_qubits is None:
        local_qubits = circuit.num_qubits
    key = (config.cache_key(), local_qubits)
    plans = None
    if cache:
        entry = _plan_cache.get(id(circuit))
        if entry is not None and entry[0]() is circuit and entry[1] == circuit.gates:
            plans = entry[2]
            if key in plans:
                return plans[key]

    units = fusion_units(circuit, config, local_qubits=local_qubits)
    steps = tuple(_unit_step(gate, covered) for gate, covered in units)
    if config.fuse_blocks:
        steps = tuple(
            _widen_diag_step(step, circuit.num_qubits) for step in steps
        )

    plan = ApplyPlan(
        num_qubits=circuit.num_qubits,
        steps=steps,
        num_gates=len(circuit),
        ops=op_table(steps, circuit.num_qubits, local_qubits),
    )
    if cache:
        if plans is None:
            cid = id(circuit)
            ref = weakref.ref(circuit, lambda _r, cid=cid: _plan_cache.pop(cid, None))
            plans = {}
            _plan_cache[cid] = (ref, circuit.gates, plans)
        plans[key] = plan
    return plan
