"""Fusion configuration and the fuse/don't-fuse cost model.

The compiled :mod:`~repro.statevector.apply_plan` can collapse runs of
adjacent gates into larger steps three ways:

* **diagonal runs** -- adjacent diagonal gates merge into one strided
  sweep (``fused_diag``, since PR 2);
* **k-qubit blocks** -- adjacent gates whose combined target/control
  support fits in ``k`` qubits compose into a single ``2**k x 2**k``
  unitary applied as one batched matmul over the ``2**(m-k)``
  sub-vectors (``fused_block``, mpiQulacs-style);
* **swap runs** -- adjacent disjoint uncontrolled SWAPs collapse into
  one ``remap`` permutation applied as a single index gather.

Which of these fire is controlled by :class:`FusionConfig`, resolved
from an explicit argument or the ``REPRO_FUSION`` environment variable
(``off`` | ``diag`` | ``full[:k]``) exactly like the ``REPRO_KERNELS``
and ``REPRO_TRANSPILE`` seams.  The default is ``diag`` -- the
behaviour every prior PR shipped.

Cost model
----------
Statevector simulation is memory-bound: the cost of a gate is dominated
by how many passes over the local slab it makes, plus (for fused
blocks) the matmul arithmetic, which on a CPU costs roughly one extra
pass per ``2**k`` complex MACs.  The constants below are expressed in
estimated nanoseconds per local amplitude, calibrated on the dev host
at ``2**20`` amplitudes (single core, AVX-512 OpenBLAS); only their
*ratios* drive fuse/don't-fuse decisions, so modest machine-to-machine
drift changes nothing structurally.  See ``docs/KERNELS.md`` for the
derivation and re-calibration recipe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import settings
from repro.errors import ValidationError
from repro.gates import Gate

__all__ = [
    "FUSION_ENV",
    "FUSION_MODES",
    "DEFAULT_BLOCK_QUBITS",
    "MAX_BLOCK_QUBITS",
    "FULL_DIAG_QUBITS",
    "FusionConfig",
    "parse_fusion",
    "resolve_fusion",
    "gate_cost",
    "block_cost",
    "perm_cost",
    "unit_cost",
    "should_fuse_block",
    "should_fuse_perm",
]

#: Environment knob: default fusion mode for newly compiled plans.
FUSION_ENV = settings.FUSION.name

#: Recognised fusion modes.
FUSION_MODES = ("off", "diag", "full")

#: Default block width for ``full`` mode.  Batched-matmul cost grows
#: linearly in k while the gates amortised grow sub-linearly past this
#: point on measured hardware (see docs/KERNELS.md).
DEFAULT_BLOCK_QUBITS = 4

#: Hard cap on the block width: the composed unitary is dense
#: ``2**k x 2**k`` and the matmul flops per amplitude grow as ``2**k``,
#: so beyond 6 qubits fusion always loses to the per-gate kernels.
MAX_BLOCK_QUBITS = 6

#: Diagonal-run support cap in ``full`` mode.  Wider than the default
#: ``MAX_FUSED_QUBITS`` (10) because the broadcast diagonal kernel
#: applies any width in one sweep; 16 keeps the materialised diagonal
#: at 1 MiB.
FULL_DIAG_QUBITS = 16


@dataclass(frozen=True)
class FusionConfig:
    """Resolved fusion settings for one plan compilation.

    ``diag_qubits`` of ``None`` defers to the caller's diagonal-run cap
    (``compile_plan``'s ``max_fused_qubits``); ``full`` mode raises it
    to :data:`FULL_DIAG_QUBITS` so whole QFT ladders fuse to one sweep.
    """

    mode: str = "diag"
    block_qubits: int = DEFAULT_BLOCK_QUBITS
    diag_qubits: int | None = None

    @property
    def fuse_diagonals(self) -> bool:
        """True when adjacent diagonal runs merge."""
        return self.mode != "off"

    @property
    def fuse_blocks(self) -> bool:
        """True when k-qubit block and swap-run fusion run."""
        return self.mode == "full"

    def cache_key(self) -> tuple:
        """Hashable identity for the plan cache."""
        return (self.mode, self.block_qubits, self.diag_qubits)


def parse_fusion(value: str) -> FusionConfig:
    """Parse ``off`` | ``diag`` | ``full`` | ``full:k`` into a config."""
    text = value.strip().lower()
    mode, sep, arg = text.partition(":")
    if mode not in FUSION_MODES:
        raise ValidationError(
            f"unknown fusion mode {value!r}; expected one of "
            f"{FUSION_MODES}, optionally full:k with 2 <= k <= "
            f"{MAX_BLOCK_QUBITS}"
        )
    if not sep:
        if mode == "full":
            return FusionConfig(
                mode="full",
                block_qubits=DEFAULT_BLOCK_QUBITS,
                diag_qubits=FULL_DIAG_QUBITS,
            )
        return FusionConfig(mode=mode)
    if mode != "full":
        raise ValidationError(
            f"fusion mode {mode!r} takes no :k suffix (got {value!r}); "
            f"only full:k is parameterised"
        )
    try:
        k = int(arg)
    except ValueError:
        k = -1
    if not 2 <= k <= MAX_BLOCK_QUBITS:
        raise ValidationError(
            f"fusion block width in {value!r} must be an integer in "
            f"[2, {MAX_BLOCK_QUBITS}]"
        )
    return FusionConfig(mode="full", block_qubits=k, diag_qubits=FULL_DIAG_QUBITS)


def resolve_fusion(value: str | FusionConfig | None = None) -> FusionConfig:
    """Resolve a fusion request: explicit ``value`` > ``REPRO_FUSION`` >
    ``"diag"``.  A wrong value is a one-line ``ValidationError``."""
    if isinstance(value, FusionConfig):
        return value
    if value is None:
        return settings.get(settings.FUSION)
    return settings.FUSION.parse(value, "fusion")


# -- cost model ---------------------------------------------------------------
#
# Estimated nanoseconds per local amplitude for each kernel class,
# measured on the dev host at 2**20 amplitudes.  A "pass" (one
# read-or-write sweep of the slab) is ~1.2 ns/amp there; every constant
# below is explainable as (passes touched) x 1.2 plus arithmetic.

#: Diagonal sweep (read + write the touched half): ~1.3 passes.
DIAG_SWEEP_NS = 1.7
#: Hadamard butterfly fast path (real +-1/sqrt(2), no complex matmul).
BUTTERFLY_NS = 3.1
#: Triangular / anti-diagonal 2x2 fast paths (no or half-sized copy).
SINGLE_FAST_NS = 3.4
#: Full 2x2 combine (one half-sized copy + 4 scalar multiplies).
SINGLE_GENERIC_NS = 5.6
#: Local SWAP (quarter-sized temporary, half the amplitudes move).
SWAP_NS = 4.5
#: Index-gather permutation: one gather + one copy-back, flat in the
#: number of transpositions collapsed.
PERM_NS = 9.5
#: Batched matmul with the fused axes already contiguous at bit 0:
#: measured 3.5/4.9/5.1/7.9 ns/amp for k = 2/3/4/5.
BLOCK_BASE_NS = 0.5
BLOCK_PER_QUBIT_NS = 1.55
#: Scattered targets pay a gather + scatter around the matmul
#: (measured ~3x the contiguous cost at k = 4).
BLOCK_SCATTER_BASE_NS = 6.5
BLOCK_SCATTER_PER_QUBIT_NS = 3.0
#: Unfused generic k-target kernel: 2**k slab copies + row combines.
GENERIC_BASE_NS = 2.0
GENERIC_PER_DIM_NS = 1.2
#: Mid-circuit measurement: one read sweep for the norm reduction plus
#: a read + write collapse -- three passes, as the trace model's
#: measurement plan counts its traffic.  Never fused, so it only
#: dilutes a fusion ratio, never flips a fuse decision.
MEASURE_NS = 3.6
#: Per-step floor: dispatch + slab-view construction overhead never
#: vanishes, however few amplitudes a heavily controlled gate touches.
MIN_STEP_NS = 0.3


def _is_butterfly(matrix: np.ndarray) -> bool:
    """True for ``s * [[1, 1], [1, -1]]`` with real nonzero ``s``."""
    m00 = matrix[0, 0]
    return bool(
        m00 != 0.0
        and m00.imag == 0.0
        and matrix[0, 1] == m00
        and matrix[1, 0] == m00
        and matrix[1, 1] == -m00
    )


def gate_cost(gate: Gate) -> float:
    """Estimated unfused cost of one gate, in ns per local amplitude.

    This prices the step the gate would compile to on its own: the
    diagonal sweep, a 2x2 fast path, the SWAP exchange-in-place, the
    generic k-target kernel, or a measurement's norm sweep and collapse.
    Controls halve the touched region each.
    """
    if gate.name == "measure":
        return MEASURE_NS
    scale = 0.5 ** len(gate.controls)
    if gate.is_diagonal():
        return max(MIN_STEP_NS, DIAG_SWEEP_NS * scale)
    if gate.is_swap():
        return max(MIN_STEP_NS, SWAP_NS * scale)
    if len(gate.targets) == 1:
        m = gate.matrix()
        if _is_butterfly(m):
            base = BUTTERFLY_NS
        elif m[1, 0] == 0.0 or m[0, 1] == 0.0 or (m[0, 0] == 0.0 and m[1, 1] == 0.0):
            base = SINGLE_FAST_NS
        else:
            base = SINGLE_GENERIC_NS
        return max(MIN_STEP_NS, base * scale)
    k = len(gate.targets)
    return max(MIN_STEP_NS, (GENERIC_BASE_NS + GENERIC_PER_DIM_NS * 2**k) * scale)


def block_cost(k: int, targets: tuple[int, ...]) -> float:
    """Estimated cost of one fused ``2**k x 2**k`` batched matmul.

    When the fused qubits are exactly the low bits the slab reshapes to
    ``(batch, 2**k)`` for free and the matmul streams; any other layout
    pays a gather + scatter around it.
    """
    if k == 1:
        return SINGLE_GENERIC_NS
    if targets == tuple(range(k)):
        return BLOCK_BASE_NS + BLOCK_PER_QUBIT_NS * k
    return BLOCK_SCATTER_BASE_NS + BLOCK_SCATTER_PER_QUBIT_NS * k


def perm_cost() -> float:
    """Estimated cost of one index-gather permutation pass."""
    return PERM_NS


def unit_cost(gate: Gate) -> float:
    """Estimated cost of the step one fusion unit compiles to, in ns/amp.

    ``gate`` is a unit gate from
    :func:`~repro.statevector.apply_plan.fusion_units`.  A multi-qubit
    ``fused_block`` runs the batched matmul, a ``remap`` the index
    gather, and everything else prices as the unfused gate it is --
    a ``fused_diag`` as the diagonal sweep, a one-qubit block as the
    2x2 kernel its composed matrix selects.  The step's kernel class
    depends only on this gate, so the price equals that of the compiled
    step without building the step's operator.
    """
    if gate.name == "remap":
        return perm_cost()
    if gate.name == "fused_block" and len(gate.targets) > 1:
        return max(MIN_STEP_NS, block_cost(len(gate.targets), gate.targets))
    return gate_cost(gate)


def should_fuse_block(gates: tuple[Gate, ...], support: tuple[int, ...]) -> bool:
    """Fuse decision for a candidate run with the given combined support.

    Fuses only when the one batched matmul is estimated strictly
    cheaper than the run's per-gate kernels -- so diagonal runs, 2x2
    fast paths and other ill-suited runs keep their existing paths.
    """
    if len(gates) < 2:
        return False
    unfused = sum(gate_cost(g) for g in gates)
    return block_cost(len(support), support) < unfused


def should_fuse_perm(swaps: tuple[Gate, ...]) -> bool:
    """Fuse decision for a run of disjoint uncontrolled local SWAPs."""
    if len(swaps) < 2:
        return False
    return perm_cost() < sum(gate_cost(g) for g in swaps)
