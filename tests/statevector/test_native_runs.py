"""Runs of local steps in one C call, and the C distributed updates.

``repro_run`` applies a stretch of an op table's SINGLE and DIAGONAL
steps to one rank's slice; it must leave exactly the bytes the steps
leave one by one.  ``repro_combine`` and ``repro_swap_halves`` replace
the numpy combine and swap-in-halves of distributed steps; they may
round differently from numpy (the combine rounds every product and sum
as written), but never write a negative zero.  A malformed op table is
refused before any C call, and the C side refuses a bad row before it
touches the slice.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import random_state
from repro.errors import SimulationError
from repro.gates import Gate
from repro.statevector import compile_gate_step
from repro.statevector import gate_kernels as k
from repro.statevector import gate_kernels_reference as ref
from repro.statevector import native
from repro.statevector.apply_plan import StepKind, op_table
from repro.statevector.gate_kernels import reduce_diagonal

needs_native = pytest.mark.skipif(
    native.library() is None, reason="no C compiler can build the native kernels"
)


def _unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _state(n: int, seed: int) -> np.ndarray:
    """A random state with some exact zeros (signed-zero traps)."""
    psi = random_state(n, seed=seed).copy()
    psi[np.random.default_rng(seed).random(psi.shape[0]) < 0.2] = 0.0
    return psi


@st.composite
def runs(draw):
    """A partition, a rank and a run of local SINGLE and DIAGONAL gates
    with local and rank-bit controls and targets."""
    m = draw(st.integers(min_value=1, max_value=11))
    r = draw(st.integers(min_value=0, max_value=3))
    n = m + r
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gates = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        shape = draw(st.sampled_from(["single", "phase", "wide"]))
        if shape == "wide":
            # A fused diagonal: targets anywhere, up to 12 of them, so
            # some have more local targets than one C call takes.
            qubits = draw(
                st.lists(
                    st.integers(0, n - 1), min_size=1, max_size=min(n, 12), unique=True
                )
            )
            gates.append(
                Gate.fused(
                    Gate.named("rz", (q,), params=(rng.uniform(0, 6),)) for q in qubits
                )
            )
            continue
        target = draw(st.integers(0, (m if shape == "single" else n) - 1))
        others = [q for q in range(n) if q != target]
        controls = tuple(
            draw(st.lists(st.sampled_from(others), max_size=min(2, len(others)), unique=True))
            if others
            else ()
        )
        if shape == "single":
            gates.append(Gate.unitary(_unitary(rng), (target,), controls=controls))
        else:
            gates.append(
                Gate.named("p", (target,), controls=controls, params=(rng.uniform(0, 6),))
            )
    rank = draw(st.integers(0, (1 << r) - 1))
    return m, n, rank, tuple(compile_gate_step(g) for g in gates), int(rng.integers(1000))


def _step_by_step(amps, step, m: int, rank: int) -> None:
    """One step on one rank's slice, as the distributed executors ran
    it before runs: the rank-control test, the rank-bit reduction, then
    the step's own kernel."""
    if not all((rank >> (c - m)) & 1 for c in step.controls if c >= m):
        return
    controls = tuple(c for c in step.controls if c < m)
    if step.kind is StepKind.SINGLE:
        k.apply_matrix(amps, step.matrix, step.targets, controls)
        return
    fixed = {t: (rank >> (t - m)) & 1 for t in step.targets if t >= m}
    targets, diag = reduce_diagonal(step.diag, step.targets, fixed)
    k.apply_diagonal(amps, diag, targets, controls)


@pytest.mark.parametrize("backend", ["native", "strided", "reference"])
@settings(max_examples=120, deadline=None)
@given(case=runs())
def test_run_is_byte_identical_to_its_steps(backend, case):
    if backend == "native" and native.library() is None:
        pytest.skip("no C compiler can build the native kernels")
    m, n, rank, steps, seed = case
    assert {s.kind for s in steps} <= {StepKind.SINGLE, StepKind.DIAGONAL}
    table = op_table(steps, n, m)
    assert table.run_ends[0] == len(steps)
    psi = _state(m, seed)
    want, got = psi.copy(), psi.copy()
    with k.using_backend(backend):
        for step in steps:
            _step_by_step(want, step, m, rank)
        k.apply_run(got, table, 0, len(steps), rank)
    assert got.tobytes() == want.tobytes()


@needs_native
def test_wide_diagonal_splits_the_c_stretch():
    # 11 local targets are more than one repro_run row takes; the run
    # around it is still one apply_run.
    m, n = 12, 13
    steps = (
        compile_gate_step(Gate.named("h", (0,))),
        compile_gate_step(
            Gate.fused(Gate.named("rz", (q,), params=(0.1 * q + 0.3,)) for q in range(12))
        ),
        compile_gate_step(Gate.named("h", (1,))),
    )
    table = op_table(steps, n, m)
    assert table.run_ends == (3, 3, 3)
    assert table.c_ends == (1, 1, 3)
    psi = _state(m, 3)
    want, got = psi.copy(), psi.copy()
    with k.using_backend("native"):
        for step in steps:
            _step_by_step(want, step, m, 1)
        k.apply_run(got, table, 0, 3, 1)
    assert got.tobytes() == want.tobytes()


def test_table_rows_follow_the_partition():
    steps = tuple(
        compile_gate_step(g)
        for g in (
            Gate.named("h", (1,)),  # local SINGLE
            Gate.named("h", (3,)),  # SINGLE on a rank bit: exchanges
            Gate.named("p", (3,), controls=(0, 2), params=(0.5,)),  # DIAGONAL
            Gate.named("swap", (0, 1)),  # not a table step
        )
    )
    table = op_table(steps, 4, 2)
    kinds = table.ops[:, native.OP_KIND].tolist()
    assert kinds == [native.OP_SINGLE, 0, native.OP_DIAGONAL, 0]
    assert table.ops[2, native.OP_CMASK] == 0b01
    assert table.ops[2, native.OP_RCMASK] == 0b01
    assert table.run_ends == (1, 1, 3, 3)
    assert not table.ops.flags.writeable and not table.coeffs.flags.writeable


# -- malformed tables -------------------------------------------------------------------


def _table(row, targets, coeffs, n=6, m=4):
    return native.OpTable(
        n,
        m,
        np.array([row], dtype=np.uint64),
        np.array(targets, dtype=np.uint8),
        np.asarray(coeffs, dtype=np.complex128),
    )


@pytest.mark.parametrize(
    "row,targets,ncoeffs,match",
    [
        ((1, 1, 0, 0, 0, 0), [4], 4, "one local target"),
        ((1, 1, 1 << 4, 0, 0, 0), [0], 4, "control bit"),
        ((1, 1, 0, 1 << 2, 0, 0), [0], 4, "control bit"),
        ((2, 1, 0, 0, 0, 0), [6], 2, "distinct qubits"),
        ((2, 2, 0, 0, 0, 0), [1, 1], 4, "distinct qubits"),
        ((2, 1, 0b10, 0, 0, 0), [1], 2, "overlap"),
        ((2, 3, 0, 0, 0, 0), [0, 1, 2], 4, "coefficients"),
        ((1, 1, 0, 0, 0, 3), [0], 4, "coefficients"),
        ((1, 1, 0, 0, 5, 0), [0], 4, "target array"),
        ((7, 1, 0, 0, 0, 0), [0], 4, "kind"),
    ],
    ids=[
        "single-rank-target",
        "local-control-outside",
        "rank-control-outside",
        "target-outside",
        "repeated-target",
        "target-is-control",
        "oversized-diagonal",
        "coefficient-offset",
        "target-offset",
        "unknown-kind",
    ],
)
def test_malformed_table_is_refused_when_built(row, targets, ncoeffs, match):
    with pytest.raises(SimulationError, match=match):
        _table(row, targets, np.ones(ncoeffs))


def test_mismatched_slice_or_rank_raises_before_any_c_call(monkeypatch):
    calls = []
    monkeypatch.setattr(native, "apply_run", lambda *a: calls.append(a))
    table = _table((1, 1, 0, 0, 0, 0), [0], np.eye(2).ravel())
    with k.using_backend("native"):
        with pytest.raises(SimulationError, match="does not match"):
            k.apply_run(np.zeros(8, dtype=np.complex128), table, 0, 1, 0)
        with pytest.raises(SimulationError, match="outside the op table's register"):
            k.apply_run(np.zeros(16, dtype=np.complex128), table, 0, 1, 4)
        with pytest.raises(SimulationError, match="outside the op table"):
            k.apply_run(np.zeros(16, dtype=np.complex128), table, 0, 2, 0)
    assert calls == []


@needs_native
@pytest.mark.parametrize(
    "word,value",
    [(native.OP_K, 40), (native.OP_COEFFS, 10**6), (native.OP_TARGETS, 10**6)],
    ids=["oversized-diagonal", "coefficient-offset", "target-offset"],
)
def test_c_refuses_a_row_changed_after_the_checks(word, value):
    # A table whose rows were changed behind the constructor's back
    # (here by unpickled state): repro_run checks every row of the run
    # itself and leaves the slice untouched.
    good = _table((2, 2, 0, 0, 0, 0), [0, 5], np.exp(1j * np.arange(4.0)))
    state = good.__getstate__()
    ops = state["ops"].copy()
    ops[0, word] = value
    state["ops"] = ops
    bad = native.OpTable.__new__(native.OpTable)
    bad.__setstate__(state)
    amps = _state(4, 1)
    before = amps.tobytes()
    with pytest.raises(SimulationError, match="rejected"):
        native.apply_run(native.library(), amps, bad, 0, 1, 1)
    assert amps.tobytes() == before


def test_table_survives_pickling():
    import pickle

    steps = (compile_gate_step(Gate.named("h", (0,))),)
    table = op_table(steps, 3, 2)
    copy = pickle.loads(pickle.dumps(table, protocol=5))
    assert copy.ops.tobytes() == table.ops.tobytes()
    assert copy.run_ends == table.run_ends and copy.c_ends == table.c_ends
    assert not copy.ops.flags.writeable
    assert "_addresses" not in copy.__dict__


# -- the distributed updates --------------------------------------------------------------


@st.composite
def combines(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    controls = tuple(draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)))
    coeffs = draw(
        st.lists(
            st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=2,
        )
    )
    return n, controls, coeffs, draw(st.integers(0, 999))


@needs_native
@settings(max_examples=200, deadline=None)
@given(case=combines())
def test_combine_matches_numpy_and_writes_no_negative_zero(case):
    n, controls, (c0, c1), seed = case
    local, remote = _state(n, seed), _state(n, seed + 1)
    got, want = local.copy(), local.copy()
    with k.using_backend("native"):
        k.combine_distributed_single(got, remote, c0, c1, controls)
    ref.combine_distributed_single(want, remote, c0, c1, controls)
    assert np.allclose(got, want, atol=1e-12, rtol=0)
    assert not np.signbit(got.view(np.float64)[got.view(np.float64) == 0]).any()


@needs_native
def test_combine_rounds_as_written_and_chunks_agree():
    n = 12
    rng = np.random.default_rng(5)
    x, y = _state(n, 5), _state(n, 6)
    c0, c1 = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
    whole = x.copy()
    with k.using_backend("native"):
        k.combine_distributed_single(whole, y, c0, c1)
        chunked = x.copy()
        for lo in range(0, 1 << n, 1000):  # the transport's chunks need not be 2**k
            k.combine_distributed_single(
                chunked[lo : lo + 1000], y[lo : lo + 1000], c0, c1
            )
    re = (c0.real * x.real + (-c0.imag) * x.imag) + (c1.real * y.real + (-c1.imag) * y.imag)
    im = (c0.real * x.imag + c0.imag * x.real) + (c1.real * y.imag + c1.imag * y.real)
    want = np.empty_like(x)
    want.real, want.imag = re + 0.0, im + 0.0
    assert whole.tobytes() == want.tobytes()
    assert chunked.tobytes() == whole.tobytes()


@needs_native
@pytest.mark.parametrize("bit", [0, 1, 2, 3, 6, 10])
@pytest.mark.parametrize("value", [0, 1])
def test_swap_halves_matches_numpy(bit, value):
    local, remote = _state(11, bit), _state(11, bit + 7)
    got, want = local.copy(), local.copy()
    with k.using_backend("native"):
        k.swap_in_halves(got, remote, bit, value)
    ref.swap_in_halves(want, remote, bit, value)
    assert got.tobytes() == want.tobytes()


@needs_native
def test_distributed_updates_refuse_bad_arguments():
    a, b = np.zeros(16, dtype=np.complex128), np.zeros(16, dtype=np.complex128)
    with k.using_backend("native"):
        with pytest.raises(SimulationError):
            k.swap_in_halves(a, b, 4, 0)
        with pytest.raises(SimulationError):
            k.combine_distributed_single(a, b, 1, 0, (4,))
    lib = native.library()
    with pytest.raises(SimulationError):
        native.apply_combine(lib, a[:12], b[:12], (1, 0), 0b100)
    with pytest.raises(SimulationError):
        native.apply_swap_halves(lib, a, b, 4, 1, 2)
