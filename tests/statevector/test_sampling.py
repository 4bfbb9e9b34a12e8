"""The measurement subsystem: exact primitives, Measure gate, sample()."""

import hashlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, ghz_circuit, random_state
from repro.errors import SimulationError, ValidationError
from repro.faults.rng import mix64
from repro.statevector import (
    DenseStatevector,
    DistributedStatevector,
    sample,
)
from repro.statevector import exact
from repro.statevector.sampling import SHOTS_ENV, resolve_shots
from repro.tune.workloads import build_workload

#: sha256 of ``samples.tobytes()`` and the mid-circuit outcome record of
#: ``sample(build_workload("qaoa-sampled", 16, seed=s).circuit, 8192, s)``,
#: recorded with the original per-shot linear-scan sampler.  Any faster
#: search must reproduce these streams bit for bit.
GOLDEN_QAOA16_STREAMS = {
    7: (
        "cc2483dda0c1e08b0d31d0a735a32610360ec13af1491b5a12981ed8f9224c85",
        ((0, 1), (1, 1)),
    ),
    11: (
        "1cf2abcd290642fbf21bae24fe43c54310e80bd5892bcfd59fd8b538d33a06dd",
        ((0, 1), (1, 0)),
    ),
}


def _ref_units(x: float) -> int:
    """Exact ``x / 2**-1074`` for a non-negative float, via its ratio."""
    num, den = x.as_integer_ratio()
    return (num << 1074) // den


def _ref_element_units(slices) -> list[int]:
    """Exact squared norm of every element, in global order."""
    out = []
    for a in slices:
        for z in np.ravel(np.asarray(a)):
            re, im = float(z.real), float(z.imag)
            out.append(_ref_units(re * re) + _ref_units(im * im))
    return out


def _ref_sample(slices, shots: int, seed: int) -> list[int]:
    """The definitional sampler: a linear scan of exact cumulative sums."""
    units = _ref_element_units(slices)
    ntotal = sum(units)
    picks = []
    for s in range(shots):
        target = (mix64(seed, exact.SAMPLE_STREAM, s) >> 11) * ntotal
        acc = 0
        for j, ev in enumerate(units):
            acc += ev
            if (acc << 53) > target:
                picks.append(j)
                break
    return picks


def _ref_units_sum(values: np.ndarray) -> int:
    """The original argsort-and-group exact sum, kept as the reference."""
    if values.size == 0:
        return 0
    m, e = np.frexp(values)
    mant = np.rint(m * float(1 << 53)).astype(np.int64)
    shift = e.astype(np.int64) + 1021
    order = np.argsort(shift, kind="stable")
    mant = mant[order]
    shift = shift[order]
    bounds = np.flatnonzero(np.diff(shift)) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(shift)]))
    total = 0
    for a, b in zip(starts, ends):
        group = 0
        for off in range(a, b, 512):
            group += int(np.add.reduce(mant[off : min(off + 512, b)]))
        sh = int(shift[a])
        total += (group << sh) if sh >= 0 else (group >> -sh)
    return total


#: Magnitudes spanning the float64 range: O(1), squares near the normal
#: floor (1e-150, 1e-155), subnormal squares (1e-160, 2.5e-162), squares
#: that underflow to zero (1e-300) and exact zeros.
_MAGNITUDES = st.one_of(
    st.sampled_from(
        [0.0, 0.0, 1.0, 0.5, 1e-150, 1e-155, 1e-160, 2.5e-162, 1e-300]
    ),
    st.floats(0.0, 2.0),
)
_COMPONENT = st.builds(
    lambda m, neg: -m if neg else m, _MAGNITUDES, st.booleans()
)


@st.composite
def _sliced_states(draw):
    """(slices, block) -- equal-length slices, some forced all-zero."""
    num_slices = draw(st.integers(1, 4))
    slice_len = draw(st.integers(1, 13))
    dtype = draw(st.sampled_from([np.complex128, np.complex64]))
    slices = []
    for _ in range(num_slices):
        if draw(st.booleans()) and draw(st.booleans()):
            slices.append(np.zeros(slice_len, dtype=dtype))
            continue
        width = 2 * slice_len
        parts = draw(st.lists(_COMPONENT, min_size=width, max_size=width))
        arr = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
        slices.append(arr.astype(dtype))
    block = draw(st.sampled_from([1, 2, 3, 5, 4096]))
    return slices, block


class TestExactPrimitives:
    def test_norm_is_partition_invariant(self):
        psi = random_state(6, seed=3)
        whole = exact.partial_norms(psi, 0, 0, 6)[1]
        assert whole == sum(_ref_element_units([psi]))
        for parts in (2, 4, 8):
            assert (
                sum(
                    exact.partial_norms(p, 0, r, len(p).bit_length() - 1)[1]
                    for r, p in enumerate(np.split(psi, parts))
                )
                == whole
            )

    def test_partial_norms_local_matches_marginal(self):
        psi = random_state(4, seed=5)
        n0, ntotal = exact.partial_norms(psi, 2, 0, 4)
        probs = np.abs(psi) ** 2
        mask = (np.arange(16) >> 2) & 1
        assert ntotal == sum(_ref_element_units([psi]))
        assert n0 == sum(_ref_element_units([psi[mask == 0]]))
        assert np.isclose(n0 / ntotal, probs[mask == 0].sum())

    def test_partial_norms_rank_qubit_sums_to_local_split(self):
        # Qubit 2 measured on 4 ranks (2 local qubits) must reduce to
        # the same exact pair as on 1 rank (4 local qubits).
        psi = random_state(4, seed=5)
        whole = exact.partial_norms(psi, 2, 0, 4)
        slices = np.split(psi, 4)
        parts = [
            exact.partial_norms(s, 2, r, 2) for r, s in enumerate(slices)
        ]
        assert (
            sum(p[0] for p in parts),
            sum(p[1] for p in parts),
        ) == whole

    def test_measure_outcome_endpoints(self):
        # p(0) = 0 can never draw outcome 0; p(0) = 1 always does.
        for ordinal in range(16):
            assert exact.measure_outcome(7, ordinal, 0, 100) == 1
            assert exact.measure_outcome(7, ordinal, 100, 100) == 0

    def test_measure_outcome_rejects_zero_norm(self):
        with pytest.raises(SimulationError, match="zero-norm"):
            exact.measure_outcome(7, 0, 0, 0)

    def test_collapse_scale_rejects_zero_probability(self):
        with pytest.raises(SimulationError, match="zero-probability"):
            exact.collapse_scale(0, 10)

    def test_collapse_scale_exact_halves(self):
        assert exact.collapse_scale(1, 4) == 2.0
        assert exact.collapse_scale(4, 4) == 1.0

    def test_sample_exact_is_partition_invariant(self):
        psi = random_state(6, seed=9)
        whole = exact.sample_exact([psi], 32, seed=11)
        for parts in (2, 4):
            assert np.array_equal(
                exact.sample_exact(np.split(psi, parts), 32, seed=11),
                whole,
            )

    def test_sample_exact_matches_naive_cumulative_search(self):
        psi = random_state(5, seed=13)
        sq = np.abs(np.asarray(psi)) ** 2
        got = exact.sample_exact([psi], 16, seed=17)
        assert got.tolist() == _ref_sample([psi], 16, 17)
        assert sq[np.asarray(got, dtype=int)].min() > 0

    def test_sample_exact_matches_reference_across_real_blocks(self):
        # Slices longer than one 4096-element block and not a multiple
        # of it, with a dead zone of zeros spanning a whole block.
        psi = random_state(14, seed=21)[: 3 * 5000].copy()
        psi[4096:9000] = 0
        slices = np.split(psi, 3)
        got = exact.sample_exact(slices, 64, seed=5)
        assert got.tolist() == _ref_sample(slices, 64, 5)

    @pytest.mark.parametrize("block", [1, 2, 4096])
    def test_sample_exact_on_targets_tied_with_boundaries(self, block):
        # 2.2e-162 squares to the smallest subnormal, one unit, so the
        # total is a handful of units and draws land exactly on block
        # and element boundaries (and on zero-weight runs) all the time.
        tiny = 2.2e-162
        assert _ref_units(tiny * tiny) == 1
        psi = np.array([tiny, 0, 0, tiny, tiny * 1j, 0, 0, 0, tiny, 0])
        slices = np.split(psi, 2)
        with mock.patch.object(exact, "_SAMPLE_BLOCK", block):
            got = exact.sample_exact(slices, 200, seed=3)
        assert got.tolist() == _ref_sample(slices, 200, 3)

    @settings(max_examples=150, deadline=None)
    @given(_sliced_states(), st.integers(0, 40), st.integers(0, 2**32))
    def test_sample_exact_equals_linear_scan(self, state, shots, seed):
        slices, block = state
        assume(sum(_ref_element_units(slices)) > 0)
        with mock.patch.object(exact, "_SAMPLE_BLOCK", block):
            got = exact.sample_exact(slices, shots, seed)
        assert got.dtype == np.uint64
        assert got.tolist() == _ref_sample(slices, shots, seed)

    def test_sample_exact_rejects_bad_input(self):
        psi = random_state(3, seed=1)
        with pytest.raises(SimulationError, match="shots"):
            exact.sample_exact([psi], -1, seed=0)
        with pytest.raises(SimulationError, match="zero-norm"):
            exact.sample_exact([np.zeros(8, complex)], 4, seed=0)

    @pytest.mark.parametrize("shots", [2.5, True, "4", None])
    def test_sample_exact_rejects_non_integer_shots(self, shots):
        psi = random_state(3, seed=1)
        with pytest.raises(SimulationError, match="integer"):
            exact.sample_exact([psi], shots, seed=0)

    def test_sample_exact_accepts_numpy_integer_shots(self):
        psi = random_state(3, seed=1)
        assert np.array_equal(
            exact.sample_exact([psi], np.int64(5), seed=2),
            exact.sample_exact([psi], 5, seed=2),
        )

    def test_sample_exact_rejects_unequal_slices(self):
        psi = random_state(3, seed=1)
        with pytest.raises(SimulationError, match="equal-length"):
            exact.sample_exact([psi[:5], psi[5:]], 4, seed=0)

    def test_non_finite_amplitude_rejected(self):
        bad = np.array([np.inf + 0j, 0j])
        with pytest.raises(SimulationError, match="non-finite"):
            exact.partial_norms(bad, 0, 0, 1)
        with pytest.raises(SimulationError, match="non-finite"):
            exact.sample_exact([bad], 1, seed=0)


_BLOCKS = st.integers(1, 40).flatmap(
    lambda n: st.lists(_COMPONENT, min_size=2 * n, max_size=2 * n)
).map(lambda xs: np.array(xs[0::2]) + 1j * np.array(xs[1::2]))


class TestElementTable:
    @settings(max_examples=150, deadline=None)
    @given(_BLOCKS)
    def test_first_above_on_every_prefix_boundary(self, block):
        # Targets equal to a prefix sum share its key, which forces the
        # exact tie-resolution path; +-1 straddle every boundary.
        prefix = list(itertools.accumulate(_ref_element_units([block])))
        assume(prefix[-1] > 0)
        table = exact._element_table(block)
        for target in {t + d for t in prefix for d in (-1, 0, 1)}:
            if 0 <= target < prefix[-1]:
                want = next(i for i, p in enumerate(prefix) if p > target)
                assert exact._first_above(table, target) == want


_SUM_VALUES = st.lists(
    st.one_of(
        st.floats(0.0, 1e300),
        st.floats(0.0, 1e-300),
        st.sampled_from([0.0, 5e-324, 2.2e-308, 1.0, 1e-160]),
    ),
    max_size=40,
).map(lambda xs: np.array(xs, dtype=np.float64))


class TestUnitsSum:
    @settings(max_examples=200, deadline=None)
    @given(_SUM_VALUES)
    def test_matches_argsort_reference(self, values):
        got = exact._units_sum(values)
        assert got == _ref_units_sum(values)
        assert got == sum(map(_ref_units, values.tolist()))

    @settings(max_examples=100, deadline=None)
    @given(_SUM_VALUES, st.integers(1, 7), st.integers(1, 9))
    def test_runs_across_chunk_boundaries(self, values, run, chunk):
        # A tiny bincount chunk forces runs to straddle passes.
        with mock.patch.object(exact, "_SUM_CHUNK", chunk):
            sums = exact._units_sums(values, run)
        assert sums == [
            _ref_units_sum(values[off : off + run])
            for off in range(0, len(values), run)
        ]

    def test_subnormal_and_huge_mix_on_real_state(self):
        psi = random_state(10, seed=2)
        sq = exact._sq_components(psi)
        sq[::7] *= 1e-300
        assert exact._units_sum(sq) == _ref_units_sum(sq)


class TestMeasureGate:
    def test_collapse_is_seed_deterministic(self):
        c = Circuit(3).h(0).cx(0, 1).measure(0).h(2).measure(2)
        a = DenseStatevector(3, measure_seed=42).apply_circuit(c)
        b = DenseStatevector(3, measure_seed=42).apply_circuit(c)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert a.measure_outcomes == b.measure_outcomes
        assert len(a.measure_outcomes) == 2

    def test_collapse_renormalises(self):
        c = Circuit(2).h(0).h(1).measure(0)
        state = DenseStatevector(2, measure_seed=1).apply_circuit(c)
        assert np.isclose(state.norm(), 1.0)
        ((qubit, outcome),) = state.measure_outcomes
        assert qubit == 0
        # The collapsed branch holds no weight on the other outcome.
        probs = state.probabilities()
        other = probs[((np.arange(4) >> 0) & 1) != outcome]
        assert np.all(other == 0)

    def test_deterministic_branch_never_flips(self):
        # |11> measured on qubit 1 must always give 1, any seed.
        for seed in range(8):
            c = Circuit(2).x(0).x(1).measure(1)
            state = DenseStatevector(2, measure_seed=seed).apply_circuit(c)
            assert state.measure_outcomes == [(1, 1)]

    def test_entangled_pair_outcomes_agree(self):
        # GHZ collapse: measuring qubit 0 pins every later measurement.
        c = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        for q in range(3):
            c.measure(q)
        for seed in range(6):
            state = DenseStatevector(3, measure_seed=seed).apply_circuit(c)
            outcomes = [o for _, o in state.measure_outcomes]
            assert len(set(outcomes)) == 1


class TestSampleApi:
    def test_rejects_negative_shots(self):
        with pytest.raises(ValidationError, match="shots"):
            sample(Circuit(2).h(0), -1)

    @pytest.mark.parametrize("shots", [2.5, True, "8"])
    def test_rejects_non_integer_shots(self, shots):
        with pytest.raises(ValidationError, match="integer"):
            sample(Circuit(2).h(0), shots)

    @pytest.mark.parametrize("seed", sorted(GOLDEN_QAOA16_STREAMS))
    def test_golden_qaoa16_streams(self, seed):
        digest, outcomes = GOLDEN_QAOA16_STREAMS[seed]
        circuit = build_workload("qaoa-sampled", 16, seed=seed).circuit
        for kwargs in ({}, {"executor": "serial", "num_ranks": 4}):
            result = sample(circuit, 8192, seed, **kwargs)
            assert result.samples.dtype == np.uint64
            got = hashlib.sha256(result.samples.tobytes()).hexdigest()
            assert got == digest
            assert result.measure_outcomes == outcomes

    def test_zero_shots_is_empty(self):
        result = sample(Circuit(2).h(0), 0)
        assert result.samples.size == 0
        assert result.counts() == {}

    def test_ghz_support_is_all_zeros_or_all_ones(self):
        result = sample(ghz_circuit(5), 64, seed=3)
        assert set(np.unique(result.samples).tolist()) <= {0, 31}
        assert set(result.counts()) <= {"00000", "11111"}

    def test_bitstrings_render_width(self):
        result = sample(Circuit(3).x(1), 4, seed=0)
        assert result.bitstrings() == ["010"] * 4
        assert result.counts() == {"010": 4}

    def test_dense_and_serial_agree(self):
        c = Circuit(4).h(0).cx(0, 1).measure(1).h(2).cx(2, 3).measure(3)
        dense = sample(c, 20, seed=7)
        serial = sample(c, 20, seed=7, executor="serial", num_ranks=4)
        assert np.array_equal(dense.samples, serial.samples)
        assert dense.measure_outcomes == serial.measure_outcomes

    def test_distributed_post_measure_state_matches_dense(self):
        c = Circuit(4).h(0).cx(0, 1).measure(0).rz(0.3, 2).h(3).measure(3)
        dense = DenseStatevector(4, measure_seed=5).apply_circuit(c)
        dist = DistributedStatevector.zero_state(
            4, 4, executor="serial", measure_seed=5
        ).apply_circuit(c)
        # Outcome decisions are exact and partition-independent; the
        # amplitudes themselves are held to the standing
        # dense-vs-distributed contract (unitary sweeps differ in the
        # last ulp between the full-array and per-rank kernels).
        np.testing.assert_allclose(dense.amplitudes, dist.gather(), atol=1e-12)
        assert dense.measure_outcomes == dist.measure_outcomes


class TestResolveShots:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv(SHOTS_ENV, "99")
        assert resolve_shots(5) == 5

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(SHOTS_ENV, "1024")
        assert resolve_shots() == 1024

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(SHOTS_ENV, raising=False)
        assert resolve_shots() == 0
        assert resolve_shots(default=4096) == 4096

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(SHOTS_ENV, "many")
        with pytest.raises(ValidationError, match="integer"):
            resolve_shots()
        monkeypatch.setenv(SHOTS_ENV, "-2")
        with pytest.raises(ValidationError, match=">= 0"):
            resolve_shots()

    def test_negative_explicit_rejected(self):
        with pytest.raises(ValidationError, match=">= 0"):
            resolve_shots(-1)
