"""Unit tests for general k-qubit gate fusion.

Covers the cost model's fuse/don't-fuse decisions on crafted runs, the
``REPRO_FUSION`` parsing/resolution seam, ``Gate.fused_block``
composition semantics, the plan-level fusion pass (shapes, locality
bound, cache keying), the fused-block/permutation/broadcast kernels and
the model-side pricing of fused gates.
"""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.circuits.qft import qft_circuit
from repro.circuits.random_circuits import random_circuit, random_state
from repro.errors import GateError, SimulationError, ValidationError
from repro.gates import Gate
from repro.gates import matrices as mats
from repro.statevector import gate_kernels as k
from repro.statevector import gate_kernels_reference as ref
from repro.statevector.apply_plan import (
    StepKind,
    clear_plan_cache,
    compile_plan,
)
from repro.statevector.fusion import (
    DEFAULT_BLOCK_QUBITS,
    FULL_DIAG_QUBITS,
    FusionConfig,
    MAX_BLOCK_QUBITS,
    block_cost,
    gate_cost,
    parse_fusion,
    perm_cost,
    resolve_fusion,
    should_fuse_block,
    should_fuse_perm,
)
from repro.statevector.partition import Partition
from repro.statevector.plan import plan_gate


def _random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# -- config parsing / resolution ---------------------------------------------


class TestParseFusion:
    def test_modes(self):
        assert parse_fusion("off").mode == "off"
        assert parse_fusion("diag").mode == "diag"
        cfg = parse_fusion("full")
        assert cfg.mode == "full"
        assert cfg.block_qubits == DEFAULT_BLOCK_QUBITS
        assert cfg.diag_qubits == FULL_DIAG_QUBITS

    def test_full_k_suffix(self):
        assert parse_fusion("full:2").block_qubits == 2
        assert parse_fusion("full:6").block_qubits == MAX_BLOCK_QUBITS
        assert parse_fusion(" FULL:3 ").block_qubits == 3

    @pytest.mark.parametrize(
        "bad", ["bogus", "full:1", "full:7", "full:x", "diag:3", "off:2", ""]
    )
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ValidationError):
            parse_fusion(bad)

    def test_resolve_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSION", "full:5")
        assert resolve_fusion(None).block_qubits == 5
        assert resolve_fusion("off").mode == "off"
        cfg = FusionConfig(mode="full", block_qubits=3)
        assert resolve_fusion(cfg) is cfg

    def test_resolve_default_is_diag(self, monkeypatch):
        monkeypatch.delenv("REPRO_FUSION", raising=False)
        assert resolve_fusion(None).mode == "diag"
        monkeypatch.setenv("REPRO_FUSION", "")
        assert resolve_fusion(None).mode == "diag"

    def test_properties(self):
        assert not FusionConfig(mode="off").fuse_diagonals
        assert FusionConfig(mode="diag").fuse_diagonals
        assert not FusionConfig(mode="diag").fuse_blocks
        assert FusionConfig(mode="full").fuse_blocks
        assert FusionConfig(mode="full", block_qubits=3).cache_key() != (
            FusionConfig(mode="full", block_qubits=4).cache_key()
        )


# -- cost model ---------------------------------------------------------------


class TestCostModel:
    def test_diagonal_run_never_block_fuses(self):
        gates = (Gate.named("p", (0,), params=(0.1,)), Gate.named("z", (1,)))
        assert not should_fuse_block(gates, (0, 1))

    def test_dense_two_qubit_run_fuses(self):
        gates = (
            Gate.named("u3", (0,), params=(0.3, 0.2, 0.1)),
            Gate.named("u3", (1,), params=(0.5, 0.1, 0.9)),
            Gate.named("x", (0,), controls=(1,)),
        )
        assert should_fuse_block(gates, (0, 1))

    def test_butterfly_plus_wide_diag_stays_unfused(self):
        """The QFT's h + phase-ladder run: butterfly + one sweep wins."""
        ladder = Gate.fused(
            tuple(
                Gate.named("p", (j,), controls=(4,), params=(0.1,))
                for j in range(4)
            )
        )
        gates = (Gate.named("h", (4,)), ladder)
        assert not should_fuse_block(gates, (0, 1, 2, 3, 4))

    def test_single_gate_run_never_fuses(self):
        assert not should_fuse_block((Gate.named("h", (0,)),), (0,))

    def test_perm_two_swaps_stay_sequential(self):
        swaps = (Gate.named("swap", (0, 1)), Gate.named("swap", (2, 3)))
        assert not should_fuse_perm(swaps)

    def test_perm_three_swaps_fuse(self):
        swaps = tuple(
            Gate.named("swap", (2 * i, 2 * i + 1)) for i in range(3)
        )
        assert should_fuse_perm(swaps)
        assert perm_cost() < sum(gate_cost(g) for g in swaps)

    def test_controls_shrink_gate_cost(self):
        plain = gate_cost(Gate.named("u3", (0,), params=(1.0, 2.0, 3.0)))
        controlled = gate_cost(
            Gate.named("u3", (0,), controls=(1, 2), params=(1.0, 2.0, 3.0))
        )
        assert controlled == pytest.approx(plain / 4)

    def test_gate_cost_orders_fast_paths(self):
        h = gate_cost(Gate.named("h", (0,)))
        x = gate_cost(Gate.named("x", (0,)))
        u3 = gate_cost(Gate.named("u3", (0,), params=(0.3, 0.1, 0.2)))
        p = gate_cost(Gate.named("p", (0,), params=(0.4,)))
        assert p < h < x < u3

    def test_block_cost_contiguous_cheaper_than_scattered(self):
        assert block_cost(4, (0, 1, 2, 3)) < block_cost(4, (2, 4, 6, 8))


# -- Gate.fused_block ---------------------------------------------------------


class TestFusedBlockGate:
    def _run(self):
        return (
            Gate.named("h", (0,)),
            Gate.named("p", (0,), controls=(2,), params=(0.7,)),
            Gate.named("x", (2,), controls=(0,)),
        )

    def test_targets_are_sorted_support(self):
        fb = Gate.fused_block(self._run())
        assert fb.targets == (0, 2)
        assert fb.controls == ()

    def test_matrix_matches_composition(self):
        run = self._run()
        fb = Gate.fused_block(run)
        a = random_state(3, seed=1)
        b = a.copy()
        for g in run:
            ref.apply_matrix(a, g.matrix(), g.targets, g.controls)
        ref.apply_matrix(b, fb.matrix(), fb.targets)
        assert np.allclose(a, b, atol=1e-12)

    def test_is_unitary_and_not_diagonal(self):
        fb = Gate.fused_block(self._run())
        m = fb.matrix()
        assert np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12)
        assert not fb.is_diagonal()
        assert fb.pairing_targets() == fb.targets

    def test_diagonal_block_still_not_diagonal(self):
        """Even a numerically diagonal block must lower as FUSED/SINGLE."""
        fb = Gate.fused_block(
            (Gate.named("z", (0,)), Gate.named("s", (1,)))
        )
        assert not fb.is_diagonal()

    def test_dagger_inverts(self):
        fb = Gate.fused_block(self._run())
        assert np.allclose(
            fb.dagger().matrix() @ fb.matrix(),
            np.eye(2 ** len(fb.targets)),
            atol=1e-12,
        )

    def test_remapped_renames_constituents(self):
        fb = Gate.fused_block(self._run())
        r = fb.remapped({0: 5, 2: 1})
        assert r.targets == (1, 5)
        assert np.allclose(
            # Remapping 0<->hi, 2<->lo flips the bit roles in the block.
            r.constituents[0].targets, (5,)
        )

    def test_validation(self):
        with pytest.raises(GateError):
            Gate(name="fused_block", targets=(0,), constituents=())
        with pytest.raises(GateError):
            Gate(
                name="fused_block",
                targets=(0, 1),
                controls=(2,),
                constituents=(Gate.named("h", (0,)), Gate.named("h", (1,))),
            )
        with pytest.raises(GateError):
            Gate.fused_block((Gate.remap(((0, 1),)),))
        with pytest.raises(GateError):
            Gate(
                name="fused_block",
                targets=(0, 3),
                constituents=(Gate.named("h", (0,)), Gate.named("h", (1,))),
            )


# -- plan-level fusion pass ---------------------------------------------------


class TestBlockFusionPass:
    def test_dense_run_becomes_one_fused_step(self):
        c = Circuit(6)
        c.u3(0.1, 0.2, 0.3, 2).u3(0.4, 0.5, 0.6, 3).cx(2, 3).cx(3, 2)
        plan = compile_plan(c, fusion="full", cache=False)
        assert len(plan.steps) == 1
        step = plan.steps[0]
        assert step.kind is StepKind.FUSED
        assert step.gate.name == "fused_block"
        assert step.targets == (2, 3)
        assert step.gates == c.gates
        assert plan.num_fused == 4

    def test_single_qubit_run_lowers_as_single(self):
        c = Circuit(2)
        c.h(0).u3(0.3, 0.1, 0.2, 0).h(0)
        plan = compile_plan(c, fusion="full", cache=False)
        assert len(plan.steps) == 1
        assert plan.steps[0].kind is StepKind.SINGLE
        assert plan.steps[0].gate.name == "fused_block"
        assert plan.steps[0].matrix.shape == (2, 2)

    def test_swap_run_becomes_remap(self):
        c = Circuit(8)
        for i in range(4):
            c.swap(i, 7 - i)
        plan = compile_plan(c, fusion="full", cache=False)
        assert len(plan.steps) == 1
        assert plan.steps[0].kind is StepKind.REMAP
        assert plan.steps[0].gate.name == "remap"
        assert len(plan.steps[0].gates) == 4

    def test_two_scattered_swaps_stay_sequential(self):
        # Two swaps with scattered support: the perm gather (9.5) loses
        # to two in-place exchanges (9.0) and the scattered block matmul
        # is costlier still, so neither fusion fires.
        c = Circuit(8)
        c.swap(0, 2).swap(4, 6)
        plan = compile_plan(c, fusion="full", cache=False)
        assert [s.kind for s in plan.steps] == [StepKind.SWAP, StepKind.SWAP]

    def test_qft_hadamards_keep_fast_path(self):
        """H + phase ladders must not block-fuse (cost model says no)."""
        plan = compile_plan(qft_circuit(10), fusion="full", cache=False)
        kinds = [s.kind for s in plan.steps]
        assert kinds.count(StepKind.SINGLE) == 10
        assert StepKind.FUSED not in kinds
        assert kinds.count(StepKind.REMAP) == 1

    def test_block_width_respected(self):
        c = Circuit(8)
        for q in range(8):
            c.u3(0.1 * q, 0.2, 0.3, q)
            if q:
                c.cx(q - 1, q)
        for k_width in (2, 3, 4, 5, 6):
            plan = compile_plan(c, fusion=f"full:{k_width}", cache=False)
            for step in plan.steps:
                if step.gate.name == "fused_block":
                    assert len(step.targets) <= k_width

    def test_locality_bound(self):
        c = Circuit(8)
        c.u3(0.1, 0.2, 0.3, 4).u3(0.4, 0.5, 0.6, 5).cx(4, 5)  # rank bits at m=4
        c.u3(0.1, 0.2, 0.3, 0).cx(0, 1)  # local at m=4
        bounded = compile_plan(c, fusion="full", local_qubits=4, cache=False)
        fused = [s for s in bounded.steps if s.gate.name == "fused_block"]
        assert len(fused) == 1
        assert fused[0].targets == (0, 1)
        # Without the bound the whole run fuses across the rank bits.
        unbounded = compile_plan(c, fusion="full", cache=False)
        assert any(
            s.gate.name == "fused_block" and max(s.targets) >= 4
            for s in unbounded.steps
        )

    def test_full_mode_widens_diag_runs(self):
        n = 14
        c = Circuit(n)
        for q in range(n):
            c.p(0.05 * (q + 1), q)
        diag_plan = compile_plan(c, fusion="diag", cache=False)
        full_plan = compile_plan(c, fusion="full", cache=False)
        assert len(full_plan.steps) == 1
        assert len(diag_plan.steps) > 1

    def test_observer_granularity_override(self):
        c = Circuit(3)
        c.h(0).h(1).p(0.3, 0)
        plan = compile_plan(c, fusion="full", fuse_diagonals=False, cache=False)
        assert len(plan.steps) == 3

    def test_fused_circuit_roundtrip(self):
        c = random_circuit(6, 40, seed=5)
        plan = compile_plan(c, fusion="full", cache=False)
        fc = Circuit(6, [step.gate for step in plan.steps])
        psi = random_state(6, seed=11)
        a, b = psi.copy(), psi.copy()
        plan.run_dense(a)
        compile_plan(fc, fusion="off", cache=False).run_dense(b)
        assert np.allclose(a, b, atol=1e-12)


class TestPlanCacheKeying:
    def test_fusion_settings_never_alias(self):
        c = qft_circuit(6)
        clear_plan_cache()
        off = compile_plan(c, fusion="off")
        full = compile_plan(c, fusion="full")
        assert len(off.steps) != len(full.steps)
        again = compile_plan(c, fusion="off")
        # A stale 'full' entry must not be returned for an 'off' request.
        assert len(again.steps) == len(off.steps)
        assert compile_plan(c, fusion="off") is again

    def test_block_width_in_cache_key(self):
        c = Circuit(6)
        for q in range(6):
            c.u3(0.1, 0.2, 0.3, q)
            if q:
                c.cx(q - 1, q)
        clear_plan_cache()
        k4 = compile_plan(c, fusion="full:4")
        k2 = compile_plan(c, fusion="full:2")
        widths4 = {len(s.targets) for s in k4.steps if s.gate.name == "fused_block"}
        widths2 = {len(s.targets) for s in k2.steps if s.gate.name == "fused_block"}
        assert max(widths4) > max(widths2)

    def test_local_qubits_in_cache_key(self):
        c = Circuit(6)
        c.u3(0.1, 0.2, 0.3, 4).cx(4, 5).u3(0.3, 0.2, 0.1, 5)
        clear_plan_cache()
        wide = compile_plan(c, fusion="full")
        narrow = compile_plan(c, fusion="full", local_qubits=3)
        assert any(s.gate.name == "fused_block" for s in wide.steps)
        assert not any(s.gate.name == "fused_block" for s in narrow.steps)

    def test_env_is_honoured_by_default(self, monkeypatch):
        c = Circuit(4)
        c.u3(0.1, 0.2, 0.3, 0).cx(0, 1).u3(0.4, 0.5, 0.6, 1)
        clear_plan_cache()
        monkeypatch.setenv("REPRO_FUSION", "full")
        full = compile_plan(c, cache=False)
        monkeypatch.setenv("REPRO_FUSION", "off")
        off = compile_plan(c, cache=False)
        assert len(full.steps) == 1
        assert len(off.steps) == 3


# -- kernels ------------------------------------------------------------------


class TestFusedKernels:
    def test_batched_matches_reference_contiguous(self):
        rng = np.random.default_rng(0)
        u = _random_unitary(rng, 16)
        a = random_state(10, seed=1)
        b = a.copy()
        k.apply_unitary_batched(a, u, (0, 1, 2, 3))
        ref.apply_matrix(b, u, (0, 1, 2, 3))
        assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_batched_matches_reference_scattered(self):
        rng = np.random.default_rng(1)
        u = _random_unitary(rng, 8)
        a = random_state(10, seed=2)
        b = a.copy()
        k.apply_unitary_batched(a, u, (1, 4, 8))
        ref.apply_matrix(b, u, (1, 4, 8))
        assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_batched_with_controls(self):
        rng = np.random.default_rng(2)
        u = _random_unitary(rng, 4)
        a = random_state(9, seed=3)
        b = a.copy()
        k.apply_unitary_batched(a, u, (0, 5), (2, 7))
        ref.apply_matrix(b, u, (0, 5), (2, 7))
        assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_batched_shape_and_overlap_validation(self):
        a = random_state(4, seed=0)
        with pytest.raises(SimulationError):
            k.apply_unitary_batched(a, np.eye(4), (0,))
        with pytest.raises(SimulationError):
            k.apply_unitary_batched(a, np.eye(4), (0, 1), (1,))
        with pytest.raises(SimulationError):
            k.apply_unitary_batched(a, np.eye(4), (0, 9))

    def test_unregistered_backend_rejected(self):
        with pytest.raises(ValidationError):
            k.register_fused_kernel("no-such-backend", lambda *args: None)

    def test_registry_seam_dispatches(self):
        calls = []
        original = k._FUSED_KERNELS["strided"]
        try:
            k.register_fused_kernel(
                "strided", lambda *args: calls.append(args) or original(*args)
            )
            a = random_state(6, seed=4)
            with k.using_backend("strided"):
                k.apply_unitary_batched(a, np.eye(4, dtype=complex), (0, 1))
            assert len(calls) == 1
        finally:
            k.register_fused_kernel("strided", original)

    def test_permutation_gather_bitwise_equals_swaps(self):
        a = random_state(10, seed=5)
        b = a.copy()
        pairs = ((0, 7), (1, 5), (2, 9), (3, 8))
        k.apply_permutation(a, pairs)
        for x, y in pairs:
            ref.apply_swap_local(b, x, y)
        assert np.array_equal(a, b)

    def test_permutation_rejects_overlap(self):
        a = random_state(4, seed=6)
        with pytest.raises(SimulationError):
            k.apply_permutation(a, ((0, 1), (1, 2), (2, 3)))

    def test_broadcast_diagonal_bitwise(self):
        # The strided broadcast path's contract; the native kernel (the
        # default) is held to the reference within 1e-12 elsewhere.
        rng = np.random.default_rng(7)
        diag = np.exp(1j * rng.uniform(0, 2 * np.pi, 32))
        a = random_state(9, seed=8)
        b = a.copy()
        with k.using_backend("strided"):
            k.apply_diagonal(a, diag, (0, 2, 4, 6, 8))
        ref.apply_diagonal(b, diag, (0, 2, 4, 6, 8))
        assert np.array_equal(a, b)

    def test_hadamard_butterfly_matches_reference(self):
        for target in (0, 3, 7):
            a = random_state(8, seed=target)
            b = a.copy()
            k.apply_matrix(a, mats.hadamard(), (target,))
            ref.apply_matrix(b, mats.hadamard(), (target,))
            assert np.allclose(a, b, rtol=0, atol=1e-14)

    def test_scaled_butterfly_matches_generic(self):
        # Any real s * [[1,1],[1,-1]] takes the butterfly; complex-s
        # variants must fall through to the generic combine.
        for s in (0.5, -2.0):
            m = s * np.array([[1, 1], [1, -1]], dtype=complex)
            a = random_state(6, seed=3)
            b = a.copy()
            k.apply_matrix(a, m, (2,))
            ref.apply_matrix(b, m, (2,))
            assert np.allclose(a, b, rtol=0, atol=1e-13)
        m = (0.3 + 0.4j) * np.array([[1, 1], [1, -1]], dtype=complex)
        a = random_state(6, seed=4)
        b = a.copy()
        k.apply_matrix(a, m, (2,))
        ref.apply_matrix(b, m, (2,))
        assert np.allclose(a, b, rtol=0, atol=1e-13)


# -- model pricing ------------------------------------------------------------


class TestFusedPlanPricing:
    def test_fused_block_is_one_pass(self):
        part = Partition(10, 4)
        block = Gate.fused_block(
            (
                Gate.named("u3", (0,), params=(0.1, 0.2, 0.3)),
                Gate.named("x", (1,), controls=(0,)),
            )
        )
        gp = plan_gate(block, part)
        local_bytes = part.local_amplitudes * 16
        assert gp.traffic_bytes == 2 * local_bytes
        assert gp.flops == 8 * 4 * part.local_amplitudes
        constituents_traffic = sum(
            plan_gate(g, part).traffic_bytes for g in block.constituents
        )
        assert gp.traffic_bytes < constituents_traffic

    def test_fused_stream_cheaper_than_unfused(self):
        from repro.statevector.plan import plan_circuit

        c = Circuit(10)
        for q in range(4):
            c.u3(0.1, 0.2, 0.3, q)
            if q:
                c.cx(q - 1, q)
        part = Partition(10, 4)
        plan = compile_plan(c, fusion="full", local_qubits=8, cache=False)
        steps = Circuit(10, [step.gate for step in plan.steps])
        fused_traffic = sum(p.traffic_bytes for p in plan_circuit(steps, part))
        unfused_traffic = sum(p.traffic_bytes for p in plan_circuit(c, part))
        assert fused_traffic < unfused_traffic
