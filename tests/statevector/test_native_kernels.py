"""The native C kernels: agreement, allocation, build cache and pinning.

``REPRO_KERNELS=native`` runs SINGLE and DIAGONAL steps through the C
kernels of :mod:`repro.statevector.native`.  These tests hold them to
the reference kernels on random gates, bound their temporaries, check
the build cache's safety rules (no compiler, tampered modes, racing
cold builds), that a pool worker which cannot load them refuses to run
rather than computing other bits, and that serial, shm and TCP agree
byte for byte -- signed zeros included -- under them.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import settings as repro_settings
from repro.circuits import random_circuit, random_state
from repro.errors import PoolError
from repro.gates import Gate
from repro.parallel import shm_available, stepper, tcp
from repro.parallel.tcp import shutdown_tcp_pools
from repro.statevector import DistributedStatevector, compile_gate_step
from repro.statevector import gate_kernels as k
from repro.statevector import gate_kernels_reference as ref
from repro.statevector import native
from repro.statevector.apply_plan import MAX_FUSED_QUBITS, ApplyPlan

SRC = Path(__file__).resolve().parents[2] / "src"
LOOPBACK2 = "127.0.0.1:0,127.0.0.1:0"

needs_native = pytest.mark.skipif(
    native.library() is None, reason="no C compiler can build the native kernels"
)


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A process that has not tried to load the kernels yet, with its
    own empty cache directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_loader", native._Loader())
    return tmp_path / "cache" / "repro" / "kernels"


# -- agreement with the reference kernels --------------------------------------------


def _unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _matrix(kind: str, rng: np.random.Generator) -> np.ndarray:
    a, b, c = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
    return {
        "anti_diagonal": np.array([[0, a], [b, 0]]),
        "upper": np.array([[a, 0.5 * b], [0, c]]),
        "lower": np.array([[a, 0], [0.5 * b, c]]),
        "hadamard": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
        "general": _unitary(rng),
    }[kind]


@st.composite
def single_cases(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    target = draw(st.integers(min_value=0, max_value=n - 1))
    others = [b for b in range(n) if b != target]
    controls = draw(
        st.lists(
            st.sampled_from(others) if others else st.nothing(),
            max_size=min(3, len(others)),
            unique=True,
        )
    )
    kind = draw(
        st.sampled_from(["anti_diagonal", "upper", "lower", "hadamard", "general"])
    )
    return n, target, tuple(controls), kind, draw(st.integers(0, 2**32 - 1))


@st.composite
def diagonal_cases(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    k_targets = draw(st.integers(min_value=1, max_value=min(n, MAX_FUSED_QUBITS)))
    bits = draw(st.permutations(range(n)))
    num_controls = draw(st.integers(min_value=0, max_value=min(2, n - k_targets)))
    targets = tuple(bits[:k_targets])
    controls = tuple(bits[k_targets : k_targets + num_controls])
    return n, targets, controls, draw(st.integers(0, 2**32 - 1))


@needs_native
@settings(max_examples=300, deadline=None)
@given(single_cases())
def test_single_matches_reference(case):
    n, target, controls, kind, seed = case
    rng = np.random.default_rng(seed)
    matrix = _matrix(kind, rng)
    psi = random_state(n, seed=seed % 1000)
    got, want = psi.copy(), psi.copy()
    with k.using_backend("native"):
        k.apply_matrix(got, matrix, (target,), controls)
    ref.apply_matrix(want, matrix, (target,), controls)
    assert np.allclose(got, want, atol=1e-12, rtol=0)


@needs_native
@settings(max_examples=300, deadline=None)
@given(diagonal_cases())
def test_diagonal_matches_reference(case):
    n, targets, controls, seed = case
    rng = np.random.default_rng(seed)
    diag = np.exp(1j * rng.uniform(0, 2 * np.pi, 1 << len(targets)))
    diag[rng.random(diag.shape[0]) < 0.3] = 1.0  # exact ones are skipped
    psi = random_state(n, seed=seed % 1000)
    got, want = psi.copy(), psi.copy()
    with k.using_backend("native"):
        k.apply_diagonal(got, diag, targets, controls)
    ref.apply_diagonal(want, diag, targets, controls)
    assert np.allclose(got, want, atol=1e-12, rtol=0)


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _pair_as_written(x, y, a, b):
    """``a*x + b*y + 0``, each product and sum rounded on its own, as
    the C source writes it (numpy's float64 ufuncs round every op)."""
    re = (a.real * x.real + (-a.imag) * x.imag) + (b.real * y.real + (-b.imag) * y.imag)
    im = (a.real * x.imag + a.imag * x.real) + (b.real * y.imag + b.imag * y.real)
    return _complex(re + 0.0, im + 0.0)


def _selected(n: int, bits: dict[int, int]) -> np.ndarray:
    idx = np.arange(1 << n)
    keep = np.ones(idx.shape, dtype=bool)
    for bit, value in bits.items():
        keep &= ((idx >> bit) & 1) == value
    return idx[keep]


@needs_native
@pytest.mark.parametrize(
    "target,controls", [(0, ()), (1, (0,)), (2, (5,)), (5, ()), (7, (0,)), (9, (3, 11))]
)
def test_single_rounds_as_written(target, controls):
    # No fused multiply-add on any path: a compiler that fuses (GCC 12
    # turns a complex product into vfmaddsub even under
    # -ffp-contract=off unless the source avoids the pattern) fails here.
    n, m = 12, _unitary(np.random.default_rng(target))
    psi = random_state(n, seed=target)
    got = psi.copy()
    with k.using_backend("native"):
        k.apply_matrix(got, m, (target,), controls)
    want = psi.copy()
    lo = _selected(n, {target: 0, **{c: 1 for c in controls}})
    hi = lo | (1 << target)
    want[lo] = _pair_as_written(psi[lo], psi[hi], m[0, 0], m[0, 1])
    want[hi] = _pair_as_written(psi[lo], psi[hi], m[1, 0], m[1, 1])
    assert got.tobytes() == want.tobytes()


@needs_native
@pytest.mark.parametrize(
    "targets,controls", [((7,), ()), ((4, 9), ()), ((0, 9), ()), ((1, 6, 7), (10,)), ((5,), (0,))]
)
def test_diagonal_rounds_as_written(targets, controls):
    n = 12
    rng = np.random.default_rng(len(targets))
    diag = np.exp(1j * rng.uniform(0, 2 * np.pi, 1 << len(targets)))
    psi = random_state(n, seed=4)
    got = psi.copy()
    with k.using_backend("native"):
        k.apply_diagonal(got, diag, targets, controls)
    want = psi.copy()
    sel = _selected(n, {c: 1 for c in controls})
    idx = np.zeros(sel.shape, dtype=np.int64)
    for j, t in enumerate(targets):
        idx |= ((sel >> t) & 1) << j
    f, x = diag[idx], psi[sel]
    re = (x.real * f.real + x.imag * (-f.imag)) + 0.0
    im = (x.real * f.imag + x.imag * f.real) + 0.0
    want[sel] = _complex(re, im)
    assert got.tobytes() == want.tobytes()


def test_diagonal_width_is_the_fusion_cap():
    assert native.MAX_DIAG_TARGETS == MAX_FUSED_QUBITS


@needs_native
def test_no_kernel_writes_a_negative_zero():
    zeros = np.zeros(64, dtype=np.complex128)
    with k.using_backend("native"):
        k.apply_matrix(zeros, np.array([[-1, 0.5], [0.25j, -1]]), (2,), (0,))
        k.apply_diagonal(zeros, np.array([-1, -1j, 1, -1]), (3, 5))
    assert not np.signbit(zeros.view(np.float64)).any()


@needs_native
@pytest.mark.parametrize(
    "make",
    [
        lambda: random_state(7, seed=1).astype(np.complex64),
        lambda: random_state(7, seed=1).copy()[::2],
    ],
    ids=["complex64", "strided-view"],
)
def test_views_and_other_dtypes_take_the_strided_path(make):
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    got, want = make(), make()
    with k.using_backend("native"):
        k.apply_matrix(got, h, (1,))
    with k.using_backend("strided"):
        k.apply_matrix(want, h, (1,))
    assert np.array_equal(got, want)


# -- allocation --------------------------------------------------------------------


@needs_native
@pytest.mark.parametrize(
    "apply",
    [
        lambda a: k.apply_matrix(a, np.array([[0.6, 0.8j], [0.8j, 0.6]]), (9,), (0,)),
        lambda a: k.apply_matrix(a, np.array([[0.6, 0.8j], [0.8j, 0.6]]), (0,)),
        lambda a: k.apply_diagonal(
            a, np.exp(1j * np.arange(1 << 10)), tuple(range(0, 20, 2))
        ),
        lambda a: k.apply_diagonal(a, np.array([1, 1j]), (15,), (3,)),
    ],
    ids=["single-controlled", "single-bit0", "diagonal-10", "diagonal-controlled"],
)
def test_native_call_allocates_no_slice_sized_temporary(apply):
    amps = random_state(20, seed=3).copy()  # 16 MiB
    with k.using_backend("native"):
        apply(amps)  # warm: ctypes and numpy set-up outside the window
        gc.collect()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            apply(amps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 64 * 1024, f"peak {peak} B"


# -- build cache and fallback ----------------------------------------------------------


def test_no_compiler_falls_back_to_strided_with_one_warning_line(
    fresh_loader, monkeypatch, capfd
):
    monkeypatch.setattr(native, "_compiler", lambda: None)
    amps = random_state(4, seed=0)
    with k.using_backend("native"):
        assert k.get_backend() == "strided"
        k.apply_matrix(amps, np.eye(2), (0,))
        k.apply_diagonal(amps, np.array([1, -1]), (1,))
        assert k.configured_backend() in ("strided", "reference")
    err = capfd.readouterr().err
    assert len(err.splitlines()) == 1
    assert "no C compiler" in err and "using strided" in err


@needs_native
def test_build_is_private_and_reused(fresh_loader):
    assert native.library() is not None
    assert (fresh_loader.stat().st_mode & 0o777) == 0o700
    (lib,) = fresh_loader.glob("repro-kernels-*.so")
    assert not (lib.stat().st_mode & 0o077)
    assert not list(fresh_loader.glob(".build-*"))


@needs_native
@pytest.mark.parametrize("mode", [0o720, 0o702])
def test_group_or_world_writable_library_is_refused(fresh_loader, monkeypatch, mode, capfd):
    assert native.library() is not None
    (lib,) = fresh_loader.glob("repro-kernels-*.so")
    lib.chmod(mode)
    monkeypatch.setattr(native, "_loader", native._Loader())
    assert native.library() is None
    assert "group- or world-writable" in native.failure()
    assert len(capfd.readouterr().err.splitlines()) == 1


@needs_native
def test_library_of_another_user_is_refused(fresh_loader, monkeypatch):
    assert native.library() is not None
    monkeypatch.setattr(native, "_loader", native._Loader())
    monkeypatch.setattr(native.os, "getuid", lambda: os.geteuid() + 1)
    assert native.library() is None
    assert "not owned by uid" in native.failure()


@needs_native
def test_cache_key_names_source_compiler_flags_and_cpu(monkeypatch):
    compiler = native._compiler()
    key = native.build_key(compiler)
    assert key == native.build_key(compiler)
    monkeypatch.setattr(native, "_cpu_flags", lambda: "another cpu")
    assert native.build_key(compiler) != key
    monkeypatch.undo()
    monkeypatch.setattr(native, "FLAGS", native.FLAGS + ("-g",))
    assert native.build_key(compiler) != key


_REPORT = (
    "from repro.statevector import gate_kernels as k, native\n"
    "print(k.get_backend(), native.failure())\n"
)


@needs_native
def test_concurrent_cold_builds_both_load(tmp_path):
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path), "PYTHONPATH": str(SRC)}
    env.pop("REPRO_KERNELS", None)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _REPORT],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], outs
    assert [out.strip() for out, _ in outs] == ["native None"] * 2, outs
    cache = tmp_path / "repro" / "kernels"
    assert len(list(cache.glob("repro-kernels-*.so"))) == 1
    assert not list(cache.glob(".build-*"))


# -- workers refuse a backend they cannot load -----------------------------------------


def _failing_loader(monkeypatch):
    monkeypatch.setattr(native, "_compiler", lambda: None)
    monkeypatch.setattr(native, "_loader", native._Loader())


def _task(kernels: str) -> stepper.PlanTask:
    step = compile_gate_step(Gate.named("h", (0,)))
    return stepper.PlanTask(
        local_name=None,
        pair_name=None,
        num_qubits=3,
        num_ranks=2,
        halved_swaps=False,
        plan=ApplyPlan(num_qubits=3, steps=(step,), num_gates=1),
        emit_events=False,
        kernels=kernels,
    )


def test_pin_names_the_host_that_cannot_load_native(monkeypatch, capfd):
    import socket

    _failing_loader(monkeypatch)
    with pytest.raises(PoolError, match=f"host {socket.gethostname()}"):
        with k.pinned_backend("native"):
            pass
    with k.pinned_backend("strided"):
        assert k.get_backend() == "strided"
    capfd.readouterr()


def test_shm_worker_refuses_native_it_cannot_load(monkeypatch, capfd):
    _failing_loader(monkeypatch)
    ctx = SimpleNamespace(worker_id=0, num_workers=1)
    with pytest.raises(PoolError, match="cannot load the native kernels"):
        stepper.run_plan_worker(ctx, _task("native"))
    capfd.readouterr()


def test_tcp_worker_refuses_native_it_cannot_load(monkeypatch, capfd):
    import socket

    _failing_loader(monkeypatch)
    coordinator, worker = socket.socketpair()
    listener = socket.socket()
    try:
        tcp._send_msg(coordinator, ("plan", _task("native"), {}, (False, {})))
        tcp._send_msg(coordinator, ("close",))
        tcp._worker_loop(worker, listener, 0, 1, "token")
        reply = tcp._recv_msg(coordinator)
    finally:
        coordinator.close()
    assert reply[0] == "err"
    assert reply[1].startswith("PoolError: host ") and "native" in reply[1]
    capfd.readouterr()


def test_coordinator_that_fell_back_ships_strided(monkeypatch, capfd):
    _failing_loader(monkeypatch)
    assert k.configured_backend() in ("strided", "reference")
    capfd.readouterr()


# -- serial, shm and TCP agree byte for byte ---------------------------------------------


@pytest.fixture(scope="module")
def _pools():
    yield
    shutdown_tcp_pools()


def _measured(seed: int, allow_unitaries: bool):
    circuit = random_circuit(3, 5, seed=seed, allow_unitaries=allow_unitaries)
    return circuit.measure(0)


def _bytes(circuit, fusion: str, **executor) -> bytes:
    state = DistributedStatevector.zero_state(
        circuit.num_qubits, 4, measure_seed=5, fusion=fusion, **executor
    )
    return state.apply_circuit(circuit).gather().tobytes()


def _executors():
    out = {"tcp": {"executor": "pool", "hosts": LOOPBACK2}}
    if shm_available():
        out["shm"] = {"executor": "pool"}
    return out


@needs_native
@pytest.mark.usefixtures("_pools")
@pytest.mark.parametrize(
    "seed,allow_unitaries,fusion",
    [(0, False, "off"), (0, False, "diag")]
    + [(s, u, f) for s in range(1, 5) for u in (False, True) for f in ("off", "full")],
)
def test_pools_match_serial_bytes_including_signed_zeros(seed, allow_unitaries, fusion):
    # The recorded case, seed 0 without unitaries, wrote -0.0 on the
    # pools' all-zero slices (which serial skips) under strided.
    circuit = _measured(seed, allow_unitaries)
    # Serial runs this process's backend, the pools the setting's.
    with repro_settings.overridden({"REPRO_KERNELS": "native"}):
        with k.using_backend("native"):
            serial = _bytes(circuit, fusion, executor="serial")
        for name, executor in _executors().items():
            assert _bytes(circuit, fusion, **executor) == serial, name
