#!/usr/bin/env python
"""Benchmark exports: kernel throughput and parallel-executor speedups.

``--suite kernels`` (default) times every public kernel on both
backends over the same amplitude buffer and records the median
nanoseconds per (statevector) amplitude, plus the strided/reference
speedup.  The committed ``BENCH_kernels.json`` at the repo root is the
artefact the kernel-rewrite PR gates on; CI re-runs this script in
``--quick`` mode and compares against it.

Because absolute ns/amp depends on the machine, the regression check
(``--check-against``) compares the *speedup ratio* -- strided vs
reference measured in the same run on the same machine -- and fails when
any kernel's current speedup drops below half its baseline speedup
(i.e. the strided kernel regressed >2x relative to the reference).

The kernels suite also times whole-circuit dense sweeps (QFT and a
random workload, always at ``2**20`` amplitudes so labels stay
comparable under ``--quick``) under every fusion mode
(``off``/``diag``/``full``); the gate additionally asserts the
acceptance invariant that the committed baseline's ``full`` beats its
``off`` by >= 2x on the QFT sweep.

``--suite transpile`` prices the transpile strategies (naive vs
blocked vs grouped) on QFT and random workloads at 16 ranks, writing
``BENCH_transpile.json`` -- deterministic model outputs, so the
``--check-against`` gate compares exchange counts exactly and fails
when grouped's QFT round reduction stops being an integer factor >= 2.

``--suite tune`` runs the energy-aware auto-tuner's deterministic
Pareto searches (the full QFT-20 lever sweep plus a small 3-lever
search; ``--quick`` re-runs only the latter), writing
``BENCH_tune.json``.  The model outputs are machine-independent, so
the ``--check-against`` gate demands *exact* frontier reproduction and
asserts the acceptance invariant that the committed full search's best
point saves >= 25% energy vs the paper-default configuration under a
2x slack deadline.

``--suite parallel`` measures the shared-memory pool executor against
serial on a QFT (22 qubits x 8 ranks; 18 qubits under ``--quick``) and
the prediction cache cold vs warm on a DES-backend sweep, writing
``BENCH_parallel.json``.  The pool can only beat serial wall-clock
with >=2 physical cores, so the report records ``cpu_count`` and the
``--require-speedup`` gate skips (loudly) on single-core or shm-less
hosts instead of failing on hardware the code cannot control.

``--suite scaleout`` races all three executors -- serial, pool over
shared memory and pool over the TCP loopback transport -- on a QFT
(20 qubits x 8 ranks; 16 under ``--quick``), checks the final
amplitudes bitwise against serial, and writes ``BENCH_scaleout.json``.
The ``--require-speedup`` gate enforces the committed multi-core
acceptance floor (pool >= 1.5x serial).

``--suite sampling`` measures shot-sampling throughput: a measured
QAOA workload sampled end to end on the dense, serial and pool-tcp
executors (pool-shm when available), with the sample streams and
mid-circuit outcome records checked bitwise across executors, writing
``BENCH_sampling.json``.  Absolute shots/s is machine-dependent, so
the regression gate binds on three hardware-independent facts instead:
bit-identity must hold in both the baseline and the current run; the
marginal per-shot cost of the exact sampler must stay sub-linear in the
state size (per-shot work is two bisects over exact cumulative sums; a
regression to a linear per-shot scan blows the measured small-to-large
ratio past the 8x acceptance ceiling); and that per-shot cost, divided
by the same run's median ``mix64`` draw time, must stay under 10 draws
(the bisect search costs ~1.5; a per-shot big-int scan ~200).

Baselines for the wall-clock suites (``parallel``, ``scaleout``) are
only honest on parallel hardware: a baseline-producing run (one without
``--check-against``) refuses to write on a host with fewer than two
CPUs and exits 2, unless ``--provisional`` explicitly marks the report
as measured on hardware the speedup claim cannot hold on.

Usage::

    PYTHONPATH=src python benchmarks/export.py                  # 9 repeats
    PYTHONPATH=src python benchmarks/export.py --quick          # 3 repeats
    PYTHONPATH=src python benchmarks/export.py --quick \\
        --check-against BENCH_kernels.json --output /tmp/b.json
    PYTHONPATH=src python benchmarks/export.py --suite parallel \\
        --require-speedup 1.5

Only the standard library and numpy are required.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time

import numpy as np

from repro.circuits import random_state
from repro.gates import Gate
from repro.gates import matrices as mats
from repro.statevector import gate_kernels as kernels


def _cx():
    return mats.pauli_x()


def _u3():
    return mats.u3(0.2, 0.4, 0.6)


def _random_unitary(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _cases(n: int):
    """(name, callable(amps)) pairs; every callable mutates in place and
    dispatches through the active backend."""
    hi, lo = n - 1, 0
    mid = n // 2
    h = mats.hadamard()
    cx = _cx()
    u3 = _u3()
    p_diag = np.diag(mats.phase(0.3))
    fused = Gate.fused(
        [
            Gate.named("p", (lo,), params=(0.1,)),
            Gate.named("p", (mid,), params=(0.2,), controls=(lo,)),
            Gate.named("rz", (hi,), params=(0.3,)),
        ]
    )
    fused_diag = fused.diagonal_vector()
    fused_targets = fused.targets
    block4 = _random_unitary(16, seed=4)
    block3 = _random_unitary(8, seed=3)
    return [
        ("hadamard_low", lambda a: kernels.apply_matrix(a, h, (lo,))),
        ("hadamard_high", lambda a: kernels.apply_matrix(a, h, (hi,))),
        # The acceptance case: the canonical controlled gate.
        ("controlled_x", lambda a: kernels.apply_matrix(a, cx, (mid,), (lo,))),
        ("controlled_u3", lambda a: kernels.apply_matrix(a, u3, (mid,), (lo,))),
        (
            "two_controls_h",
            lambda a: kernels.apply_matrix(a, h, (mid,), (lo, hi)),
        ),
        (
            "controlled_phase_diag",
            lambda a: kernels.apply_diagonal(a, p_diag, (mid,), (lo,)),
        ),
        (
            "fused_diag_3gates",
            lambda a: kernels.apply_diagonal(a, fused_diag, fused_targets),
        ),
        # The other acceptance case.
        ("local_swap", lambda a: kernels.apply_swap_local(a, 2, hi)),
        (
            "controlled_swap",
            lambda a: kernels.apply_swap_local(a, 2, hi, (mid,)),
        ),
        # Fused-block kernels: one batched matmul over the sub-vectors.
        (
            "fused_block4_contiguous",
            lambda a: kernels.apply_unitary_batched(a, block4, (0, 1, 2, 3)),
        ),
        (
            "fused_block3_scattered",
            lambda a: kernels.apply_unitary_batched(a, block3, (1, mid, hi)),
        ),
        (
            "perm_gather4",
            lambda a: kernels.apply_permutation(
                a, ((lo, hi), (1, mid), (2, hi - 1), (3, mid + 1))
            ),
        ),
    ]


def _time_case(fn, amps: np.ndarray, repeats: int) -> float:
    """Median ns/amp over ``repeats`` timed applications."""
    fn(amps)  # warm-up (page in, JIT numpy loops into cache)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn(amps)
        samples.append(time.perf_counter_ns() - t0)
    return statistics.median(samples) / amps.shape[0]


#: Fusion sweeps always run at this width -- even under ``--quick`` --
#: so the workload labels (and the >= 2x acceptance invariant on the
#: ``qft20`` entry) stay comparable between the committed baseline and
#: CI smoke runs.  One sweep is ~100-250 ms, so the fixed size costs a
#: quick run only a few seconds.
_FUSION_SWEEP_QUBITS = 20


def _fusion_sweeps(repeats: int, n: int = _FUSION_SWEEP_QUBITS) -> dict:
    """End-to-end dense circuit sweeps under each fusion mode.

    Times the full compiled-plan execution (compile excluded) of a QFT
    and a random workload at ``2**n`` amplitudes for ``off``, ``diag``
    and ``full`` fusion, recording wall seconds, step counts and the
    speedup of each mode over ``off``.
    """
    from repro.circuits import qft_circuit, random_circuit
    from repro.statevector.apply_plan import compile_plan

    workloads = [
        (f"qft{n}", qft_circuit(n)),
        (f"random{n}", random_circuit(n, 4 * n, seed=7)),
    ]
    psi = random_state(n, seed=1)
    out: dict[str, dict] = {}
    for label, circuit in workloads:
        entry: dict[str, dict | float] = {}
        times: dict[str, float] = {}
        for mode in ("off", "diag", "full"):
            plan = compile_plan(circuit, fusion=mode, cache=False)
            amps = psi.copy()
            plan.run_dense(amps)  # warm-up: page in, prime BLAS
            samples = []
            for _ in range(repeats):
                amps = psi.copy()
                t0 = time.perf_counter()
                plan.run_dense(amps)
                samples.append(time.perf_counter() - t0)
            times[mode] = statistics.median(samples)
            entry[mode] = {
                "seconds": round(times[mode], 4),
                "steps": len(plan.steps),
                "num_gates": plan.num_gates,
            }
        entry["diag_vs_off_speedup"] = round(times["off"] / times["diag"], 3)
        entry["full_vs_off_speedup"] = round(times["off"] / times["full"], 3)
        out[label] = entry
    return out


def run(n: int, repeats: int) -> dict:
    amps = random_state(n, seed=0).copy()
    results: dict[str, dict[str, float]] = {}
    for name, fn in _cases(n):
        with kernels.using_backend("strided"):
            strided = _time_case(fn, amps, repeats)
        with kernels.using_backend("reference"):
            ref = _time_case(fn, amps, repeats)
        results[name] = {
            "strided_ns_per_amp": round(strided, 4),
            "reference_ns_per_amp": round(ref, 4),
            "speedup": round(ref / strided, 3),
        }
    return {
        "schema": "repro-bench-kernels/2",
        "num_qubits": n,
        "num_amps": 1 << n,
        "repeats": repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels": results,
        "fusion": _fusion_sweeps(max(3, repeats // 3)),
    }


def _time_executor(circuit, num_qubits: int, ranks: int, executor: str, repeats: int):
    from repro.statevector import DistributedStatevector

    samples = []
    for _ in range(repeats):
        state = DistributedStatevector.zero_state(num_qubits, ranks, executor=executor)
        t0 = time.perf_counter()
        state.apply_circuit(circuit)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _time_cache_sweep(configs):
    """One pass of DES-backend predictions over ``configs``; wall seconds."""
    from repro.circuits import qft_circuit
    from repro.machine.frequency import CpuFrequency
    from repro.machine.node import STANDARD_NODE
    from repro.perfmodel.predictor import predict
    from repro.perfmodel.trace import RunConfiguration
    from repro.statevector import Partition

    t0 = time.perf_counter()
    for n, ranks in configs:
        config = RunConfiguration(
            partition=Partition(n, ranks),
            node_type=STANDARD_NODE,
            frequency=CpuFrequency.MEDIUM,
        )
        predict(qft_circuit(n), config, backend="des")
    return time.perf_counter() - t0


def run_parallel(quick: bool) -> dict:
    import os
    import tempfile

    from repro.circuits import qft_circuit
    from repro.parallel import shm_available
    from repro import settings

    n = 18 if quick else 22
    ranks = 8
    repeats = 3
    circuit = qft_circuit(n)
    serial_s = _time_executor(circuit, n, ranks, "serial", repeats)
    pool_s = (
        _time_executor(circuit, n, ranks, "pool", repeats) if shm_available() else None
    )

    # Cache: the honest workload is where predictions are slow -- the
    # discrete-event backend at paper-scale rank counts.  The circuit
    # fingerprints are *not* reused across the two sweeps' qft_circuit
    # objects' memoisation (fresh objects), so the warm pass pays full
    # key-derivation cost and only skips the model evaluation.
    cache_configs = [(28, 64)] if quick else [(30, 64), (32, 128), (34, 256)]
    with tempfile.TemporaryDirectory() as tmp, settings.overridden(
        {settings.CACHE_DIR.name: tmp}
    ):
        cache_cold_s = _time_cache_sweep(cache_configs)
        cache_warm_s = _time_cache_sweep(cache_configs)

    report_caveat = (
        "measured on a single-CPU host: the pool cannot hide its "
        "spawn/marshal overhead behind parallel compute, so "
        "pool_speedup < 1 reflects the machinery's cost, not its "
        "benefit on real multi-core nodes"
        if (os.cpu_count() or 1) < 2
        else None
    )
    return {
        "schema": "repro-bench-parallel/1",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "caveat": report_caveat,
        "shm_available": shm_available(),
        "qft": {
            "num_qubits": n,
            "num_ranks": ranks,
            "repeats": repeats,
            "serial_s": round(serial_s, 4),
            "pool_s": round(pool_s, 4) if pool_s is not None else None,
            "pool_speedup": round(serial_s / pool_s, 3) if pool_s else None,
        },
        "cache": {
            "configs": [list(c) for c in cache_configs],
            "backend": "des",
            "cold_s": round(cache_cold_s, 4),
            "warm_s": round(cache_warm_s, 4),
            "speedup": round(cache_cold_s / cache_warm_s, 3),
        },
    }


def _time_scaleout_leg(circuit, num_qubits, ranks, repeats, **state_kwargs):
    """(median wall seconds, final gathered amplitudes) for one executor."""
    from repro.statevector import DistributedStatevector

    samples = []
    amps = None
    for _ in range(repeats):
        state = DistributedStatevector.zero_state(
            num_qubits, ranks, **state_kwargs
        )
        t0 = time.perf_counter()
        state.apply_circuit(circuit)
        samples.append(time.perf_counter() - t0)
        amps = state.gather()
    return statistics.median(samples), amps


def run_scaleout(quick: bool) -> dict:
    """Serial vs pool-shm vs pool-tcp on one QFT; bitwise agreement."""
    import os

    from repro.circuits import qft_circuit
    from repro.parallel import shm_available
    from repro.parallel.tcp import DEFAULT_CHUNK_AMPS, get_tcp_pool

    n = 16 if quick else 20
    ranks = 8
    repeats = 3
    hosts = "127.0.0.1:0,127.0.0.1:0"
    circuit = qft_circuit(n)

    serial_s, serial_amps = _time_scaleout_leg(
        circuit, n, ranks, repeats, executor="serial"
    )
    shm_s = shm_amps = None
    if shm_available():
        shm_s, shm_amps = _time_scaleout_leg(
            circuit, n, ranks, repeats, executor="pool"
        )
    tcp_s, tcp_amps = _time_scaleout_leg(
        circuit, n, ranks, repeats, executor="pool", hosts=hosts
    )
    rtt = statistics.median(get_tcp_pool(hosts).probe(rounds=5))

    speedups = {
        "pool_shm_speedup": round(serial_s / shm_s, 3) if shm_s else None,
        "pool_tcp_speedup": round(serial_s / tcp_s, 3),
    }
    best = max(v for v in speedups.values() if v is not None)
    return {
        "schema": "repro-bench-scaleout/1",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "shm_available": shm_available(),
        "qft": {
            "num_qubits": n,
            "num_ranks": ranks,
            "repeats": repeats,
            "serial_s": round(serial_s, 4),
            "pool_shm_s": round(shm_s, 4) if shm_s is not None else None,
            "pool_tcp_s": round(tcp_s, 4),
            **speedups,
            "best_pool_speedup": best,
            "bit_identical": {
                "shm": bool(np.array_equal(serial_amps, shm_amps))
                if shm_amps is not None
                else None,
                "tcp": bool(np.array_equal(serial_amps, tcp_amps)),
            },
        },
        "tcp": {
            "num_workers": 2,
            "probe_rtt_s": round(rtt, 6),
            "chunk_amps": DEFAULT_CHUNK_AMPS,
        },
    }


def check_scaleout_against(current: dict, baseline_path: str) -> list[str]:
    """Scale-out regressions: bit-identity always, speedup vs baseline.

    Bit-identity between executors is hardware-independent and must
    hold in both the committed baseline and the current run.  The
    speedup floor only binds when the committed baseline itself was
    measured on parallel hardware (not ``--provisional``): then the
    current best pool speedup must stay above half the baseline's, and
    the baseline must keep the 1.5x acceptance invariant.
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    failures = []
    for report, tag in ((baseline, "baseline"), (current, "current")):
        for transport, ok in report["qft"]["bit_identical"].items():
            if ok is False:
                failures.append(
                    f"{tag}: pool-{transport} amplitudes are not "
                    f"bit-identical to serial"
                )
    if baseline.get("provisional"):
        return failures
    base_best = baseline["qft"]["best_pool_speedup"]
    if base_best < 1.5:
        failures.append(
            f"baseline best pool speedup {base_best:.2f}x is below the "
            f"1.5x acceptance floor (regenerate on a multi-core host)"
        )
    now_best = current["qft"]["best_pool_speedup"]
    if now_best < base_best / 2.0:
        failures.append(
            f"best pool speedup {now_best:.2f}x fell below half the "
            f"baseline ({base_best:.2f}x)"
        )
    return failures


def _time_sample_leg(circuit, shots, seed, repeats, **sample_kwargs):
    """(median wall seconds, SampleResult) for one executor's sample()."""
    from repro.statevector.sampling import sample

    samples = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = sample(circuit, shots, seed, **sample_kwargs)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), result


#: Fixed widths for the exact-sampler scaling probe -- like the fusion
#: sweep these never shrink under ``--quick`` so the committed ratio and
#: CI smoke runs measure the same descent depths.
_SAMPLING_SCALE_QUBITS = (12, 18)


def _marginal_shot_ns(amps, shots_lo, shots_hi, seed, repeats) -> float:
    """Marginal ns per shot, isolated from the setup cost.

    Times ``sample_exact`` at two shot counts on the same state; the
    difference divides out the one-off exact-norm setup (which is linear
    in the state size by design) and leaves the per-shot descent cost.
    """
    from repro.statevector.exact import sample_exact

    def leg(shots):
        runs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            sample_exact([amps], shots, seed)
            runs.append(time.perf_counter() - t0)
        return statistics.median(runs)

    return (leg(shots_hi) - leg(shots_lo)) / (shots_hi - shots_lo) * 1e9


def _median_draw_ns(seed, repeats, draws=4096) -> float:
    """Median ns of one shot's ``mix64`` draw: the per-shot cost floor."""
    from repro.faults.rng import mix64
    from repro.statevector.exact import SAMPLE_STREAM

    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for s in range(draws):
            mix64(seed, SAMPLE_STREAM, s)
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs) / draws * 1e9


def run_sampling(quick: bool) -> dict:
    """Shot throughput per executor, bit-identity, per-shot scaling."""
    import os

    from repro.parallel import shm_available
    from repro.tune.workloads import build_workload

    n = 12 if quick else 16
    shots = 2048 if quick else 8192
    ranks = 4
    repeats = 3
    seed = 7
    hosts = "127.0.0.1:0,127.0.0.1:0"
    circuit = build_workload("qaoa-sampled", n).circuit

    # shots=0 still runs the circuit and the mid-circuit collapses, so
    # the difference isolates the terminal sampling cost.
    prep_s, _ = _time_sample_leg(circuit, 0, seed, repeats)
    dense_s, dense = _time_sample_leg(circuit, shots, seed, repeats)
    serial_s, serial = _time_sample_leg(
        circuit, shots, seed, repeats, executor="serial", num_ranks=ranks
    )
    shm_s = shm = None
    if shm_available():
        shm_s, shm = _time_sample_leg(
            circuit, shots, seed, repeats, executor="pool", num_ranks=ranks
        )
    tcp_s, tcp = _time_sample_leg(
        circuit,
        shots,
        seed,
        repeats,
        executor="pool",
        num_ranks=ranks,
        hosts=hosts,
    )

    def identical(other):
        if other is None:
            return None
        return bool(
            np.array_equal(dense.samples, other.samples)
            and dense.measure_outcomes == other.measure_outcomes
        )

    sample_only_s = max(dense_s - prep_s, 1e-9)
    lo, hi = 128, 2048
    marginal = {
        q: _marginal_shot_ns(
            random_state(q, seed=q), lo, hi, seed, max(3, repeats)
        )
        for q in _SAMPLING_SCALE_QUBITS
    }
    small_q, large_q = _SAMPLING_SCALE_QUBITS
    draw_ns = _median_draw_ns(seed, max(3, repeats))
    return {
        "schema": "repro-bench-sampling/1",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "shm_available": shm_available(),
        "workload": {
            "circuit": f"qaoa-sampled-{n}",
            "num_qubits": n,
            "num_ranks": ranks,
            "shots": shots,
            "seed": seed,
            "repeats": repeats,
            "measure_gates": len(dense.measure_outcomes),
            "prep_s": round(prep_s, 4),
            "dense_s": round(dense_s, 4),
            "serial_s": round(serial_s, 4),
            "pool_shm_s": round(shm_s, 4) if shm_s is not None else None,
            "pool_tcp_s": round(tcp_s, 4),
            "dense_shots_per_s": round(shots / sample_only_s, 1),
            "bit_identical": {
                "serial": identical(serial),
                "shm": identical(shm),
                "tcp": identical(tcp),
            },
        },
        "exact": {
            "shots_lo": lo,
            "shots_hi": hi,
            "marginal_ns_per_shot": {
                f"2**{q}_amps": round(marginal[q], 1) for q in marginal
            },
            "state_scale_ratio": round(marginal[large_q] / marginal[small_q], 3),
            "amps_ratio": 1 << (large_q - small_q),
            "draw_ns": round(draw_ns, 1),
            "draws_per_shot": round(marginal[small_q] / draw_ns, 3),
        },
    }


#: A linear per-shot scan would track the 64x amplitude growth between
#: the two probe widths; the bisect search stays a few x (lazy per-block
#: prefix builds amortise into the larger probe).  8x is the ceiling the
#: gate (and the committed baseline) must stay under.
_SAMPLING_SCALE_CEILING = 8.0

#: Marginal per-shot cost at 2**12 amps in units of one ``mix64`` draw,
#: which every shot must pay: the bisect search measures ~1.5 draws on a
#: 2-vCPU x86 host, the former per-shot big-int scan ~200.
_SAMPLING_DRAWS_CEILING = 10.0


def check_sampling_against(current: dict, baseline_path: str) -> list[str]:
    """Sampling regressions: bit-identity, sub-linear and cheap shots.

    All checks are hardware-independent, so they bind on the committed
    baseline *and* the current run: executor sample streams must agree
    bitwise with dense, the exact sampler's marginal per-shot cost ratio
    between the two fixed probe widths must stay under the 8x acceptance
    ceiling (a per-shot linear scan would track the 64x amplitude
    growth), and the small-state per-shot cost must stay under
    ``_SAMPLING_DRAWS_CEILING`` ``mix64`` draws of the same run.
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    failures = []
    for report, tag in ((baseline, "baseline"), (current, "current")):
        for transport, ok in report["workload"]["bit_identical"].items():
            if ok is False:
                failures.append(
                    f"{tag}: {transport} sample stream is not bit-identical "
                    f"to dense"
                )
        ratio = report["exact"]["state_scale_ratio"]
        if ratio >= _SAMPLING_SCALE_CEILING:
            failures.append(
                f"{tag}: per-shot cost grew {ratio:.2f}x from 2**12 to "
                f"2**18 amps (ceiling {_SAMPLING_SCALE_CEILING:.0f}x -- "
                f"the exact sampler is no longer sub-linear in state size)"
            )
        draws = report["exact"].get("draws_per_shot")
        if draws is None:
            failures.append(
                f"{tag}: no draws_per_shot recorded (regenerate the report)"
            )
        elif draws >= _SAMPLING_DRAWS_CEILING:
            failures.append(
                f"{tag}: a shot costs {draws:.1f} mix64 draws at 2**12 "
                f"amps (ceiling {_SAMPLING_DRAWS_CEILING:.0f})"
            )
    return failures


def _median_apply(circuit, num_qubits: int, ranks: int, repeats: int) -> float:
    from repro.statevector import DistributedStatevector

    samples = []
    for _ in range(repeats):
        state = DistributedStatevector.zero_state(num_qubits, ranks)
        t0 = time.perf_counter()
        state.apply_circuit(circuit)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_obs(quick: bool) -> dict:
    """Cost of the observability layer: noop fast path and tracing tax.

    The committed ``BENCH_obs.json`` records (a) the per-call cost of a
    *disabled* ``obs.span`` and of a metric increment -- the only prices
    the tier-1 suite and the committed benchmarks ever pay -- and (b) a
    serial QFT simulation timed with observability off and on.  The
    disabled-path overhead estimate multiplies the span count the traced
    run recorded by the measured noop cost, as a fraction of the
    untraced wall time: that is the bill instrumentation presents when
    nobody is watching, and the CI gate keeps it under ``--max-noop-overhead``.
    """
    import os

    from repro import obs
    from repro.circuits import qft_circuit

    calls = 200_000 if quick else 1_000_000
    obs.disable()
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        with obs.span("bench"):
            pass
    disabled_span_ns = (time.perf_counter_ns() - t0) / calls

    c = obs.counter("bench_obs_suite_total")
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        c.inc()
    counter_inc_ns = (time.perf_counter_ns() - t0) / calls

    t0 = time.perf_counter_ns()
    for _ in range(calls):
        obs.counter("bench_obs_suite_total").inc()
    registry_inc_ns = (time.perf_counter_ns() - t0) / calls

    n = 12 if quick else 16
    ranks = 4
    repeats = 3 if quick else 5
    circuit = qft_circuit(n)
    obs.disable()
    obs.reset()
    _median_apply(circuit, n, ranks, 1)  # warm-up: page in, build plans
    disabled_s = _median_apply(circuit, n, ranks, repeats)
    obs.reset()
    obs.enable()
    try:
        enabled_s = _median_apply(circuit, n, ranks, repeats)
        spans_recorded = len(obs.spans())
    finally:
        obs.disable()
        obs.reset()

    # What the *disabled* path would have cost the untraced run: every
    # span the traced run recorded was a noop flag test when disabled.
    noop_overhead = (
        spans_recorded / repeats * disabled_span_ns / (disabled_s * 1e9)
        if disabled_s > 0
        else 0.0
    )
    return {
        "schema": "repro-bench-obs/1",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "noop": {
            "calls": calls,
            "disabled_span_ns": round(disabled_span_ns, 2),
            "counter_inc_ns": round(counter_inc_ns, 2),
            "registry_lookup_inc_ns": round(registry_inc_ns, 2),
        },
        "workload": {
            "circuit": f"qft{n}",
            "num_qubits": n,
            "num_ranks": ranks,
            "repeats": repeats,
            "disabled_s": round(disabled_s, 4),
            "enabled_s": round(enabled_s, 4),
            "enabled_overhead": round(enabled_s / disabled_s - 1, 4),
            "spans_per_run": spans_recorded // repeats,
            "noop_overhead": round(noop_overhead, 6),
        },
    }


def run_transpile(quick: bool) -> dict:
    """Exchange/energy ledger of the transpile strategies.

    Unlike the kernel and parallel suites this one records *model*
    outputs, not wall clocks: exchange-round counts, bytes per rank and
    the analytic/DES predicted runtime and energy are deterministic for
    a given circuit and calibration, so the committed
    ``BENCH_transpile.json`` is machine-independent and the regression
    gate can compare counts exactly.
    """
    import os

    from repro.experiments.ext_transpile import run as run_experiment

    ranks = 16
    qft_sweep = (12,) if quick else (12, 16, 20)
    random_workload = (12, 40, 7) if quick else (14, 80, 7)
    result = run_experiment(
        num_ranks=ranks,
        qft_sweep=qft_sweep,
        random_workload=random_workload,
    )
    labels = [f"qft{n}" for n in qft_sweep] + [f"random{random_workload[0]}"]
    workloads: dict[str, dict] = {}
    for label in labels:
        per_strategy: dict[str, dict] = {}
        naive_bytes = result.metric(f"{label}_naive_bytes")
        for strategy in ("naive", "blocked", "grouped"):
            key = f"{label}_{strategy}"
            entry = {
                "rounds": int(result.metric(f"{key}_rounds")),
                "bytes_per_rank": int(result.metric(f"{key}_bytes")),
                "analytic_s": round(result.metric(f"{key}_analytic_s"), 6),
                "des_s": round(result.metric(f"{key}_des_s"), 6),
                "energy_j": round(result.metric(f"{key}_energy_j"), 3),
                "des_energy_j": round(
                    result.metric(f"{key}_des_energy_j"), 3
                ),
            }
            if strategy != "naive":
                entry["round_factor"] = round(
                    result.metric(f"{key}_round_factor"), 3
                )
                entry["bytes_factor"] = round(
                    naive_bytes / entry["bytes_per_rank"], 3
                ) if entry["bytes_per_rank"] else float(naive_bytes)
                entry["runtime_delta_s"] = round(
                    result.metric(f"{key}_runtime_delta_s"), 6
                )
                entry["energy_delta_j"] = round(
                    result.metric(f"{key}_energy_delta_j"), 3
                )
            per_strategy[strategy] = entry
        workloads[label] = per_strategy
    return {
        "schema": "repro-bench-transpile/1",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "num_ranks": ranks,
        "workloads": workloads,
    }


def check_transpile_against(current: dict, baseline_path: str) -> list[str]:
    """Transpile regressions: counts exactly, predicted energy to 1%.

    Compares every workload present in *both* files (quick CI runs
    sweep a subset of the committed full sweep), and independently
    asserts the acceptance invariant -- grouped reduces the QFT's
    exchange rounds by an integer factor >= 2 -- so the gate still
    bites if the baseline itself were regenerated from a regressed
    tree.
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    failures = []
    for label, strategies in baseline.get("workloads", {}).items():
        now_strategies = current["workloads"].get(label)
        if now_strategies is None:
            continue
        for strategy, entry in strategies.items():
            now = now_strategies.get(strategy)
            if now is None:
                failures.append(f"{label}/{strategy}: missing from current run")
                continue
            for count_key in ("rounds", "bytes_per_rank"):
                if now[count_key] > entry[count_key]:
                    failures.append(
                        f"{label}/{strategy}: {count_key} grew "
                        f"{entry[count_key]} -> {now[count_key]}"
                    )
            if now["energy_j"] > entry["energy_j"] * 1.01:
                failures.append(
                    f"{label}/{strategy}: predicted energy grew "
                    f"{entry['energy_j']} -> {now['energy_j']} J (>1%)"
                )
    for label, strategies in current["workloads"].items():
        if not label.startswith("qft"):
            continue
        factor = strategies["grouped"].get("round_factor", 0.0)
        if factor < 2 or factor != int(factor):
            failures.append(
                f"{label}/grouped: QFT round factor {factor} is not an "
                f"integer >= 2"
            )
    return failures


def run_tune(quick: bool) -> dict:
    """Auto-tuner frontier ledger: deterministic Pareto searches.

    Like the transpile suite this records *model* outputs: the tuner's
    enumeration is canonical and its predictors are closed-form/seeded,
    so the committed ``BENCH_tune.json`` is machine-independent and the
    gate compares frontiers exactly.  Two searches are recorded: the
    full ``qft20`` lever sweep (the acceptance artefact -- its best
    point must save >= 25% energy vs the paper default under a 2x slack
    deadline) and the small ``qft20-quick`` 3-lever search CI re-runs
    (``--quick`` runs only the latter).
    """
    import os

    from repro.experiments.ext_tune import paper_default_point
    from repro.perfmodel.objectives import objective_vector
    from repro.perfmodel.predictor import predict
    from repro.tune.levers import LeverSpace
    from repro.tune.search import Constraint, tune
    from repro.tune.workloads import build_workload

    num_qubits = 20
    workload = build_workload("qft", num_qubits)
    default = paper_default_point()
    default_objectives = objective_vector(
        predict(workload.circuit, default.to_run_configuration(num_qubits))
    )
    deadline_s = 2.0 * default_objectives.runtime_s
    constraint = Constraint(deadline_s=deadline_s)

    # The quick search sweeps exactly three levers (frequency, comm
    # mode, transpile strategy) at the default's node count with fusion
    # off: 3 x 2 x 3 = 18 points, < 1 s, still enough structure for the
    # exact-frontier gate to bite.
    spaces = {
        "qft20-quick": LeverSpace(node_counts=(16,), fusion_modes=("off",))
    }
    if not quick:
        spaces["qft20"] = LeverSpace(node_counts=(8, 16))

    searches: dict[str, dict] = {}
    for label in sorted(spaces):
        result = tune(workload, constraint, spaces[label])
        best = result.best
        searches[label] = {
            "workload": result.workload,
            "num_qubits": num_qubits,
            "space_size": spaces[label].size,
            "deadline_s": round(deadline_s, 9),
            "evaluated": result.evaluated,
            "skipped": result.skipped,
            "spot_checked": result.spot_checked,
            "flagged": len(result.flagged),
            "default": {
                "lever": default.to_dict(),
                "energy_j": round(default_objectives.energy_j, 6),
                "runtime_s": round(default_objectives.runtime_s, 9),
                "cost_cu": round(default_objectives.cost_cu, 12),
            },
            "best_energy_j": round(best.objectives.energy_j, 6)
            if best
            else None,
            "energy_saving": round(
                1.0 - best.objectives.energy_j / default_objectives.energy_j,
                6,
            )
            if best
            else None,
            "frontier": [p.to_dict() for p in result.frontier],
        }
    return {
        "schema": "repro-bench-tune/1",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "searches": searches,
    }


def check_tune_against(current: dict, baseline_path: str) -> list[str]:
    """Tuner regressions: exact frontier reproduction, saving floor.

    The tuner is deterministic end to end, so for every search present
    in *both* files (quick CI runs only re-run the small search) the
    frontier must match the committed baseline exactly -- same lever
    points, same rounded objective vectors, in the same canonical
    order.  Independently, the baseline's full ``qft20`` search must
    keep the acceptance invariant: best point saves >= 25% energy vs
    the paper-default configuration under the 2x slack deadline.
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    failures = []
    for label, entry in baseline.get("searches", {}).items():
        now = current["searches"].get(label)
        if now is None:
            continue
        for key in ("evaluated", "skipped", "deadline_s", "default"):
            if now[key] != entry[key]:
                failures.append(
                    f"{label}: {key} changed {entry[key]!r} -> {now[key]!r}"
                )
        if now["frontier"] != entry["frontier"]:
            want = len(entry["frontier"])
            got = len(now["frontier"])
            detail = (
                f"{want} -> {got} points"
                if want != got
                else f"{want} points, objectives or levers moved"
            )
            failures.append(
                f"{label}: frontier no longer reproduces the baseline "
                f"exactly ({detail})"
            )
    full = baseline.get("searches", {}).get("qft20")
    if full is not None:
        saving = full.get("energy_saving") or 0.0
        if saving < 0.25:
            failures.append(
                f"qft20: baseline energy saving {saving:.1%} is below the "
                f"25% acceptance floor vs the paper default"
            )
    return failures


def check_against(current: dict, baseline_path: str) -> list[str]:
    """Speedup-ratio regressions of ``current`` vs a baseline file.

    Kernel entries (including the fused-block and permutation kernels)
    gate on the strided/reference ratio as before; fusion sweeps gate on
    the full-vs-off ratio the same way.  The committed baseline itself
    must keep the acceptance invariant ``full`` >= 2x ``off`` on the QFT
    sweep -- asserting it on the baseline (rather than the fresh run)
    keeps the gate immune to noisy CI runners while still biting if the
    baseline is ever regenerated from a regressed tree.
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    failures = []
    for name, entry in baseline.get("kernels", {}).items():
        now = current["kernels"].get(name)
        if now is None:
            failures.append(f"{name}: missing from current run")
            continue
        floor = entry["speedup"] / 2.0
        if now["speedup"] < floor:
            failures.append(
                f"{name}: speedup {now['speedup']:.2f}x fell below half the "
                f"baseline ({entry['speedup']:.2f}x)"
            )
    current_fusion = current.get("fusion", {})
    for label, entry in baseline.get("fusion", {}).items():
        # Quick CI runs sweep a smaller width than the committed full
        # run; compare only same-width workloads present in both.
        now = current_fusion.get(label)
        if now is None:
            continue
        for key in ("diag_vs_off_speedup", "full_vs_off_speedup"):
            if now[key] < entry[key] / 2.0:
                failures.append(
                    f"{label}: {key} {now[key]:.2f}x fell below half the "
                    f"baseline ({entry[key]:.2f}x)"
                )
    for label, entry in baseline.get("fusion", {}).items():
        if label.startswith("qft") and entry["full_vs_off_speedup"] < 2.0:
            failures.append(
                f"{label}: baseline full-fusion speedup "
                f"{entry['full_vs_off_speedup']:.2f}x is below the "
                f"acceptance floor of 2x over unfused"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=(
            "kernels",
            "parallel",
            "scaleout",
            "sampling",
            "obs",
            "transpile",
            "tune",
        ),
        default="kernels",
        help="what to measure (default: %(default)s)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller problem sizes and fewer repeats (CI smoke mode)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the JSON report "
        "(default: BENCH_<suite>.json at the repo root)",
    )
    parser.add_argument(
        "--check-against",
        metavar="PATH",
        help="baseline BENCH_kernels.json; exit 1 if any kernel's "
        "strided/reference speedup drops below half its baseline value",
    )
    parser.add_argument(
        "--require-speedup",
        type=float,
        metavar="X",
        help="parallel/scaleout suites: exit 1 if the pool-vs-serial QFT "
        "speedup is below X (skipped on single-core or shm-less hosts)",
    )
    parser.add_argument(
        "--provisional",
        action="store_true",
        help="parallel/scaleout suites: allow writing a baseline on a "
        "single-core host, marking the report provisional (its wall-clock "
        "speedups are not gated until regenerated on parallel hardware)",
    )
    parser.add_argument(
        "--max-noop-overhead",
        type=float,
        metavar="FRACTION",
        help="obs suite: exit 1 if the estimated disabled-path overhead "
        "of the instrumented workload exceeds FRACTION (e.g. 0.02)",
    )
    args = parser.parse_args(argv)
    output = args.output or f"BENCH_{args.suite}.json"

    if args.suite in ("parallel", "scaleout") and not args.check_against:
        import os

        if (os.cpu_count() or 1) < 2 and not args.provisional:
            print(
                f"ERROR refusing to write a {args.suite} baseline on a "
                f"single-core host (speedups are meaningless here); rerun "
                f"on >=2 cores or pass --provisional",
                file=sys.stderr,
            )
            return 2

    if args.suite == "obs":
        report = run_obs(args.quick)
        with open(output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        noop, work = report["noop"], report["workload"]
        print(
            f"noop fast path: disabled span {noop['disabled_span_ns']:.0f} ns"
            f"  counter inc {noop['counter_inc_ns']:.0f} ns"
            f"  registry lookup+inc {noop['registry_lookup_inc_ns']:.0f} ns"
        )
        print(
            f"{work['circuit']} x {work['num_ranks']} ranks: "
            f"disabled {work['disabled_s']:.3f}s  enabled "
            f"{work['enabled_s']:.3f}s  tracing overhead "
            f"{100 * work['enabled_overhead']:.1f}%  "
            f"({work['spans_per_run']} spans/run)"
        )
        print(
            f"estimated disabled-path overhead: "
            f"{100 * work['noop_overhead']:.4f}%"
        )
        print(f"wrote {output}")
        if args.max_noop_overhead is not None:
            if work["noop_overhead"] > args.max_noop_overhead:
                print(
                    f"REGRESSION disabled-path overhead "
                    f"{100 * work['noop_overhead']:.4f}% exceeds "
                    f"{100 * args.max_noop_overhead:.2f}%",
                    file=sys.stderr,
                )
                return 1
            print(
                f"noop overhead gate passed "
                f"(<= {100 * args.max_noop_overhead:.2f}%)"
            )
        return 0

    if args.suite == "transpile":
        report = run_transpile(args.quick)
        with open(output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for label, strategies in report["workloads"].items():
            for strategy, entry in strategies.items():
                extra = (
                    f"  rounds/bytes factor "
                    f"{entry['round_factor']:.1f}x/{entry['bytes_factor']:.1f}x"
                    if strategy != "naive"
                    else ""
                )
                print(
                    f"  {label:<9} {strategy:<8} rounds {entry['rounds']:>3}"
                    f"  bytes/rank {entry['bytes_per_rank']:>9}"
                    f"  analytic {entry['analytic_s']:.4f}s"
                    f"  DES {entry['des_s']:.4f}s"
                    f"  energy {entry['energy_j']:.1f}J" + extra
                )
        print(f"wrote {output}")
        if args.check_against:
            failures = check_transpile_against(report, args.check_against)
            if failures:
                for line in failures:
                    print(f"REGRESSION {line}", file=sys.stderr)
                return 1
            print(f"no regressions vs {args.check_against}")
        return 0

    if args.suite == "tune":
        report = run_tune(args.quick)
        with open(output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for label, entry in report["searches"].items():
            saving = entry["energy_saving"]
            print(
                f"  {label:<12} {entry['evaluated']:>4} points"
                f"  frontier {len(entry['frontier'])}"
                f"  best {entry['best_energy_j']:.2f}J"
                f"  default {entry['default']['energy_j']:.2f}J"
                + (f"  saving {saving:.0%}" if saving is not None else "")
                + (
                    f"  DES flags {entry['flagged']}"
                    if entry["flagged"]
                    else ""
                )
            )
        print(f"wrote {output}")
        if args.check_against:
            failures = check_tune_against(report, args.check_against)
            if failures:
                for line in failures:
                    print(f"REGRESSION {line}", file=sys.stderr)
                return 1
            print(f"no regressions vs {args.check_against}")
        return 0

    if args.suite == "sampling":
        report = run_sampling(args.quick)
        with open(output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        work, exact = report["workload"], report["exact"]
        shm_part = (
            f"pool-shm {work['pool_shm_s']:.3f}s  "
            if work["pool_shm_s"] is not None
            else "pool-shm n/a (no shared memory)  "
        )
        print(
            f"{work['circuit']} x {work['shots']} shots: "
            f"dense {work['dense_s']:.3f}s "
            f"({work['dense_shots_per_s']:.0f} shots/s)  "
            f"serial {work['serial_s']:.3f}s  " + shm_part +
            f"pool-tcp {work['pool_tcp_s']:.3f}s"
        )
        print(
            "bit-identical to dense: "
            + "  ".join(
                f"{k}={'yes' if v else 'n/a' if v is None else 'NO'}"
                for k, v in work["bit_identical"].items()
            )
        )
        marginals = "  ".join(
            f"{label} {ns:.0f} ns/shot"
            for label, ns in exact["marginal_ns_per_shot"].items()
        )
        print(
            f"exact sampler marginal cost: {marginals}  "
            f"(scale ratio {exact['state_scale_ratio']:.2f}x over "
            f"{exact['amps_ratio']}x amps; {exact['draws_per_shot']:.2f} "
            f"mix64 draws of {exact['draw_ns']:.0f} ns per shot)"
        )
        print(f"wrote {output}")
        if any(v is False for v in work["bit_identical"].values()):
            print(
                "REGRESSION executor sample streams diverge from dense",
                file=sys.stderr,
            )
            return 1
        if args.check_against:
            failures = check_sampling_against(report, args.check_against)
            if failures:
                for line in failures:
                    print(f"REGRESSION {line}", file=sys.stderr)
                return 1
            print(f"no regressions vs {args.check_against}")
        return 0

    if args.suite == "scaleout":
        report = run_scaleout(args.quick)
        if args.provisional:
            report["provisional"] = True
        with open(output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        qft = report["qft"]
        shm_part = (
            f"pool-shm {qft['pool_shm_s']:.3f}s "
            f"({qft['pool_shm_speedup']:.2f}x)  "
            if qft["pool_shm_s"] is not None
            else "pool-shm n/a (no shared memory)  "
        )
        ident = qft["bit_identical"]
        print(
            f"QFT {qft['num_qubits']}q x {qft['num_ranks']} ranks: "
            f"serial {qft['serial_s']:.3f}s  " + shm_part +
            f"pool-tcp {qft['pool_tcp_s']:.3f}s "
            f"({qft['pool_tcp_speedup']:.2f}x)"
        )
        print(
            f"bit-identical to serial: "
            + "  ".join(
                f"{k}={'yes' if v else 'n/a' if v is None else 'NO'}"
                for k, v in ident.items()
            )
            + f"  tcp rtt {report['tcp']['probe_rtt_s'] * 1e6:.0f}us"
        )
        print(f"wrote {output}")
        if any(v is False for v in ident.values()):
            print(
                "REGRESSION pool amplitudes diverge from serial",
                file=sys.stderr,
            )
            return 1
        if args.check_against:
            failures = check_scaleout_against(report, args.check_against)
            if failures:
                for line in failures:
                    print(f"REGRESSION {line}", file=sys.stderr)
                return 1
            print(f"no regressions vs {args.check_against}")
        if args.require_speedup is not None:
            if (report["cpu_count"] or 1) < 2:
                print(
                    "speedup gate skipped: single-core host -- the pool "
                    "cannot beat serial wall-clock without parallel hardware"
                )
            elif qft["best_pool_speedup"] < args.require_speedup:
                print(
                    f"REGRESSION best pool speedup "
                    f"{qft['best_pool_speedup']:.2f}x below required "
                    f"{args.require_speedup:.2f}x",
                    file=sys.stderr,
                )
                return 1
            else:
                print(
                    f"pool speedup gate passed "
                    f"(>= {args.require_speedup:.2f}x)"
                )
        return 0

    if args.suite == "parallel":
        report = run_parallel(args.quick)
        if args.provisional:
            report["provisional"] = True
        with open(output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        qft, cache = report["qft"], report["cache"]
        print(
            f"QFT {qft['num_qubits']}q x {qft['num_ranks']} ranks: "
            f"serial {qft['serial_s']:.3f}s  pool "
            + (
                f"{qft['pool_s']:.3f}s  speedup {qft['pool_speedup']:.2f}x"
                if qft["pool_s"] is not None
                else "n/a (no shared memory)"
            )
        )
        print(
            f"prediction cache (des backend, {len(cache['configs'])} configs): "
            f"cold {cache['cold_s']:.3f}s  warm {cache['warm_s']:.3f}s  "
            f"speedup {cache['speedup']:.1f}x"
        )
        print(f"wrote {output}")
        if args.require_speedup is not None:
            if not report["shm_available"]:
                print("speedup gate skipped: no usable shared memory on this host")
            elif (report["cpu_count"] or 1) < 2:
                print(
                    "speedup gate skipped: single-core host -- the pool "
                    "cannot beat serial wall-clock without parallel hardware"
                )
            elif qft["pool_speedup"] < args.require_speedup:
                print(
                    f"REGRESSION pool speedup {qft['pool_speedup']:.2f}x below "
                    f"required {args.require_speedup:.2f}x",
                    file=sys.stderr,
                )
                return 1
            else:
                print(f"pool speedup gate passed (>= {args.require_speedup:.2f}x)")
        return 0

    # Always 2**20 amplitudes: speedup ratios shift systematically with
    # the working-set size (a cache-resident 2**16 state flatters the
    # reference kernels), so a smaller quick run would compare against
    # baseline ratios it can never reproduce.  Quick mode only trims
    # repeats -- the whole suite stays a few seconds.
    n = 20
    repeats = 3 if args.quick else 9
    report = run(n, repeats)

    with open(output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    width = max(len(k) for k in report["kernels"])
    print(f"kernel throughput at 2**{n} amplitudes ({repeats} repeats):")
    for name, entry in sorted(report["kernels"].items()):
        print(
            f"  {name:<{width}}  strided {entry['strided_ns_per_amp']:8.3f} "
            f"ns/amp   reference {entry['reference_ns_per_amp']:8.3f} ns/amp"
            f"   speedup {entry['speedup']:6.2f}x"
        )
    print("fusion sweeps (dense, median wall seconds):")
    for label, entry in report["fusion"].items():
        print(
            f"  {label:<9} off {entry['off']['seconds']:.3f}s"
            f" ({entry['off']['steps']} steps)"
            f"  diag {entry['diag']['seconds']:.3f}s"
            f" ({entry['diag']['steps']})"
            f"  full {entry['full']['seconds']:.3f}s"
            f" ({entry['full']['steps']})"
            f"  full-vs-off {entry['full_vs_off_speedup']:.2f}x"
        )
    print(f"wrote {output}")

    if args.check_against:
        failures = check_against(report, args.check_against)
        if failures:
            for line in failures:
                print(f"REGRESSION {line}", file=sys.stderr)
            return 1
        print(f"no regressions vs {args.check_against}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
