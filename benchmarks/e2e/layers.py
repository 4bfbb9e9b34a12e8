"""The traced run: per-layer metrics measured from outside each module.

:func:`measure_layers` alternates untraced and traced rounds of the
workload's legs (their median ratio is ``obs.overhead``), reads the
counters, histograms and spans the program already emits during the
traced rounds, then times public calls into each layer directly:

* ``statevector.gate_kernels`` -- a dense pass timing
  ``ApplyStep.run_local`` per step, beside the fusion cost model's rate
  (``repro.statevector.fusion.gate_cost``/``block_cost``/``perm_cost``)
  and an in-place streaming bandwidth reference;
* ``statevector.apply_plan``, ``statevector.exact``/``sampling``,
  ``mpi`` exchange counts, ``parallel.pool``/``tcp`` spawn and latency,
  ``perfmodel``, ``des``, ``parallel.cache``, ``transpile``, ``tune``
  and ``obs`` itself.

It also writes a Chrome trace and a per-layer self-time table.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from repro import obs
from repro.des.replay import simulate_trace
from repro.errors import ValidationError
from repro.gates import Gate
from repro.parallel import get_pool, shutdown_pool
from repro.parallel.cache import CACHE_DIR_ENV, PredictionCache
from repro.parallel.tcp import get_tcp_pool, shutdown_tcp_pools
from repro.perfmodel.energy import energy_report
from repro.perfmodel.trace import cost_trace, trace_circuit
from repro.statevector import DistributedStatevector, Partition, StepKind, exact, sample
from repro.statevector.apply_plan import compile_gate_step, compile_plan
from repro.statevector.fusion import block_cost, gate_cost, perm_cost
from repro.transpile import transpile
from repro.tune.workloads import build_workload

from benchmarks.e2e.workloads import HOSTS, LEGS, Tracer

#: Untraced/traced round pairs behind ``obs.overhead``.
TRACE_ROUNDS = 3

#: Repeats of each directly timed call (medians are reported).
TIMED_REPEATS = 5

#: Kernel classes reported on every workload.  A class the workload's
#: plan lacks is timed on one representative step at the same width.
KERNEL_KINDS = (
    StepKind.DIAGONAL,
    StepKind.SINGLE,
    StepKind.GENERIC,
    StepKind.SWAP,
    StepKind.FUSED,
    StepKind.REMAP,
)

#: Computed traffic of one in-place kernel step: read + write 16 B/amp.
BYTES_PER_AMP_STEP = 32

#: Layer of each span the program itself opens (benchmark spans carry
#: a ``layer`` attribute).
PROGRAM_SPAN_LAYERS = {
    "apply_circuit": "statevector.distributed",
    "worker.plan": "parallel.stepper",
    "worker.step": "parallel.stepper",
    "predict": "perfmodel",
    "trace": "perfmodel",
    "des.replay": "des",
    "tune.search": "tune",
    "tune.spotcheck": "tune",
    "cache.put": "parallel.cache",
    "transpile": "transpile",
    "transpile.pass": "transpile",
}


def _median_time(fn, repeats: int = TIMED_REPEATS) -> tuple[float, object]:
    """(median seconds, last result) of ``repeats`` calls."""
    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


# -- reading the program's own metrics ---------------------------------------------


def snapshot() -> dict:
    """Current value of every metric (a histogram's sum)."""
    return {
        (m.name, m.labels): m.sum if m.kind == "histogram" else m.value
        for m in obs.metrics()
    }


def _total(snap: dict, name: str, **labels) -> float:
    return sum(
        value
        for (metric, metric_labels), value in snap.items()
        if metric == name and all(item in metric_labels for item in labels.items())
    )


def delta(before: dict, after: dict, name: str, **labels) -> float:
    """Growth of a counter (or a histogram's sum) between two snapshots."""
    return _total(after, name, **labels) - _total(before, name, **labels)


class Recorder:
    """Keeps, per traced operation, metric deltas and the spans it emitted."""

    def __init__(self) -> None:
        self.ops: list[dict] = []

    def before(self):
        return snapshot(), len(obs.spans())

    def after(self, metric: str, token, result) -> None:
        snap, first = token
        self.ops.append(
            {
                "metric": metric,
                "before": snap,
                "after": snapshot(),
                "spans": obs.spans()[first:],
                "result": result,
            }
        )

    def of(self, metric: str) -> list[dict]:
        return [op for op in self.ops if op["metric"] == metric]


# -- self time -----------------------------------------------------------------------


def self_times(spans) -> list[tuple[object, float]]:
    """(span, self seconds): duration minus the children it contains.

    Children are found by containment within one (pid, tid) track,
    which is how spans nest (the tracer keeps a per-thread depth).
    """
    out = []
    by_track = defaultdict(list)
    for s in spans:
        by_track[(s.pid, s.tid)].append(s)
    for track in by_track.values():
        track.sort(key=lambda s: (s.ts_ns, s.depth))
        child_ns = defaultdict(int)
        stack: list = []
        for s in track:
            while stack and stack[-1].ts_ns + stack[-1].dur_ns <= s.ts_ns:
                stack.pop()
            if stack:
                child_ns[id(stack[-1])] += s.dur_ns
            stack.append(s)
        out.extend((s, (s.dur_ns - child_ns[id(s)]) / 1e9) for s in track)
    return out


def layer_of(span) -> str:
    return span.attrs.get("layer") or PROGRAM_SPAN_LAYERS.get(span.name, "other")


def layer_table(recorder: Recorder) -> list[dict]:
    """Per (operation, layer): mean self time per op and share of op time.

    Worker spans run beside the parent's wait, so their rows are summed
    over workers and marked ``where: workers``.
    """
    driver = os.getpid()
    rows = []
    for metric in sorted({op["metric"] for op in recorder.ops}):
        ops = recorder.of(metric)
        op_s = sum(
            s.dur_ns / 1e9 for op in ops for s in op["spans"] if s.name == f"op:{metric}"
        )
        acc: dict[tuple[str, str], float] = defaultdict(float)
        for op in ops:
            for s, self_s in self_times(op["spans"]):
                where = "driver" if s.pid == driver else "workers"
                acc[(layer_of(s), where)] += self_s
        for (layer, where), total in sorted(acc.items()):
            rows.append(
                {
                    "op": metric,
                    "layer": layer,
                    "where": where,
                    "self_s": total / len(ops),
                    "share": total / op_s if op_s else 0.0,
                }
            )
    return rows


# -- statevector.gate_kernels --------------------------------------------------------


def representative_steps(n: int) -> dict:
    """One step of each kernel class at width ``n`` (n >= 4)."""
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    gates = {
        StepKind.DIAGONAL: Gate.named("p", (n - 1,), params=(0.25,)),
        StepKind.SINGLE: Gate.named("h", (n // 2,)),
        StepKind.GENERIC: Gate.unitary(np.kron(hadamard, hadamard), (0, n // 2)),
        StepKind.SWAP: Gate.named("swap", (0, n - 1)),
        StepKind.FUSED: Gate.fused_block(
            [Gate.named("h", (q,)) for q in range(4)]
            + [Gate.named("x", (1,), controls=(0,))]
        ),
        StepKind.REMAP: Gate.remap([(0, n - 1), (1, n - 2)]),
    }
    return {kind: compile_gate_step(gate) for kind, gate in gates.items()}


def model_ns_per_amp(step) -> float:
    """The fusion cost model's rate for one step."""
    if step.kind is StepKind.FUSED:
        return block_cost(len(step.targets), step.targets)
    if step.kind is StepKind.REMAP:
        return perm_cost()
    return gate_cost(step.gate)


def _measure(step, amps: np.ndarray, seed: int, ordinal: int) -> None:
    """Collapse one qubit exactly as the dense executor does."""
    qubit = step.targets[0]
    n = amps.size.bit_length() - 1
    n0, total = exact.partial_norms(amps, qubit, 0, n)
    outcome = exact.measure_outcome(seed, ordinal, n0, total)
    scale = exact.collapse_scale(n0 if outcome == 0 else total - n0, total)
    exact.collapse_slice(amps, qubit, outcome, scale, 0, n)


def kernel_pass(circuit, seed: int, tracer: Tracer):
    """Time ``run_local`` per step of the dense plan; (plan, times, amps)."""
    plan = compile_plan(circuit)
    dim = 1 << circuit.num_qubits
    times: list[list[float]] = [[] for _ in plan.steps]
    amps = None
    with tracer.span("ApplyStep.run_local", "statevector.gate_kernels", steps=len(plan.steps)):
        for _ in range(TIMED_REPEATS):
            amps = np.zeros(dim, dtype=np.complex128)
            amps[0] = 1.0
            ordinal = 0
            for i, step in enumerate(plan.steps):
                t0 = time.perf_counter()
                if step.kind is StepKind.MEASURE:
                    _measure(step, amps, seed, ordinal)
                    ordinal += 1
                else:
                    step.run_local(amps)
                times[i].append(time.perf_counter() - t0)
    return plan, [statistics.median(t) for t in times], amps


def kernel_metrics(circuit, seed: int, dense_s: float, tracer: Tracer):
    """``kernels.*`` per class, with model ratios; returns (metrics, final amps)."""
    plan, step_s, amps = kernel_pass(circuit, seed, tracer)
    dim = amps.size
    by_kind: dict[StepKind, list[tuple[float, float]]] = defaultdict(list)
    for step, seconds in zip(plan.steps, step_s):
        if step.kind is not StepKind.MEASURE:
            by_kind[step.kind].append((seconds, model_ns_per_amp(step)))
    kernel_s = sum(s for pairs in by_kind.values() for s, _m in pairs)
    kernel_steps = sum(len(pairs) for pairs in by_kind.values())
    representatives = representative_steps(circuit.num_qubits)
    out = {}
    for kind in KERNEL_KINDS:
        pairs = by_kind.get(kind)
        if not pairs:
            step = representatives[kind]
            work = amps.copy()
            seconds, _ = _median_time(lambda: step.run_local(work))
            pairs = [(seconds, model_ns_per_amp(step))]
        measured = [s / dim * 1e9 for s, _m in pairs]
        out[f"kernels.{kind.value}_ns_per_amp"] = sum(measured) / len(measured)
        out[f"kernels.{kind.value}_model_ratio"] = sum(measured) / sum(m for _s, m in pairs)
    out["kernels.busy_share"] = kernel_s / dense_s
    out["kernels.gb_per_s"] = BYTES_PER_AMP_STEP * dim * kernel_steps / kernel_s / 1e9
    return out, amps


def _llc_bytes() -> int:
    """Size of the highest-level cache sysfs reports for CPU 0 (0 if none)."""
    best = (0, 0)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction":
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        value = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        best = max(best, (level, value))
    return best[1]


def _mem_available_bytes() -> int:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    return 0


def stream_bandwidth(quick: bool) -> dict:
    """In-place scale over an array of >= 4x the LLC: 2 x bytes per pass.

    The array is capped at a quarter of available memory so a host with
    a huge reported LLC is not pushed into swap; both sizes are recorded.
    """
    llc = _llc_bytes()
    size = 8 << 20 if quick else min(max(4 * llc, 64 << 20), _mem_available_bytes() // 4)
    a = np.ones(size // 8)
    seconds, _ = _median_time(lambda: np.multiply(a, 1.0, out=a))
    return {"stream_gb_per_s": 2 * a.nbytes / seconds / 1e9, "stream_bytes": size, "llc_bytes": llc}


# -- the traced run -------------------------------------------------------------------


def _traced(tracer: Tracer, name: str, layer: str, fn):
    """Run ``fn`` as its own traced operation (obs on, root span)."""
    tracer.new_op()
    obs.enable()
    try:
        with tracer.span(f"layer:{name}", layer):
            return fn()
    finally:
        obs.disable()


def measure_layers(loop, *, quick: bool, trace_out: str) -> dict:
    """Run the traced rounds and the per-layer timings; returns the child record."""
    inputs = loop.inputs
    spec = inputs.spec
    tracer = loop.tracer
    circuit = inputs.circuit
    start = snapshot()
    rounds = 1 if quick else TRACE_ROUNDS
    once = {leg: rounds for leg in LEGS}
    untraced: dict[str, list[list[float]]] = defaultdict(list)
    recorder = Recorder()
    plain_totals, traced_totals = [], []
    for index in range(rounds):
        plain_totals.append(loop.run_round(index, once, untraced))
        loop.observer = recorder
        obs.enable()
        try:
            traced_totals.append(loop.run_round(index, once, None))
        finally:
            obs.disable()
            loop.observer = None

    metrics: dict[str, float] = {}
    dense_s = statistics.median(t for t, _probe in untraced["dense_s"])
    kernels, final_amps = _traced(
        tracer, "kernels", "statevector.gate_kernels",
        lambda: kernel_metrics(circuit, inputs.seed, dense_s, tracer),
    )
    metrics.update(kernels)
    stream = _traced(tracer, "stream", "memory", lambda: stream_bandwidth(quick))
    metrics["memory.stream_gb_per_s"] = stream["stream_gb_per_s"]
    metrics["kernels.roofline_share"] = metrics["kernels.gb_per_s"] / stream["stream_gb_per_s"]

    plan_s, plan = _traced(
        tracer, "compile", "statevector.apply_plan",
        lambda: _median_time(lambda: compile_plan(circuit, cache=False)),
    )
    metrics["compile.plan_s"] = plan_s
    metrics["compile.steps"] = len(plan.steps)
    metrics["compile.gates_per_step"] = plan.num_gates / len(plan.steps)

    n = circuit.num_qubits
    metrics["exact.norm_reduction_s"] = _traced(
        tracer, "norm_reduction", "statevector.exact",
        lambda: _median_time(lambda: exact.partial_norms(final_amps, 0, 0, n))[0],
    )
    lo, hi = (8, 32) if quick else (128, 1024)

    def shot_cost(shots):
        return _median_time(lambda: exact.sample_exact([final_amps], shots, inputs.seed), 3)[0]

    metrics["exact.ns_per_shot"] = _traced(
        tracer, "sample_exact", "statevector.exact",
        lambda: (shot_cost(hi) - shot_cost(lo)) / (hi - lo) * 1e9,
    )
    shots = spec.shots or (64 if quick else 2048)
    prep_s = _traced(
        tracer, "sample_prep", "statevector.sampling",
        lambda: _median_time(lambda: sample(circuit, 0, inputs.seed), 3)[0],
    )
    full_s = _traced(
        tracer, "sample_full", "statevector.sampling",
        lambda: _median_time(lambda: sample(circuit, shots, inputs.seed), 3)[0],
    )
    metrics["sampling.prep_share"] = prep_s / full_s

    def exchange_stats():
        state = DistributedStatevector(inputs.partition, executor="serial", measure_seed=inputs.seed)
        state.apply_circuit(circuit)
        return state.comm.stats

    stats = _traced(tracer, "exchange", "mpi", exchange_stats)
    metrics["exchange.messages"] = stats.messages_sent
    metrics["exchange.bytes"] = stats.bytes_sent

    metrics.update(_traced(tracer, "perfmodel", "perfmodel", lambda: _perfmodel(inputs)))
    metrics.update(_traced(tracer, "des", "des", lambda: _des(inputs)))
    metrics.update(_traced(tracer, "cache", "parallel.cache", lambda: _cache(loop)))
    metrics.update(_traced(tracer, "transpile", "transpile", lambda: _transpile(quick)))
    metrics.update(_from_traced_ops(recorder, untraced))
    metrics.update(_pools())

    end = snapshot()
    metrics["pool.restarts"] = delta(start, end, "repro_pool_restarts_total")
    metrics["pool.worker_crashes"] = delta(start, end, "repro_pool_worker_crashes_total")
    metrics["obs.overhead"] = statistics.median(traced_totals) / statistics.median(plain_totals) - 1
    metrics["obs.noop_span_ns"] = _noop_span_ns()

    os.makedirs(os.path.dirname(os.path.abspath(trace_out)), exist_ok=True)
    obs.write_chrome_trace(trace_out)
    loop.attempted += 1
    if not _valid_trace(trace_out):
        loop.failed += 1
    return {
        "layers": metrics,
        "layer_table": layer_table(recorder),
        "memory": {"stream_bytes": stream["stream_bytes"], "llc_bytes": stream["llc_bytes"]},
        "trace_path": trace_out,
    }


def _valid_trace(path: str) -> bool:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        obs.validate_chrome_trace(doc)
    except ValidationError:
        return False
    return any(e["ph"] == "X" for e in doc["traceEvents"])


def _perfmodel(inputs) -> dict:
    """Timed ``trace_circuit``, ``cost_trace``, ``energy_report`` per pass."""
    parts = defaultdict(list)
    for _ in range(TIMED_REPEATS):
        spent = defaultdict(float)
        for circuit, config in inputs.predict_configs:
            t0 = time.perf_counter()
            trace = trace_circuit(circuit, config)
            t1 = time.perf_counter()
            costed = cost_trace(trace)
            t2 = time.perf_counter()
            energy_report(costed)
            t3 = time.perf_counter()
            spent["trace"] += t1 - t0
            spent["cost"] += t2 - t1
            spent["energy"] += t3 - t2
        for key, value in spent.items():
            parts[key].append(value)
    return {f"perfmodel.{k}_s": statistics.median(v) for k, v in parts.items()}


def _des(inputs) -> dict:
    """Timed ``simulate_trace`` per pass over the DES points; event counts."""
    traces = [trace_circuit(c, config) for c, config in inputs.des_configs]

    def replay():
        return sum(simulate_trace(t).events_processed for t in traces)

    seconds, events = _median_time(replay, 3)
    return {"des.replay_s": seconds, "des.events": events, "des.events_per_s": events / seconds}


def _cache(loop) -> dict:
    """Median ``PredictionCache.get``/``put`` per call on a tune's entries."""
    root = Path(loop.inputs.workdir) / "cache-probe"
    os.environ[CACHE_DIR_ENV] = str(root / "filled")
    try:
        loop.tune_warm()  # fills the fresh cache, like a cold pass
    finally:
        os.environ.pop(CACHE_DIR_ENV, None)
    source = PredictionCache(root / "filled")
    target = PredictionCache(root / "copy")
    keys = sorted(p.stem for p in (root / "filled").glob("*/*.pkl"))
    get_s, put_s = [], []
    for key in keys:
        t0 = time.perf_counter()
        value = source.get(key)
        t1 = time.perf_counter()
        target.put(key, value)
        put_s.append(time.perf_counter() - t1)
        get_s.append(t1 - t0)
    shutil.rmtree(root, ignore_errors=True)
    return {"cache.get_s": statistics.median(get_s), "cache.put_s": statistics.median(put_s)}


def _transpile(quick: bool) -> dict:
    """The grouped strategy on QFT-20 at 16 ranks."""
    qubits, ranks = (10, 4) if quick else (20, 16)
    circuit = build_workload("qft", qubits).circuit
    seconds, result = _median_time(
        lambda: transpile(circuit, Partition(qubits, ranks), strategy="grouped"), 3
    )
    return {
        "transpile.grouped_s": seconds,
        "transpile.rounds": result.stats["exchange_rounds_after"],
    }


def _from_traced_ops(recorder: Recorder, untraced: dict) -> dict:
    """Pool, TCP, cache and tune numbers read off the traced operations."""
    out = {}
    shm_pids = set(get_pool().worker_pids())
    shm_ops = recorder.of("pool_shm_s")
    steps = [
        s for op in shm_ops for s in op["spans"] if s.name == "worker.step" and s.pid in shm_pids
    ]
    step_s = sum(s.dur_ns for s in steps) / 1e9
    wait_s = sum(
        delta(op["before"], op["after"], "repro_pool_barrier_wait_seconds") for op in shm_ops
    )
    out["pool.steps"] = len(steps) / len(shm_ops)
    out["pool.step_s"] = statistics.median(s.dur_ns / 1e9 for s in steps)
    out["pool.fence_wait_s"] = wait_s / len(shm_ops)
    out["pool.fence_wait_share"] = wait_s / step_s

    tcp_ops = recorder.of("pool_tcp_s")
    exchange_s = sum(
        delta(op["before"], op["after"], "repro_transport_exchange_seconds") for op in tcp_ops
    )
    wire = sum(
        delta(op["before"], op["after"], "repro_transport_bytes_total", transport="tcp")
        for op in tcp_ops
    )
    out["tcp.exchange_s"] = exchange_s / len(tcp_ops)
    out["tcp.exchange_gb_per_s"] = wire / exchange_s / 1e9 if exchange_s else 0.0

    warm = recorder.of("tune_warm_s")
    hits = sum(delta(op["before"], op["after"], "repro_cache_hits_total") for op in warm)
    misses = sum(delta(op["before"], op["after"], "repro_cache_misses_total") for op in warm)
    out["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    cold = recorder.of("tune_s")[0]["result"]
    out["tune.points"] = cold.evaluated
    out["tune.spot_checks"] = cold.spot_checked
    out["tune.points_per_s"] = cold.evaluated / statistics.median(t for t, _p in untraced["tune_s"])
    return out


def _pools() -> dict:
    """Spawn-to-first-probe and round-trip latency of both pools (obs off)."""
    shutdown_pool()
    t0 = time.perf_counter()
    get_pool().probe(1)
    spawn_s = time.perf_counter() - t0
    rtt_s, _ = _median_time(lambda: get_pool().probe(1), 20)
    shutdown_tcp_pools()
    t0 = time.perf_counter()
    tcp = get_tcp_pool(HOSTS)
    tcp.probe(1)
    tcp_spawn_s = time.perf_counter() - t0
    return {
        "pool.spawn_s": spawn_s,
        "pool.barrier_rtt_us": rtt_s * 1e6,
        "tcp.spawn_s": tcp_spawn_s,
        "tcp.rtt_us": statistics.median(tcp.probe(rounds=20)) * 1e6,
    }


def _noop_span_ns(calls: int = 200_000) -> float:
    """Cost of one disabled ``obs.span`` enter/exit."""
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        with obs.span("noop"):
            pass
    return (time.perf_counter_ns() - t0) / calls
