"""The four workloads: their inputs, timed operations and output checks.

Each workload names one numeric circuit run on all four executors
(dense, serial, pool over shared memory, pool over the TCP loopback
mesh) and the model questions a user asks about a run (analytic
``predict``, discrete-event ``predict``, and a ``tune`` search, cold and
warm).  Every end-to-end metric therefore exists on every workload; the
workloads differ in which layer dominates:

* ``qft20-r8`` -- 16 MiB state, 60 steps: kernel- and memory-bound;
* ``random18-r8`` -- 720 gates on 512 KiB per rank: per-step dispatch,
  fence and exchange latency; its tune is transpile-bound;
* ``qaoa16-sample`` -- 2 mid-circuit measures and 1024 shots: the exact
  sampler and the norm-reduction collective;
* ``model-paper`` -- the paper's QFT points priced at scale (up to 44
  qubits on 4096 ranks), DES replays up to 1024 ranks and the 108-point
  QFT-20 tune; its executor legs run QFT-16 on 4 ranks, small enough
  that the model dominates the workload.

Repeat counts are fixed per workload for a reference run length of
:data:`REFERENCE_SECONDS`; ``--seconds`` scales them by a constant
factor, never by a clock, so every commit runs identical work.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import shutil
from dataclasses import dataclass, replace

import numpy as np

from repro import obs
from repro.circuits import Circuit
from repro.machine.frequency import CpuFrequency
from repro.machine.node import STANDARD_NODE
from repro.parallel import get_pool
from repro.parallel.cache import CACHE_DIR_ENV
from repro.parallel.tcp import get_tcp_pool
from repro.perfmodel.predictor import predict
from repro.perfmodel.trace import RunConfiguration
from repro.statevector import DenseStatevector, DistributedStatevector, Partition, sample
from repro.statevector.apply_plan import compile_plan
from repro.tune.levers import LeverSpace
from repro.tune.search import Constraint, tune
from repro.tune.workloads import Workload, build_workload

#: Two TCP workers on loopback: with the two shm workers and the driver
#: that is five processes, but at most two are busy at any moment.
HOSTS = "127.0.0.1:0,127.0.0.1:0"

#: Run length the repeat counts below are sized for on a 2-core host.
REFERENCE_SECONDS = 15

#: Executor legs, in the order the first round runs them.
EXECUTOR_LEGS = ("dense", "serial", "pool_shm", "pool_tcp")

#: Every leg of a round; ``tune`` yields both tune_s and tune_warm_s.
LEGS = EXECUTOR_LEGS + ("predict", "des", "tune")

_EXECUTOR_KWARGS = {
    "dense": {"executor": "dense"},
    "serial": {"executor": "serial"},
    "pool_shm": {"executor": "pool"},
    "pool_tcp": {"executor": "pool", "hosts": HOSTS},
}

#: DES makespan may differ from the analytic runtime by this share.
DES_TOLERANCE = 0.10

#: Dense amplitudes must match serial within this absolute tolerance
#: (the standing kernel contract; the distributed executors agree bitwise).
DENSE_ATOL = 1e-12


@dataclass(frozen=True)
class Spec:
    """One workload: what it runs and how often."""

    name: str
    #: Numeric circuit: ``build_circuit(family, qubits, seed)``.
    family: str
    qubits: int
    ranks: int
    #: ``None``: legs return amplitudes.  Otherwise legs call ``sample``.
    shots: int | None
    #: ``(family, qubits, ranks)`` priced by one analytic pass.
    predict_points: tuple[tuple[str, int, int], ...]
    #: ``(family, qubits, ranks)`` replayed by one DES pass.
    des_points: tuple[tuple[str, int, int], ...]
    #: ``(family, qubits)`` the tune leg searches, over ``tune_space``.
    tune_target: tuple[str, int]
    tune_space: LeverSpace
    #: Repeats per leg kind at the reference run length.
    executor_repeats: int
    predict_repeats: int
    des_repeats: int
    tune_repeats: int

    @property
    def sample_shots(self) -> int:
        """Shots priced by the model and drawn by the sampling probes."""
        return self.shots or 0

    def repeats(self, leg: str, scale: float) -> int:
        """Fixed repeat count of one leg at ``scale`` x the reference."""
        base = {
            "predict": self.predict_repeats,
            "des": self.des_repeats,
            "tune": self.tune_repeats,
        }.get(leg, self.executor_repeats)
        return max(1, round(base * scale))


_PAPER_PREDICT = tuple(
    ("qft", n, r) for n, r in ((30, 64), (32, 128), (34, 256), (38, 1024), (44, 4096))
)
_PAPER_DES = tuple(("qft", n, r) for n, r in ((30, 64), (32, 128), (34, 256), (36, 1024)))
#: A tune space small enough to repeat: one node count, fusion off --
#: 18 points over frequency x comm mode x transpile strategy.
_SMALL_SPACE = {"fusion_modes": ("off",)}

SPECS: dict[str, Spec] = {
    "qft20-r8": Spec(
        name="qft20-r8",
        family="qft",
        qubits=20,
        ranks=8,
        shots=None,
        predict_points=(("qft", 20, 8),),
        des_points=(("qft", 20, 8),),
        tune_target=("qft", 20),
        tune_space=LeverSpace(node_counts=(8,), **_SMALL_SPACE),
        executor_repeats=24,
        predict_repeats=45,
        des_repeats=45,
        tune_repeats=9,
    ),
    "random18-r8": Spec(
        name="random18-r8",
        family="random",
        qubits=18,
        ranks=8,
        shots=None,
        predict_points=(("random", 18, 8),),
        des_points=(("random", 18, 8),),
        tune_target=("random", 18),
        tune_space=LeverSpace(node_counts=(8,), **_SMALL_SPACE),
        executor_repeats=9,
        predict_repeats=45,
        des_repeats=30,
        tune_repeats=4,
    ),
    "qaoa16-sample": Spec(
        name="qaoa16-sample",
        family="qaoa-sampled",
        qubits=16,
        ranks=4,
        shots=1024,
        predict_points=(("qaoa-sampled", 16, 4),),
        des_points=(("qaoa-sampled", 16, 4),),
        tune_target=("qaoa-sampled", 16),
        tune_space=LeverSpace(node_counts=(4,), **_SMALL_SPACE),
        executor_repeats=7,
        predict_repeats=45,
        des_repeats=45,
        tune_repeats=30,
    ),
    "model-paper": Spec(
        name="model-paper",
        family="qft",
        qubits=16,
        ranks=4,
        shots=None,
        predict_points=_PAPER_PREDICT,
        des_points=_PAPER_DES,
        tune_target=("qft", 20),
        tune_space=LeverSpace(node_counts=(8, 16)),
        executor_repeats=80,
        predict_repeats=30,
        des_repeats=7,
        tune_repeats=4,
    ),
}


def quick_spec(spec: Spec) -> Spec:
    """The same workload at tiny sizes, for self-tests (1 repeat)."""
    small = {"qft": 10, "random": 8, "qaoa-sampled": 8}
    return replace(
        spec,
        qubits=small[spec.family],
        ranks=2,
        shots=64 if spec.shots else None,
        predict_points=tuple((f, small[f], 2) for f, _n, _r in spec.predict_points[:1]),
        des_points=tuple((f, small[f], 2) for f, _n, _r in spec.des_points[:1]),
        tune_target=(spec.tune_target[0], small[spec.tune_target[0]]),
        tune_space=LeverSpace(
            node_counts=(2,), frequencies=(CpuFrequency.MEDIUM,), fusion_modes=("off",)
        ),
        executor_repeats=1,
        predict_repeats=1,
        des_repeats=1,
        tune_repeats=1,
    )


class Tracer:
    """Benchmark-side spans: one op id per operation, explicit parents.

    Every span carries ``layer`` (the module it times), ``op`` (the
    operation it belongs to), ``span_id`` and ``parent_id`` (the span
    that caused it; 0 for an operation's root).  With observability
    disabled, ``obs.span`` is a no-op and so is this.
    """

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._stack: list[int] = []
        self.op = 0

    def new_op(self) -> None:
        self.op = next(self._ops)

    @contextlib.contextmanager
    def span(self, name: str, layer: str, **attrs):
        span_id = next(self._ids)
        parent_id = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        try:
            with obs.span(
                name, layer=layer, op=self.op, span_id=span_id, parent_id=parent_id, **attrs
            ):
                yield
        finally:
            self._stack.pop()


@dataclass
class Inputs:
    """Everything built before the first timed operation."""

    spec: Spec
    seed: int
    circuit: Circuit
    partition: Partition
    #: ``(circuit, RunConfiguration)`` pairs of one analytic / DES pass.
    predict_configs: list
    des_configs: list
    tune_workload: Workload
    workdir: str


def _config(qubits: int, ranks: int, shots: int) -> RunConfiguration:
    return RunConfiguration(
        partition=Partition(qubits, ranks),
        node_type=STANDARD_NODE,
        frequency=CpuFrequency.MEDIUM,
        shots=shots,
    )


def build_circuit(family: str, qubits: int, seed: int) -> Circuit:
    """``build_workload(family, qubits, seed=seed)``, but seed-invariant in cost.

    A random circuit's layout (which gates, on which qubits) sets its
    steps and exchanges, and it varies by +-20% in messages from seed to
    seed.  So the ``random`` family keeps the zoo's default layout and
    ``seed`` redraws only its rotation angles: every seed runs the same
    work on different numbers.
    """
    if family != "random":
        return build_workload(family, qubits, seed=seed).circuit
    layout = build_workload(family, qubits).circuit
    rng = np.random.default_rng(seed)
    out = Circuit(qubits, name=layout.name)
    for gate in layout.gates:
        if gate.params:
            angles = tuple(float(rng.uniform(-np.pi, np.pi)) for _ in gate.params)
            gate = replace(gate, params=angles)
        out.append(gate)
    return out


def setup(spec: Spec, seed: int, workdir: str) -> Inputs:
    """Build circuits, compile plans, spawn both pools and probe each once."""
    circuits: dict[tuple[str, int], Circuit] = {}

    def circuit(family: str, qubits: int):
        key = (family, qubits)
        if key not in circuits:
            circuits[key] = build_circuit(family, qubits, seed)
        return circuits[key]

    numeric = circuit(spec.family, spec.qubits)
    partition = Partition(spec.qubits, spec.ranks)
    compile_plan(numeric)
    compile_plan(numeric, local_qubits=partition.local_qubits)
    shots = spec.sample_shots
    inputs = Inputs(
        spec=spec,
        seed=seed,
        circuit=numeric,
        partition=partition,
        predict_configs=[(circuit(f, n), _config(n, r, shots)) for f, n, r in spec.predict_points],
        des_configs=[(circuit(f, n), _config(n, r, shots)) for f, n, r in spec.des_points],
        tune_workload=Workload(
            name="-".join(map(str, spec.tune_target)), circuit=circuit(*spec.tune_target)
        ),
        workdir=workdir,
    )
    get_pool().probe(1)
    get_tcp_pool(HOSTS).probe(1)
    return inputs


# -- operations ----------------------------------------------------------------


def executor_op(inputs: Inputs, leg: str, tracer: Tracer):
    """One circuit-to-result call on one executor (amplitudes or samples)."""
    circuit = inputs.circuit
    spec = inputs.spec
    kwargs = _EXECUTOR_KWARGS[leg]
    if spec.shots is not None:

        def sample_op():
            num_ranks = {} if leg == "dense" else {"num_ranks": spec.ranks}
            with tracer.span("sample", "statevector.sampling", executor=leg):
                return sample(circuit, spec.shots, inputs.seed, **kwargs, **num_ranks)

        return sample_op
    if leg == "dense":

        def dense_op():
            sim = DenseStatevector(circuit.num_qubits)
            with tracer.span("DenseStatevector.apply_circuit", "statevector.dense"):
                sim.apply_circuit(circuit)
            with tracer.span("DenseStatevector.amplitudes", "statevector.dense"):
                return sim.amplitudes

        return dense_op

    def distributed_op():
        with tracer.span("DistributedStatevector", "statevector.distributed", executor=leg):
            state = DistributedStatevector(inputs.partition, **kwargs)
        with tracer.span(
            "DistributedStatevector.apply_circuit", "statevector.distributed", executor=leg
        ):
            state.apply_circuit(circuit)
        with tracer.span("DistributedStatevector.gather", "statevector.distributed"):
            return state.gather()

    return distributed_op


def predict_op(inputs: Inputs, backend: str, tracer: Tracer):
    """One pass of ``predict`` over the workload's model points, cache off."""
    configs = inputs.predict_configs if backend == "analytic" else inputs.des_configs

    def op():
        out = []
        for circuit, config in configs:
            with tracer.span("predict", "perfmodel", backend=backend):
                out.append(predict(circuit, config, backend=backend))
        return tuple(out)

    return op


def tune_ops(inputs: Inputs, tracer: Tracer):
    """(cold, warm, cleanup): one search on an empty cache, then on its fill."""
    spec = inputs.spec
    counter = itertools.count()
    state: dict[str, str] = {}

    def search():
        with tracer.span("tune", "tune"):
            return tune(
                inputs.tune_workload,
                Constraint(deadline_s=1.0),
                spec.tune_space,
                shots=spec.sample_shots,
            )

    def cold():
        path = os.path.join(inputs.workdir, f"cache-{next(counter)}")
        os.makedirs(path)
        state["dir"] = path
        os.environ[CACHE_DIR_ENV] = path
        return search()

    def cleanup():
        os.environ.pop(CACHE_DIR_ENV, None)
        if "dir" in state:
            shutil.rmtree(state.pop("dir"), ignore_errors=True)

    return cold, search, cleanup


# -- correctness -----------------------------------------------------------------


def executor_check(leg: str, result, reference) -> bool:
    """Check one executor result against the serial reference.

    Distributed executors must agree with serial bitwise; dense must be
    allclose.  Sample streams and measure records must be identical on
    every executor.
    """
    if reference is None:
        return False
    if hasattr(result, "samples"):
        return (
            bool(np.array_equal(result.samples, reference.samples))
            and result.measure_outcomes == reference.measure_outcomes
        )
    if leg == "dense":
        return result.shape == reference.shape and bool(
            np.allclose(result, reference, rtol=0.0, atol=DENSE_ATOL)
        )
    return bool(np.array_equal(result, reference))


def prediction_key(predictions) -> tuple:
    """What must repeat exactly: runtime and energy of every point."""
    return tuple((p.runtime_s, p.total_energy_j) for p in predictions)


def des_agrees(predictions) -> bool:
    """Every DES makespan within :data:`DES_TOLERANCE` of the analytic runtime."""
    return all(
        abs(p.runtime_s - p.analytic_runtime_s) <= DES_TOLERANCE * p.analytic_runtime_s
        for p in predictions
    )


def frontier_key(result) -> list:
    """A tune result's frontier as plain data."""
    return [p.to_dict() for p in result.frontier]
