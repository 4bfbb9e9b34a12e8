"""The distributed statevector simulator (QuEST's execution model).

Every rank of the :class:`~repro.statevector.partition.Partition` holds
its slice of the statevector; gates are applied in SPMD lockstep, with
distributed gates driving pairwise buffer exchanges.  The simulator is
exact and deterministic while the communication *schedule* (message
counts, sizes, pairings, blocking vs non-blocking) recorded in
:class:`~repro.mpi.comm.SimComm` matches what QuEST would issue on a
real machine.

Every executor runs a compiled plan through the one step interpreter,
:func:`repro.parallel.stepper.execute_plan`, and differs only in how
that task executes:

* ``executor="serial"`` (default) runs it in this process: one worker
  owns every rank of a lazy :class:`~repro.statevector.slices.RankSlices`
  store, so untouched ranks stay implicit zero slices;
* ``executor="pool"`` places the rank slices (and the pair/exchange
  buffers) in named shared-memory segments and replays the plan across
  a persistent worker pool (:mod:`repro.parallel`), or across a TCP
  worker mesh when a host list is set.

Whatever the executor, the parent validates every step before any runs,
fires observer callbacks in gate order, and replays the exchange
schedule into the communicator (:meth:`DistributedStatevector._run_plan`).

Measurement has one path.  Collapse decisions (mid-circuit MEASURE
steps) and shots (:meth:`DistributedStatevector.sample_bitstrings`)
come from the exact integer norms of :mod:`repro.statevector.exact`,
so they do not depend on the partition.  Float queries are array
functions applied to :meth:`DistributedStatevector.gather`: marginals
and ``<Z>`` in :mod:`repro.statevector.measurement`, and
:func:`repro.statevector.fidelity`.

Scale: functional simulation is for correctness work (tests cap out in
the mid twenties of qubits).  Paper-scale runs use the same
:mod:`~repro.statevector.plan` through the model executor instead.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace

import numpy as np

from repro import obs
from repro.circuits.circuit import Circuit
from repro.errors import SimulationError, ValidationError
from repro.gates import Gate, GateLocality
from repro.mpi import CommMode, MAX_MESSAGE_BYTES, SimComm, log_exchange_schedule
from repro.statevector import exact
from repro.statevector.apply_plan import (
    ApplyPlan,
    ApplyStep,
    StepKind,
    compile_gate_step,
    compile_plan,
)
from repro.statevector.fusion import FusionConfig, resolve_fusion
from repro.statevector.dense import DenseStatevector
from repro.statevector.partition import AMPLITUDE_BYTES, Partition
from repro.statevector.plan import GatePlan, plan_gate
from repro.statevector.slices import RankSlices

__all__ = ["DistributedStatevector"]

#: Callback invoked after each gate with its plan.
Observer = Callable[[int, Gate, GatePlan], None]

#: Tag of the measure reduction's first round (one tag per round).
_REDUCE_TAG_BASE = 1 << 20

#: Bytes each rank sends per reduction round: two float64 partials.
_REDUCE_BYTES = 16


class DistributedStatevector:
    """An ``n``-qubit state distributed over ``2**d`` in-process ranks."""

    def __init__(
        self,
        partition: Partition,
        *,
        comm_mode: CommMode = CommMode.BLOCKING,
        halved_swaps: bool = False,
        max_message: int = MAX_MESSAGE_BYTES,
        observer: Observer | None = None,
        executor: str | None = None,
        fusion: str | FusionConfig | None = None,
        hosts: str | tuple[str, ...] | None = None,
        measure_seed: int = 0,
    ):
        from repro.parallel import resolve_executor, resolve_hosts

        self.partition = partition
        self.comm_mode = comm_mode
        self.halved_swaps = halved_swaps
        self.max_message = max_message
        self.observer = observer
        self.executor = resolve_executor(executor, hosts=hosts)
        self.hosts = resolve_hosts(hosts) if self.executor == "pool" else None
        #: Which rank transport a pool run would use ("shm" or "tcp").
        self.transport = "tcp" if self.hosts else "shm"
        self.fusion = resolve_fusion(fusion)
        self.comm = SimComm(partition.num_ranks)
        self._shared_local = None
        self._shared_pair = None
        self._shared_blobs = None
        if self.executor == "pool" and self.transport == "shm":
            from repro.parallel.shm import SharedArray

            # One segment holds every rank's slice; the OS hands over
            # zero pages, so a fresh segment *is* |0...0> minus one amp.
            self._shared_local = SharedArray(
                (partition.num_ranks, partition.local_amplitudes), np.complex128
            )
            self._local = RankSlices.from_backing(self._shared_local.array)
        else:
            # Lazy: slices materialise on first write.  |0...0> touches
            # only rank 0; every other rank stays an implicit zero slice
            # until a distributed gate mixes data into it.
            self._local = RankSlices(
                partition.num_ranks, partition.local_amplitudes
            )
        self._local[0][0] = 1.0  # |0...0>
        self._gate_index = 0
        self.measure_seed = int(measure_seed)
        self._measure_count = 0
        #: ``(qubit, outcome)`` of every mid-circuit measurement applied.
        self.measure_outcomes: list[tuple[int, int]] = []

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero_state(
        cls, num_qubits: int, num_ranks: int, **kwargs
    ) -> "DistributedStatevector":
        """|0...0> over the given partition."""
        return cls(Partition(num_qubits, num_ranks), **kwargs)

    @classmethod
    def from_amplitudes(
        cls, amplitudes: np.ndarray, num_ranks: int, **kwargs
    ) -> "DistributedStatevector":
        """Scatter a full statevector across ranks."""
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        from repro.utils.bits import log2_exact

        n = log2_exact(amplitudes.shape[0])
        state = cls(Partition(n, num_ranks), **kwargs)
        per = state.partition.local_amplitudes
        for rank in range(num_ranks):
            state._local[rank][:] = amplitudes[rank * per : (rank + 1) * per]
        return state

    @classmethod
    def from_dense(
        cls, dense: DenseStatevector, num_ranks: int, **kwargs
    ) -> "DistributedStatevector":
        """Scatter a dense simulator's state."""
        return cls.from_amplitudes(dense.amplitudes, num_ranks, **kwargs)

    # -- state access ---------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Register width."""
        return self.partition.num_qubits

    @property
    def num_ranks(self) -> int:
        """Rank count."""
        return self.partition.num_ranks

    def local_array(self, rank: int) -> np.ndarray:
        """A copy of one rank's slice."""
        return self._local.read(rank).copy()

    def gather(self) -> np.ndarray:
        """The full statevector, concatenated in rank order."""
        return np.concatenate([self._local.read(r) for r in range(self.num_ranks)])

    def to_dense(self) -> DenseStatevector:
        """Gather into a dense reference simulator."""
        return DenseStatevector.from_amplitudes(self.gather())

    def norm(self) -> float:
        """Global 2-norm: the per-rank partial sums added in rank order.

        A plain reduction over the parent's slices.  Implicit zero
        slices are skipped (they add exactly nothing), and nothing is
        recorded on the communicator: the modelled Allreduce belongs to
        measurement steps, whose decisions use the exact integer norms.
        """
        total = 0.0
        for rank in range(self.num_ranks):
            if self._local.is_materialized(rank):
                total += float(np.sum(np.abs(self._local.read(rank)) ** 2))
        return float(np.sqrt(total))

    def probability_of(self, global_index: int) -> float:
        """Probability of one basis state (owned by exactly one rank)."""
        rank = self.partition.rank_of(global_index)
        local = self.partition.local_index_of(global_index)
        return float(np.abs(self._local.read(rank)[local]) ** 2)

    def sample_bitstrings(self, shots: int, seed: int = 0) -> np.ndarray:
        """Seed-deterministic basis-state samples from the current state.

        Draws through the exact cumulative search shared by every
        executor and the dense reference, so the shot stream depends
        only on ``(state, seed)`` -- never on the partition.
        """
        slices = [self._local.read(r) for r in range(self.num_ranks)]
        return exact.sample_exact(slices, shots, seed)

    # -- evolution ----------------------------------------------------------------

    def apply_circuit(self, circuit: Circuit) -> "DistributedStatevector":
        """Apply every gate of ``circuit`` in order (via a compiled plan).

        The plan is compiled under this state's fusion config (ctor
        ``fusion=``, else ``$REPRO_FUSION``); block/permutation fusion
        is bounded to the partition's local qubits so every
        communicating gate still reaches the exchange layer
        individually.  An attached observer forces fusion fully off
        (observers see one callback per original gate).
        """
        if circuit.num_qubits != self.num_qubits:
            raise SimulationError(
                f"circuit width {circuit.num_qubits} != state width "
                f"{self.num_qubits}"
            )
        fusion = FusionConfig(mode="off") if self.observer is not None else self.fusion
        plan = compile_plan(
            circuit, fusion=fusion, local_qubits=self.partition.local_qubits
        )
        with obs.span(
            "apply_circuit",
            qubits=self.num_qubits,
            ranks=self.num_ranks,
            steps=len(plan.steps),
            executor=self.executor,
        ):
            self._run_plan(plan)
        return self

    def apply_gate(self, gate: Gate) -> "DistributedStatevector":
        """Apply one gate across all ranks (SPMD lockstep)."""
        step = compile_gate_step(gate)
        self._run_plan(
            ApplyPlan(num_qubits=self.num_qubits, steps=(step,), num_gates=1)
        )
        return self

    # -- the one runner -----------------------------------------------------------

    def _run_plan(self, plan: ApplyPlan) -> None:
        """Run a compiled plan through the step interpreter.

        The parent validates every step and derives its
        :class:`~repro.statevector.plan.GatePlan` *before* any step runs
        (so errors raise with the state untouched), then the task
        executes in this process, across the shared-memory pool or
        across the TCP mesh.  Meanwhile the parent turns per-step
        completion events into in-order observer callbacks and accounts
        the exact exchange schedule of every step.
        """
        from repro.parallel.stepper import PlanTask

        prepared, needs_pair = self._prepare_plan(plan)
        task = PlanTask(
            local_name=None,
            pair_name=None,
            num_qubits=self.num_qubits,
            num_ranks=self.num_ranks,
            halved_swaps=self.halved_swaps,
            plan=plan,
            emit_events=self.observer is not None,
            needs_pair=needs_pair,
            measure_seed=self.measure_seed,
            measure_base=self._measure_count,
        )
        if self.executor == "serial":
            pool, execute = None, self._execute_in_process
        elif self.transport == "tcp":
            from repro.parallel.tcp import get_tcp_pool

            pool, execute = get_tcp_pool(self.hosts), self._execute_tcp
        else:
            from repro.parallel import get_pool

            pool, execute = get_pool(), self._execute_shm
        complete_through, on_event = self._step_replayer(
            plan, prepared, pool.num_workers if pool is not None else 1
        )
        on_event, captured = self._measure_event_capture(plan, on_event)
        execute(pool, task, on_event)
        complete_through(len(prepared))
        self._record_pool_measures(captured)
        if prepared:
            self._gate_index = prepared[-1][2] + prepared[-1][0].num_gates

    def _prepare_plan(
        self, plan: ApplyPlan
    ) -> tuple[list[tuple[ApplyStep, GatePlan, int]], bool]:
        """Validate every step and derive its GatePlan before dispatch.

        Errors raise here, before any worker touches the state.  Returns
        the prepared ``(step, gate_plan, gate_index)`` triples and
        whether any step needs the pair exchange buffer.
        """
        prepared: list[tuple[ApplyStep, GatePlan, int]] = []
        gate_index = self._gate_index
        needs_pair = False
        for step in plan.steps:
            gate = step.gate
            if gate.max_qubit >= self.num_qubits:
                raise SimulationError(
                    f"gate {gate} touches qubit {gate.max_qubit} of a "
                    f"{self.num_qubits}-qubit state"
                )
            gate_plan = plan_gate(
                gate,
                self.partition,
                halved_swaps=self.halved_swaps,
                max_message=self.max_message,
            )
            if step.kind is not StepKind.MEASURE and gate_plan.locality not in (
                GateLocality.FULLY_LOCAL,
                GateLocality.LOCAL_MEMORY,
            ):
                # Measure steps reduce scalars through the blob channel,
                # never amplitudes through the pair buffer.
                needs_pair = True
                if step.kind is StepKind.SWAP and gate.controls:
                    raise SimulationError(
                        "controlled distributed SWAP is not supported (QuEST "
                        "decomposes it); remove controls or keep targets local"
                    )
            prepared.append((step, gate_plan, gate_index))
            gate_index += step.num_gates
        if needs_pair and self.max_message < AMPLITUDE_BYTES:
            raise ValidationError(
                f"max_message {self.max_message} is smaller than one "
                f"amplitude ({AMPLITUDE_BYTES} B); the exchange cannot "
                "make progress"
            )
        return prepared, needs_pair

    def _step_replayer(
        self,
        plan: ApplyPlan,
        prepared: list[tuple[ApplyStep, GatePlan, int]],
        num_workers: int,
    ):
        """(complete_through, on_event) for in-order observer replay.

        Workers report step completions in arbitrary interleavings;
        callbacks fire in gate order once *every* worker has finished
        the step.  ``>=`` (not ``==``) tolerates re-emitted events after
        a checkpoint restart replays part of the plan.
        """
        fired = [0]

        def complete_through(limit: int) -> None:
            while fired[0] < limit:
                step, gate_plan, start_index = prepared[fired[0]]
                self._log_step_schedule(step, gate_plan, start_index)
                if self.observer is not None:
                    self.observer(start_index, step.gate, gate_plan)
                fired[0] += 1

        on_event = None
        if self.observer is not None:
            counts = [0] * len(plan.steps)

            def on_event(event: tuple) -> None:
                if event[0] != "step":
                    return
                counts[event[1]] += 1
                limit = fired[0]
                while limit < len(counts) and counts[limit] >= num_workers:
                    limit += 1
                complete_through(limit)

        return complete_through, on_event

    def _measure_event_capture(self, plan: ApplyPlan, on_event):
        """Wrap ``on_event`` to collect worker-reported measure outcomes.

        Worker 0 emits one ``("measure", ordinal, qubit, outcome)``
        event per collapse; the wrapper stores them by ordinal (restart
        duplicates are identical, so overwrites are benign) and forwards
        everything else.  Returns ``(wrapped, captured)``; ``captured``
        is None when the plan never measures.
        """
        if not any(s.kind is StepKind.MEASURE for s in plan.steps):
            return on_event, None
        captured: dict[int, tuple[int, int]] = {}

        def wrapped(event: tuple) -> None:
            if event[0] == "measure":
                captured[event[1]] = (event[2], event[3])
                return
            if on_event is not None:
                on_event(event)

        return wrapped, captured

    def _record_pool_measures(self, captured) -> None:
        """Fold worker-reported outcomes into the parent's bookkeeping."""
        if not captured:
            return
        for ordinal in sorted(captured):
            self.measure_outcomes.append(captured[ordinal])
            self._measure_count += 1

    def _execute_in_process(self, _pool, task, on_event) -> None:
        """One worker owns every rank of the lazy slice store (no pool)."""
        from repro.parallel.stepper import execute_plan
        from repro.parallel.transport import BLOB_SLOT_BYTES, ShmTransport

        transport = ShmTransport(
            None,
            self._local,
            tuple(range(self.num_ranks)),
            worker_id=0,
            blobs=np.zeros((1, BLOB_SLOT_BYTES), np.uint8),
        )
        execute_plan(
            transport, self._local, task, worker_id=0, num_workers=1, emit=on_event
        )

    def _ensure_shared_pair(self) -> None:
        """Allocate the shared pair-buffer segment (first distributed plan)."""
        if self._shared_pair is None:
            from repro.parallel.shm import SharedArray

            self._shared_pair = SharedArray(
                (self.num_ranks, self.partition.local_amplitudes), np.complex128
            )

    def _ensure_shared_blobs(self, num_workers: int) -> None:
        """Allocate the per-worker blob rows the shm allgather uses."""
        if (
            self._shared_blobs is None
            or self._shared_blobs.array.shape[0] != num_workers
        ):
            from repro.parallel.shm import SharedArray
            from repro.parallel.transport import BLOB_SLOT_BYTES

            self._shared_blobs = SharedArray(
                (num_workers, BLOB_SLOT_BYTES), np.uint8
            )

    def _execute_shm(self, pool, task, on_event) -> None:
        """Workers attach the shared segments and replay in lockstep."""
        from repro.parallel.stepper import run_plan_worker

        if task.needs_pair:
            self._ensure_shared_pair()
        has_measure = any(s.kind is StepKind.MEASURE for s in task.plan.steps)
        if has_measure:
            self._ensure_shared_blobs(pool.num_workers)
        obs.counter("repro_pool_plans_total").inc()
        task = replace(
            task,
            local_name=self._shared_local.name,
            pair_name=self._shared_pair.name if task.needs_pair else None,
            blob_name=self._shared_blobs.name if has_measure else None,
        )
        pool.spmd(run_plan_worker, task, on_event=on_event)

    def _execute_tcp(self, pool, task, on_event) -> None:
        """Ship owned slices over the mesh and take the finals back.

        Implicit zero slices travel as ``None``.  The communicator still
        records what the *modelled* machine would send, independent of
        which real transport moved the data.
        """
        obs.counter("repro_pool_plans_total").inc()
        slices = {
            r: (self._local.read(r) if self._local.is_materialized(r) else None)
            for r in range(self.num_ranks)
        }
        finals = pool.run_plan(task, slices, on_event=on_event)
        for rank, amps in finals.items():
            self._local[rank][:] = amps

    # -- schedule replay ----------------------------------------------------------

    def _log_measure_reduction(self) -> None:
        """Record the norm-reduction Allreduce in the message log.

        Outcome decisions never ride this collective -- they use the
        exact integer partials -- but the *schedule* shows the
        ``log2(R)`` recursive-doubling rounds a real machine would run:
        in round ``r`` every rank sends its ``(n0, ntotal)`` pair of
        doubles to the rank differing at rank bit ``r``.
        """
        for r in range(self.num_ranks.bit_length() - 1):
            for rank in range(self.num_ranks):
                self.comm.record_only(
                    rank, rank ^ (1 << r), _REDUCE_TAG_BASE + r, _REDUCE_BYTES
                )

    def _comm_pairs(self, rank_bit: int, gate: Gate) -> list[tuple[int, int]]:
        """Rank pairs (low, high) differing at ``rank_bit``, controls satisfied."""
        from repro.parallel.stepper import rank_controls_satisfied

        pairs = []
        for rank in range(self.num_ranks):
            if (rank >> rank_bit) & 1:
                continue
            peer = rank | (1 << rank_bit)
            if rank_controls_satisfied(gate, self.partition, rank):
                # Peer differs only at the target bit, so its control
                # bits agree with ours.
                pairs.append((rank, peer))
        return pairs

    def _log_step_schedule(
        self, step: ApplyStep, gate_plan: GatePlan, start_index: int
    ) -> None:
        """Account one step's exchange messages (QuEST's pairwise schedule)."""
        if step.kind is StepKind.MEASURE:
            self._log_measure_reduction()
            return
        if gate_plan.locality in (
            GateLocality.FULLY_LOCAL,
            GateLocality.LOCAL_MEMORY,
        ):
            return
        gate = step.gate
        part = self.partition
        m = part.local_qubits
        n = part.local_amplitudes
        tag_base = start_index << 8
        if step.kind is StepKind.REMAP:
            # The 2**g - 1 bucket-routing rounds of the message transport.
            from repro.parallel.stepper import remap_split

            cross, _local_pairs = remap_split(gate, m)
            g = len(cross)
            count = n >> g
            for delta in range(1, 1 << g):
                mask = 0
                for j, (_a, b) in enumerate(cross):
                    if (delta >> j) & 1:
                        mask |= 1 << (b - m)
                hb = 1 << (mask.bit_length() - 1)
                for rank in range(self.num_ranks):
                    if rank & hb:
                        continue
                    log_exchange_schedule(
                        self.comm,
                        rank,
                        rank ^ mask,
                        count,
                        itemsize=AMPLITUDE_BYTES,
                        mode=self.comm_mode,
                        max_message=self.max_message,
                        tag_base=tag_base,
                    )
            return
        if step.kind is StepKind.SWAP:
            t_low, t_high = sorted(gate.targets)
            if t_low >= m:
                bit_a, bit_b = t_low - m, t_high - m
                mask = (1 << bit_a) | (1 << bit_b)
                pairs = [
                    (rank, rank ^ mask)
                    for rank in range(self.num_ranks)
                    if ((rank >> bit_a) & 1, (rank >> bit_b) & 1) == (1, 0)
                ]
                count = n
            else:
                pairs = self._comm_pairs(t_high - m, gate)
                count = n // 2 if self.halved_swaps else n
        else:
            target = gate.pairing_targets()[0]
            pairs = self._comm_pairs(part.rank_bit(target), gate)
            count = n
        for rank, peer in pairs:
            log_exchange_schedule(
                self.comm,
                rank,
                peer,
                count,
                itemsize=AMPLITUDE_BYTES,
                mode=self.comm_mode,
                max_message=self.max_message,
                tag_base=tag_base,
            )
