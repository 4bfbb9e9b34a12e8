"""Shot sampling: seed-deterministic bitstrings from any executor.

``sample`` runs a circuit (mid-circuit measurements included) on the
requested backend and draws ``shots`` basis-state indices from the
final state via the exact cumulative search of
:mod:`repro.statevector.exact`.  One ``seed`` drives both randomness
streams -- mid-circuit collapse outcomes (``MEASURE_STREAM``) and shot
draws (``SAMPLE_STREAM``) -- so the full outcome record is a pure
function of ``(circuit, seed, shots)``: the dense reference, the serial
distributed executor, and both pool transports (shm and TCP) return
bit-identical samples and mid-circuit outcome records, and the three
distributed executors (which share slice structure and kernels) agree
on the post-measurement amplitudes bit for bit as well.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit
from repro.errors import ValidationError
from repro.statevector.dense import DenseStatevector
from repro.statevector.partition import Partition

__all__ = ["SHOTS_ENV", "SampleResult", "resolve_shots", "sample"]

#: Environment knob: default shot count for sampling-aware entry points.
SHOTS_ENV = "REPRO_SHOTS"


def resolve_shots(value: int | None = None, *, default: int = 0) -> int:
    """The shot count to use: explicit value, else ``$REPRO_SHOTS``.

    ``None`` means "not requested" and falls back to the env knob, then
    to ``default``.  A non-integer or negative count fails with a
    one-line :class:`ValidationError` -- never silently ignored.
    """
    source = "shots"
    if value is None:
        raw = os.environ.get(SHOTS_ENV)
        if raw is None or not raw.strip():
            return default
        source = f"${SHOTS_ENV}"
        try:
            value = int(raw)
        except ValueError:
            raise ValidationError(
                f"shots must be an integer, got {raw!r} (from {source})"
            ) from None
    if value < 0:
        raise ValidationError(
            f"shots must be >= 0, got {value} (from {source})"
        )
    return value


@dataclass(frozen=True)
class SampleResult:
    """The outcome record of one sampling run."""

    #: Register width (for rendering indices as bitstrings).
    num_qubits: int
    #: Sampled basis-state indices, one per shot (uint64).
    samples: np.ndarray
    #: ``(qubit, outcome)`` of every mid-circuit measurement, in order.
    measure_outcomes: tuple[tuple[int, int], ...]

    def bitstrings(self) -> list[str]:
        """Each shot as an ``n``-character bitstring (qubit 0 rightmost)."""
        return [format(int(s), f"0{self.num_qubits}b") for s in self.samples]

    def counts(self) -> dict[str, int]:
        """Histogram of sampled bitstrings."""
        out: dict[str, int] = {}
        for bits in self.bitstrings():
            out[bits] = out.get(bits, 0) + 1
        return out


def sample(
    circuit: Circuit,
    shots: int,
    seed: int = 0,
    *,
    executor: str | None = None,
    num_ranks: int = 2,
    hosts=None,
) -> SampleResult:
    """Run ``circuit`` and draw ``shots`` bitstrings from the final state.

    ``executor`` selects the backend: ``"dense"`` (or None) uses the
    single-array reference simulator; ``"serial"`` and ``"pool"`` use
    the distributed simulator over ``num_ranks`` ranks (``hosts``
    routes a pool run over the TCP mesh).  All backends agree bit for
    bit on both the samples and the mid-circuit outcome record.
    """
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral):
        raise ValidationError(f"shots must be an integer, got {shots!r}")
    if shots < 0:
        raise ValidationError(f"shots must be >= 0, got {shots}")
    if executor in (None, "dense"):
        sim = DenseStatevector(circuit.num_qubits, measure_seed=seed)
        sim.apply_circuit(circuit)
        return SampleResult(
            circuit.num_qubits,
            sim.sample_bitstrings(shots, seed),
            tuple(sim.measure_outcomes),
        )
    from repro.statevector.distributed import DistributedStatevector

    partition = Partition(circuit.num_qubits, num_ranks)
    sim = DistributedStatevector(
        partition, executor=executor, hosts=hosts, measure_seed=seed
    )
    sim.apply_circuit(circuit)
    return SampleResult(
        circuit.num_qubits,
        sim.sample_bitstrings(shots, seed),
        tuple(sim.measure_outcomes),
    )
