"""Content-addressed on-disk cache for model predictions.

Experiment sweeps price the same (circuit, configuration) pairs over and
over -- every table re-traces QFT at the same sizes, ``validate`` re-runs
what the figures already priced.  This cache keys each
:class:`~repro.perfmodel.predictor.Prediction` by a SHA-256 digest of
the *content* that determines it:

* the circuit fingerprint -- every gate's name, wiring, parameters and
  (for explicit unitaries) matrix entries, hashed via exact
  ``float.hex`` renderings so two circuits collide iff they are
  numerically identical;
* the configuration fingerprint -- the full
  :class:`~repro.perfmodel.trace.RunConfiguration` tree (partition,
  node type, frequency, comm mode, calibration constants, ...);
* the backend name and CU rates.

Entries are pickled to ``<root>/<aa>/<digest>.pkl`` and written via a
temp file + ``os.replace`` so concurrent writers (the experiment pool)
race benignly: last atomic rename wins, every reader sees a complete
file or none.  Keys carry a format-version prefix; bumping
:data:`CACHE_VERSION` invalidates every old entry at once (stale files
are simply never looked up again -- ``clear()`` removes them).

Fault-injected predictions are never cached: fault plans fold seeded
randomness and overlay state into the result, and the cache must stay
a pure function of its key.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import weakref
from dataclasses import fields, is_dataclass
from enum import Enum
from pathlib import Path

from repro import obs
from repro.errors import ValidationError

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_VERSION",
    "PredictionCache",
    "active_cache",
    "circuit_fingerprint",
    "config_fingerprint",
]

#: Environment knob: set to a directory path to enable caching globally.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bump to invalidate every existing cache entry (schema/semantics change).
#: 2: GatePlan grew comm_rounds/pair_masks (remap bucket routing).
#: 3: RunConfiguration grew executor/transport/num_hosts/overlap_factor
#:    (TCP pool overlap pricing) -- serial-era entries must never be
#:    served for pool/TCP configurations.
#: 4: RunConfiguration grew shots (sampling pricing) and plans grew
#:    measurement steps -- pre-measurement entries must never be served
#:    for sampling configurations.
#: 5: the DES makespan takes each rank's latest span end, not its last
#:    recorded one -- overlapped replays were understated before.
CACHE_VERSION = 5


def _canon(value, out: list[str]) -> None:
    """Append a canonical, type-tagged rendering of ``value`` to ``out``.

    Exact for floats/complex (``float.hex``), recursive for dataclasses,
    sequences and mappings; enums render as class.name.  Anything else
    must provide a stable ``repr`` (strings, ints, None).
    """
    if is_dataclass(value) and not isinstance(value, type):
        out.append(f"{type(value).__name__}(")
        for f in fields(value):
            out.append(f"{f.name}=")
            _canon(getattr(value, f.name), out)
            out.append(",")
        out.append(")")
    elif isinstance(value, Enum):
        out.append(f"{type(value).__name__}.{value.name}")
    elif isinstance(value, bool) or value is None:
        out.append(repr(value))
    elif isinstance(value, float):
        out.append(value.hex())
    elif isinstance(value, complex):
        out.append(f"{value.real.hex()}+{value.imag.hex()}j")
    elif isinstance(value, int):
        out.append(repr(value))
    elif isinstance(value, str):
        out.append(repr(value))
    elif isinstance(value, (tuple, list)):
        out.append("[")
        for item in value:
            _canon(item, out)
            out.append(",")
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for k in sorted(value, key=repr):
            out.append(f"{k!r}:")
            _canon(value[k], out)
            out.append(",")
        out.append("}")
    else:
        import numpy as np

        if isinstance(value, np.ndarray):
            out.append(f"ndarray{value.shape}[")
            for item in value.ravel().tolist():
                _canon(item, out)
                out.append(",")
            out.append("]")
        elif isinstance(value, (np.floating, np.complexfloating, np.integer)):
            _canon(value.item(), out)
        else:
            raise ValidationError(
                f"cannot fingerprint value of type {type(value).__name__}"
            )


def _digest(*parts) -> str:
    out: list[str] = []
    for part in parts:
        _canon(part, out)
        out.append(";")
    return hashlib.sha256("".join(out).encode()).hexdigest()


def _gate_token(gate) -> tuple:
    constituents = None
    if gate.constituents:
        constituents = tuple(_gate_token(g) for g in gate.constituents)
    return (
        gate.name,
        gate.targets,
        gate.controls,
        gate.params,
        gate._matrix_key,
        constituents,
    )


# Fingerprints keyed on circuit identity (same idiom as the compiled
# apply-plan cache): the stored name and gate tuple guard against
# in-place mutation, a weakref finaliser evicts collected circuits.
# ``Circuit.gates`` builds a fresh tuple per access, so the guard must
# compare by value; tuple equality short-circuits on identical gates.
_fingerprints: dict[int, tuple] = {}


def circuit_fingerprint(circuit) -> str:
    """Content hash of a circuit: width plus every gate, exactly.

    The gate stream renders through ``repr`` of plain tuples --
    ``repr(float)`` is the shortest round-trip form, so two circuits
    share a fingerprint iff they are numerically identical.  The result
    is memoised per circuit object: sweeping the same circuit through
    many configurations hashes its gates once.
    """
    gates = circuit.gates
    entry = _fingerprints.get(id(circuit))
    if (
        entry is not None
        and entry[0]() is circuit
        and entry[1] == circuit.name
        and entry[2] == gates
    ):
        return entry[3]
    token = (
        circuit.num_qubits,
        circuit.name or "",
        tuple(_gate_token(g) for g in gates),
    )
    digest = hashlib.sha256(repr(token).encode()).hexdigest()
    cid = id(circuit)
    ref = weakref.ref(circuit, lambda _r, cid=cid: _fingerprints.pop(cid, None))
    _fingerprints[cid] = (ref, circuit.name, gates, digest)
    return digest


def config_fingerprint(config) -> str:
    """Content hash of a full run configuration tree."""
    return _digest(config)


class PredictionCache:
    """Pickled predictions under ``root``, addressed by content digest."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    # -- keys ------------------------------------------------------------------

    @staticmethod
    def key_for(circuit, config, *, backend: str = "analytic", cu_rates=None) -> str:
        """The cache key of one (circuit, configuration, backend) triple."""
        return _digest(
            CACHE_VERSION,
            circuit_fingerprint(circuit),
            config_fingerprint(config),
            backend,
            cu_rates,
        )

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # -- access ----------------------------------------------------------------

    def get(self, key: str):
        """The cached value for ``key``, or None (counts hit/miss)."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            obs.counter("repro_cache_misses_total").inc()
            return None
        except (
            pickle.UnpicklingError,
            EOFError,
            AttributeError,
            ValueError,
            OSError,
        ) as exc:
            # A torn or stale entry behaves like a miss -- and is
            # unlinked, so a key that is read but never re-written
            # (schema drift, a crashed writer's torn bytes) does not
            # pay the open/parse/fail cost on every subsequent lookup.
            self.misses += 1
            obs.counter("repro_cache_misses_total").inc()
            obs.counter("repro_cache_torn_entries_total").inc()
            obs.log.debug("torn cache entry %s: %s", path, exc)
            try:
                path.unlink()
            except OSError as unlink_exc:
                # Already replaced/removed by a concurrent writer, or a
                # permission oddity: the miss still stands either way.
                obs.swallowed("cache.torn_unlink", unlink_exc)
            return None
        self.hits += 1
        obs.counter("repro_cache_hits_total").inc()
        return value

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key`` atomically (last writer wins)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with obs.span("cache.put"):
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
        except BaseException as exc:
            obs.counter("repro_cache_put_failures_total").inc()
            obs.log.debug("cache put of %s failed: %s", path, exc)
            try:
                os.unlink(tmp)
            except FileNotFoundError as unlink_exc:
                # The crash window closed itself (os.replace already
                # consumed the temp file); nothing to clean up.
                obs.swallowed("cache.put_unlink", unlink_exc)
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed.

        Safe against concurrent writers: an entry another process
        removed between the glob and the unlink is counted as already
        gone, never raised.
        """
        removed = 0
        for path in self.root.glob("*/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError as exc:
                obs.swallowed("cache.clear_unlink", exc)
        return removed


_active: tuple[str, PredictionCache | None] | None = None


def active_cache() -> PredictionCache | None:
    """The process-wide cache configured via ``REPRO_CACHE_DIR`` (or None).

    Re-reads the environment on every call but reuses the cache object
    (and its hit/miss counters) while the path stays the same, so tests
    can flip the variable freely.
    """
    global _active
    root = os.environ.get(CACHE_DIR_ENV)
    if not root:
        _active = None
        return None
    if _active is not None and _active[0] == root:
        return _active[1]
    cache = PredictionCache(root)
    _active = (root, cache)
    return cache
