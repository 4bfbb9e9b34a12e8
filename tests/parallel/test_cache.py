"""The content-addressed prediction cache: keys, storage, integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import qft_circuit, random_circuit
from repro.machine.frequency import CpuFrequency
from repro.machine.node import STANDARD_NODE
from repro.parallel.cache import (
    CACHE_DIR_ENV,
    PredictionCache,
    active_cache,
    circuit_fingerprint,
    config_fingerprint,
)
from repro.perfmodel.predictor import predict
from repro.perfmodel.trace import RunConfiguration
from repro.statevector import Partition


def _config(n=8, ranks=4, **kwargs):
    return RunConfiguration(
        partition=Partition(n, ranks),
        node_type=STANDARD_NODE,
        frequency=CpuFrequency.MEDIUM,
        **kwargs,
    )


class TestFingerprints:
    def test_identical_circuits_share_fingerprint(self):
        a, b = qft_circuit(6), qft_circuit(6)
        assert a is not b
        assert circuit_fingerprint(a) == circuit_fingerprint(b)

    def test_any_gate_change_changes_fingerprint(self):
        base = circuit_fingerprint(random_circuit(6, 30, seed=1))
        assert base != circuit_fingerprint(random_circuit(6, 30, seed=2))
        assert base != circuit_fingerprint(random_circuit(6, 29, seed=1))
        assert base != circuit_fingerprint(random_circuit(7, 30, seed=1))

    def test_parameter_value_changes_fingerprint(self):
        from repro.circuits import Circuit

        a = Circuit(2).rz(0.5, 0)
        b = Circuit(2).rz(0.5 + 1e-15, 0)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_fingerprint_memoised_per_object(self, monkeypatch):
        from repro.parallel import cache as cache_mod

        circuit = qft_circuit(6)
        first = circuit_fingerprint(circuit)
        calls = []
        real_token = cache_mod._gate_token

        def counting_token(gate):
            calls.append(gate)
            return real_token(gate)

        monkeypatch.setattr(cache_mod, "_gate_token", counting_token)
        # An unchanged circuit is a memo hit: no gate is re-tokenised.
        assert circuit_fingerprint(circuit) == first
        assert calls == []
        # Appending a gate invalidates the memo and changes the digest.
        circuit.h(0)
        assert circuit_fingerprint(circuit) != first
        assert len(calls) == len(circuit)
        # Renaming does too: the name is part of the content hash.
        renamed = circuit_fingerprint(circuit)
        circuit.name = "renamed"
        assert circuit_fingerprint(circuit) != renamed

    def test_config_fingerprint_sensitive_to_options(self):
        from repro.mpi import CommMode

        base = config_fingerprint(_config())
        assert base == config_fingerprint(_config())
        assert base != config_fingerprint(_config(comm_mode=CommMode.NONBLOCKING))
        assert base != config_fingerprint(_config(halved_swaps=True))
        assert base != config_fingerprint(_config(max_message=1024))
        assert base != config_fingerprint(_config(ranks=8))


class TestPredictionCache:
    def test_roundtrip(self, tmp_path):
        cache = PredictionCache(tmp_path)
        key = cache.key_for(qft_circuit(6), _config(6))
        assert cache.get(key) is None
        assert cache.misses == 1
        cache.put(key, {"value": 42})
        assert cache.get(key) == {"value": 42}
        assert cache.hits == 1
        assert len(cache) == 1

    def test_backend_is_part_of_the_key(self, tmp_path):
        cache = PredictionCache(tmp_path)
        circuit, config = qft_circuit(6), _config(6)
        assert cache.key_for(circuit, config, backend="analytic") != cache.key_for(
            circuit, config, backend="des"
        )

    def test_torn_entry_behaves_like_miss(self, tmp_path):
        cache = PredictionCache(tmp_path)
        key = cache.key_for(qft_circuit(6), _config(6))
        cache.put(key, "value")
        path = cache._path(key)
        path.write_bytes(b"\x80corrupt")
        assert cache.get(key) is None

    def test_torn_entry_unlinked_and_counted(self, tmp_path):
        # Regression: a torn entry used to survive the failed read, so
        # a key that is read but never re-put decoded (and counted) the
        # same corrupt bytes on every lookup.
        from repro import obs

        cache = PredictionCache(tmp_path)
        key = cache.key_for(qft_circuit(6), _config(6))
        cache.put(key, {"value": 1})
        path = cache._path(key)
        # A crashed writer's classic leftover: a truncated pickle.
        path.write_bytes(path.read_bytes()[:7])
        counter = obs.counter("repro_cache_torn_entries_total")
        before = counter.value
        assert cache.get(key) is None
        assert counter.value == before + 1
        assert not path.exists()
        # A second read is a plain miss, not another torn decode.
        assert cache.get(key) is None
        assert counter.value == before + 1
        # The slot is rewritable after the unlink.
        cache.put(key, {"value": 2})
        assert cache.get(key) == {"value": 2}

    def test_clear_removes_entries(self, tmp_path):
        cache = PredictionCache(tmp_path)
        for i in range(3):
            cache.put(cache.key_for(qft_circuit(4 + i), _config(4 + i, 2)), i)
        assert cache.clear() == 3
        assert len(cache) == 0


class TestCrashWindows:
    """Failure paths must not litter the cache root or raise from cleanup."""

    def test_failed_put_leaves_no_tmp_litter(self, tmp_path, monkeypatch):
        from repro import obs

        cache = PredictionCache(tmp_path)
        failures_before = obs.counter("repro_cache_put_failures_total").value

        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("cannot pickle me")

        with pytest.raises(RuntimeError):
            cache.put("ab" * 32, Unpicklable())
        # The temp file from the crash window is cleaned up, the entry
        # never appears, and the failure is counted.
        assert list(tmp_path.rglob("*.tmp")) == []
        assert len(cache) == 0
        assert (
            obs.counter("repro_cache_put_failures_total").value
            == failures_before + 1
        )

    def test_clear_racing_put_removes_preexisting_entries(self, tmp_path):
        import threading

        cache = PredictionCache(tmp_path)
        preexisting = 20
        for i in range(preexisting):
            cache.put(f"{i:02d}" + "0" * 62, {"entry": i})
        assert len(cache) == preexisting

        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            while not stop.is_set():
                try:
                    cache.put(f"{i % 97:02x}" + "f" * 62, {"racer": i})
                except Exception as exc:  # pragma: no cover - fails the test
                    errors.append(exc)
                    return
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            removed = cache.clear()
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not errors
        # Every pre-existing entry is gone; entries the racer wrote after
        # clear()'s glob may survive, but clear() itself never raises.
        assert removed >= preexisting
        cache.clear()
        assert len(cache) == 0

    def test_clear_tolerates_vanishing_entries(self, tmp_path, monkeypatch):
        from pathlib import Path

        from repro import obs

        cache = PredictionCache(tmp_path)
        cache.put("aa" + "0" * 62, {"x": 1})
        cache.put("bb" + "0" * 62, {"x": 2})
        swallowed_before = obs.counter(
            "repro_swallowed_errors_total", site="cache.clear_unlink"
        ).value

        real_unlink = Path.unlink

        def racing_unlink(self, *args, **kwargs):
            # Another process got there first: the file vanishes between
            # the glob and our unlink.
            real_unlink(self)
            raise FileNotFoundError(str(self))

        monkeypatch.setattr(Path, "unlink", racing_unlink)
        removed = cache.clear()
        monkeypatch.undo()
        # Both entries are gone from disk; the races were counted, not
        # raised, and only non-racing removals are tallied.
        assert len(cache) == 0
        assert removed == 0
        assert (
            obs.counter(
                "repro_swallowed_errors_total", site="cache.clear_unlink"
            ).value
            == swallowed_before + 2
        )


class TestPredictIntegration:
    def test_cache_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert active_cache() is None

    def test_predict_hits_cache_on_second_call(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        cache = active_cache()
        circuit, config = qft_circuit(8), _config(8)
        first = predict(circuit, config)
        assert cache.misses >= 1
        hits_before = cache.hits
        second = predict(circuit, config)
        assert cache.hits == hits_before + 1
        assert second.runtime_s == first.runtime_s
        assert second.total_energy_j == first.total_energy_j
        assert second.costed.gates == first.costed.gates

    def test_cached_prediction_is_complete(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        circuit, config = qft_circuit(8), _config(8)
        fresh = predict(circuit, config)
        cached = predict(circuit, config)
        assert cached.profile == fresh.profile
        assert cached.cu == fresh.cu
        assert np.isclose(cached.energy.total_j, fresh.energy.total_j)

    def test_different_backends_do_not_collide(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        circuit, config = qft_circuit(8), _config(8)
        analytic = predict(circuit, config)
        des = predict(circuit, config, backend="des")
        assert des.des is not None
        assert analytic.des is None

    def test_faulted_predictions_bypass_cache(self, tmp_path, monkeypatch):
        from repro.faults import FaultPlan, Straggler

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        cache = active_cache()
        circuit, config = qft_circuit(8), _config(8)
        plan = FaultPlan(stragglers=(Straggler(rank=0, slowdown=2.0),))
        predict(circuit, config, faults=plan)
        predict(circuit, config, faults=plan)
        assert cache.hits == 0
        assert len(cache) == 0


class TestExecutorFingerprint:
    def test_cache_version_bumped_for_executor_fields(self):
        from repro.parallel.cache import CACHE_VERSION

        assert CACHE_VERSION == 4

    def test_fingerprint_sensitive_to_shots(self):
        base = config_fingerprint(_config())
        sampled = config_fingerprint(_config(shots=1024))
        assert base != sampled
        assert sampled == config_fingerprint(_config(shots=1024))
        assert sampled != config_fingerprint(_config(shots=2048))

    def test_fingerprint_sensitive_to_executor_topology(self):
        base = config_fingerprint(_config())
        assert base != config_fingerprint(_config(executor="pool"))
        assert base != config_fingerprint(
            _config(executor="pool", transport="tcp", num_hosts=2)
        )
        assert config_fingerprint(
            _config(executor="pool", transport="tcp", num_hosts=2)
        ) != config_fingerprint(
            _config(executor="pool", transport="tcp", num_hosts=4)
        )
        assert base != config_fingerprint(_config(overlap_factor=0.5))
