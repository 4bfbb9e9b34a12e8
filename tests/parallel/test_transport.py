"""The rank-transport seam: CopySpec validation and store resolution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PoolError
from repro.parallel.transport import (
    LOCAL,
    PAIR,
    Array2DStore,
    CopySpec,
    DictStore,
)


class TestCopySpec:
    def test_length(self):
        c = CopySpec(0, PAIR, 4, 12, 1, LOCAL, 0, 8)
        assert c.length == 8

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(PoolError, match="length mismatch"):
            CopySpec(0, PAIR, 0, 8, 1, LOCAL, 0, 4)

    def test_frozen(self):
        c = CopySpec(0, PAIR, 0, 4, 1, LOCAL, 0, 4)
        with pytest.raises(AttributeError):
            c.dst_lo = 2


class TestArray2DStore:
    def test_views_are_rows(self):
        local = np.arange(8, dtype=np.complex128).reshape(2, 4)
        pair = np.zeros((2, 4), dtype=np.complex128)
        store = Array2DStore(local, pair)
        assert np.array_equal(store.view(1, LOCAL), local[1])
        store.view(0, PAIR)[2] = 7.0
        assert pair[0, 2] == 7.0

    def test_missing_pair_raises(self):
        store = Array2DStore(np.zeros((2, 4), dtype=np.complex128), None)
        with pytest.raises(PoolError, match="pair buffer"):
            store.view(0, PAIR)


class TestDictStore:
    def test_owned_rank_resolution(self):
        local = {3: np.ones(4, dtype=np.complex128)}
        pair = {3: np.zeros(4, dtype=np.complex128)}
        store = DictStore(local, pair)
        assert np.array_equal(store.view(3, LOCAL), local[3])
        assert np.array_equal(store.view(3, PAIR), pair[3])

    def test_unowned_rank_raises(self):
        store = DictStore({0: np.zeros(2, dtype=np.complex128)}, {})
        with pytest.raises(PoolError, match="not owned"):
            store.view(1, LOCAL)
        with pytest.raises(PoolError, match="not owned"):
            store.view(0, PAIR)


class TestHostParsing:
    def test_string_forms(self):
        from repro.parallel.tcp import HostSpec, parse_hosts

        specs = parse_hosts("localhost, 10.0.0.2:5555 ,127.0.0.1:0")
        assert specs == (
            HostSpec("localhost", 0),
            HostSpec("10.0.0.2", 5555),
            HostSpec("127.0.0.1", 0),
        )
        assert specs[0].is_local and specs[2].is_local
        assert not specs[1].is_local

    def test_idempotent_on_specs(self):
        from repro.parallel.tcp import parse_hosts

        specs = parse_hosts("127.0.0.1:0,host-a:9000")
        assert parse_hosts(specs) == specs
        assert parse_hosts(specs[0]) == (specs[0],)

    def test_bad_entries_rejected(self):
        from repro.errors import ValidationError
        from repro.parallel.tcp import parse_hosts

        with pytest.raises(ValidationError, match="port"):
            parse_hosts("host:notaport")
        with pytest.raises(ValidationError, match="range"):
            parse_hosts("host:70000")
        with pytest.raises(ValidationError, match="empty"):
            parse_hosts("")


class TestResolution:
    def test_resolve_hosts_env(self, monkeypatch):
        from repro.parallel import POOL_HOSTS_ENV, resolve_hosts

        monkeypatch.delenv(POOL_HOSTS_ENV, raising=False)
        assert resolve_hosts() is None
        monkeypatch.setenv(POOL_HOSTS_ENV, "127.0.0.1:0,127.0.0.1:0")
        hosts = resolve_hosts()
        assert hosts is not None and len(hosts) == 2

    def test_explicit_hosts_beat_env(self, monkeypatch):
        from repro.parallel import POOL_HOSTS_ENV, resolve_hosts

        monkeypatch.setenv(POOL_HOSTS_ENV, "127.0.0.1:0")
        assert len(resolve_hosts("a:1,b:2,c:3")) == 3

    def test_pool_with_hosts_needs_no_shm(self, monkeypatch):
        import repro.parallel as par

        monkeypatch.setattr(par, "shm_available", lambda: False)
        assert (
            par.resolve_executor("pool", hosts="127.0.0.1:0,127.0.0.1:0")
            == "pool"
        )

    def test_resolve_executor_name_is_pure(self, monkeypatch):
        import repro.parallel as par

        monkeypatch.setattr(par, "shm_available", lambda: False)
        # The pure validator never probes capabilities.
        assert par.resolve_executor_name("pool") == "pool"
        with pytest.raises(Exception, match="unknown executor"):
            par.resolve_executor_name("threads")
