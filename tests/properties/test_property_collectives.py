"""Property-based tests for the collective algorithms."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import SimComm
from repro.mpi.collectives import allgather, allreduce, bcast, gather

sizes = st.sampled_from([2, 4, 8, 16])
payload_lengths = st.integers(min_value=1, max_value=16)
seeds = st.integers(min_value=0, max_value=10_000)


@given(sizes, payload_lengths, seeds)
@settings(max_examples=40, deadline=None)
def test_allreduce_equals_direct_sum(size, length, seed):
    rng = np.random.default_rng(seed)
    payloads = [rng.normal(size=length) for _ in range(size)]
    out = allreduce(SimComm(size), payloads)
    expected = np.sum(payloads, axis=0)
    for o in out:
        assert np.allclose(o, expected)


@given(sizes, payload_lengths, seeds)
@settings(max_examples=30, deadline=None)
def test_allreduce_max(size, length, seed):
    rng = np.random.default_rng(seed)
    payloads = [rng.normal(size=length) for _ in range(size)]
    out = allreduce(SimComm(size), payloads, op=np.maximum)
    expected = np.max(payloads, axis=0)
    for o in out:
        assert np.allclose(o, expected)


@given(sizes, payload_lengths, seeds)
@settings(max_examples=30, deadline=None)
def test_bcast_from_any_root(size, length, seed):
    rng = np.random.default_rng(seed)
    root = int(rng.integers(size))
    data = rng.normal(size=length)
    out = bcast(SimComm(size), data, root=root)
    for o in out:
        assert np.allclose(o, data)


@given(sizes, payload_lengths, seeds)
@settings(max_examples=30, deadline=None)
def test_gather_then_concat_equals_allgather(size, length, seed):
    rng = np.random.default_rng(seed)
    payloads = [rng.normal(size=length) for _ in range(size)]
    gathered = np.concatenate(gather(SimComm(size), payloads, root=0))
    all_gathered = allgather(SimComm(size), payloads)
    for o in all_gathered:
        assert np.allclose(o, gathered)
