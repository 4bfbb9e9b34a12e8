"""Microbenchmarks of the simulated MPI layer itself."""

import numpy as np

from repro.mpi import CommMode, SimComm, log_exchange_schedule
from repro.mpi.collectives import allgather, allreduce, bcast


def test_exchange_throughput(benchmark):
    num_elements = 2**16

    def run():
        comm = SimComm(2)
        log_exchange_schedule(comm, 0, 1, num_elements, mode=CommMode.NONBLOCKING)
        return comm

    comm = benchmark(run)
    assert comm.stats.bytes_sent == 2 * num_elements * 16


def test_chunked_blocking_exchange(benchmark):
    num_elements = 2**16
    max_message = num_elements * 16 // 16  # 16 messages per side

    def run():
        comm = SimComm(2)
        log_exchange_schedule(
            comm, 0, 1, num_elements,
            mode=CommMode.BLOCKING, max_message=max_message,
        )
        return comm

    comm = benchmark(run)
    assert comm.stats.messages_sent == 2 * 16


def test_allreduce_64_ranks(benchmark):
    payloads = [np.full(8, float(r)) for r in range(64)]

    def run():
        return allreduce(SimComm(64), payloads)

    out = benchmark(run)
    assert np.allclose(out[0], np.full(8, sum(range(64))))


def test_bcast_64_ranks(benchmark):
    data = np.arange(64.0)

    def run():
        return bcast(SimComm(64), data)

    out = benchmark(run)
    assert np.allclose(out[-1], data)


def test_allgather_32_ranks(benchmark):
    payloads = [np.array([float(r)]) for r in range(32)]

    def run():
        return allgather(SimComm(32), payloads)

    out = benchmark(run)
    assert np.allclose(out[0], np.arange(32.0))
