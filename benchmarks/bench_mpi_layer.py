"""Microbenchmarks of the simulated MPI layer itself."""

from repro.mpi import CommMode, SimComm, log_exchange_schedule


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

