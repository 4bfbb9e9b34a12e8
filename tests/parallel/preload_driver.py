"""A pool driver, run as ``python -m tests.parallel.preload_driver`` or as a script.

It builds and probes the shared-memory pool and a two-worker loopback
TCP pool, then prints its own pid, the forkserver's and the workers' as
one JSON line.  Its import of :mod:`tests.parallel.preload_sentinel`
records which of those processes imported the driver's dependencies.
"""

import json
import os
from multiprocessing import forkserver

from tests.parallel import preload_sentinel  # noqa: F401 - records the pid

if __name__ == "__main__":
    from repro.parallel import get_pool
    from repro.parallel.tcp import get_tcp_pool

    pool = get_pool()
    pool.probe(1)
    tcp = get_tcp_pool("127.0.0.1:0,127.0.0.1:0")
    tcp.probe(1)
    print(
        json.dumps(
            {
                "driver": os.getpid(),
                "server": forkserver._forkserver._forkserver_pid,
                "workers": pool.worker_pids() + tcp.worker_pids(),
            }
        )
    )
