"""A ``-m`` pool driver whose import raises outside the driver process.

``RAISING_DRIVER_STAGE`` picks where, until the file named by
``RAISING_DRIVER_HEALED`` exists: ``server`` makes the forkserver die
as it preloads :mod:`tests.parallel.raising_import`; ``worker`` makes
each worker's re-run of this module raise.  Under the ``spawn`` start
method both end in the worker.  The driver builds the shared-memory
pool and a loopback TCP pool once in that state, creates the file,
builds both again, and prints what happened as one JSON line.
"""

import json
import os
from pathlib import Path

if __name__ == "__main__":
    os.environ["RAISING_DRIVER_PID"] = str(os.getpid())

from tests.parallel import raising_import  # noqa: E402,F401 - may raise

HEALED = Path(os.environ["RAISING_DRIVER_HEALED"])

if (
    __name__ != "__main__"
    and os.environ["RAISING_DRIVER_STAGE"] == "worker"
    and not HEALED.exists()
):
    raise RuntimeError("raising_driver refuses to be imported outside the driver")

if __name__ == "__main__":
    from repro.errors import PoolError
    from repro.parallel import get_pool
    from repro.parallel.tcp import get_tcp_pool

    LOOPBACK2 = "127.0.0.1:0,127.0.0.1:0"
    failures = []
    for build in (get_pool, lambda: get_tcp_pool(LOOPBACK2)):
        try:
            build()
        except PoolError as exc:
            failures.append(str(exc))
    HEALED.touch()
    rebuilt = [get_pool().probe(1), get_tcp_pool(LOOPBACK2).probe(1)]
    print(json.dumps({"failures": failures, "rebuilt": [len(r) for r in rebuilt]}))
