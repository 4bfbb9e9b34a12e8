"""Records each process that imports it: appends its pid to a file.

The file is named by the ``PRELOAD_SENTINEL_FILE`` environment
variable.  :mod:`tests.parallel.preload_driver` imports this module, so
the file lists every process that ran the driver's imports.
"""

import os

with open(os.environ["PRELOAD_SENTINEL_FILE"], "a") as fh:
    fh.write(f"{os.getpid()}\n")
