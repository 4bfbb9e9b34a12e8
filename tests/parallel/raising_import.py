"""A dependency of :mod:`tests.parallel.raising_driver` that can refuse import.

With ``RAISING_DRIVER_STAGE=server``, importing it in any process but
the driver raises ``RuntimeError`` until the file named by
``RAISING_DRIVER_HEALED`` exists.  The forkserver preloads the modules
the driver's globals come from, so this is where the server dies.
"""

import os
from pathlib import Path

if (
    os.environ["RAISING_DRIVER_STAGE"] == "server"
    and os.environ["RAISING_DRIVER_PID"] != str(os.getpid())
    and not Path(os.environ["RAISING_DRIVER_HEALED"]).exists()
):
    raise RuntimeError("raising_import refuses to be imported outside the driver")
