"""The forkserver preloads what the parent's main module imports.

A forkserver child, like a spawned one, runs the parent's main module
again before it unpickles its target.  The server imports the modules
that module's globals come from, so each child finds them cached and
only the driver and the server run those imports.  A module whose
import raises there -- in the server or in a worker's re-run -- makes
each pool build raise one ``PoolError``, and the next build starts a
fresh server.  The drivers live next to this file and run in fresh
interpreters.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.parallel import pool as pool_mod
from repro.parallel import shm_available

ROOT = Path(__file__).resolve().parents[2]

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="named shared memory unavailable on this host"
)
needs_forkserver = pytest.mark.skipif(
    pool_mod.start_context().get_start_method() != "forkserver",
    reason="forkserver start method unavailable on this host",
)


class TestMainPreloadList:
    @pytest.mark.parametrize(
        "spec_name, path, rerun",
        [
            ("tool.driver", None, True),
            (None, "/work/driver.py", True),
            # CPython's children run neither a ``pkg.__main__`` module
            # nor ``-c`` / standard input again: nothing to preload.
            ("tool.__main__", None, False),
            (None, None, False),
        ],
    )
    def test_preload_is_where_the_main_module_globals_come_from(
        self, monkeypatch, spec_name, path, rerun
    ):
        main = type(sys)("__main__")
        if spec_name is not None:
            main.__spec__ = type("Spec", (), {"name": spec_name})()
        if path is not None:
            main.__file__ = path
        main.np, main.Path, main.LIMIT, main.run = np, Path, 3, _run_driver
        monkeypatch.setitem(sys.modules, "__main__", main)
        expected = sorted(["numpy", "pathlib", __name__]) if rerun else []
        assert pool_mod._main_preload() == expected


def _run_driver(args: list[str], **env: str) -> dict:
    """Run a driver under ``tests/parallel`` in a fresh interpreter.

    Returns the JSON object it prints last; fails the test, with the
    driver's standard error, if it exits non-zero.
    """
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
            **env,
        },
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@needs_shm
@needs_forkserver
class TestMainModulePreload:
    @pytest.mark.parametrize(
        "args",
        [["-m", "tests.parallel.preload_driver"], ["tests/parallel/preload_driver.py"]],
        ids=["module", "script"],
    )
    def test_only_the_driver_and_the_server_run_the_main_imports(
        self, args, tmp_path
    ):
        sentinel = tmp_path / "pids"
        pids = _run_driver(args, PRELOAD_SENTINEL_FILE=str(sentinel))
        importers = [int(line) for line in sentinel.read_text().split()]
        assert len(pids["workers"]) == pool_mod.default_pool_size() + 2
        assert sorted(importers) == sorted([pids["driver"], pids["server"]])


@needs_shm
class TestStartFailure:
    @pytest.mark.parametrize("stage", ["server", "worker"])
    def test_a_main_module_that_raises_on_import_gives_one_pool_error(
        self, stage, tmp_path
    ):
        result = _run_driver(
            ["-m", "tests.parallel.raising_driver"],
            RAISING_DRIVER_STAGE=stage,
            RAISING_DRIVER_HEALED=str(tmp_path / "healed"),
        )
        # Both pool builds failed with a PoolError that names the main
        # module; once the import is healed, fresh builds serve.
        assert len(result["failures"]) == 2
        for message in result["failures"]:
            assert message.startswith("pool workers could not start: ")
            assert "'tests.parallel.raising_driver'" in message
        assert result["rebuilt"] == [pool_mod.default_pool_size(), 1]
