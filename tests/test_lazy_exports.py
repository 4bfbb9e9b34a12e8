"""Package re-exports resolve on first use (PEP 562), to the objects they name.

``import repro`` and the pool's forkserver preload import only what they
use.  Each lazily exported name must still be the object its defining
module holds, whatever was imported before it was first looked up --
``repro.machine.archer2`` and ``repro.statevector.fidelity`` are also
submodule names, which an import of that submodule would bind instead.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY_PACKAGES = [
    "repro",
    "repro.circuits",
    "repro.core",
    "repro.des",
    "repro.faults",
    "repro.machine",
    "repro.mpi",
    "repro.perfmodel",
    "repro.statevector",
]


def _sources(package: str) -> dict[str, str]:
    """Each public name ``package/__init__.py`` imports, and its module.

    Counts the eager imports and those under ``if TYPE_CHECKING:``,
    which are the ones static tools read.
    """
    tree = ast.parse(Path(find_spec(package).origin).read_text())
    nodes = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            nodes.extend(node.body)
    return {
        alias.asname or alias.name: node.module
        for node in nodes
        if isinstance(node, ast.ImportFrom) and node.module.startswith("repro")
        for alias in node.names
        if not alias.name.startswith("_")
    }


def _fresh(code: str, *args: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


#: Looks every exported name up, then checks it is its source's object.
_CHECK = """
import importlib, json, pkgutil, sys
import repro

def check(sources):
    wrong = []
    for package, names in sources.items():
        module = importlib.import_module(package)
        for name, source in names.items():
            if getattr(module, name) is not getattr(importlib.import_module(source), name):
                wrong.append(f"{package}.{name}")
    return wrong

def import_everything():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)

sources = json.loads(sys.argv[1])
"""


class TestLazyExports:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_package_exports_lazily_what_it_declares(self, package):
        module = importlib.import_module(package)
        assert callable(module.__dict__.get("__getattr__"))
        declared = set(module.__all__) - {"__version__"}
        assert set(_sources(package)) == declared
        assert set(module.__all__) <= set(dir(module))

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_star_import_binds_every_name(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        assert set(importlib.import_module(package).__all__) <= namespace.keys()

    @pytest.mark.parametrize("first", ["names", "submodules"])
    def test_every_name_is_its_defining_modules_object(self, first):
        sources = {package: _sources(package) for package in LAZY_PACKAGES}
        steps = (
            "wrong = check(sources); import_everything(); wrong += check(sources)"
            if first == "names"
            else "import_everything(); wrong = check(sources)"
        )
        code = _CHECK + steps + "\nprint(json.dumps(wrong))"
        assert json.loads(_fresh(code, json.dumps(sources))) == []

    def test_submodule_named_exports_are_the_functions(self):
        import repro.machine.archer2  # noqa: F401 - the submodule first
        import repro.statevector.fidelity  # noqa: F401
        from repro.machine import archer2
        from repro.statevector import fidelity

        assert callable(archer2) and archer2.__name__ == "archer2"
        assert callable(fidelity) and fidelity.__name__ == "fidelity"


class TestImportCost:
    def test_import_repro_loads_no_submodule_and_no_numpy(self):
        loaded = json.loads(
            _fresh(
                "import json, sys, repro; "
                "print(json.dumps(sorted(m for m in sys.modules "
                "if m.startswith(('repro', 'numpy')))))"
            )
        )
        assert loaded == ["repro"]

    def test_forkserver_preload_leaves_the_model_layers_out(self):
        loaded = set(
            json.loads(
                _fresh(
                    "import json, sys\n"
                    "import repro.parallel.pool, repro.parallel.stepper, "
                    "repro.parallel.tcp\n"
                    "print(json.dumps(sorted(sys.modules)))"
                )
            )
        )
        unwanted = ("repro.perfmodel", "repro.des", "repro.tune", "repro.core")
        assert not [m for m in loaded if m.startswith(unwanted)]
        assert "repro.faults.inject" not in loaded
