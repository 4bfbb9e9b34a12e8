"""Native C kernels for the SINGLE and DIAGONAL step classes.

``native_kernels.c`` ships next to this module.  The first kernel call
of a process (never an import) builds it with the host's ``cc`` into a
per-user cache, loads it through :mod:`ctypes` and keeps it for the
life of the process; :func:`library` returns it, or ``None`` after one
warning line on stderr when there is no compiler or the build or load
fails (the kernels then run on ``strided``).

The cache is ``${XDG_CACHE_HOME:-~/.cache}/repro/kernels/`` (mode
0700).  A library's file name is a SHA-256 of the C source, the
compiler's path and ``--version``, the flags and the CPU's flag set, so
a home directory shared between hosts never loads a ``-march=native``
build made for another CPU.  A build is published with ``os.replace``
from a temporary file, so processes racing on a cold cache each load a
complete library.  A library or cache directory not owned by this
user, or writable by group or others, is refused.

:func:`fits` is the one place that decides whether an array may be
handed to C: a contiguous, aligned, writable 1-D complex128 array.
Bits and table sizes are checked before every call, so the C code
never indexes outside the buffers it is given.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from pathlib import Path

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "SOURCE",
    "FLAGS",
    "MAX_DIAG_TARGETS",
    "library",
    "failure",
    "fits",
    "apply_single",
    "apply_diagonal",
]

#: The C source, shipped as package data.
SOURCE = Path(__file__).with_name("native_kernels.c")

#: Build flags.  ``-ffp-contract=off`` keeps every product and sum
#: rounding as written (no fused multiply-add), so results do not
#: depend on what ``-march=native`` vectorises to.
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")

#: Widest diagonal the C kernel accepts; equals ``MAX_FUSED_QUBITS``,
#: the widest one diagonal fusion emits.
MAX_DIAG_TARGETS = 10

_BUILD_TIMEOUT_S = 120

# subprocess, hashlib, tempfile and platform are imported by the
# functions that build, so importing this module costs nothing to a
# process that never calls a kernel.


class _Unavailable(Exception):
    """Why the library cannot be used on this host."""


def _compiler() -> str | None:
    """Path of the C compiler, or ``None`` when there is none."""
    import shutil

    return shutil.which("cc")


def cache_dir() -> Path:
    """``${XDG_CACHE_HOME:-~/.cache}/repro/kernels``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro" / "kernels"


def _cpu_flags() -> str:
    """The CPU's feature flags, as ``/proc/cpuinfo`` lists them."""
    import platform

    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return " ".join(sorted(line.partition(":")[2].split()))
    except OSError:
        pass
    return platform.processor()


def build_key(compiler: str) -> str:
    """SHA-256 naming the library ``compiler`` builds on this CPU."""
    import hashlib
    import platform
    import subprocess

    try:
        version = subprocess.run(
            [compiler, "--version"],
            capture_output=True,
            text=True,
            timeout=_BUILD_TIMEOUT_S,
            check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        raise _Unavailable(f"{compiler} --version failed: {exc}") from None
    digest = hashlib.sha256()
    for part in (
        SOURCE.read_bytes(),
        compiler.encode(),
        version.encode(),
        " ".join(FLAGS).encode(),
        platform.machine().encode(),
        _cpu_flags().encode(),
    ):
        digest.update(len(part).to_bytes(8, "big") + part)
    return digest.hexdigest()


def _check_private(path: Path) -> None:
    """Refuse ``path`` unless this user owns it and only they may write it."""
    st = os.stat(path)
    if st.st_uid != os.getuid():
        raise _Unavailable(f"{path} is not owned by uid {os.getuid()}")
    if st.st_mode & 0o022:
        raise _Unavailable(f"{path} is group- or world-writable")


def _build(compiler: str, target: Path) -> None:
    """Compile into a temporary file beside ``target``, then publish it."""
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        try:
            proc = subprocess.run(
                [compiler, *FLAGS, "-o", tmp, str(SOURCE)],
                capture_output=True,
                text=True,
                timeout=_BUILD_TIMEOUT_S,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise _Unavailable(f"{compiler} failed to run: {exc}") from None
        if proc.returncode != 0:
            first = (proc.stderr.strip().splitlines() or ["no output"])[0]
            raise _Unavailable(f"{compiler} exited {proc.returncode}: {first}")
        os.chmod(tmp, 0o700)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load() -> ctypes.CDLL:
    compiler = _compiler()
    if compiler is None:
        raise _Unavailable("no C compiler (cc) on PATH")
    directory = cache_dir()
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        _check_private(directory)
        path = directory / f"repro-kernels-{build_key(compiler)}.so"
        if not path.exists():
            _build(compiler, path)
        _check_private(path)
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise _Unavailable(str(exc)) from None
    u64, ptr = ctypes.c_uint64, ctypes.c_void_p
    lib.repro_single.argtypes = (ptr, u64, u64, u64, ptr)
    lib.repro_diagonal.argtypes = (ptr, u64, u64, u64, u64, ptr)
    lib.repro_single.restype = lib.repro_diagonal.restype = ctypes.c_int
    return lib


class _Loader:
    """The process's one attempt to build and load the library."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.done = False
        self.lib: ctypes.CDLL | None = None
        self.failure: str | None = None

    def get(self) -> ctypes.CDLL | None:
        if not self.done:
            with self.lock:
                if not self.done:
                    try:
                        self.lib = _load()
                    except _Unavailable as exc:
                        self.failure = str(exc)
                        sys.stderr.write(
                            f"repro: warning: native kernels unavailable "
                            f"({self.failure}); using strided\n"
                        )
                    self.done = True
        return self.lib


_loader = _Loader()


def library() -> ctypes.CDLL | None:
    """The loaded kernels, built on first call; ``None`` if unavailable."""
    return _loader.get()


def failure() -> str | None:
    """Why :func:`library` returned ``None`` (``None`` if it did not)."""
    return _loader.failure


def fits(amps: np.ndarray) -> bool:
    """Whether ``amps`` can be handed to C: contiguous, aligned,
    writable, 1-D complex128."""
    flags = amps.flags
    return (
        amps.dtype == np.complex128
        and amps.ndim == 1
        and flags.c_contiguous
        and flags.aligned
        and flags.writeable
    )


def _address(array: np.ndarray) -> int:
    """The address of ``array``'s first byte (the caller keeps ``array``
    alive).  ``from_buffer`` is several times faster than
    ``__array_interface__`` but takes only writable buffers."""
    if array.flags.writeable:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    return array.__array_interface__["data"][0]


def _mask(bits: tuple[int, ...]) -> int:
    mask = 0
    for b in bits:
        mask |= 1 << b
    return mask


def apply_single(
    lib: ctypes.CDLL,
    amps: np.ndarray,
    nbits: int,
    matrix: np.ndarray,
    target: int,
    controls: tuple[int, ...],
) -> None:
    """The 2x2 ``matrix`` on ``target``, where every control bit is 1.

    The caller has checked that ``amps`` :func:`fits` and that every
    bit is distinct and below ``nbits``.
    """
    m = np.ascontiguousarray(matrix, dtype=np.complex128)
    if m.shape != (2, 2):
        raise SimulationError(f"matrix shape {m.shape} does not match 1 target")
    if lib.repro_single(_address(amps), nbits, target, _mask(controls), _address(m)):
        raise SimulationError("native single-qubit kernel rejected its arguments")


def apply_diagonal(
    lib: ctypes.CDLL,
    amps: np.ndarray,
    nbits: int,
    diag: np.ndarray,
    targets: tuple[int, ...],
    controls: tuple[int, ...],
) -> None:
    """Multiply by ``diag`` over ``targets`` (at most
    :data:`MAX_DIAG_TARGETS`), where every control bit is 1.  Same
    caller checks as :func:`apply_single`."""
    d = np.ascontiguousarray(diag, dtype=np.complex128)
    if d.shape != (1 << len(targets),):
        raise SimulationError(
            f"diagonal of shape {d.shape} does not match {len(targets)} target(s)"
        )
    packed = 0
    for j, t in enumerate(targets):
        packed |= t << (6 * j)
    if lib.repro_diagonal(
        _address(amps), nbits, packed, len(targets), _mask(controls), _address(d)
    ):
        raise SimulationError("native diagonal kernel rejected its arguments")
