"""Native C kernels for the SINGLE and DIAGONAL step classes, for runs
of them, for the per-rank updates of distributed steps, and for the
same updates on both slices of a rank pair at once.

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

An :class:`OpTable` is the packed form of a distributed plan's local
SINGLE and DIAGONAL steps that ``repro_run`` reads: one row of
:data:`OP_WORDS` words per plan step, a byte per target and one
coefficient array.  It is checked when it is built, and ``repro_run``
checks every row of a run again before it touches a slice.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from dataclasses import dataclass, field
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
    "apply_run",
    "apply_combine",
    "apply_swap_halves",
    "apply_pair",
    "apply_swap_pair",
    "OpTable",
    "OP_WORDS",
    "OP_SINGLE",
    "OP_DIAGONAL",
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

#: Words of one op-table row, and the row's fields in order (the
#: ``OP_*`` enum of ``native_kernels.c``).
OP_WORDS = 6
OP_KIND, OP_K, OP_CMASK, OP_RCMASK, OP_TARGETS, OP_COEFFS = range(OP_WORDS)

#: Op kinds; 0 marks a step that is not a local SINGLE or DIAGONAL.
OP_SINGLE = 1
OP_DIAGONAL = 2

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
    lib.repro_run.argtypes = (ptr, u64, u64, u64, ptr, u64, u64, ptr, u64, ptr, u64)
    lib.repro_combine.argtypes = (ptr, ptr, u64, u64, ptr)
    lib.repro_swap_halves.argtypes = (ptr, ptr, u64, u64, u64)
    lib.repro_pair.argtypes = (ptr, ptr, u64, u64, ptr)
    lib.repro_swap_pair.argtypes = (ptr, ptr, u64, u64)
    for fn in (
        lib.repro_single,
        lib.repro_diagonal,
        lib.repro_run,
        lib.repro_combine,
        lib.repro_swap_halves,
        lib.repro_pair,
        lib.repro_swap_pair,
    ):
        fn.restype = ctypes.c_int
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


def apply_combine(
    lib: ctypes.CDLL,
    local: np.ndarray,
    remote: np.ndarray,
    coeffs: tuple[complex, complex],
    cmask: int,
) -> None:
    """``local = coeffs[0]*local + coeffs[1]*remote`` where the index has
    every ``cmask`` bit set.  The caller has checked that both arrays
    :func:`fits`, have one length and do not overlap."""
    c = np.array(coeffs, dtype=np.complex128)
    if lib.repro_combine(
        _address(local), _address(remote), local.shape[0], cmask, _address(c)
    ):
        raise SimulationError("native combine kernel rejected its arguments")


def apply_swap_halves(
    lib: ctypes.CDLL,
    local: np.ndarray,
    remote: np.ndarray,
    nbits: int,
    local_bit: int,
    my_bit_value: int,
) -> None:
    """The half of ``local`` whose ``local_bit`` is ``1 - my_bit_value``
    takes ``remote``'s other half.  Same caller checks as
    :func:`apply_combine`."""
    if lib.repro_swap_halves(
        _address(local), _address(remote), nbits, local_bit, my_bit_value
    ):
        raise SimulationError("native swap-halves kernel rejected its arguments")


def apply_pair(
    lib: ctypes.CDLL,
    lo: np.ndarray,
    hi: np.ndarray,
    matrix: np.ndarray,
    cmask: int,
) -> None:
    """The 2x2 ``matrix`` on the amplitude pairs ``(lo[j], hi[j])`` whose
    index has every ``cmask`` bit set.  Same caller checks as
    :func:`apply_combine`."""
    m = np.ascontiguousarray(matrix, dtype=np.complex128)
    if m.shape != (2, 2):
        raise SimulationError(f"matrix shape {m.shape} does not match 1 target")
    if lib.repro_pair(_address(lo), _address(hi), lo.shape[0], cmask, _address(m)):
        raise SimulationError("native pair kernel rejected its arguments")


def apply_swap_pair(
    lib: ctypes.CDLL, lo: np.ndarray, hi: np.ndarray, nbits: int, local_bit: int
) -> None:
    """``lo``'s half whose ``local_bit`` is 1 trades places with ``hi``'s
    half whose ``local_bit`` is 0.  Same caller checks as
    :func:`apply_combine`."""
    if lib.repro_swap_pair(_address(lo), _address(hi), nbits, local_bit):
        raise SimulationError("native pair-swap kernel rejected its arguments")


def _readonly(array: np.ndarray, dtype, ndim: int, name: str) -> np.ndarray:
    out = np.array(array, dtype=dtype, copy=True, order="C")
    if out.ndim != ndim:
        raise SimulationError(f"op table {name} must be {ndim}-D, got {out.ndim}-D")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class OpTable:
    """A distributed plan's local SINGLE and DIAGONAL steps, packed for
    ``repro_run``.

    Row ``i`` of ``ops`` describes plan step ``i``; its words are
    ``(kind, k, cmask, rcmask, target offset, coefficient offset)``.
    ``kind`` is :data:`OP_SINGLE`, :data:`OP_DIAGONAL` or 0 (the step
    is not in the table).  The ``k`` targets are
    ``targets[offset:offset + k]``, as qubits of the whole register, so
    a diagonal may have targets among the rank bits (at and above
    ``local_qubits``).  ``cmask`` holds the local controls as slice-index
    bits, ``rcmask`` the others as rank-index bits.  The coefficients
    are a row-major 2x2 matrix (4 entries) or a diagonal of ``2**k``
    entries, first target least significant.

    Nothing in it depends on a rank, so one table serves every rank and
    every worker.  Construction checks every row and raises
    :class:`~repro.errors.SimulationError` on a bit outside the slice
    or the register, a table that does not match its targets, or an
    offset outside its array.
    """

    num_qubits: int
    local_qubits: int
    ops: np.ndarray
    targets: np.ndarray
    coeffs: np.ndarray
    #: ``run_ends[i]``: the end of the run of consecutive table steps
    #: starting at ``i`` (``i`` itself when step ``i`` is not in it).
    run_ends: tuple[int, ...] = field(init=False, repr=False)
    #: The same for the steps ``repro_run`` takes (a diagonal with more
    #: than :data:`MAX_DIAG_TARGETS` local targets runs on its own).
    c_ends: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ops = _readonly(self.ops, np.uint64, 2, "ops")
        targets = _readonly(self.targets, np.uint8, 1, "targets")
        coeffs = _readonly(self.coeffs, np.complex128, 1, "coeffs")
        n, m = self.num_qubits, self.local_qubits
        if not 0 <= m <= n <= 62:
            raise SimulationError(f"op table for {m} of {n} qubits is not a partition")
        if ops.shape[1:] != (OP_WORDS,):
            raise SimulationError(f"op table rows must hold {OP_WORDS} words")
        in_c = []
        for i, row in enumerate(ops.tolist()):
            in_c.append(self._check_row(i, row, targets, coeffs.shape[0]))
        run_ends, c_ends = [0] * len(in_c), [0] * len(in_c)
        run_end = c_end = len(in_c)
        for i in range(len(in_c) - 1, -1, -1):
            run_end = run_end if ops[i, OP_KIND] else i
            c_end = c_end if in_c[i] else i
            run_ends[i], c_ends[i] = run_end, c_end
        for name, value in (
            ("ops", ops),
            ("targets", targets),
            ("coeffs", coeffs),
            ("run_ends", tuple(run_ends)),
            ("c_ends", tuple(c_ends)),
        ):
            object.__setattr__(self, name, value)

    def _check_row(self, i: int, row, targets: np.ndarray, ncoeffs: int) -> bool:
        """Check row ``i``; whether ``repro_run`` takes it."""
        kind, k, cmask, rcmask, toff, coff = row
        if kind == 0:
            return False
        n, m = self.num_qubits, self.local_qubits
        where = f"op table row {i}"
        if kind not in (OP_SINGLE, OP_DIAGONAL):
            raise SimulationError(f"{where}: unknown op kind {kind}")
        if toff + k > targets.shape[0]:
            raise SimulationError(f"{where}: targets run past the target array")
        bits = targets[toff : toff + k].tolist()
        if kind == OP_SINGLE and (k != 1 or bits[0] >= m):
            raise SimulationError(f"{where}: a SINGLE takes one local target")
        if any(b >= n for b in bits) or len(set(bits)) != k:
            raise SimulationError(f"{where}: targets {bits} are not distinct qubits")
        if cmask >> m or rcmask >> (n - m):
            raise SimulationError(f"{where}: a control bit lies outside the register")
        if any(b < m and (cmask >> b) & 1 for b in bits):
            raise SimulationError(f"{where}: targets and controls overlap")
        if coff + (4 if kind == OP_SINGLE else 1 << k) > ncoeffs:
            raise SimulationError(f"{where}: coefficients run past the coefficient array")
        return kind == OP_SINGLE or sum(b < m for b in bits) <= MAX_DIAG_TARGETS

    def __getstate__(self) -> dict:
        # The addresses are this process's; a copy computes its own.
        return {k: v for k, v in self.__dict__.items() if k != "_addresses"}

    def __setstate__(self, state: dict) -> None:
        for name in ("ops", "targets", "coeffs"):
            state[name].flags.writeable = False
        self.__dict__.update(state)

    def addresses(self) -> tuple[int, int, int]:
        """Addresses of ``ops``, ``targets`` and ``coeffs`` (read-only,
        kept alive by the table)."""
        found = self.__dict__.get("_addresses")
        if found is None:
            found = tuple(_address(a) for a in (self.ops, self.targets, self.coeffs))
            self.__dict__["_addresses"] = found
        return found


def apply_run(
    lib: ctypes.CDLL,
    amps: np.ndarray,
    table: OpTable,
    lo: int,
    hi: int,
    rank: int,
) -> None:
    """Rows ``lo .. hi - 1`` of ``table``, in order, on rank ``rank``'s
    slice, in one C call.  The caller has checked that ``amps``
    :func:`fits` and holds ``2**table.local_qubits`` amplitudes, and
    that ``rank`` is a rank of the register."""
    ops, targets, coeffs = table.addresses()
    m = table.local_qubits
    if lib.repro_run(
        _address(amps),
        m,
        table.num_qubits - m,
        rank,
        ops,
        lo,
        hi,
        targets,
        table.targets.shape[0],
        coeffs,
        table.coeffs.shape[0],
    ):
        raise SimulationError("native run kernel rejected its op table rows")
