"""Every ``REPRO_*`` environment variable, declared once.

A :class:`Setting` names a variable, its parser, its default and a
one-line doc.  :func:`get` reads the environment on every call, after
any :func:`overridden` scope (so CLI flags never write ``os.environ``),
and memoizes the parse on the raw string, so a hot-path read is a dict
lookup.  A bad value raises one ``ValidationError`` line that starts
with the variable or its flag, ``<VARIABLE> <reason>; got <value>``,
when first used or from :func:`validate` -- never at import.  Only the
standard library and :mod:`repro.errors` are imported here; the fusion
and host-list parsers are imported on first use.  :func:`table` is the
table kept in ``docs/TUTORIAL.md``.
"""

from __future__ import annotations

import importlib
import os
from collections.abc import Callable, Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ValidationError

__all__ = [
    "Setting",
    "SETTINGS",
    "get",
    "validate",
    "snapshot",
    "overridden",
    "add_flags",
    "flags_applied",
    "table",
]


class _Invalid(Exception):
    """A rejected value; ``args[0]``, if given, is the reason."""


@dataclass(frozen=True)
class Setting:
    """One variable.  ``convert`` maps a raw string to its value or
    raises :class:`_Invalid` (a ``ValidationError`` if it lives
    elsewhere).  An unset variable, or a blank one where
    ``blank_is_default``, yields the parsed ``default``, or ``None``
    when the resolver falls back itself (as ``doc`` says)."""

    name: str
    default: str | None
    accepted: str
    doc: str
    convert: Callable[[str], Any] = field(repr=False)
    choices: tuple[str, ...] = ()
    flag: str | None = None  # the CLI flag that overrides the variable
    blank_is_default: bool = True
    secret: bool = False  # never in an error, the table or a snapshot

    def error(self, raw, label=None, reason=None) -> ValidationError:
        """The one-line error for a bad ``raw`` from ``label``."""
        shown = "<hidden>" if self.secret else repr(raw)
        reason = reason or f"must be {self.accepted}"
        return ValidationError(f"{label or self.name} {reason}; got {shown}")

    def parse(self, raw: str, label: str | None = None) -> Any:
        """Convert ``raw`` (from ``label``, default the variable)."""
        try:
            return self.convert(raw)
        except _Invalid as exc:
            raise self.error(raw, label, *exc.args) from None
        except ValidationError as exc:  # from a parser that lives elsewhere
            raise ValidationError(f"{label or self.name} is invalid: {exc}") from None


def _number(kind: type, ok: Callable[[Any], bool]) -> Callable[[str], Any]:
    def convert(raw: str):
        try:
            value = kind(raw)
        except ValueError:
            raise _Invalid from None
        if not ok(value):  # a nan fails every comparison
            raise _Invalid
        return value

    return convert


def _cache_dir(raw: str) -> str:
    if os.path.isfile(raw):
        raise _Invalid("path exists and is a regular file")
    return raw


def _address(raw: str) -> tuple[str, int]:
    """``host[:port]`` to ``(host, port)``; no port is 0, an empty host
    is the caller's default.  Also parses every ``REPRO_POOL_HOSTS``
    entry and the remote worker's ``--connect``/``--bind``."""
    host, _, port = raw.strip().partition(":")
    try:
        number = int(port) if port else 0
    except ValueError:
        raise _Invalid("port must be an integer") from None
    if not 0 <= number < 65536:
        raise _Invalid("port must be in range [0, 65535]")
    return host.strip(), number


def _elsewhere(module: str, name: str) -> Callable[[str], Any]:
    return lambda raw: getattr(importlib.import_module(module), name)(raw)


def _choice(name, noun, choices, default, doc, flag=None) -> Setting:
    accepted = "one of " + ", ".join(choices)

    def convert(raw: str) -> str:
        if raw.strip().lower() not in choices:
            raise _Invalid(f"names an unknown {noun}; expected {accepted}")
        return raw.strip().lower()

    return Setting(name, default, accepted, doc, convert, choices, flag)


EXECUTOR = _choice(
    "REPRO_EXECUTOR", "executor", ("serial", "pool"), "serial",
    "Executor of new distributed statevectors; `pool` without a "
    "transport falls back to serial.",
)
KERNELS = _choice(
    "REPRO_KERNELS", "kernel backend", ("native", "strided", "reference"),
    "native",
    "Gate-kernel backend, read once per process; `native` runs as "
    "`strided` where `cc` cannot build it.",
)
FUSION = Setting(
    "REPRO_FUSION", "diag", "off, diag, full or full:k with 2 <= k <= 6",
    "Gate-fusion mode of newly compiled plans.",
    _elsewhere("repro.statevector.fusion", "parse_fusion"), flag="--fusion",
)
TRANSPILE = _choice(
    "REPRO_TRANSPILE", "transpile strategy", ("naive", "blocked", "grouped"),
    None, "Transpile strategy when the caller names none.", "--transpile",
)
SHOTS = Setting(
    "REPRO_SHOTS", None, "an integer number of shots >= 0",
    "Shot count of sampling-aware runs; unset, the caller's (mostly 0).",
    _number(int, lambda v: v >= 0), flag="--shots",
)
CACHE_DIR = Setting(
    "REPRO_CACHE_DIR", None, "a directory path, created if missing",
    "Root of the on-disk prediction cache; unset, no cache.",
    _cache_dir, flag="--cache",
)
OBS = Setting(
    "REPRO_OBS", "0", "any string; `1` enables",
    "Span tracing from process start.", lambda raw: raw == "1",
)
POOL_WORKERS = Setting(
    "REPRO_POOL_WORKERS", None, "an integer >= 1",
    "Shared-memory pool size; unset, one per core within [2, 8].",
    _number(int, lambda v: v >= 1), blank_is_default=False,
)
POOL_HOSTS = Setting(
    "REPRO_POOL_HOSTS", None, "comma-separated host[:port] entries",
    "TCP pool workers, one per entry; set, the pool uses TCP.",
    _elsewhere("repro.parallel.tcp", "parse_hosts"),
)
POOL_BIND = Setting(
    "REPRO_POOL_BIND", "127.0.0.1:0", "host[:port], port in [0, 65535]",
    "TCP coordinator listen address; an empty host is 127.0.0.1.", _address,
)
POOL_TOKEN = Setting(
    "REPRO_POOL_TOKEN", None, "any string",
    "TCP pool shared secret; needed for remote hosts, else minted.",
    str, secret=True,
)
POOL_CHUNK_AMPS = Setting(
    "REPRO_POOL_CHUNK_AMPS", "32768", "an integer >= 1",
    "Amplitudes per TCP exchange frame.",
    _number(int, lambda v: v >= 1), blank_is_default=False,
)
POOL_CHECKPOINT_STEPS = Setting(
    "REPRO_POOL_CHECKPOINT_STEPS", None, "an integer >= 0",
    "TCP checkpoint cadence in steps (0: none); unset, 4 per plan.",
    _number(int, lambda v: v >= 0), blank_is_default=False,
)
POOL_STALL_TIMEOUT = Setting(
    "REPRO_POOL_STALL_TIMEOUT", None, "a number of seconds > 0",
    "Idle seconds before a stuck TCP exchange raises; unset, 300.",
    _number(float, lambda v: v > 0), blank_is_default=False,
)

#: Every declaration above, in order: documented, validated, shipped.
SETTINGS: tuple[Setting, ...] = tuple(
    value for value in list(globals().values()) if isinstance(value, Setting)
)

#: Internal, so not in SETTINGS: the pools set it in their workers, so
#: nested code never re-enters a pool.
IN_WORKER = Setting(
    "_REPRO_POOL_WORKER", "0", "`1` in a pool worker", "", lambda raw: raw == "1"
)

#: name -> (raw value or None for unset, error label) in this scope.
_scope: ContextVar[Mapping[str, tuple]] = ContextVar("repro_settings", default={})
_parsed: dict[tuple[str, str], Any] = {}


def get(setting: Setting) -> Any:
    """The value of ``setting``: an :func:`overridden` one, else the
    environment's, else the parsed default (``None`` if it has none)."""
    raw, label = _scope.get().get(setting.name) or (os.environ.get(setting.name), None)
    if raw is None or (setting.blank_is_default and not raw.strip()):
        if setting.default is None:
            return None
        raw = setting.default
    try:
        return _parsed[setting.name, raw]
    except KeyError:
        value = _parsed[setting.name, raw] = setting.parse(raw, label)
        return value


def validate() -> None:
    """Parse every variable now; the first bad one raises."""
    for setting in SETTINGS:
        get(setting)


def snapshot() -> dict[str, str | None]:
    """Each non-secret raw value as this process sees it: the
    pools ship it with every command, so a running worker sees it."""
    scope = _scope.get()
    return {
        s.name: scope[s.name][0] if s.name in scope else os.environ.get(s.name)
        for s in SETTINGS
        if not s.secret
    }


@contextmanager
def overridden(values: Mapping[str, str | None], labels: Mapping[str, str] | None = None):
    """A scope (local to its thread) in which ``values`` -- variable
    name to raw string, ``None`` for unset -- replace the environment.
    ``os.environ`` is never written.  An error names the variable, or
    its ``labels`` entry (a CLI flag)."""
    labels = labels or {}
    token = _scope.set(
        {**_scope.get(), **{n: (raw, labels.get(n)) for n, raw in values.items()}}
    )
    try:
        yield
    finally:
        _scope.reset(token)


def add_flags(parser, *chosen: Setting) -> None:
    """Add to an ``argparse`` parser the flag of each setting."""
    for s in chosen:
        parser.add_argument(
            s.flag, metavar=s.flag[2:].upper(),
            help=f"{s.doc} Overrides {s.name} ({s.accepted}).",
        )


def flags_applied(args, *chosen: Setting):
    """The :func:`overridden` scope of the flags :func:`add_flags` added."""
    given = {s.name: getattr(args, s.flag[2:]) for s in chosen}
    return overridden(
        {name: raw for name, raw in given.items() if raw},
        {s.name: s.flag for s in chosen},
    )


def table() -> str:
    """The Markdown table of every variable."""
    rows = [
        "| Variable | Default | Accepted values | Meaning |",
        "|---|---|---|---|",
    ]
    for s in SETTINGS:
        default = "unset" if s.default is None else f"`{s.default}`"
        rows.append(f"| `{s.name}` | {default} | {s.accepted} | {s.doc} |")
    return "\n".join(rows) + "\n"

