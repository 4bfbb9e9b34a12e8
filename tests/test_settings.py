"""The settings table: every ``REPRO_*`` variable declared and parsed once.

Pins each variable's name, default and accepted values; feeds every
variable garbage (one-line ``ValidationError`` in process, exit 2 with
one stderr line from each CLI); checks that overrides are scoped and
never write ``os.environ``, that the token is never shown, and that the
table in ``docs/TUTORIAL.md`` is the generated one.

Nothing here builds a pool or starts a process: the CLIs are only run
with a value the settings reject, so they stop at validation.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import settings as hsettings
from hypothesis import strategies as st

from repro import settings
from repro.errors import ValidationError
from repro.experiments.cli import main as experiments_main
from repro.parallel.cache import CACHE_DIR_ENV, active_cache
from repro.parallel.tcp import HostSpec
from repro.parallel.tcp import main as tcp_main
from repro.statevector.fusion import parse_fusion
from repro.statevector.sampling import resolve_shots
from repro.transpile import resolve_strategy
from repro.tune.cli import main as tune_main

DOCS = Path(__file__).resolve().parents[1] / "docs" / "TUTORIAL.md"
TABLE_BEGIN = "<!-- settings table: generated by repro.settings.table() -->"
TABLE_END = "<!-- end of settings table -->"

#: name -> (default, {raw: parsed}, [rejected raws]), as at the commit
#: that introduced the table: it may grow no variable, change no
#: default and drop no accepted value.
PINNED = {
    "REPRO_EXECUTOR": (
        "serial",
        {"serial": "serial", "pool": "pool", " Pool ": "pool", "": "serial"},
        ["gpu", "threads"],
    ),
    "REPRO_KERNELS": (
        "strided",
        {"strided": "strided", " REFERENCE ": "reference", "": "strided"},
        ["bogus"],
    ),
    "REPRO_FUSION": (
        "diag",
        {
            raw: parse_fusion(raw or "diag")
            for raw in ("off", "diag", "full", "full:2", "full:6", " FULL:3 ", "")
        },
        ["bogus", "full:1", "full:7", "full:x", "diag:3", "off:2"],
    ),
    "REPRO_TRANSPILE": (
        None,
        {"naive": "naive", "blocked": "blocked", " Grouped ": "grouped", "": None},
        ["bogus"],
    ),
    "REPRO_SHOTS": (
        None,
        {"0": 0, "1024": 1024, " 12 ": 12, "": None, "  ": None},
        ["many", "-1", "1.5"],
    ),
    "REPRO_CACHE_DIR": (None, {"cache-dir": "cache-dir", "": None}, ["<file>"]),
    "REPRO_OBS": ("0", {"1": True, "0": False, "yes": False, " 1": False}, []),
    "REPRO_POOL_WORKERS": (None, {"1": 1, "5": 5}, ["0", "-2", "zero", ""]),
    "REPRO_POOL_HOSTS": (
        None,
        {
            "127.0.0.1:0,127.0.0.1:0": (HostSpec("127.0.0.1", 0),) * 2,
            "a:1, b:2": (HostSpec("a", 1), HostSpec("b", 2)),
            "local": (HostSpec("local", 0),),
            "": None,
        },
        ["host:notaport", "host:70000", ","],
    ),
    "REPRO_POOL_BIND": (
        "127.0.0.1:0",
        {
            "0.0.0.0:7000": ("0.0.0.0", 7000),
            ":5": ("", 5),
            "hostA": ("hostA", 0),
            "": ("127.0.0.1", 0),
        },
        ["host:x"],
    ),
    "REPRO_POOL_TOKEN": (None, {"s3cret": "s3cret", "": None}, []),
    "REPRO_POOL_CHUNK_AMPS": ("32768", {"4": 4, "32768": 32768}, ["0", "x", ""]),
    "REPRO_POOL_CHECKPOINT_STEPS": (None, {"0": 0, "3": 3}, ["-1", "x", ""]),
    "REPRO_POOL_STALL_TIMEOUT": (
        None,
        {"1.5": 1.5, "45": 45.0, "inf": float("inf")},
        ["abc", "", "-3", "0", "nan"],
    ),
}

#: Every public ``*_ENV`` constant, importable where it always was.
ENV_CONSTANTS = [
    ("repro.obs", "OBS_ENV", "REPRO_OBS"),
    ("repro.obs.core", "OBS_ENV", "REPRO_OBS"),
    ("repro.parallel", "EXECUTOR_ENV", "REPRO_EXECUTOR"),
    ("repro.parallel", "POOL_HOSTS_ENV", "REPRO_POOL_HOSTS"),
    ("repro.parallel", "POOL_WORKERS_ENV", "REPRO_POOL_WORKERS"),
    ("repro.parallel.pool", "POOL_WORKERS_ENV", "REPRO_POOL_WORKERS"),
    ("repro.parallel.pool", "_IN_WORKER_ENV", "_REPRO_POOL_WORKER"),
    ("repro.parallel.cache", "CACHE_DIR_ENV", "REPRO_CACHE_DIR"),
    ("repro.parallel.tcp", "POOL_HOSTS_ENV", "REPRO_POOL_HOSTS"),
    ("repro.parallel.tcp", "POOL_BIND_ENV", "REPRO_POOL_BIND"),
    ("repro.parallel.tcp", "POOL_TOKEN_ENV", "REPRO_POOL_TOKEN"),
    ("repro.parallel.tcp", "CHUNK_AMPS_ENV", "REPRO_POOL_CHUNK_AMPS"),
    ("repro.parallel.tcp", "CHECKPOINT_STEPS_ENV", "REPRO_POOL_CHECKPOINT_STEPS"),
    ("repro.parallel.tcp", "STALL_TIMEOUT_ENV", "REPRO_POOL_STALL_TIMEOUT"),
    ("repro.statevector.fusion", "FUSION_ENV", "REPRO_FUSION"),
    ("repro.statevector.sampling", "SHOTS_ENV", "REPRO_SHOTS"),
    ("repro.transpile", "TRANSPILE_ENV", "REPRO_TRANSPILE"),
]

#: Each CLI, with arguments that would run if the settings were good.
CLIS = {
    "repro-experiments": (experiments_main, ["--list"]),
    "repro-tune": (tune_main, ["qft-8"]),
    "python -m repro.parallel.tcp": (
        tcp_main,
        ["--connect", "127.0.0.1:1", "--worker-id", "0", "--token", "t"],
    ),
}


def _stderr_lines(main, argv) -> tuple[int, list[str]]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue().splitlines()


def _assert_clis_reject(name: str) -> None:
    for cli, (main, argv) in CLIS.items():
        code, lines = _stderr_lines(main, argv)
        assert code == 2, cli
        assert len(lines) == 1 and lines[0].startswith("error: "), (cli, lines)
        assert name in lines[0], (cli, lines)


# -- the table is pinned ------------------------------------------------------


def test_names_and_defaults_pinned():
    assert {s.name: s.default for s in settings.SETTINGS} == {
        name: default for name, (default, _, _) in PINNED.items()
    }
    assert settings.IN_WORKER not in settings.SETTINGS  # internal


@pytest.mark.parametrize("module, attr, name", ENV_CONSTANTS)
def test_env_constants_importable(module, attr, name):
    assert getattr(importlib.import_module(module), attr) == name


@pytest.mark.parametrize("setting", settings.SETTINGS, ids=lambda s: s.name)
def test_accepted_values_pinned(setting, tmp_path, monkeypatch):
    _, accepted, _ = PINNED[setting.name]
    for raw, expected in accepted.items():
        if setting is settings.CACHE_DIR and raw:
            raw = expected = str(tmp_path / raw)
        monkeypatch.setenv(setting.name, raw)
        assert settings.get(setting) == expected, raw
    monkeypatch.delenv(setting.name)
    default = setting.default
    assert settings.get(setting) == (None if default is None else setting.parse(default))


@pytest.mark.parametrize("setting", settings.SETTINGS, ids=lambda s: s.name)
def test_rejected_values_pinned(setting, tmp_path, monkeypatch):
    _, _, rejected = PINNED[setting.name]
    for raw in rejected:
        if raw == "<file>":
            raw = str(tmp_path / "a-file")
            Path(raw).write_text("occupied")
        monkeypatch.setenv(setting.name, raw)
        with pytest.raises(ValidationError) as info:
            settings.get(setting)
        message = str(info.value)
        assert message.startswith(f"{setting.name} ") and "\n" not in message
        _assert_clis_reject(setting.name)


# -- garbage ------------------------------------------------------------------

env_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=12,
)


@pytest.mark.parametrize("setting", settings.SETTINGS, ids=lambda s: s.name)
@given(raw=env_text)
@hsettings(max_examples=25, deadline=None)
def test_garbage_is_a_one_line_error(setting, raw):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(setting.name, raw)
        try:
            settings.get(setting)
        except ValidationError as exc:
            message = str(exc)
        else:
            return  # an accepted value; validation has nothing to say
        assert message.startswith(f"{setting.name} ") and "\n" not in message
        _assert_clis_reject(setting.name)


# -- overrides ----------------------------------------------------------------


def test_overrides_are_scoped_and_never_write_environ(monkeypatch):
    monkeypatch.setenv("REPRO_SHOTS", "7")
    monkeypatch.delenv("REPRO_TRANSPILE", raising=False)
    environ = dict(os.environ)
    with settings.overridden({"REPRO_SHOTS": "256", "REPRO_TRANSPILE": "naive"}):
        assert (resolve_shots(), resolve_strategy()) == (256, "naive")
        with settings.overridden({"REPRO_SHOTS": None}):
            assert resolve_shots() == 0  # None masks the variable
        assert resolve_shots() == 256
        assert dict(os.environ) == environ
    assert (resolve_shots(), resolve_strategy()) == (7, None)


def test_flag_overrides_report_the_flag():
    import argparse

    parser = argparse.ArgumentParser()
    settings.add_flags(parser, settings.SHOTS, settings.CACHE_DIR)
    args = parser.parse_args(["--shots", "-2"])
    with settings.flags_applied(args, settings.SHOTS, settings.CACHE_DIR):
        with pytest.raises(ValidationError, match=r"^--shots must be"):
            settings.validate()
    with settings.overridden({"REPRO_SHOTS": "-2"}):
        with pytest.raises(ValidationError, match=r"^REPRO_SHOTS must be"):
            settings.validate()


def test_snapshot_carries_overrides_and_environment(monkeypatch):
    monkeypatch.setenv("REPRO_FUSION", "off")
    monkeypatch.delenv("REPRO_SHOTS", raising=False)
    with settings.overridden({"REPRO_SHOTS": "9"}):
        snap = settings.snapshot()
    assert snap["REPRO_FUSION"] == "off" and snap["REPRO_SHOTS"] == "9"
    # Never the internal in-worker flag, never the token.
    assert set(snap) == {s.name for s in settings.SETTINGS} - {"REPRO_POOL_TOKEN"}


def test_hot_reads_cost_no_stat(tmp_path, monkeypatch):
    # active_cache() runs on every predict(): the regular-file check is
    # parsed once per raw value, not stat-ed on every call.
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    first = active_cache()
    stats = []
    real = os.path.isfile
    monkeypatch.setattr(os.path, "isfile", lambda p: stats.append(p) or real(p))
    assert active_cache() is first
    assert stats == []


# -- the secret ---------------------------------------------------------------


def test_token_is_never_shown(monkeypatch):
    secret = "s3cret-pool-token"
    monkeypatch.setenv("REPRO_POOL_TOKEN", secret)
    assert settings.get(settings.POOL_TOKEN) == secret
    shown = [
        settings.table(),
        repr(settings.POOL_TOKEN),
        repr(settings.snapshot()),
        str(settings.POOL_TOKEN.error(secret)),
        str(settings.POOL_TOKEN.error(secret, "--token", "is refused")),
    ]
    assert not any(secret in text for text in shown)


# -- the remote worker's address flags ----------------------------------------


@pytest.mark.parametrize(
    "flag, value",
    [("--connect", "127.0.0.1:notaport"), ("--bind", "0.0.0.0:70000")],
)
def test_tcp_address_flags_are_one_line_errors(flag, value):
    argv = ["--connect", "127.0.0.1:1", "--worker-id", "0", "--token", "t"]
    argv += [flag, value]
    code, lines = _stderr_lines(tcp_main, argv)
    assert code == 2 and len(lines) == 1
    assert lines[0].startswith(f"error: {flag} port must be")
    assert repr(value) in lines[0]


def test_tcp_missing_token_is_a_one_line_error(monkeypatch):
    monkeypatch.delenv("REPRO_POOL_TOKEN", raising=False)
    argv = ["--connect", "127.0.0.1:1", "--worker-id", "0"]
    assert _stderr_lines(tcp_main, argv) == (
        2,
        ["error: --token (or env REPRO_POOL_TOKEN) is required"],
    )


# -- argparse's own errors ----------------------------------------------------


@pytest.mark.parametrize(
    "main, argv, error",
    [
        (experiments_main, ["--jobs", "x"], "argument --jobs/-j: invalid int value: 'x'"),
        (tune_main, [], "the following arguments are required: workload"),
        (
            tcp_main,
            ["--worker-id", "0", "--token", "t"],
            "the following arguments are required: --connect",
        ),
    ],
    ids=CLIS,
)
def test_argparse_errors_are_one_line(main, argv, error):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert err.getvalue().splitlines() == [f"error: {error}"]


# -- the documentation --------------------------------------------------------


def test_tutorial_table_is_the_generated_one():
    text = DOCS.read_text(encoding="utf-8")
    start = text.index(TABLE_BEGIN) + len(TABLE_BEGIN)
    end = text.index(TABLE_END)
    assert text[start:end].strip() == settings.table().strip()
