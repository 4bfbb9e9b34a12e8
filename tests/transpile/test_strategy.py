"""Strategy resolution, the env seam, and runner/CLI integration."""

import numpy as np
import pytest

from repro.circuits import builtin_qft_circuit, random_circuit, random_state
from repro.core.options import RunOptions
from repro.core.runner import SimulationRunner
from repro.errors import ValidationError
from repro.statevector import DenseStatevector
from repro.statevector.partition import Partition
from repro.transpile import (
    STRATEGIES,
    TRANSPILE_ENV,
    build_pipeline,
    resolve_strategy,
    transpile,
)
from repro.transpile.verify import permute_statevector


def test_explicit_strategy_wins_over_env(monkeypatch):
    monkeypatch.setenv(TRANSPILE_ENV, "naive")
    assert resolve_strategy("grouped") == "grouped"


def test_env_fills_in_when_unset(monkeypatch):
    monkeypatch.setenv(TRANSPILE_ENV, "blocked")
    assert resolve_strategy(None) == "blocked"


def test_unset_and_empty_env_yield_default(monkeypatch):
    monkeypatch.delenv(TRANSPILE_ENV, raising=False)
    assert resolve_strategy(None) is None
    assert resolve_strategy(None, default="grouped") == "grouped"
    monkeypatch.setenv(TRANSPILE_ENV, "")
    assert resolve_strategy(None) is None


def test_unknown_strategy_rejected_with_valid_set(monkeypatch):
    with pytest.raises(ValidationError, match="naive"):
        resolve_strategy("bogus")
    monkeypatch.setenv(TRANSPILE_ENV, "nope")
    with pytest.raises(ValidationError, match=TRANSPILE_ENV):
        resolve_strategy(None)


def test_pipelines_per_strategy():
    assert build_pipeline("naive") == []
    assert [p.name for p in build_pipeline("blocked")] == ["cache_blocking"]
    assert [p.name for p in build_pipeline("grouped")] == [
        "qubit_interaction",
        "commutation",
        "commutation_reorder",
        "global_selection",
        "gate_grouping",
    ]


def test_naive_transpile_is_identity():
    circuit = builtin_qft_circuit(6)
    result = transpile(circuit, Partition(6, 4), strategy="naive")
    assert result.strategy == "naive"
    assert result.is_identity_layout()
    assert [g.name for g in result.circuit] == [g.name for g in circuit]
    assert (
        result.stats["exchange_rounds_before"]
        == result.stats["exchange_rounds_after"]
    )


def test_default_strategy_is_grouped(monkeypatch):
    monkeypatch.delenv(TRANSPILE_ENV, raising=False)
    result = transpile(builtin_qft_circuit(6), Partition(6, 4))
    assert result.strategy == "grouped"


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_runner_applies_strategy_numerically(strategy):
    n, ranks = 6, 4
    circuit = random_circuit(n, 20, seed=11)
    psi = random_state(n, seed=12)
    runner = SimulationRunner()
    amps, report = runner.execute_numeric(
        circuit,
        RunOptions(transpile=strategy),
        initial_state=psi,
        num_ranks=ranks,
    )
    base = (
        DenseStatevector.from_amplitudes(psi)
        .apply_circuit(circuit)
        .amplitudes
    )
    perm = report.output_permutation
    expected = permute_statevector(base, perm) if perm else base
    assert np.allclose(amps, expected, atol=1e-9)


def test_runner_env_seam(monkeypatch):
    monkeypatch.setenv(TRANSPILE_ENV, "grouped")
    circuit = builtin_qft_circuit(8)
    report = SimulationRunner().run(circuit, RunOptions(num_nodes=4))
    assert report.output_permutation is not None
    monkeypatch.setenv(TRANSPILE_ENV, "wrong")
    with pytest.raises(ValidationError, match="wrong"):
        SimulationRunner().run(circuit, RunOptions(num_nodes=4))


def test_cli_rejects_unknown_strategy(capsys):
    from repro.experiments.cli import main

    assert main(["--transpile", "bogus", "tab1"]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "naive" in err


def test_cli_rejects_bad_env_knobs(capsys, monkeypatch):
    from repro.experiments.cli import main

    monkeypatch.setenv(TRANSPILE_ENV, "bogus")
    assert main(["--list"]) == 2
    assert "bogus" in capsys.readouterr().err
