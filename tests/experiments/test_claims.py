"""Every paper claim, checked: one case per claim over the registry.

The claims (bounds included) are declared once, next to each experiment
(its module's ``CLAIMS``).  ``run_experiment`` evaluates them, running
each configuration a claim is made at once per experiment, and the
cases below read its verdicts.
"""

import functools

import pytest

from repro.experiments import table2_best
from repro.experiments.cli import main
from repro.experiments.registry import claims_of, experiment_ids, run_experiment
from repro.experiments.reporting import Claim, ExperimentResult

ALL_CLAIMS = [(eid, claim) for eid in experiment_ids() for claim in claims_of(eid)]


@functools.cache
def _run(experiment_id: str) -> ExperimentResult:
    return run_experiment(experiment_id)


@pytest.mark.parametrize(
    "experiment_id, claim", ALL_CLAIMS, ids=[claim.id for _, claim in ALL_CLAIMS]
)
def test_claim_holds(experiment_id, claim):
    result = _run(experiment_id)
    [verdict] = [v for v in result.verdicts if v.claim == claim.id]
    assert verdict.ok, f"{claim.id}: {verdict.bound}; metrics {result.metrics}"


def test_every_experiment_declares_claims():
    assert all(claims_of(eid) for eid in experiment_ids())


def test_claim_ids_unique_and_prefixed():
    ids = [claim.id for _, claim in ALL_CLAIMS]
    assert len(ids) == len(set(ids))
    assert all(claim.id.startswith(f"{eid}.") for eid, claim in ALL_CLAIMS)


def test_run_with_params_checks_only_claims_made_there():
    result = run_experiment("tab2", halved_swaps=True)
    assert [v.claim for v in result.verdicts] == ["tab2.halved-runtime-44q"]
    assert run_experiment("tab2", runs=((43, 2048),)).verdicts == []


def test_missing_metric_fails_the_claim():
    claim = Claim("x.y", "ext", "-", "absent > 0", lambda m: m["absent"] > 0)
    assert not claim.check({}).ok


def test_failed_claim_exits_one(monkeypatch, capsys):
    failing = Claim("tab2.never", "ext", "-", "False", lambda m: False)
    monkeypatch.setattr(table2_best, "CLAIMS", (failing,))
    assert main(["tab2"]) == 1
    captured = capsys.readouterr()
    assert "claim FAIL: tab2.never" in captured.out
    assert "claim failed: tab2.never" in captured.err
