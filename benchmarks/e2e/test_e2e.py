"""Self-tests of the benchmark: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import json
import time

import pytest

from benchmarks.e2e import cli, measure
from benchmarks.e2e.stats import PROBE_REFERENCE_S, summarize, verdict

BENCH = cli.load_benchmark()


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_emits_exactly_the_declared_metrics(trace, capsys):
    code = cli.main(["--quick", "--seed", "7", "--trace", str(trace)])
    line = _last_json(capsys.readouterr().out)
    assert code == 0 and line["correct"] and line["failed"] == 0
    declared = {e["name"]: e["unit"] for e in BENCH["per_layer" if trace else "end_to_end"]}
    assert set(line["metrics"]) == {w["name"] for w in BENCH["workloads"]}
    for metrics in line["metrics"].values():
        assert {name: m["unit"] for name, m in metrics.items()} == declared


def test_flipped_amplitude_is_a_failure_and_exits_nonzero(monkeypatch, capsys):
    from repro.parallel import shutdown_pool
    from repro.parallel.tcp import shutdown_tcp_pools
    from repro.statevector import DistributedStatevector

    original = DistributedStatevector.gather

    def flipped(self):
        amps = original(self)
        amps[0] = -amps[0]
        return amps

    def in_process(args, workdir):
        started = time.perf_counter()
        measure.main(args + ["--workdir", str(workdir)])
        record = _last_json(capsys.readouterr().out)
        record["setup_s"] = record["ready_at"] - started
        record["setup_probe"] = PROBE_REFERENCE_S
        return record

    monkeypatch.setattr(DistributedStatevector, "gather", flipped)
    monkeypatch.setattr(cli, "run_child", in_process)
    monkeypatch.setenv("REPRO_POOL_WORKERS", "2")
    try:
        code = cli.main(["--quick", "--workload", "qft20-r8", "--seed", "7"])
    finally:
        shutdown_pool()
        shutdown_tcp_pools()
    line = _last_json(capsys.readouterr().out)
    assert code != 0
    assert line["failed"] > 0 and not line["correct"]


def _spread(center, spread):
    """Ten values around ``center``, +-spread/2, in a scrambled order."""
    return [center * (1 + spread * ((i * 7) % 10 - 4.5) / 9) for i in range(10)]


def test_verdicts_on_synthetic_samples():
    parent = _spread(1.0, 0.02)
    assert verdict(parent, [0.8 * p for p in parent], 0.1, "lower") == "gain"
    tie = parent[1:] + parent[:1]  # same values, paired differently
    assert verdict(parent, tie, 0.1, "lower") == "unchanged"
    assert verdict(parent, [1.3 * p for p in parent], 0.1, "lower") == "regression"
    noisy = _spread(1.0, 0.6)
    assert verdict(noisy, [1.05 * p for p in noisy[1:] + noisy[:1]], 0.1, "lower") == "unresolved"
    assert verdict(parent[:9], parent[:9], 0.1, "lower") == "too-few-pairs"
    # direction: for a higher-is-better metric a drop is the regression
    assert verdict(parent, [0.7 * p for p in parent], 0.1, "higher") == "regression"


def test_compare_prints_one_row_per_workload(tmp_path, capsys):
    def runs(scale):
        return {
            "runs": [
                {
                    "workload": workload,
                    "trace": False,
                    "metrics": {e["name"]: {"value": scale * v} for e in BENCH["end_to_end"]},
                }
                for workload in ("a", "b")
                for v in _spread(1.0, 0.02)
            ]
        }

    parent, change = tmp_path / "parent.json", tmp_path / "change.json"
    parent.write_text(json.dumps(runs(1.0)))
    change.write_text(json.dumps(runs(1.0)))
    assert cli.main(["compare", str(parent), str(change)]) == 0
    change.write_text(json.dumps(runs(1.5)))
    assert cli.main(["compare", str(parent), str(change)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len([line for line in out if line.startswith(("  a ", "  b "))]) == 4


def test_summary_scales_by_the_probe_and_reports_the_tail():
    # every probe twice the reference: the host ran at half speed
    pairs = [(float(i), 2 * PROBE_REFERENCE_S) for i in range(30)]
    summary = summarize(pairs)
    assert summary["n"] == 30 and summary["tail_pct"] == pytest.approx(66.7)
    assert summary["tail"] == 9.5 and summary["median"] == 7.25
    assert summary["raw_median"] == 14.5
    assert summarize([(1.0, PROBE_REFERENCE_S)] * 5)["tail"] is None
