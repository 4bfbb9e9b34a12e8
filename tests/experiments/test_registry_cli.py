"""Tests for the experiment registry, reporting and CLI."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.cli import main
from repro.experiments.registry import EXPERIMENTS, experiment_ids, run_experiment
from repro.experiments.reporting import ExperimentResult


class TestRegistry:
    def test_all_paper_artefacts_registered(self):
        for expected in ("fig2", "fig3", "fig4", "fig5", "tab1", "tab2"):
            assert expected in EXPERIMENTS

    def test_extensions_registered(self):
        assert "ext-halved-swap" in EXPERIMENTS
        assert "ext-generic-cb" in EXPERIMENTS

    def test_run_by_id(self):
        result = run_experiment("tab1")
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == "tab1"

    def test_unknown_id_raises(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            run_experiment("fig99")

    def test_ids_order(self):
        ids = experiment_ids()
        assert ids[0] == "fig1"
        assert len(ids) == len(EXPERIMENTS)
        # Paper artefacts precede the extension studies.
        assert all(i.startswith(("fig", "tab")) for i in ids[:7])

    def test_long_form_aliases(self):
        assert run_experiment("table2").experiment_id == "tab2"
        assert run_experiment("figure5").experiment_id == "fig5"


class TestReporting:
    def test_metric_lookup(self):
        result = ExperimentResult("x", "t", ["a"], metrics={"m": 1.0})
        assert result.metric("m") == 1.0

    def test_missing_metric_lists_available(self):
        result = ExperimentResult("x", "t", ["a"], metrics={"m": 1.0})
        with pytest.raises(KeyError, match="m"):
            result.metric("nope")

    def test_render_includes_notes(self):
        result = ExperimentResult("x", "title", ["a"], rows=[[1]], notes="N")
        text = result.render()
        assert "title" in text and text.endswith("N")


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "tab2" in out

    def test_run_single(self, capsys):
        assert main(["tab1"]) == 0
        out = capsys.readouterr().out
        assert "Hadamard benchmark" in out

    def test_unknown_id_error_code(self, capsys):
        assert main(["fig99"]) == 2
        assert "error" in capsys.readouterr().err

    def test_multiple(self, capsys):
        assert main(["tab1", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "[tab1]" in out and "[fig5]" in out


class TestCliValidation:
    """Bad arguments get a one-line error and exit code 2, not a traceback."""

    @pytest.mark.parametrize("jobs", ["0", "-1", "-8"])
    def test_rejects_nonpositive_jobs(self, capsys, jobs):
        assert main(["tab1", "-j", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --jobs must be >= 1")
        assert captured.out == ""

    def test_rejects_cache_path_that_is_a_file(self, tmp_path, capsys):
        target = tmp_path / "not-a-dir"
        target.write_text("occupied")
        assert main(["tab1", "--cache", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --cache path exists and is a regular file")
        assert target.read_text() == "occupied"  # untouched

    def test_cache_directory_path_is_accepted(self, tmp_path, capsys, monkeypatch):
        # setenv (not delenv) so monkeypatch restores the pre-test state
        # even though main() assigns the variable itself.
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert main(["tab1", "--cache", str(tmp_path / "cache")]) == 0


class TestCliObservability:
    def test_trace_out_writes_valid_trace(self, tmp_path, capsys):
        import json

        from repro import obs
        from repro.obs.export import validate_chrome_trace

        # -j 1 keeps the test inline (the worker-span path is covered by
        # the CI observability smoke run).
        out = tmp_path / "trace.json"
        try:
            assert main(["tab1", "--trace-out", str(out), "-j", "1"]) == 0
        finally:
            obs.disable()
            obs.reset()
        doc = json.loads(out.read_text())
        validate_chrome_trace(doc)
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "predict" in names

    def test_metrics_prints_summary(self, capsys):
        from repro import obs

        try:
            assert main(["tab1", "--metrics", "-j", "1"]) == 0
        finally:
            obs.disable()
            obs.reset()
        err = capsys.readouterr().err
        assert "metrics:" in err
        assert "repro_predictions_total" in err


class TestEnvSeamValidation:
    def test_bad_stall_timeout_rejected_up_front(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_POOL_STALL_TIMEOUT", "-3")
        assert main(["--list"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "REPRO_POOL_STALL_TIMEOUT" in err

    def test_good_stall_timeout_accepted(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_POOL_STALL_TIMEOUT", "45")
        assert main(["--list"]) == 0

    def test_bad_shots_env_rejected_up_front(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SHOTS", "-1")
        assert main(["--list"]) == 2
        assert "shots" in capsys.readouterr().err

    def test_shots_flag_rejected_when_negative(self, capsys):
        assert main(["--shots", "-2", "--list"]) == 2
        assert "shots" in capsys.readouterr().err

    def test_shots_flag_reaches_experiment_without_touching_env(
        self, monkeypatch, capsys
    ):
        import json
        import os

        from repro.experiments import registry
        from repro.statevector.sampling import resolve_shots

        def probe():
            return ExperimentResult(
                "probe", "shots probe", ["shots"],
                metrics={"shots": resolve_shots()},
            )

        monkeypatch.setitem(registry.EXPERIMENTS, "probe", probe)
        monkeypatch.delenv("REPRO_SHOTS", raising=False)
        environ = dict(os.environ)
        assert main(["--shots", "256", "--json", "probe"]) == 0
        [doc] = json.loads(capsys.readouterr().out)
        assert doc["metrics"]["shots"] == 256
        assert dict(os.environ) == environ
        assert resolve_shots() == 0  # the flag's scope ended with main()
