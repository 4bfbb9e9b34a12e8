"""Tests for the validation battery experiment."""

from repro.experiments import validate


class TestValidate:
    def test_covers_every_registered_check(self):
        result = validate.run()
        assert len(result.rows) == len(validate.CHECKS) == 9

    def test_registered_in_cli(self, capsys):
        from repro.experiments.cli import main

        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "ground-truth battery" in out
