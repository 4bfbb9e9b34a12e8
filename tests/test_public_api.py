"""Smoke tests of the top-level public API and error hierarchy."""

import pytest

import repro
from repro import errors


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_surface(self):
        """The README quickstart, end to end."""
        runner = repro.SimulationRunner()
        base = runner.run(repro.builtin_qft_circuit(38))
        fast = runner.run(
            repro.builtin_qft_circuit(38), repro.RunOptions().fast()
        )
        assert fast.runtime_s < base.runtime_s
        assert fast.energy_j < base.energy_j

    def test_experiment_entry_point(self):
        from repro.experiments import experiment_ids, run_experiment

        assert "tab2" in experiment_ids()
        assert run_experiment("fig5").experiment_id == "fig5"


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "name",
        [
            "GateError",
            "CircuitError",
            "SimulationError",
            "PartitionError",
            "CommError",
            "AllocationError",
            "TranspilerError",
            "CalibrationError",
            "ExperimentError",
            "DesError",
        ],
    )
    def test_all_derive_from_repro_error(self, name):
        exc_type = getattr(errors, name)
        assert issubclass(exc_type, errors.ReproError)
        assert issubclass(exc_type, Exception)

    def test_catching_base_catches_all(self):
        from repro.circuits import Circuit

        with pytest.raises(errors.ReproError):
            Circuit(0)

    def test_library_never_raises_bare_exception_types(self):
        """Deliberate failures carry library types, not ValueError."""
        from repro.machine import STANDARD_NODE, archer2, minimum_nodes

        with pytest.raises(errors.AllocationError):
            minimum_nodes(50, STANDARD_NODE, machine=archer2())


class TestValidationErrorHierarchy:
    """ValidationError must satisfy both old and new except clauses."""

    @staticmethod
    def _reject():
        from repro.parallel.tcp import parse_hosts

        parse_hosts("")

    def test_is_value_error(self):
        with pytest.raises(ValueError):
            self._reject()

    def test_is_repro_error(self):
        with pytest.raises(errors.ReproError):
            self._reject()

    def test_explicit_class(self):
        with pytest.raises(errors.ValidationError):
            self._reject()
