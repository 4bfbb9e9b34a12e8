"""Smoke tests of the top-level public API and error hierarchy."""

import importlib
import pkgutil

import pytest

import repro
from repro import errors


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        """Every name in every ``repro`` package's ``__all__`` exists."""
        packages = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.ispkg
        ]
        assert len(packages) > 10
        for package in packages:
            for name in package.__all__:
                assert getattr(package, name, None) is not None, (
                    f"{package.__name__}.__all__ names missing {name!r}"
                )

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

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("shots", -1, "shots"),
            ("ranks_per_node", 3, "power of two"),
            ("ranks_per_node", 8, "do not pack"),
            ("executor", "gpu", "executor"),
            ("transport", "udp", "transport"),
            ("num_hosts", 0, "num_hosts"),
            ("overlap_factor", 1.5, "overlap_factor"),
        ],
    )
    def test_run_configuration_checks_raise_validation_error(
        self, field, value, match
    ):
        from repro.machine import STANDARD_NODE, CpuFrequency
        from repro.perfmodel import RunConfiguration
        from repro.statevector import Partition

        with pytest.raises(errors.ValidationError, match=match):
            RunConfiguration(
                partition=Partition(10, 4),
                node_type=STANDARD_NODE,
                frequency=CpuFrequency.MEDIUM,
                **{field: value},
            )

    def test_model_lookups_raise_validation_error(self):
        from repro.machine import STANDARD_NODE, CpuFrequency
        from repro.perfmodel import DEFAULT_CALIBRATION, node_phase_power

        with pytest.raises(errors.ValidationError):
            CpuFrequency.from_ghz(3.0)
        with pytest.raises(errors.ValidationError):
            node_phase_power(
                "turbo", CpuFrequency.MEDIUM, STANDARD_NODE, DEFAULT_CALIBRATION
            )


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
