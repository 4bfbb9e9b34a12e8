"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.circuits import random_state


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG per test."""
    return np.random.default_rng(20231112)


@pytest.fixture
def psi6() -> np.ndarray:
    """A fixed random 6-qubit state."""
    return random_state(6, seed=6)


@pytest.fixture
def psi8() -> np.ndarray:
    """A fixed random 8-qubit state."""
    return random_state(8, seed=8)


def _repro_environment() -> dict[str, str]:
    return {k: v for k, v in os.environ.items() if "REPRO_" in k}


@pytest.fixture(autouse=True)
def _no_repro_env_leak():
    """Fail any test that leaves a ``REPRO_*`` variable changed.

    Autouse fixtures set up before the ones a test asks for, so this
    check runs after ``monkeypatch`` has restored the environment: what
    it sees is a leak into every later test of the session.  It puts
    the environment back before failing, so one leak fails one test.
    """
    before = _repro_environment()
    yield
    after = _repro_environment()
    if after != before:
        for name in after.keys() - before.keys():
            del os.environ[name]
        os.environ.update(before)
        changed = sorted(
            k for k in after.keys() | before.keys() if after.get(k) != before.get(k)
        )
        pytest.fail(f"test changed {', '.join(changed)} in os.environ")
