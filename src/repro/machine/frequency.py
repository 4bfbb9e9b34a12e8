"""CPU frequency settings (paper section 2.2, optimisation 1).

ARCHER2 exposes three per-job CPU frequencies through SLURM:
2.00 GHz (the default, "medium"), 2.25 GHz ("high" -- the EPYC 7742
boost ceiling) and 1.50 GHz ("low").
"""

from __future__ import annotations

import enum

from repro.errors import ValidationError

__all__ = ["CpuFrequency"]


class CpuFrequency(enum.Enum):
    """The three SLURM-selectable CPU frequencies on ARCHER2."""

    LOW = 1.50e9
    MEDIUM = 2.00e9
    HIGH = 2.25e9

    @property
    def hz(self) -> float:
        """Clock frequency in hertz."""
        return self.value

    @property
    def ghz(self) -> float:
        """Clock frequency in gigahertz."""
        return self.value / 1e9

    @property
    def label(self) -> str:
        """Human label matching the paper's terminology."""
        return {
            CpuFrequency.LOW: "low (1.50 GHz)",
            CpuFrequency.MEDIUM: "medium (2.00 GHz)",
            CpuFrequency.HIGH: "high (2.25 GHz)",
        }[self]

    @classmethod
    def from_ghz(cls, ghz: float) -> "CpuFrequency":
        """Look up a frequency by its GHz value."""
        for freq in cls:
            if abs(freq.ghz - ghz) < 1e-9:
                return freq
        raise ValidationError(
            f"no ARCHER2 frequency setting at {ghz} GHz "
            f"(choose from {[f.ghz for f in cls]})"
        )
