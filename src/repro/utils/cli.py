"""What every command-line entry point shares: misuse is one line.

``repro-experiments``, ``repro-tune`` and ``python -m
repro.parallel.tcp`` report a bad flag or ``REPRO_*`` variable as one
``error: ...`` line on stderr and exit status 2 -- argparse's own
errors included.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["ArgumentParser", "fail"]


def fail(message: str, code: int = 2) -> int:
    """Print ``error: <message>`` as one stderr line; return ``code``."""
    print(f"error: {message}", file=sys.stderr)
    return code


class ArgumentParser(argparse.ArgumentParser):
    """An ``argparse`` parser whose errors (a bad value, a missing
    required flag) are one line and exit status 2, without the usage
    block."""

    def error(self, message: str):
        sys.exit(fail(message))
