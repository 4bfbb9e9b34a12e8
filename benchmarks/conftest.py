"""Benchmark-suite configuration.

``bench_experiments.py`` regenerates every table, figure and extension
study through the experiment harness, checks each one's declared paper
claims, and times the regeneration with pytest-benchmark; the other
``bench_*`` files time the simulator's kernels and MPI layer.  Run
with::

    pytest benchmarks/ --benchmark-only

The rendered tables are attached to the benchmark's ``extra_info`` and
also printed (visible with ``-s``).
"""

from __future__ import annotations


def attach_result(benchmark, result) -> None:
    """Record an experiment's metrics and table on the benchmark entry."""
    benchmark.extra_info["experiment"] = result.experiment_id
    for key, value in result.metrics.items():
        benchmark.extra_info[key] = round(float(value), 6)
    print()
    print(result.render())
