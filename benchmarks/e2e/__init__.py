"""End-to-end and per-layer benchmark of the simulator and its model.

See ``benchmarks/e2e/README.md`` and the root ``BENCHMARK.json``.
"""
