"""Two-clock perf ledger: host time by layer, simulated time against its bound.

Run ``python -m benchmarks.perf`` (see ``README.md`` beside this file); the
pipeline runs the single-workload form named in the root ``BENCHMARK.json``.
"""
