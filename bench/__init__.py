"""The repository's benchmark: workloads, probes and the traced run.

``bench/run.py`` is the one command (see ``BENCHMARK.json`` and
``bench/README.md``).  The package is importable as ``bench`` so worker
processes resolve the benchmark's stages through ``py://bench.stages:...``.
"""
