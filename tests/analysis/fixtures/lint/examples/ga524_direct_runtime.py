"""Broken fixture: an example builds a runtime instead of calling run()."""

from repro.core import runtime_threads

runtime = runtime_threads.ThreadedRuntime()  # expect: GA524
