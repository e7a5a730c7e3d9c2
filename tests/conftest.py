"""Hypothesis profiles for the test suite.

A property test that pins no ``max_examples`` of its own runs as many
examples as the loaded profile says: ``tier1`` (the default, 40) or
``ci`` (400, ten times as many), chosen with pytest's
``--hypothesis-profile=ci``.  Today that is
``tests/core/test_sim_golden.py::test_inline_operations_change_nothing``;
every other property test pins its count in its ``@settings``.
"""

from hypothesis import settings

settings.register_profile("tier1", max_examples=40)
settings.register_profile("ci", max_examples=400)
settings.load_profile("tier1")
