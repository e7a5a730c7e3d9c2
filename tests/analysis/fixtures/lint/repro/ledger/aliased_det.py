"""Broken fixture: replay-visible reads spelled through aliased imports."""

import random as rng
from time import monotonic as clock


def seal():
    return clock()  # expect: GA509


class Jitter:
    """Stage whose per-item path draws from the global RNG."""

    def on_item(self, payload, context):
        """Forward with an unrecorded delay (the defect)."""
        context.emit(payload, at=clock(), delay=rng.random())  # expect: GA509
