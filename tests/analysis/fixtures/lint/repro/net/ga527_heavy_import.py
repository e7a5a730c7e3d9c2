"""Broken fixture: a runtime module loads numpy when it is imported."""

from typing import TYPE_CHECKING

import numpy as np  # expect: GA527

if TYPE_CHECKING:
    import networkx


def _total(values):
    import networkx  # a function-level import is fine

    return np.sum(values)
