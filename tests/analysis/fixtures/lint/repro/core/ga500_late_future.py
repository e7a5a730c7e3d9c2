"""A ``from __future__`` import after another import.

``ast.parse`` accepts the file; the compiler refuses it, so it is GA500.
"""

import os
from __future__ import annotations  # expect: GA500


def cwd() -> str:
    return os.getcwd()
