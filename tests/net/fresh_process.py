"""Run a script in a fresh interpreter that sees only ``src/``.

For the tests whose subject is what a process has *not* loaded or
allocated — the pytest process itself imported numpy, networkx and
hypothesis long before any test runs.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC_ROOT = os.path.join(REPO_ROOT, "src")


def run_python(script: str) -> str:
    """Stdout of ``python -c script`` run from the repository root (so
    ``py://tests...`` stage URLs resolve, in workers too)."""
    env = dict(os.environ, PYTHONPATH=SRC_ROOT)
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout
