"""``python -m repro.analysis.lint`` — run the AST lint suite.

Thin command-line front end over :func:`repro.analysis.engine.lint_paths`
with the default checker set; also reachable as ``repro lint``.  Exits 0
only when the report is completely clean — any diagnostic, warning or
error, in either output mode, exits 1.  That is what the CI job keys
off, and it matches ``repro check`` and ``repro analyze``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.checkers import default_checkers
from repro.analysis.diagnostics import Report
from repro.analysis.engine import lint_paths

__all__ = ["lint", "main"]

#: What ``repro lint`` analyzes when no paths are given.
DEFAULT_TARGETS = ("src/repro", "examples")


def lint(paths: List[str]) -> Report:
    """Lint files/directories with the default checker set."""
    return lint_paths(paths, default_checkers())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST lint suite enforcing repo-specific invariants "
                    "(metric catalog, determinism, async hygiene, "
                    "checkpoint contract); see docs/static_analysis.md",
    )
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_TARGETS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_TARGETS)})",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable JSON report instead of text",
    )
    args = parser.parse_args(argv)
    report = lint(args.paths)
    output = report.render_json() if args.json else report.render_text()
    stream = sys.stdout if report.ok else sys.stderr
    print(output, file=stream)
    # Any finding fails the run, in both output modes: a warning-only
    # text run and a warning-only --json run must agree on the verdict.
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
