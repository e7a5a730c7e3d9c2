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
from repro.analysis.engine import checkout_paths, lint_paths

__all__ = ["lint", "main"]

#: What ``repro lint`` analyzes when no paths are given, from the root of
#: the checkout repro runs from (:func:`~repro.analysis.engine.checkout_paths`).
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
        "paths", nargs="*",
        help="files or directories to lint (default: "
             f"{' and '.join(DEFAULT_TARGETS)} of the checkout repro runs from)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable JSON report instead of text",
    )
    args = parser.parse_args(argv)
    try:
        paths = args.paths or checkout_paths(DEFAULT_TARGETS)
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    report = lint(paths)
    output = report.render_json() if args.json else report.render_text()
    stream = sys.stdout if report.ok else sys.stderr
    print(output, file=stream)
    # Any finding fails the run, in both output modes: a warning-only
    # text run and a warning-only --json run must agree on the verdict.
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
