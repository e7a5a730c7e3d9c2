"""``python -m repro.analysis.analyze`` — whole-program analysis (GA6xx).

Thin command-line front end over the two GA6xx analysis families, also
reachable as ``repro analyze``:

* :func:`repro.analysis.concurrency.analyze_paths` — interprocedural
  lock-order, lock-across-wait and guarded-state analysis (GA600–602);
* :func:`repro.analysis.protocol.check_models` /
  :func:`~repro.analysis.protocol.check_conformance` — exhaustive
  bounded model checking of the wire protocol and the model↔code
  conformance pass (GA610–613).

Output matches ``repro check``/``repro lint``: a rustc-style text
report, or the stable machine-readable JSON document with ``--json``.
The exit code is 0 only when the report is completely clean — any
diagnostic, in either output mode, exits 1.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis.concurrency import analyze_paths
from repro.analysis.diagnostics import Report
from repro.analysis.engine import checkout_paths
from repro.analysis.protocol import check_conformance, check_models, load_models
from repro.net.protocol_model import ProtocolModel

__all__ = ["analyze", "main"]

#: What ``repro analyze`` analyzes when no paths are given, from the root
#: of the checkout repro runs from (:func:`~repro.analysis.engine.checkout_paths`).
DEFAULT_TARGETS = ("src/repro",)


def analyze(
    paths: List[str],
    models: Optional[Sequence[ProtocolModel]] = None,
) -> Report:
    """Run every GA6xx analysis over ``paths``.

    ``models`` replaces the built-in bounded protocol configurations
    (:func:`repro.net.protocol_model.bounded_models`); the conformance
    pass picks the protocol role files out of ``paths`` itself.
    """
    report = Report()
    report.extend(analyze_paths(paths))
    report.extend(check_models(models))
    report.extend(check_conformance(paths))
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description="whole-program concurrency analysis (lock order, locks "
                    "across waits, guarded state) and protocol model "
                    "checking with model<->code conformance; see "
                    "docs/static_analysis.md",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to analyze "
             f"(default: {' '.join(DEFAULT_TARGETS)} of the checkout repro runs from)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable JSON report instead of text",
    )
    parser.add_argument(
        "--models", metavar="FILE", default=None,
        help="check the MODELS list from this Python file instead of the "
             "built-in bounded protocol configurations",
    )
    args = parser.parse_args(argv)
    models: Optional[Sequence[ProtocolModel]] = None
    if args.models is not None:
        try:
            models = load_models(args.models)
        except (OSError, SyntaxError, ValueError) as exc:
            print(f"cannot load models from {args.models!r}: {exc}",
                  file=sys.stderr)
            return 2
    try:
        paths = args.paths or checkout_paths(DEFAULT_TARGETS)
    except ValueError as exc:
        print(f"repro analyze: {exc}", file=sys.stderr)
        return 2
    report = analyze(paths, models=models)
    output = report.render_json() if args.json else report.render_text()
    stream = sys.stdout if report.ok else sys.stderr
    print(output, file=stream)
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
