"""Static analysis for the middleware: verifier + lint + analyzer.

Three front ends share the :mod:`~repro.analysis.diagnostics` machinery
and the ``GAxxx`` code catalog (:mod:`~repro.analysis.codes`):

* the **pipeline verifier** (:mod:`~repro.analysis.verifier`) reports
  every structural finding of :mod:`repro.grid.config` (which reads the
  document and owns those rules) and runs multi-pass semantic analysis
  over application configurations — ``repro check app.xml`` on the
  command line, and the pre-deploy gate inside all three runtimes;
* the **repo lint** (:mod:`~repro.analysis.lint`) runs AST checkers over
  the source tree enforcing invariants generic linters cannot express —
  ``repro lint`` / ``python -m repro.analysis.lint``;
* the **whole-program analyzer** (:mod:`~repro.analysis.analyze`) runs
  the interprocedural concurrency analysis
  (:mod:`~repro.analysis.concurrency`, GA60x) and the protocol model
  checker plus model↔code conformance pass
  (:mod:`~repro.analysis.protocol`, GA61x) — ``repro analyze`` /
  ``python -m repro.analysis.analyze``.

See ``docs/static_analysis.md`` for the catalog of diagnostic codes.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".codes": (
        "CODES", "CodeInfo", "analyze_codes", "concurrency_codes", "config_codes",
        "info_for", "lint_codes", "protocol_codes",
    ),
    ".concurrency": ("analyze_paths",),
    ".diagnostics": ("Diagnostic", "Report", "Severity", "SourceSpan"),
    ".protocol": ("check_conformance", "check_models", "explore"),
    ".verifier": ("check_document", "verify_config", "verify_document", "verify_path"),
})
