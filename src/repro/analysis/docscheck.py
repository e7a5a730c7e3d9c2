"""Docs-consistency check: every catalog and its docs page must agree.

Six reference pages document seven authoritative catalogs, each in a
markdown table whose first column is a backticked name and whose second
column is a value the catalog also holds:

======================  ===================================================  =======
page                    catalog                                              value
======================  ===================================================  =======
``observability.md``    :data:`repro.obs.names.METRICS`                      kind
``replay.md``           :data:`repro.ledger.records.RECORD_TYPES`            rank
``static_analysis.md``  :data:`repro.analysis.codes.CODES`                   kind
``static_analysis.md``  :data:`repro.analysis.rules.RULES`                   code
``sharding.md``         :data:`repro.core.options.OPTIONS`                   default
``migration.md``        :class:`repro.resilience.migration.MigrationPolicy`  default
``architecture.md``     :data:`repro.core.run.ROWS`                          runtimes
======================  ===================================================  =======

:func:`check_docs` diffs one page's table rows against its catalog in
both directions (:func:`diff_table` does the same for any text and any
:class:`DocTable`, e.g. a section of EXPERIMENTS.md against the
experiment rows) — a catalog entry without a row, a row for an entry the
catalog no longer has, or a value mismatch each produce one problem
string — plus two page-specific pins:

* ``static_analysis.md`` must embed :func:`render_catalog_table` and
  :func:`repro.analysis.rules.render_rule_table` **verbatim** (``python
  -m repro.analysis.docscheck`` prints both for pasting), so any edit to
  a code's kind, severity or title, or to a rule row, breaks it;
* ``migration.md`` must mention every ``migration.*`` metric template.

The tier-1 test ``tests/analysis/test_docscheck.py`` asserts every
page's problem list is empty, so no reference can drift.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Pattern

from repro.analysis.codes import CODES
from repro.analysis.rules import RULES, render_rule_table

__all__ = [
    "DOC_TABLES",
    "DocTable",
    "check_docs",
    "diff_table",
    "render_catalog_table",
]


def _metric_kinds() -> Dict[str, str]:
    from repro.obs.names import METRICS

    return {spec.template: spec.kind for spec in METRICS}


def _record_ranks() -> Dict[str, str]:
    from repro.ledger.records import RECORD_TYPES

    return {info.name: str(info.rank) for info in RECORD_TYPES}


def _code_kinds() -> Dict[str, str]:
    return {code: info.kind for code, info in CODES.items()}


def _sharding_knobs() -> Dict[str, str]:
    from repro.core.options import knobs

    return {key: option.default_text for key, option in knobs("sharding").items()}


def _migration_knobs() -> Dict[str, str]:
    from repro.resilience.migration import MigrationPolicy

    return {knob.name: str(knob.default) for knob in fields(MigrationPolicy)}


def _rule_codes() -> Dict[str, str]:
    return {rule.id: rule.code for rule in RULES}


def _run_option_runtimes() -> Dict[str, str]:
    from repro.core.run import ROWS

    return {row.name: ", ".join(row.runtimes) for row in ROWS}


def render_catalog_table() -> str:
    """The consolidated diagnostic-code table, generated from :data:`CODES`.

    ``docs/static_analysis.md`` must embed this output verbatim; when a
    code is added or reworded, regenerate with
    ``python -m repro.analysis.docscheck`` and paste.
    """
    lines = [
        "| Code | Kind | Severity | Invariant |",
        "|---|---|---|---|",
    ]
    for code in sorted(CODES):
        info = CODES[code]
        lines.append(
            f"| `{code}` | {info.kind} | {info.severity.value} "
            f"| {info.title} |"
        )
    return "\n".join(lines)


def _embeds(render: Callable[[], str], what: str) -> Callable[[str, str], List[str]]:
    """A page check: the page embeds ``render()``'s table verbatim."""
    def check(page: str, text: str) -> List[str]:
        if render() in text:
            return []
        return [
            f"{page} does not embed the generated {what} table verbatim; "
            "regenerate with 'python -m repro.analysis.docscheck' and paste it in"
        ]
    return check


def _mentions_migration_metrics(page: str, text: str) -> List[str]:
    return [
        f"{page} does not mention the metric template {template!r}"
        for template in sorted(_metric_kinds())
        if template.startswith("migration.") and template not in text
    ]


@dataclass(frozen=True)
class DocTable:
    """One docs page and the catalog its table must mirror.

    ``row`` matches a table line; its ``name`` group is the catalog key
    and its optional ``value`` group is compared with the catalog's
    value for that key; ``extra`` adds page-specific problems from the
    text.
    """

    page: str
    entry: str
    catalog_ref: str
    row: Pattern[str]
    catalog: Callable[[], Mapping[str, str]]
    value_label: str = ""
    extra: Optional[Callable[[str, str], List[str]]] = None


#: Every docs page pinned to a catalog, by short name.
DOC_TABLES: Dict[str, DocTable] = {
    "metrics": DocTable(
        page="observability.md",
        entry="metric",
        catalog_ref="repro.obs.names.METRICS",
        # ``| `template` | kind | ...``; templates always contain a dot.
        row=re.compile(
            r"^\|\s*`(?P<name>[a-z0-9_{}>-]+\.[a-z0-9_.{}>-]+)`\s*\|"
            r"\s*(?P<value>\w+)\s*\|"
        ),
        catalog=_metric_kinds,
        value_label="kind",
    ),
    "records": DocTable(
        page="replay.md",
        entry="record type",
        catalog_ref="repro.ledger.records.RECORD_TYPES",
        row=re.compile(r"^\|\s*`(?P<name>[A-Z]+)`\s*\|\s*(?P<value>\d+)\s*\|"),
        catalog=_record_ranks,
        value_label="rank",
    ),
    "codes": DocTable(
        page="static_analysis.md",
        entry="diagnostic code",
        catalog_ref="repro.analysis.codes.CODES",
        row=re.compile(r"^\|\s*`(?P<name>GA\d{3})`\s*\|\s*(?P<value>\w+)\s*\|"),
        catalog=_code_kinds,
        value_label="kind",
        extra=_embeds(render_catalog_table, "catalog"),
    ),
    "rules": DocTable(
        page="static_analysis.md",
        entry="architecture rule",
        catalog_ref="repro.analysis.rules.RULES",
        # ``| `rule-id` | GAxxx | ...``.
        row=re.compile(r"^\|\s*`(?P<name>[a-z][a-z0-9-]*)`\s*\|\s*(?P<value>[^|]*?)\s*\|"),
        catalog=_rule_codes,
        value_label="code",
        extra=_embeds(render_rule_table, "rule"),
    ),
    "sharding": DocTable(
        page="sharding.md",
        entry="sharding knob",
        catalog_ref="repro.core.options.OPTIONS",
        # ``| `knob` | default | meaning |``.
        row=re.compile(r"^\|\s*`(?P<name>[a-z][a-z0-9-]*)`\s*\|\s*(?P<value>[^|]*?)\s*\|"),
        catalog=_sharding_knobs,
        value_label="default",
    ),
    "migration": DocTable(
        page="migration.md",
        entry="migration knob",
        catalog_ref="repro.resilience.migration.MigrationPolicy",
        # ``| `knob` | default | meaning |``.
        row=re.compile(r"^\|\s*`(?P<name>[a-z][a-z0-9_]*)`\s*\|\s*(?P<value>[^|]*?)\s*\|"),
        catalog=_migration_knobs,
        value_label="default",
        extra=_mentions_migration_metrics,
    ),
    "run-options": DocTable(
        page="architecture.md",
        entry="run option",
        catalog_ref="repro.core.run.ROWS",
        # ``| `option` | runtimes | ...``.
        row=re.compile(r"^\|\s*`(?P<name>[a-z][a-z_]*)`\s*\|\s*(?P<value>[^|]*?)\s*\|"),
        catalog=_run_option_runtimes,
        value_label="runtimes",
    ),
}


#: ``docs/`` relative to the repository root.
_DOCS_DIR = Path(__file__).resolve().parents[3] / "docs"


def _documented(table: DocTable, text: str) -> Dict[str, str]:
    """Parse ``{name: value}`` from the page's table rows (value ``""``
    when the row pattern has no value column)."""
    rows: Dict[str, str] = {}
    for line in text.splitlines():
        match = table.row.match(line.strip())
        if match:
            rows[match.group("name")] = match.groupdict().get("value") or ""
    return rows


def diff_table(table: DocTable, text: str, page: str) -> List[str]:
    """Problems keeping one page's ``text`` and ``table``'s catalog apart
    (empty = in sync); ``page`` names the page in the messages."""
    rows = _documented(table, text)
    catalog = table.catalog()
    problems: List[str] = []
    for key in sorted(catalog):
        if key not in rows:
            problems.append(
                f"{table.entry} {key!r} is not documented in {page}"
            )
        elif rows[key] != catalog[key]:
            problems.append(
                f"{key!r}: catalog says {table.value_label} {catalog[key]}, "
                f"docs say {rows[key]}"
            )
    for key in sorted(rows):
        if key not in catalog:
            problems.append(
                f"{page} documents {key!r}, which is not in the "
                f"catalog ({table.catalog_ref})"
            )
    if table.extra is not None:
        problems += table.extra(page, text)
    return problems


def check_docs(name: str, path: Optional[Path] = None) -> List[str]:
    """Problems keeping one page and its catalog apart (empty = in sync).

    ``name`` is a key of :data:`DOC_TABLES`; ``path`` overrides the page
    location (default: the page under the repository's ``docs/``).
    """
    table = DOC_TABLES[name]
    path = path if path is not None else _DOCS_DIR / table.page
    if not path.exists():
        return [f"docs file missing: {path}"]
    return diff_table(table, path.read_text(encoding="utf-8"), path.name)


if __name__ == "__main__":
    print(render_catalog_table(), render_rule_table(), sep="\n\n")
