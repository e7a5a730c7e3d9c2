"""Every reference page and its catalog must not drift.

One parametrized suite over :data:`repro.analysis.docscheck.DOC_TABLES`
(metrics, ledger record types, diagnostic codes, architecture rules,
sharding knobs, migration knobs, run options), plus the page-specific
pins.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.analysis.docscheck import DOC_TABLES, check_docs, render_catalog_table
from repro.analysis.rules import render_rule_table
from repro.resilience.migration import MigrationPolicy

DOCS = Path(__file__).resolve().parents[2] / "docs"

pages = pytest.mark.parametrize("name", sorted(DOC_TABLES))

#: A name each page's row pattern accepts but its catalog lacks.
STALE = {
    "metrics": "stage.{stage}.removed_metric",
    "records": "GHOST",
    "codes": "GA999",
    "rules": "ghost-rule",
    "sharding": "shard-flavor",
    "migration": "teleport_speed",
    "run-options": "warp_factor",
}


def write_page(tmp_path, name, rows):
    """A synthetic page with one table row per ``(name, value)``."""
    path = tmp_path / DOC_TABLES[name].page
    lines = [
        f"| `{key}` | {value} | x |" if value else f"| `{key}` | x |"
        for key, value in rows
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def catalog_rows(name):
    return sorted(DOC_TABLES[name].catalog().items())


@pages
def test_docs_file_exists(name):
    assert (DOCS / DOC_TABLES[name].page).exists()


@pages
def test_docs_and_catalog_agree(name):
    assert check_docs(name) == []


@pages
def test_every_catalog_entry_has_a_row(name):
    table = DOC_TABLES[name]
    text = (DOCS / table.page).read_text(encoding="utf-8")
    matches = (table.row.match(line.strip()) for line in text.splitlines())
    documented = {m.group("name") for m in matches if m}
    assert documented == set(table.catalog())


@pages
def test_missing_docs_file_is_one_problem(name, tmp_path):
    path = tmp_path / "ghost.md"
    assert check_docs(name, path) == [f"docs file missing: {path}"]


@pages
def test_missing_row_is_detected(name, tmp_path):
    (first, _), *rest = catalog_rows(name)
    problems = check_docs(name, write_page(tmp_path, name, rest))
    assert any(repr(first) in p and "not documented" in p for p in problems)


@pages
def test_stale_row_is_detected(name, tmp_path):
    value = "0" if DOC_TABLES[name].value_label else ""
    rows = catalog_rows(name) + [(STALE[name], value)]
    problems = check_docs(name, write_page(tmp_path, name, rows))
    assert any(repr(STALE[name]) in p and "not in the catalog" in p
               for p in problems)


@pytest.mark.parametrize(
    "name", sorted(n for n, t in DOC_TABLES.items() if t.value_label)
)
def test_value_mismatch_is_detected(name, tmp_path):
    (first, value), *rest = catalog_rows(name)
    rows = [(first, "99")] + rest
    problems = check_docs(name, write_page(tmp_path, name, rows))
    label = DOC_TABLES[name].value_label
    assert f"{first!r}: catalog says {label} {value}, docs say 99" in problems


def test_code_table_must_be_embedded_verbatim(tmp_path):
    path = tmp_path / "static_analysis.md"
    path.write_text(render_catalog_table() + "\n", encoding="utf-8")
    assert check_docs("codes", path) == []
    path.write_text(
        render_catalog_table().replace("| error |", "| fatal |", 1) + "\n",
        encoding="utf-8",
    )
    (problem,) = check_docs("codes", path)
    assert "verbatim" in problem


def test_rule_table_must_be_embedded_verbatim(tmp_path):
    path = write_page(tmp_path, "rules", catalog_rows("rules"))
    (problem,) = check_docs("rules", path)
    assert "verbatim" in problem
    path.write_text(render_rule_table() + "\n", encoding="utf-8")
    assert check_docs("rules", path) == []


def test_every_migration_metric_template_is_mentioned(tmp_path):
    templates = sorted(
        key for key, _ in catalog_rows("metrics") if key.startswith("migration.")
    )
    path = write_page(tmp_path, "migration", catalog_rows("migration"))
    problems = check_docs("migration", path)
    assert any("migration.{stage}.pause_seconds" in p for p in problems)
    assert len(problems) == len(templates)
    with path.open("a", encoding="utf-8") as handle:
        handle.write("\n".join(templates) + "\n")
    assert check_docs("migration", path) == []


def test_migration_knobs_are_the_policy_defaults():
    """The knob catalog is ``MigrationPolicy`` itself: one row per field,
    valued by its default, each field documented in its metadata."""
    policy_fields = dataclasses.fields(MigrationPolicy)
    assert DOC_TABLES["migration"].catalog() == {
        f.name: str(f.default) for f in policy_fields
    }
    assert all(f.metadata.get("doc") for f in policy_fields)

