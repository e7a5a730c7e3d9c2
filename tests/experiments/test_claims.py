"""The paper's claims, held over the committed experiment rows.

``tests/core/golden/experiment_rows.json`` holds the rows of every run
behind EXPERIMENTS.md (computed once by ``python -m
tests.core.test_sim_golden --experiments --regen``).  Here, in
milliseconds, every claim of :mod:`tests.experiments.claims` must hold
over them, EXPERIMENTS.md must cite every claim beside the sentence it
backs, its measured columns must equal the rows, and the rows must have
been written with the committed digests.
"""

import json
import re
from pathlib import Path

import pytest

from repro.analysis.docscheck import diff_table
from tests.core.test_sim_golden import EXPERIMENT_ROWS_PATH, EXPERIMENTS_PATH, file_sha256
from tests.experiments.claims import CLAIMS, TABLES, doc_table, evaluate, judge
from tests.experiments.runs import RUN_SETS

EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def committed():
    with open(EXPERIMENT_ROWS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def doc_text() -> str:
    return EXPERIMENTS_MD.read_text(encoding="utf-8")


def section(text: str, heading: str) -> str:
    """From the line starting with ``heading`` to the next heading."""
    start = text.index("\n" + heading) + 1
    end = text.find("\n#", start)
    return text[start:] if end < 0 else text[start:end]


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.name)
def test_claim_holds(claim):
    verdict = judge(claim, committed()["rows"])
    assert verdict.holds, f"{claim.name} fails on {dict(zip(claim.reads, verdict.values))}"


def test_claim_names_are_unique_and_each_figure_reports_its_claims():
    names = [claim.name for claim in CLAIMS]
    assert len(names) == len(set(names))
    figures = dict.fromkeys(claim.figure for claim in CLAIMS)
    reports = evaluate(committed()["rows"])
    assert [(r.figure, [v.claim.name for v in r.verdicts]) for r in reports] == [
        (figure, [c.name for c in CLAIMS if c.figure == figure]) for figure in figures
    ]


def test_every_claim_is_cited_beside_its_sentence():
    """Each claim's sentence is in EXPERIMENTS.md, and the paragraph,
    bullet or table row holding it cites the claim by name."""
    blocks = re.split(r"\n\s*\n|\n(?=\* )|\n(?=\| )", doc_text())
    for claim in CLAIMS:
        citing = [block for block in blocks if f"`{claim.name}`" in block]
        assert citing, f"EXPERIMENTS.md does not cite {claim.name}"
        assert any(claim.sentence in " ".join(block.split()) for block in citing), (
            f"{claim.name} is cited away from its sentence {claim.sentence!r}"
        )


def test_every_cited_claim_exists():
    cited = set(re.findall(r"`((?:fig\d+|ablation|ext)[a-z0-9]*-[a-z0-9.-]+)`", doc_text()))
    assert cited <= {claim.name for claim in CLAIMS}, cited


@pytest.mark.parametrize("name", sorted(TABLES))
def test_experiments_table_matches_rows(name):
    heading, table = doc_table(name, committed()["rows"])
    assert diff_table(table, section(doc_text(), heading), "EXPERIMENTS.md") == []


def test_rows_were_written_with_the_committed_digests():
    """``--experiments --regen`` writes both files; regenerating one
    without the other breaks this."""
    document = committed()
    assert document["digests_sha256"] == file_sha256(EXPERIMENTS_PATH)
    with open(EXPERIMENTS_PATH, encoding="utf-8") as handle:
        digest_sets = {name.split("/")[0] for name in json.load(handle)}
    assert sorted(document["rows"]) == sorted(RUN_SETS) == sorted(digest_sets)
