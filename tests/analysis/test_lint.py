"""Tests for the AST lint suite: broken corpus, suppression, scoping."""

import os
import re
from pathlib import Path

import pytest

from repro.analysis import lint_codes
from repro.analysis.checkers import default_checkers
from repro.analysis.engine import lint_paths as _lint_paths
from repro.analysis.engine import lint_source as _lint_source
from repro.analysis.lint import DEFAULT_TARGETS, lint
from repro.analysis.rules import RULES, RuleChecker

CORPUS = os.path.join(os.path.dirname(__file__), "fixtures", "lint")
REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def lint_paths(paths):
    return _lint_paths(paths, default_checkers())


def lint_source(source, path):
    return _lint_source(path, source, default_checkers())

#: (corpus file, codes it must raise)
CASES = [
    ("repro/simnet/bad_clock.py", {"GA502", "GA503"}),
    ("repro/net/bad_async.py", {"GA504", "GA505"}),
    ("repro/streams/bad_except.py", {"GA507"}),
    ("repro/core/bad_metrics.py", {"GA501", "GA506"}),
    ("repro/core/bad_docstring.py", {"GA508"}),
    ("repro/ledger/bad_det.py", {"GA509"}),
    ("repro/net/ga520_second_definition.py", {"GA520"}),
    ("repro/core/ga521_processor_call.py", {"GA521"}),
    ("repro/core/ga522_source_read.py", {"GA522"}),
    ("repro/grid/ga523_second_call_site.py", {"GA523"}),
    ("examples/ga524_direct_runtime.py", {"GA524"}),
    ("repro/core/ga525_stray_snapshot.py", {"GA525"}),
    ("repro/core/ga526_keyed_option.py", {"GA526"}),
    ("repro/net/ga527_heavy_import.py", {"GA527"}),
    ("repro/grid/ga528_xml_reader.py", {"GA528"}),
    ("repro/obs/ga529_package_export.py", {"GA529"}),
    ("repro/simnet/aliased_imports.py", {"GA502", "GA503"}),
    ("repro/net/aliased_sleep.py", {"GA504"}),
    ("repro/ledger/aliased_det.py", {"GA509"}),
]

#: ``# expect: GAxxx`` marks a line the fixture must be reported on.
EXPECT = re.compile(r"#\s*expect:\s*(GA\d{3})")


@pytest.mark.parametrize("relpath,codes", CASES)
def test_broken_fixture_raises_its_codes(relpath, codes):
    """A fixture raises its codes; one that marks lines ``# expect: GAxxx``
    is reported on exactly those lines (aliases and second call sites
    cannot hide)."""
    report = lint_paths([os.path.join(CORPUS, relpath)])
    assert set(report.codes()) == codes, report.render_text()
    lines = Path(CORPUS, relpath).read_text(encoding="utf-8").splitlines()
    marked = {(number, match.group(1)) for number, line in enumerate(lines, 1)
              for match in [EXPECT.search(line)] if match}
    if marked:
        assert {(d.span.line, d.code) for d in report.diagnostics} == marked


def test_corpus_as_a_whole_fails():
    report = lint_paths([CORPUS])
    assert not report.ok
    assert set(report.codes()) == {c for _, cs in CASES for c in cs}


def test_every_lint_code_is_exercised():
    """GA500 (engine meta) is covered by the syntax-error/noqa tests
    below; every real rule has a corpus fixture."""
    corpus_codes = {c for _, cs in CASES for c in cs}
    assert corpus_codes | {"GA500"} == {info.code for info in lint_codes()}


def test_every_rule_fires_on_its_fixture():
    """Each row of the table, run alone, reports its code on the fixture
    it names, and the fixture is one of ``CASES``."""
    cases = dict(CASES)
    assert len({rule.id for rule in RULES}) == len(RULES)
    for rule in RULES:
        assert rule.code in cases[rule.fixture], rule.id
        report = _lint_paths([os.path.join(CORPUS, rule.fixture)], [RuleChecker([rule])])
        assert report.codes() == [rule.code], rule.id


def test_repo_is_lint_clean():
    """src/repro and examples pass their own lint — the CI gate, run as a
    test, and the tier-1 home of every architecture rule."""
    targets = [os.path.join(REPO_ROOT, t) for t in DEFAULT_TARGETS]
    report = lint(targets)
    assert report.clean, report.render_text()


class TestScoping:
    """Module-path scoping: the same source is fine outside its scope."""

    def test_wall_clock_allowed_outside_simnet(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        assert lint_source(source, "repro/obs/clock.py").clean

    def test_blocking_call_allowed_in_sync_function(self):
        source = "import time\n\ndef f():\n    time.sleep(1)\n"
        assert lint_source(source, "repro/net/util.py").clean

    def test_module_anchored_at_last_repro_component(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        path = "somewhere/deep/repro/simnet/clock.py"
        assert "GA502" in lint_source(source, path).codes()


class TestSuppression:
    def test_noqa_comment_suppresses_its_code(self):
        source = (
            "# repro: noqa[GA502]\n"
            "import time\n\ndef f():\n    return time.time()\n"
        )
        assert lint_source(source, "repro/simnet/clock.py").clean

    def test_noqa_does_not_suppress_other_codes(self):
        source = (
            "# repro: noqa[GA503]\n"
            "import time\n\ndef f():\n    return time.time()\n"
        )
        assert "GA502" in lint_source(source, "repro/simnet/clock.py").codes()

    def test_unknown_code_in_noqa_is_reported(self):
        report = lint_source("# repro: noqa[GA999]\n", "repro/simnet/x.py")
        assert "GA500" in report.codes()

    def test_trailing_noqa_suppresses_only_its_line(self):
        source = (
            "import time\n\n"
            "def f():\n"
            "    a = time.time()  # repro: noqa[GA502]\n"
            "    b = time.time()\n"
            "    return a + b\n"
        )
        report = lint_source(source, "repro/simnet/clock.py")
        assert report.codes() == ["GA502"], report.render_text()
        assert [d.span.line for d in report.diagnostics] == [5]

    def test_trailing_noqa_does_not_suppress_other_codes(self):
        source = (
            "import time\n\n"
            "def f():\n"
            "    return time.time()  # repro: noqa[GA503]\n"
        )
        report = lint_source(source, "repro/simnet/clock.py")
        assert "GA502" in report.codes()

    def test_trailing_unknown_code_is_reported(self):
        source = "import time\n\nx = time.time()  # repro: noqa[GA999]\n"
        report = lint_source(source, "repro/simnet/clock.py")
        assert "GA500" in report.codes()

    def test_noqa_in_docstring_is_not_a_marker(self):
        source = (
            '"""Mentions # repro: noqa[GA502] in prose only."""\n'
            "import time\n\ndef f():\n    return time.time()\n"
        )
        assert "GA502" in lint_source(source, "repro/simnet/clock.py").codes()


def test_syntax_error_becomes_ga500():
    report = lint_source("def broken(:\n", "repro/simnet/x.py")
    assert "GA500" in report.codes()
    assert not report.ok
