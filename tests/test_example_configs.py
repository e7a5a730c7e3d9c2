"""The shipped example XML configurations must stay valid and deployable."""

import glob
import os

import pytest

from repro.cli import main
from repro.experiments.common import build_star_fabric
from repro.grid.config import AppConfig

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "examples", "configs")
CONFIG_FILES = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.xml")))


def test_config_files_exist():
    assert len(CONFIG_FILES) >= 5


@pytest.mark.parametrize("path", CONFIG_FILES, ids=os.path.basename)
def test_parses_and_validates(path):
    with open(path, "r", encoding="utf-8") as handle:
        config = AppConfig.from_xml(handle.read())
    config.validate()
    assert config.stages


@pytest.mark.parametrize("path", CONFIG_FILES, ids=os.path.basename)
def test_full_verifier_reports_nothing(path):
    """Shipped configs pass the semantic verifier with zero findings —
    not merely zero errors: warnings in the examples would teach users
    to ignore them."""
    from repro.analysis import verify_path

    fabric = build_star_fabric(4, bandwidth=100_000.0)
    report = verify_path(
        path, repository=fabric.repository, registry=fabric.registry
    )
    assert report.clean, report.render_text()


@pytest.mark.parametrize("path", CONFIG_FILES, ids=os.path.basename)
def test_cli_check_accepts(path, capsys):
    assert main(["check", path]) == 0
    assert "OK" in capsys.readouterr().out


@pytest.mark.parametrize("path", CONFIG_FILES, ids=os.path.basename)
def test_deployable_on_default_star(path):
    with open(path, "r", encoding="utf-8") as handle:
        config = AppConfig.from_xml(handle.read())
    fabric = build_star_fabric(4, bandwidth=100_000.0)
    deployment = fabric.launcher.launch(config)
    assert len(deployment.placements) == len(config.stages)
    deployment.teardown()


def test_comments_inside_elements_tolerated(tmp_path):
    doc = """<application name='commented'>
      <!-- a filter stage -->
      <stage name='a' code='repo://count-samps/relay'>
        <!-- no requirements -->
      </stage>
    </application>"""
    config = AppConfig.from_xml(doc)
    assert config.stage("a").code_url == "repo://count-samps/relay"
