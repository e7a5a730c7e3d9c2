"""One admission path: every runtime admits the same configurations
against the same built-in repository, and refuses the same ones with
the same text (``repro.grid.admission``)."""

import glob
import os

import pytest

from repro.core.runtime_threads import ThreadedRuntime, ThreadedRuntimeError
from repro.experiments.common import build_star_fabric
from repro.grid.admission import admit, builtin_repository
from repro.grid.config import AppConfig
from repro.grid.deployer import DeploymentError
from repro.net.coordinator import NetworkedRuntime, NetworkedRuntimeError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples", "configs")
CONFIG_FILES = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.xml")))


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return AppConfig.from_xml(handle.read())


def test_every_example_config_is_checked_here():
    assert len(CONFIG_FILES) == 5


@pytest.mark.parametrize("path", CONFIG_FILES, ids=os.path.basename)
def test_all_three_runtimes_admit_every_example(path):
    config = load(path)
    deployment = build_star_fabric(4, bandwidth=100_000.0).launcher.launch(config)
    assert len(deployment.placements) == len(config.stages)
    deployment.teardown()
    threaded = ThreadedRuntime.from_config(config)
    assert set(threaded._stages) == {s.name for s in config.stages}
    networked = NetworkedRuntime(config, workers=2)
    assert [s.name for s in networked.config.stages] == [s.name for s in config.stages]


def unpublished_config():
    config = load(os.path.join(CONFIG_DIR, "comp_steer.xml"))
    config.stage("analysis").code_url = "repo://comp-steer/missing"
    return config


def test_all_three_runtimes_refuse_an_unpublished_url_with_one_text():
    refusals = []
    for error, admit_on in (
        (DeploymentError, build_star_fabric(4, bandwidth=100_000.0).launcher.launch),
        (ThreadedRuntimeError, ThreadedRuntime.from_config),
        (NetworkedRuntimeError, lambda config: NetworkedRuntime(config, workers=2)),
    ):
        with pytest.raises(error) as raised:
            admit_on(unpublished_config())
        refusals.append(str(raised.value))
    assert "GA301" in refusals[0]
    assert "no code published at 'repo://comp-steer/missing'" in refusals[0]
    assert refusals[1] == refusals[0]
    assert refusals[2] == refusals[0]


def test_an_unfetchable_code_fails_admission_without_the_gate():
    with pytest.raises(ThreadedRuntimeError) as raised:
        admit(unpublished_config(), ThreadedRuntimeError, verify=False)
    assert str(raised.value) == (
        "stage 'analysis': cannot fetch code 'repo://comp-steer/missing': "
        "no code published at 'repo://comp-steer/missing'"
    )


def test_the_builtin_repository_publishes_every_application():
    urls = builtin_repository().urls()
    for app in ("count-samps", "comp-steer", "intrusion"):
        assert any(url.startswith(f"repo://{app}/") for url in urls), app
    assert urls == build_star_fabric(1, bandwidth=1.0).repository.urls()
