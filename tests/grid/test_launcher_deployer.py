"""Integration tests: Launcher + Deployer over the grid substrate."""

import pytest

from repro.grid.config import AppConfig, StageConfig, StreamConfig
from repro.grid.deployer import Deployer, DeploymentError
from repro.grid.launcher import Launcher
from repro.grid.registry import ServiceRegistry
from repro.grid.repository import CodeRepository
from repro.grid.resources import ResourceRequirement
from repro.grid.services import ServiceState
from repro.simnet.engine import Environment
from repro.simnet.topology import Network


class FilterStage:
    pass


class JoinStage:
    pass


def make_fabric():
    env = Environment()
    net = Network.star(env, "hub", ["src-0", "src-1"], bandwidth=100_000.0)
    registry = ServiceRegistry()
    registry.register_network(net)
    repo = CodeRepository()
    repo.publish("repo://app/filter", FilterStage)
    repo.publish("repo://app/join", JoinStage)
    return env, net, registry, repo


def make_config():
    return AppConfig(
        name="app",
        stages=[
            StageConfig(
                "filter-0",
                "repo://app/filter",
                requirement=ResourceRequirement(placement_hint="near:src-0"),
            ),
            StageConfig(
                "filter-1",
                "repo://app/filter",
                requirement=ResourceRequirement(placement_hint="near:src-1"),
            ),
            StageConfig(
                "join",
                "repo://app/join",
                requirement=ResourceRequirement(min_cores=2),
            ),
        ],
        streams=[
            StreamConfig("s0", "filter-0", "join"),
            StreamConfig("s1", "filter-1", "join"),
        ],
    )


class TestDeployer:
    def test_full_deployment(self):
        env, net, registry, repo = make_fabric()
        deployment = Deployer(registry, repo).deploy(make_config())
        assert deployment.host_of("filter-0") == "src-0"
        assert deployment.host_of("filter-1") == "src-1"
        assert deployment.host_of("join") == "hub"
        for stage in ("filter-0", "filter-1", "join"):
            assert deployment.instance_of(stage).state is ServiceState.ACTIVE
        hosts = sorted({p.host_name for p in deployment.placements.values()})
        assert hosts == ["hub", "src-0", "src-1"]

    def test_instances_published_in_registry(self):
        env, net, registry, repo = make_fabric()
        Deployer(registry, repo).deploy(make_config())
        assert "gates/hub/app/join" in registry.services()
        assert "gates/src-0/app/filter-0" in registry.services()

    def test_processor_instantiation_from_deployment(self):
        env, net, registry, repo = make_fabric()
        deployment = Deployer(registry, repo).deploy(make_config())
        proc = deployment.instance_of("join").instantiate_processor()
        assert isinstance(proc, JoinStage)

    def test_missing_code_fails_before_any_instantiation(self):
        env, net, registry, repo = make_fabric()
        cfg = make_config()
        cfg.stages[2].code_url = "repo://app/ghost"
        with pytest.raises(DeploymentError):
            Deployer(registry, repo).deploy(cfg)
        # Atomicity: nothing left behind in the registry.
        assert not registry.services(prefix="gates/")

    def test_infeasible_requirements_fail(self):
        env, net, registry, repo = make_fabric()
        cfg = make_config()
        cfg.stages[2].requirement = ResourceRequirement(min_cores=1024)
        with pytest.raises(DeploymentError):
            Deployer(registry, repo).deploy(cfg)

    def test_invalid_config_rejected(self):
        env, net, registry, repo = make_fabric()
        cfg = make_config()
        cfg.streams.append(StreamConfig("bad", "join", "ghost"))
        with pytest.raises(Exception):
            Deployer(registry, repo).deploy(cfg)

    def test_teardown_destroys_instances(self):
        env, net, registry, repo = make_fabric()
        deployment = Deployer(registry, repo).deploy(make_config())
        deployment.teardown()
        assert not registry.services(prefix="gates/")
        for placement in deployment.placements.values():
            assert placement.instance.state is ServiceState.DESTROYED

    def test_unplaced_stage_lookup_raises(self):
        env, net, registry, repo = make_fabric()
        deployment = Deployer(registry, repo).deploy(make_config())
        with pytest.raises(DeploymentError):
            deployment.host_of("ghost")
        with pytest.raises(DeploymentError):
            deployment.instance_of("ghost")

    def test_service_lifetime_applied(self):
        env, net, registry, repo = make_fabric()
        deployer = Deployer(registry, repo, service_lifetime=60.0)
        deployment = deployer.deploy(make_config())
        inst = deployment.instance_of("join")
        assert inst.expires_at == 60.0


class TestLauncher:
    def test_launch_from_appconfig(self):
        env, net, registry, repo = make_fabric()
        launcher = Launcher(Deployer(registry, repo))
        deployment = launcher.launch(make_config())
        assert len(deployment.placements) == 3

    def test_launch_from_xml_string(self):
        env, net, registry, repo = make_fabric()
        launcher = Launcher(Deployer(registry, repo))
        deployment = launcher.launch(make_config().to_xml())
        assert deployment.host_of("join") == "hub"

    def test_launch_from_file(self, tmp_path):
        env, net, registry, repo = make_fabric()
        path = tmp_path / "app.xml"
        path.write_text(make_config().to_xml(), encoding="utf-8")
        launcher = Launcher(Deployer(registry, repo))
        deployment = launcher.launch(str(path))
        assert deployment.config.name == "app"

    def test_missing_file_raises(self):
        env, net, registry, repo = make_fabric()
        launcher = Launcher(Deployer(registry, repo))
        with pytest.raises(Exception):
            launcher.launch("/no/such/file.xml")
