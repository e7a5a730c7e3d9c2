"""The Deployer: turns a validated configuration into placed service instances.

Section 3.2 enumerates the Deployer's responsibilities; each maps to a
step of :meth:`Deployer.deploy`:

1. receive the configuration information from the Launcher,
2. consult a grid resource manager (:class:`~repro.grid.matchmaker.Matchmaker`)
   to find nodes with the required resources,
3. initiate instances of GATES grid services at those nodes
   (:class:`~repro.grid.services.ServiceContainer`),
4. retrieve the stage codes from the application repositories
   (:class:`~repro.grid.repository.CodeRepository`),
5. upload the stage-specific codes to every instance, customizing it.

The result is a :class:`Deployment`: the mapping of stages to hosts plus
the activated service instances, ready for a runtime to wire streams and
start processing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

from repro.grid.admission import admit
from repro.grid.config import AppConfig, StageConfig
from repro.grid.matchmaker import Matchmaker
from repro.grid.registry import ServiceRegistry
from repro.grid.repository import CodeRepository
from repro.grid.services import GatesServiceInstance, ServiceContainer

__all__ = ["Deployer", "Deployment", "DeploymentError", "Placement"]


class DeploymentError(Exception):
    """Raised when an application cannot be deployed."""


@dataclass(frozen=True)
class Placement:
    """One stage's placement decision."""

    stage_name: str
    host_name: str
    instance: GatesServiceInstance


@dataclass
class Deployment:
    """A deployed (but not yet running) application."""

    config: AppConfig
    placements: Dict[str, Placement] = field(default_factory=dict)

    def host_of(self, stage_name: str) -> str:
        """Host a stage was placed on."""
        try:
            return self.placements[stage_name].host_name
        except KeyError:
            raise DeploymentError(f"stage {stage_name!r} not placed") from None

    def instance_of(self, stage_name: str) -> GatesServiceInstance:
        """Service instance hosting a stage's code."""
        try:
            return self.placements[stage_name].instance
        except KeyError:
            raise DeploymentError(f"stage {stage_name!r} not placed") from None

    def teardown(self) -> None:
        """Destroy every service instance of this deployment."""
        for placement in self.placements.values():
            placement.instance.destroy()


class Deployer:
    """Deploys applications onto the grid fabric."""

    def __init__(
        self,
        registry: ServiceRegistry,
        repository: CodeRepository,
        service_lifetime: float | None = None,
    ) -> None:
        self.registry = registry
        self.repository = repository
        self.matchmaker = Matchmaker(registry)
        #: Soft-state lifetime for created instances (None = unlimited).
        self.service_lifetime = service_lifetime
        self._containers: Dict[str, ServiceContainer] = {}

    def container_for(self, host_name: str) -> ServiceContainer:
        """The (lazily created) service container on ``host_name``."""
        container = self._containers.get(host_name)
        if container is None:
            host = self.registry.network.host(host_name)
            container = ServiceContainer(host, registry=self.registry)
            self._containers[host_name] = container
        return container

    def place(
        self, config: AppConfig, verify: bool = True
    ) -> Tuple[AppConfig, Dict[str, Callable[..., Any]], Dict[str, str]]:
        """Steps 1, 2 and 4 of :meth:`deploy`, which starts nothing: the
        admitted (shard-expanded) config, each stage's factory, and the
        host matched to each stage.

        Step 1, with step 4 hoisted, is :func:`~repro.grid.admission.admit`
        against this deployer's repository and registry; its replica
        slots are matched one by one, so a group spreads across nodes.
        ``verify=False`` skips the static verifier (the CLI's ``--no-verify``).
        """
        config, factories = admit(
            config, DeploymentError, repository=self.repository,
            verify=verify, registry=self.registry,
        )
        requirements = [(s.name, s.requirement) for s in config.stages]
        try:
            assignment = self.matchmaker.match_all(requirements)
        except Exception as exc:
            raise DeploymentError(f"resource matching failed: {exc}") from exc
        return config, factories, assignment

    def deploy(self, config: AppConfig, verify: bool = True) -> Deployment:
        """Run the five-step deployment of Section 3.2: :meth:`place`,
        then create, customize and activate one service instance per
        stage on its host."""
        config, factories, assignment = self.place(config, verify)

        # Steps 3 + 5: instantiate and customize service instances.
        deployment = Deployment(config=config)
        try:
            for stage in config.stages:
                host_name = assignment[stage.name]
                deployment.placements[stage.name] = Placement(
                    stage_name=stage.name,
                    host_name=host_name,
                    instance=self._launch(config, stage, host_name, factories[stage.name]),
                )
        except Exception as exc:
            deployment.teardown()
            raise DeploymentError(f"deployment of {config.name!r} failed: {exc}") from exc
        return deployment

    def replace_instance(self, deployment: Deployment, stage_name: str, host_name: str) -> None:
        """Move ``stage_name``'s service instance onto ``host_name``.

        Create before destroy: the stage code is fetched and the
        replacement created, customized and activated before the old
        instance is destroyed, so a failure at any step leaves
        ``deployment`` pointing at the old instance.  Raises
        :class:`DeploymentError` ("code vanished from repository: ..." or
        "replacement activation failed: ..."); the Redeployer and the
        Migrator each add their own context.
        """
        stage = deployment.config.stage(stage_name)
        try:
            factory = self.repository.fetch(stage.code_url)
        except Exception as exc:
            raise DeploymentError(f"code vanished from repository: {exc}") from exc
        try:
            instance = self._launch(deployment.config, stage, host_name, factory)
        except Exception as exc:
            raise DeploymentError(f"replacement activation failed: {exc}") from exc
        deployment.placements[stage_name].instance.destroy()
        deployment.placements[stage_name] = Placement(
            stage_name=stage_name, host_name=host_name, instance=instance
        )

    def _launch(
        self, config: AppConfig, stage: StageConfig, host_name: str, factory: Any
    ) -> GatesServiceInstance:
        """Create, customize and activate ``stage``'s instance on
        ``host_name``; an instance that fails to activate is destroyed."""
        instance = self.container_for(host_name).create_instance(
            f"{config.name}/{stage.name}", lifetime=self.service_lifetime
        )
        try:
            instance.customize(factory, **stage.properties)
            instance.activate()
        except Exception:
            instance.destroy()
            raise
        return instance
