"""OGSA-style grid service containers and the GATES service instance.

In GT3, a *grid service* is a stateful web service instance created by a
factory, carrying a lifetime, and destroyable by clients.  GATES runs one
grid-service instance per pipeline stage; the Deployer "initiates instances
of GATES grid services at the nodes ... and uploads the stage specific
codes to every instance, thereby customizing it" (Section 3.2).

:class:`ServiceContainer` is the per-host hosting environment (one per
host, like a GT3 container listening on a port); it creates and tracks
:class:`GatesServiceInstance` objects.  An instance starts *created*, is
*customized* by uploading stage code, then *activated*; destruction is
explicit or via lifetime expiry.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable, Dict, Optional

from repro.grid.registry import RegistryError, ServiceRegistry
from repro.simnet.hosts import Host

__all__ = ["GatesServiceInstance", "ServiceContainer", "ServiceError", "ServiceState"]


class ServiceError(Exception):
    """Raised on invalid service lifecycle transitions or lookups."""


class ServiceState(enum.Enum):
    """Lifecycle states of a grid service instance."""

    CREATED = "created"
    CUSTOMIZED = "customized"
    ACTIVE = "active"
    DESTROYED = "destroyed"


class GatesServiceInstance:
    """One GATES grid-service instance: the container cell for stage code.

    The instance is deliberately ignorant of stream semantics — it holds a
    *factory* for the user's stage processor plus opaque customization
    properties.  The runtime layer (:mod:`repro.core.runtime_sim`) later
    asks the instance to instantiate the processor.
    """

    _ids = itertools.count(1)

    def __init__(self, container: "ServiceContainer", name: str, lifetime: Optional[float]) -> None:
        self.container = container
        self.name = name
        self.instance_id = next(self._ids)
        self.state = ServiceState.CREATED
        self.created_at = container.host.env.now
        #: Absolute expiry time (None = unlimited), in the OGSA soft-state
        #: lifetime style; keepalive() extends it.
        self.expires_at: Optional[float] = (
            None if lifetime is None else self.created_at + lifetime
        )
        self._factory: Optional[Callable[..., Any]] = None
        self._properties: Dict[str, Any] = {}

    # -- lifecycle ---------------------------------------------------------

    def customize(self, factory: Callable[..., Any], **properties: Any) -> None:
        """Upload stage code (a processor factory) and its properties."""
        self._require_not_destroyed()
        if self.state is ServiceState.ACTIVE:
            raise ServiceError(f"{self.name}: cannot customize an active instance")
        self._factory = factory
        self._properties = dict(properties)
        self.state = ServiceState.CUSTOMIZED

    def activate(self) -> None:
        """Mark the instance ready to process; requires prior customization."""
        self._require_not_destroyed()
        if self.state is not ServiceState.CUSTOMIZED:
            raise ServiceError(f"{self.name}: activate before customize")
        self.state = ServiceState.ACTIVE

    def destroy(self) -> None:
        """Explicitly destroy the instance (idempotent)."""
        if self.state is ServiceState.DESTROYED:
            return
        self.state = ServiceState.DESTROYED
        self.container._forget(self.name)

    def keepalive(self, extension: float) -> None:
        """Extend the soft-state lifetime by ``extension`` seconds."""
        self._require_not_destroyed()
        if extension <= 0:
            raise ServiceError(f"keepalive extension must be > 0, got {extension}")
        if self.expires_at is not None:
            # OGSA-style set-termination-time: the new lifetime is counted
            # from now, not appended to the previous one.
            self.expires_at = self.container.host.env.now + extension

    @property
    def expired(self) -> bool:
        """True once the soft-state lifetime has lapsed."""
        return (
            self.expires_at is not None
            and self.container.host.env.now >= self.expires_at
        )

    # -- stage instantiation ------------------------------------------------

    def instantiate_processor(self, *args: Any, **kwargs: Any) -> Any:
        """Create the user's stage processor from the uploaded factory."""
        if self.state is not ServiceState.ACTIVE:
            raise ServiceError(
                f"{self.name}: processor requested in state {self.state.value}"
            )
        assert self._factory is not None
        return self._factory(*args, **kwargs)

    @property
    def properties(self) -> Dict[str, Any]:
        """Customization properties uploaded with the stage code."""
        return dict(self._properties)

    def _require_not_destroyed(self) -> None:
        if self.state is ServiceState.DESTROYED:
            raise ServiceError(f"{self.name}: instance destroyed")

    def __repr__(self) -> str:
        return (
            f"GatesServiceInstance({self.name!r}, id={self.instance_id}, "
            f"state={self.state.value}, host={self.container.host.name!r})"
        )


class ServiceContainer:
    """Per-host hosting environment for grid service instances."""

    def __init__(self, host: Host, registry: Optional[ServiceRegistry] = None) -> None:
        self.host = host
        self.registry = registry
        self._instances: Dict[str, GatesServiceInstance] = {}

    def create_instance(
        self, name: str, lifetime: Optional[float] = None
    ) -> GatesServiceInstance:
        """Factory operation: create a named service instance.

        The instance is also published in the registry (if attached) under
        ``gates/<host>/<name>`` so peers can discover it.
        """
        if name in self._instances:
            raise ServiceError(f"instance {name!r} already exists on {self.host.name}")
        instance = GatesServiceInstance(self, name, lifetime)
        self._instances[name] = instance
        if self.registry is not None:
            self.registry.register_service(self._registry_key(name), instance)
        return instance

    def instance(self, name: str) -> GatesServiceInstance:
        """Look up a live instance by name."""
        try:
            return self._instances[name]
        except KeyError:
            raise ServiceError(
                f"no instance {name!r} on host {self.host.name!r}"
            ) from None

    @property
    def instances(self) -> Dict[str, GatesServiceInstance]:
        return dict(self._instances)

    def _forget(self, name: str) -> None:
        self._instances.pop(name, None)
        if self.registry is not None:
            try:
                self.registry.deregister_service(self._registry_key(name))
            except RegistryError:
                # Never registered (container created without activation
                # registration); nothing to deregister.
                pass

    def _registry_key(self, name: str) -> str:
        return f"gates/{self.host.name}/{name}"

    def __repr__(self) -> str:
        return f"ServiceContainer(host={self.host.name!r}, instances={len(self._instances)})"
