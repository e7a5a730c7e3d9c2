"""MDS-like index service: hosts and service instances register here.

The Globus Monitoring and Discovery Service (MDS) let GT3 clients query
"which resources exist and what can they do".  :class:`ServiceRegistry`
provides the same two directories in-process:

* a *resource directory* of :class:`~repro.grid.resources.ResourceOffer`
  entries, fed from a :class:`~repro.simnet.topology.Network`;
* a *service directory* of running service instances (name -> handle),
  used by stages to locate their upstream/downstream peers after
  deployment, and by the user-facing API to find applications.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.grid.resources import ResourceOffer
from repro.simnet.topology import Network

__all__ = ["RegistryError", "ServiceRegistry"]


class RegistryError(Exception):
    """Raised on duplicate registrations or failed lookups."""


class ServiceRegistry:
    """In-process stand-in for the Globus index service."""

    def __init__(self) -> None:
        self._offers: Dict[str, ResourceOffer] = {}
        self._services: Dict[str, Any] = {}
        self._network: Optional[Network] = None

    # -- resource directory ---------------------------------------------------

    def register_offer(self, offer: ResourceOffer) -> None:
        """Advertise a host; re-registration updates the entry."""
        self._offers[offer.host_name] = offer

    def register_network(self, network: Network) -> None:
        """Advertise every host of ``network`` and retain it for bandwidth queries."""
        self._network = network
        for name, host in network.hosts.items():
            self.register_offer(
                ResourceOffer(
                    host_name=name,
                    cores=host.cores,
                    speed_factor=host.speed_factor,
                    memory_mb=host.memory_mb,
                )
            )

    @property
    def network(self) -> Network:
        """The registered network fabric (required for bandwidth matching)."""
        if self._network is None:
            raise RegistryError("no network registered")
        return self._network

    def offers(self) -> List[ResourceOffer]:
        """All advertised resource offers."""
        return list(self._offers.values())

    def offer(self, host_name: str) -> ResourceOffer:
        """The offer advertised by ``host_name``."""
        try:
            return self._offers[host_name]
        except KeyError:
            raise RegistryError(f"no offer registered for host {host_name!r}") from None

    # -- service directory ------------------------------------------------------

    def register_service(self, name: str, handle: Any) -> None:
        """Publish a running service instance under a unique name."""
        if name in self._services:
            raise RegistryError(f"service {name!r} already registered")
        self._services[name] = handle

    def deregister_service(self, name: str) -> None:
        """Remove a service instance (idempotent removal is an error)."""
        if name not in self._services:
            raise RegistryError(f"service {name!r} not registered")
        del self._services[name]

    def services(self, prefix: str = "") -> Dict[str, Any]:
        """All registered services, optionally filtered by name prefix."""
        return {n: h for n, h in self._services.items() if n.startswith(prefix)}
