"""The simulated grid a configuration runs on.

A :class:`GridFabric` is a simulated star network (the paper's testbed
shape: leaf hosts around one center) plus the grid services the
Launcher needs on it: a registry advertising its hosts, a code
repository holding every built-in application's codes (publish more
into it), and a Deployer and Launcher over both.  The simulated runtime
of :func:`repro.core.run.run` takes its fabric as an argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.grid.admission import builtin_repository
from repro.grid.deployer import Deployer
from repro.grid.launcher import Launcher
from repro.grid.registry import ServiceRegistry
from repro.grid.repository import CodeRepository
from repro.simnet.engine import Environment
from repro.simnet.topology import Network

__all__ = ["GridFabric", "build_star_fabric", "star_fabric"]


@dataclass
class GridFabric:
    """One assembled simulated grid."""

    env: Environment
    network: Network
    registry: ServiceRegistry
    repository: CodeRepository
    deployer: Deployer
    launcher: Launcher
    source_hosts: List[str]
    center_host: str


def star_fabric(
    leaves: Sequence[str],
    center: str = "central",
    *,
    bandwidth: float,
    latency: float = 0.0,
    leaf_cores: int = 1,
    center_cores: int = 4,
) -> GridFabric:
    """``leaves`` each linked to ``center`` at ``bandwidth`` bytes/second."""
    network = Network.star(
        Environment(), center, leaves, bandwidth=bandwidth, latency=latency,
        center_cores=center_cores, leaf_cores=leaf_cores,
    )
    registry = ServiceRegistry()
    registry.register_network(network)
    repository = builtin_repository()
    deployer = Deployer(registry, repository)
    return GridFabric(
        network.env, network, registry, repository, deployer, Launcher(deployer),
        list(leaves), center,
    )


def build_star_fabric(
    n_sources: int,
    bandwidth: float,
    latency: float = 0.0,
    center: str = "central",
    center_cores: int = 4,
) -> GridFabric:
    """The paper's testbed: N sources ``source-i`` around a center (the
    paper sweeps ``bandwidth`` over 1 KB/s ... 1 MB/s)."""
    if n_sources < 1:
        raise ValueError(f"n_sources must be >= 1, got {n_sources}")
    return star_fabric(
        [f"source-{i}" for i in range(n_sources)], center, bandwidth=bandwidth,
        latency=latency, center_cores=center_cores,
    )
