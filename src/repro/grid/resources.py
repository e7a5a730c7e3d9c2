"""Resource descriptions and requirements for grid matchmaking.

A :class:`ResourceOffer` is what a host advertises to the registry (the
MDS GLUE-schema analogue); a :class:`ResourceRequirement` is what a stage
declares in the application configuration.  The matchmaker scores offers
against requirements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["ResourceOffer", "ResourceRequirement"]


@dataclass(frozen=True)
class ResourceRequirement:
    """A stage's declared resource needs.

    Attributes
    ----------
    min_cores:
        Minimum CPU cores the stage needs on its host.
    min_memory_mb:
        Minimum advertised memory.
    min_speed_factor:
        Minimum relative CPU speed.
    placement_hint:
        Optional host name (or ``near:<host>`` to request adjacency to a
        stream source) steering placement; the paper places first-stage
        filters "near sources of individual streams".
    min_bandwidth_to:
        Map of peer host name -> minimum required path bandwidth
        (bytes/second).  Lets the configuration express "needs a fat pipe
        to the central analysis node".
    """

    min_cores: int = 1
    min_memory_mb: float = 0.0
    min_speed_factor: float = 0.0
    placement_hint: Optional[str] = None
    min_bandwidth_to: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.min_cores < 1:
            raise ValueError(f"min_cores must be >= 1, got {self.min_cores}")
        if self.min_memory_mb < 0:
            raise ValueError(f"min_memory_mb must be >= 0, got {self.min_memory_mb}")
        if self.min_speed_factor < 0:
            raise ValueError(
                f"min_speed_factor must be >= 0, got {self.min_speed_factor}"
            )
        for peer, bw in self.min_bandwidth_to.items():
            if bw <= 0:
                raise ValueError(f"min bandwidth to {peer!r} must be > 0, got {bw}")


@dataclass(frozen=True)
class ResourceOffer:
    """A host's advertised capabilities, as stored in the registry."""

    host_name: str
    cores: int
    speed_factor: float
    memory_mb: float

    def satisfies(self, requirement: ResourceRequirement) -> bool:
        """Static (bandwidth-agnostic) feasibility check."""
        return (
            self.cores >= requirement.min_cores
            and self.memory_mb >= requirement.min_memory_mb
            and self.speed_factor >= requirement.min_speed_factor
        )

    def score(self, requirement: ResourceRequirement) -> float:
        """Headroom score used to rank feasible offers (higher = better).

        Normalized slack in each dimension; a simple scalarization that
        prefers hosts with the most spare capacity, which spreads stages
        across the grid the way the GT3 broker's default ranking did.
        """
        if not self.satisfies(requirement):
            return float("-inf")
        core_slack = (self.cores - requirement.min_cores) / max(self.cores, 1)
        mem_slack = 0.0
        if self.memory_mb > 0:
            mem_slack = (self.memory_mb - requirement.min_memory_mb) / self.memory_mb
        speed_slack = self.speed_factor - requirement.min_speed_factor
        return core_slack + mem_slack + speed_slack
