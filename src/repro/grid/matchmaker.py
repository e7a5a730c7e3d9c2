"""Resource broker matching stage requirements to grid hosts.

The Deployer "consults with a grid resource manager to find the nodes where
the resources required by the individual stages are available"
(Section 3.2, step 2).  :class:`Matchmaker` is that resource manager: given
the per-stage :class:`~repro.grid.resources.ResourceRequirement` list from
the application configuration, it produces a host assignment that

* honours explicit ``placement_hint`` pins and ``near:<host>`` adjacency
  hints (first-stage filters go next to their sources),
* respects minimum core/memory/speed requirements,
* respects minimum path-bandwidth constraints between dependent stages,
* balances remaining stages by headroom score, never co-locating two
  stages on one host unless unavoidable (``allow_colocation``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.grid.registry import ServiceRegistry
from repro.grid.resources import ResourceRequirement
from repro.simnet.topology import TopologyError

if TYPE_CHECKING:
    from repro.grid.monitor import MonitoringService

__all__ = ["MatchError", "Matchmaker"]


class MatchError(Exception):
    """Raised when no feasible assignment exists."""


class Matchmaker:
    """Greedy, deterministic requirement -> host broker.

    Deterministic: ties between equally scored offers break on host name,
    so a given registry + requirements always yields the same assignment
    (important for repeatable experiments).
    """

    def __init__(
        self,
        registry: ServiceRegistry,
        allow_colocation: bool = True,
        monitor: Optional[MonitoringService] = None,
        utilization_weight: float = 1.0,
    ) -> None:
        self.registry = registry
        self.allow_colocation = allow_colocation
        #: Optional :class:`repro.grid.monitor.MonitoringService`; when set
        #: and it has produced a snapshot, currently-busy hosts are ranked
        #: down by ``utilization_weight * utilization`` (dynamic matching —
        #: the paper's "monitors ... the available computing resources").
        self.monitor = monitor
        if utilization_weight < 0:
            raise ValueError(
                f"utilization_weight must be >= 0, got {utilization_weight}"
            )
        self.utilization_weight = utilization_weight

    def match_one(
        self,
        requirement: ResourceRequirement,
        exclude: Optional[Set[str]] = None,
    ) -> str:
        """Choose a host for a single requirement.

        ``exclude`` contains host names already claimed by other stages
        (used when colocation is disabled or discouraged).
        """
        exclude = exclude or set()
        pinned = self._resolve_hint(requirement.placement_hint)
        if pinned is not None:
            if not self._alive(pinned):
                raise MatchError(f"placement hint {pinned!r} is on a failed host")
            offer = self.registry.offer(pinned)
            if not offer.satisfies(requirement):
                raise MatchError(
                    f"placement hint {pinned!r} cannot satisfy {requirement}"
                )
            if not self._bandwidth_ok(pinned, requirement):
                raise MatchError(
                    f"placement hint {pinned!r} lacks required bandwidth"
                )
            return pinned

        candidates = self._rank(requirement)
        if not candidates:
            raise MatchError(f"no host satisfies {requirement}")
        fresh = [name for _, name in candidates if name not in exclude]
        if fresh:
            return fresh[0]
        if self.allow_colocation:
            return candidates[0][1]
        raise MatchError(
            f"all feasible hosts already claimed and colocation disabled: {requirement}"
        )

    def match_relaxed(
        self, requirement: ResourceRequirement, exclude: Set[str], strict: bool = False
    ) -> str:
        """Choose a host, relaxing the placement pin once if it cannot hold.

        The one rule for re-placing a stage whose pin is unsatisfiable
        (a failover off its pinned host) or is what the move overrides
        (a migration): try ``requirement`` as declared; if that raises,
        or with ``strict`` lands on a host in ``exclude`` (a pin and the
        colocation fallback both override ``exclude``), retry once with
        ``placement_hint`` cleared.  Raises :class:`MatchError` when no
        acceptable host is left.
        """
        attempts = [requirement]
        if requirement.placement_hint is not None:
            attempts.append(replace(requirement, placement_hint=None))
        for attempt in attempts:
            try:
                host = self.match_one(attempt, exclude)
            except Exception:
                if attempt is attempts[-1]:
                    raise
                continue
            if not (strict and host in exclude):
                return host
        raise MatchError(f"every host for {requirement} is excluded ({sorted(exclude)})")

    def match_all(
        self,
        requirements: Sequence[Tuple[str, ResourceRequirement]],
    ) -> Dict[str, str]:
        """Assign hosts to a sequence of (stage_name, requirement) pairs.

        Pinned/hinted stages are placed first so they cannot be stolen by
        flexible stages; flexible stages then fill remaining hosts by
        score.
        """
        assignment: Dict[str, str] = {}
        claimed: Set[str] = set()

        hinted = [(n, r) for n, r in requirements if r.placement_hint is not None]
        flexible = [(n, r) for n, r in requirements if r.placement_hint is None]

        for name, req in hinted:
            host = self.match_one(req, exclude=claimed)
            assignment[name] = host
            claimed.add(host)
        for name, req in flexible:
            host = self.match_one(req, exclude=claimed)
            assignment[name] = host
            claimed.add(host)

        self._check_pairwise_bandwidth(assignment, dict(requirements))
        return assignment

    # -- internals -----------------------------------------------------------

    def _resolve_hint(self, hint: Optional[str]) -> Optional[str]:
        """Translate a placement hint into a concrete host name.

        ``near:<host>`` resolves to ``<host>`` itself if it is registered
        (co-location with a source is the closest possible placement),
        otherwise to its highest-bandwidth neighbor.
        """
        if hint is None:
            return None
        if not hint.startswith("near:"):
            # Direct pin; validated by caller via registry.offer().
            self.registry.offer(hint)
            return hint
        anchor = hint[len("near:"):]
        network = self.registry.network
        if anchor in network.hosts:
            if anchor in {o.host_name for o in self.registry.offers()}:
                return anchor
        try:
            neighbors = network.neighbors(anchor)
        except TopologyError:
            raise MatchError(f"near-hint anchor {anchor!r} unknown") from None
        if not neighbors:
            raise MatchError(f"near-hint anchor {anchor!r} has no neighbors")
        best = max(
            neighbors,
            key=lambda n: (network.link(anchor, n).bandwidth, n),
        )
        return best

    def _rank(self, requirement: ResourceRequirement) -> List[Tuple[float, str]]:
        """Feasible offers sorted by (score desc, name asc)."""
        utilization = self._current_utilization()
        scored = []
        for offer in self.registry.offers():
            if not self._alive(offer.host_name):
                continue
            if not offer.satisfies(requirement):
                continue
            if not self._bandwidth_ok(offer.host_name, requirement):
                continue
            score = offer.score(requirement)
            score -= self.utilization_weight * utilization.get(offer.host_name, 0.0)
            scored.append((score, offer.host_name))
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        return scored

    def _alive(self, host_name: str) -> bool:
        """False only when a registered network marks the host failed."""
        try:
            network = self.registry.network
        except Exception:
            return True
        host = network.hosts.get(host_name)
        return host is None or not host.failed

    def _current_utilization(self) -> Dict[str, float]:
        """Host -> utilization from the monitoring snapshot, if available."""
        if self.monitor is None:
            return {}
        try:
            snapshot = self.monitor.snapshot
        except RuntimeError:
            return {}
        return {name: sample.utilization for name, sample in snapshot.hosts.items()}

    def _bandwidth_ok(self, host: str, requirement: ResourceRequirement) -> bool:
        if not requirement.min_bandwidth_to:
            return True
        network = self.registry.network
        for peer, min_bw in requirement.min_bandwidth_to.items():
            if peer not in network.hosts:
                # A stage-name reference: resolvable only once the full
                # assignment exists; checked by _check_pairwise_bandwidth.
                continue
            try:
                if network.path_bandwidth(host, peer) < min_bw:
                    return False
            except TopologyError:
                return False
        return True

    def _check_pairwise_bandwidth(
        self,
        assignment: Dict[str, str],
        requirements: Dict[str, ResourceRequirement],
    ) -> None:
        """Re-validate bandwidth constraints against final placements.

        A requirement may reference another *stage* name (not a host); at
        match time those resolve through the finished assignment.
        """
        network = None
        for stage, host in assignment.items():
            req = requirements[stage]
            for peer, min_bw in req.min_bandwidth_to.items():
                target = assignment.get(peer, peer)
                if network is None:
                    network = self.registry.network
                try:
                    bw = network.path_bandwidth(host, target)
                except TopologyError:
                    raise MatchError(
                        f"stage {stage!r} on {host!r} has no route to {target!r}"
                    ) from None
                if bw < min_bw:
                    raise MatchError(
                        f"stage {stage!r} on {host!r}: bandwidth to {target!r} "
                        f"is {bw} < required {min_bw}"
                    )
