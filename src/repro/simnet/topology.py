"""Network topology layer binding hosts and links into a grid fabric.

:class:`Network` is a directed graph, kept as plain adjacency dicts,
whose nodes are :class:`~repro.simnet.hosts.Host` names and whose edges
carry :class:`~repro.simnet.links.Link` instances.  It supports the topologies
used throughout the evaluation (stars of stream sources around a central
analysis node) plus arbitrary shapes for the motivating applications, and
provides shortest-path routing so multi-hop deployments work.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import count
from typing import Dict, Iterable, List, Optional, Tuple

from repro.simnet.engine import Environment
from repro.simnet.hosts import Host
from repro.simnet.links import Link

__all__ = ["Network", "TopologyError"]


class TopologyError(Exception):
    """Raised for unknown hosts, missing links, or unroutable paths."""


class Network:
    """A collection of hosts joined by directed, bandwidth-limited links.

    Links are directed (an edge u->v models the u-to-v direction); helper
    constructors add both directions with identical parameters, matching
    the symmetric links of the paper's testbed.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._hosts: Dict[str, Host] = {}
        #: host -> {successor: (weight, link)} and host -> {predecessor:
        #: (weight, link)}, in insertion order; the routing weight is
        #: 1/bandwidth as it was when the link was made.
        self._succ: Dict[str, Dict[str, Tuple[float, Link]]] = {}
        self._pred: Dict[str, Dict[str, Tuple[float, Link]]] = {}

    # -- construction -------------------------------------------------------

    def add_host(self, host: Host) -> Host:
        """Register ``host``; names must be unique."""
        if host.name in self._hosts:
            raise TopologyError(f"duplicate host name {host.name!r}")
        self._hosts[host.name] = host
        self._succ[host.name] = {}
        self._pred[host.name] = {}
        return host

    def create_host(
        self,
        name: str,
        cores: int = 1,
        speed_factor: float = 1.0,
        memory_mb: float = 1024.0,
    ) -> Host:
        """Convenience: build and register a :class:`Host`."""
        return self.add_host(
            Host(self.env, name, cores=cores, speed_factor=speed_factor, memory_mb=memory_mb)
        )

    def connect(
        self,
        src: str,
        dst: str,
        bandwidth: float,
        latency: float = 0.0,
        bidirectional: bool = True,
    ) -> Link:
        """Create a link from ``src`` to ``dst`` (and back if bidirectional).

        Returns the forward-direction link.
        """
        self._require_host(src)
        self._require_host(dst)
        if src == dst:
            raise TopologyError(f"self-link on {src!r}")
        link = self._add_link(src, dst, bandwidth, latency)
        if bidirectional:
            self._add_link(dst, src, bandwidth, latency)
        return link

    def _add_link(self, src: str, dst: str, bandwidth: float, latency: float) -> Link:
        link = Link(self.env, bandwidth, latency, name=f"{src}->{dst}")
        self._succ[src][dst] = self._pred[dst][src] = (1.0 / bandwidth, link)
        return link

    @classmethod
    def star(
        cls,
        env: Environment,
        center: str,
        leaves: Iterable[str],
        bandwidth: float,
        latency: float = 0.0,
        center_cores: int = 4,
        leaf_cores: int = 1,
    ) -> "Network":
        """Build the evaluation topology: sources around a central node."""
        net = cls(env)
        net.create_host(center, cores=center_cores)
        for leaf in leaves:
            net.create_host(leaf, cores=leaf_cores)
            net.connect(leaf, center, bandwidth, latency)
        return net

    @classmethod
    def chain(
        cls,
        env: Environment,
        names: List[str],
        bandwidth: float,
        latency: float = 0.0,
    ) -> "Network":
        """Build a linear pipeline topology (source -> ... -> sink)."""
        if len(names) < 2:
            raise TopologyError("chain needs at least two hosts")
        net = cls(env)
        for name in names:
            net.create_host(name)
        for a, b in zip(names, names[1:]):
            net.connect(a, b, bandwidth, latency)
        return net

    # -- lookup ---------------------------------------------------------------

    @property
    def hosts(self) -> Dict[str, Host]:
        """Name -> host mapping (read-only view by convention)."""
        return self._hosts

    def host(self, name: str) -> Host:
        """Return the host called ``name``."""
        return self._require_host(name)

    def link(self, src: str, dst: str) -> Link:
        """Return the direct link ``src -> dst``."""
        self._require_host(src)
        self._require_host(dst)
        edge = self._succ[src].get(dst)
        if edge is None:
            raise TopologyError(f"no link {src!r} -> {dst!r}")
        return edge[1]

    def has_link(self, src: str, dst: str) -> bool:
        return dst in self._succ.get(src, ())

    # -- routing ---------------------------------------------------------------

    def route(self, src: str, dst: str) -> List[Link]:
        """Links along the max-bandwidth (min sum of 1/bw) path src -> dst."""
        self._require_host(src)
        self._require_host(dst)
        if src == dst:
            return []
        path = self._shortest_path(src, dst)
        if path is None:
            raise TopologyError(f"no route {src!r} -> {dst!r}")
        return [self._succ[a][b][1] for a, b in zip(path, path[1:])]

    def _shortest_path(self, src: str, dst: str) -> Optional[List[str]]:
        """Host names along the least-weight path; None when unreachable.

        Dijkstra from both ends, settling one host per side in turn
        (forward first) until a host is settled on both.  Neighbours
        relax in the order their links were added and one push counter
        breaks heap ties on both sides, so among equal-weight routes the
        choice is a function of construction order alone — the same
        choice the graph library this replaces makes for a weighted
        shortest path, as ``tests/grid/test_graph_equivalence.py``
        holds it to, hop for hop.
        """
        adjacency = (self._succ, self._pred)
        settled: Tuple[Dict[str, float], ...] = ({}, {})
        seen: Tuple[Dict[str, float], ...] = ({src: 0.0}, {dst: 0.0})
        parent: Tuple[Dict[str, Optional[str]], ...] = ({src: None}, {dst: None})
        pushes = count()
        fringe: Tuple[List[Tuple[float, int, str]], ...] = (
            [(0.0, next(pushes), src)], [(0.0, next(pushes), dst)]
        )
        best = math.inf
        meet: Optional[str] = None
        side = 1
        while fringe[0] and fringe[1]:
            side = 1 - side
            dist, _, host = heappop(fringe[side])
            if host in settled[side]:
                continue
            settled[side][host] = dist
            if host in settled[1 - side]:
                path: List[str] = []
                hop = meet
                while hop is not None:
                    path.append(hop)
                    hop = parent[0][hop]
                path.reverse()
                hop = parent[1][path[-1]]
                while hop is not None:
                    path.append(hop)
                    hop = parent[1][hop]
                return path
            for peer, (weight, _link) in adjacency[side][host].items():
                if peer in settled[side]:
                    continue
                through = dist + weight
                if peer not in seen[side] or through < seen[side][peer]:
                    seen[side][peer] = through
                    heappush(fringe[side], (through, next(pushes), peer))
                    parent[side][peer] = host
                    if peer in seen[1 - side]:
                        total = through + seen[1 - side][peer]
                        if total < best:
                            best, meet = total, peer
        return None

    def path_bandwidth(self, src: str, dst: str) -> float:
        """Bottleneck bandwidth along the routed path (inf for src==dst)."""
        links = self.route(src, dst)
        if not links:
            return math.inf
        return min(link.bandwidth for link in links)

    def neighbors(self, name: str) -> List[str]:
        """Successor host names of ``name``."""
        self._require_host(name)
        return list(self._succ[name])

    def edges(self) -> List[Tuple[str, str, Link]]:
        """All (src, dst, link) triples."""
        return [
            (src, dst, link)
            for src, successors in self._succ.items()
            for dst, (_weight, link) in successors.items()
        ]

    def _require_host(self, name: str) -> Host:
        host = self._hosts.get(name)
        if host is None:
            raise TopologyError(f"unknown host {name!r}")
        return host

    def __repr__(self) -> str:
        return (
            f"Network(hosts={len(self._hosts)}, "
            f"links={sum(map(len, self._succ.values()))})"
        )
