"""Grid monitoring service.

Section 1: "the system monitors the arrival rate at each source, the
available computing resources and memory, and the available network
bandwidth".  In GT3 this is the Monitoring and Discovery Service's data
side; here :class:`MonitoringService` is a simulation process that samples
the whole fabric on a fixed cadence:

* per-host: CPU utilization (busy core-seconds over the sampling period),
  cores in use, advertised memory;
* per-link: throughput over the period, utilization, queue of in-flight
  bytes is implicit in utilization;

and serves point-in-time :class:`FabricSnapshot` s plus full
:class:`~repro.simnet.trace.TimeSeries` histories, published in the
metrics registry it is given.  The matchmaker can use a snapshot to
prefer currently-idle hosts (dynamic ranking), and the registry's
readers get the histories for utilization reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Generator, Optional

from repro.simnet.engine import Environment, Process
from repro.simnet.topology import Network
from repro.simnet.trace import TimeSeries

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry

__all__ = ["FabricSnapshot", "HostSample", "LinkSample", "MonitoringService"]


@dataclass(frozen=True)
class HostSample:
    """One host's state over a sampling period."""

    host_name: str
    time: float
    utilization: float      # busy core-seconds / available core-seconds
    cores_in_use: int
    memory_mb: float


@dataclass(frozen=True)
class LinkSample:
    """One link direction's state over a sampling period."""

    link_name: str
    time: float
    throughput: float       # bytes/second delivered during the period
    utilization: float      # TX busy fraction during the period
    bandwidth: float


@dataclass
class FabricSnapshot:
    """Point-in-time view of the whole fabric."""

    time: float
    hosts: Dict[str, HostSample] = field(default_factory=dict)
    links: Dict[str, LinkSample] = field(default_factory=dict)

    def idlest_host(self) -> Optional[str]:
        """The host with the lowest utilization (ties break on name)."""
        if not self.hosts:
            return None
        return min(self.hosts.values(), key=lambda h: (h.utilization, h.host_name)).host_name


class MonitoringService:
    """Samples hosts and links on a cadence; keeps histories.

    Start with :meth:`start` (spawns a simulation process); stop it by
    letting the environment drain or via :meth:`stop`.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        registry: MetricsRegistry,
        interval: float = 1.0,
    ) -> None:
        """The fabric histories are published in ``registry`` (a
        :class:`~repro.obs.registry.MetricsRegistry`) as
        ``host.<host>.utilization``, ``link.<link>.throughput`` and
        ``link.<link>.utilization`` series metrics: that is where they are
        read.
        """
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.env = env
        self.network = network
        self.interval = float(interval)
        self.registry = registry
        self._host_util: Dict[str, TimeSeries] = {}
        self._link_tput: Dict[str, TimeSeries] = {}
        self._link_util: Dict[str, TimeSeries] = {}
        self._last_busy: Dict[str, float] = {}
        self._last_bytes: Dict[str, float] = {}
        self._snapshot: Optional[FabricSnapshot] = None
        self._process: Optional[Process] = None
        self._stopped = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> Process:
        """Begin sampling; returns the monitor process."""
        if self._process is not None:
            raise RuntimeError("monitoring service already started")
        for name in self.network.hosts:
            self._host_util[name] = TimeSeries(f"host:{name}:utilization")
            self._last_busy[name] = self.network.host(name).busy_time
            self.registry.series(f"host.{name}.utilization", self._host_util[name])
        for src, dst, link in self.network.edges():
            self._link_tput[link.name] = TimeSeries(f"link:{link.name}:throughput")
            self._link_util[link.name] = TimeSeries(f"link:{link.name}:utilization")
            self._last_bytes[link.name] = link.stats.bytes
            self.registry.series(f"link.{link.name}.throughput", self._link_tput[link.name])
            self.registry.series(f"link.{link.name}.utilization", self._link_util[link.name])
            link.bind_metrics(self.registry)
        self._process = self.env.process(self._run(), name="monitoring-service")
        return self._process

    def stop(self) -> None:
        """Stop sampling at the next tick."""
        self._stopped = True

    def _run(self) -> Generator:
        while not self._stopped:
            yield self.env.timeout(self.interval)
            self._sample()

    # -- sampling ----------------------------------------------------------------

    def _sample(self) -> None:
        now = self.env.now
        snapshot = FabricSnapshot(time=now)
        for name, host in self.network.hosts.items():
            busy = host.busy_time
            delta = busy - self._last_busy[name]
            self._last_busy[name] = busy
            utilization = min(1.0, delta / (self.interval * host.cores))
            self._host_util[name].record(now, utilization)
            snapshot.hosts[name] = HostSample(
                host_name=name,
                time=now,
                utilization=utilization,
                cores_in_use=host.cpu.in_use,
                memory_mb=host.memory_mb,
            )
        for src, dst, link in self.network.edges():
            total = link.stats.bytes
            delta_bytes = total - self._last_bytes[link.name]
            self._last_bytes[link.name] = total
            throughput = delta_bytes / self.interval
            utilization = min(1.0, throughput / link.bandwidth) if link.bandwidth else 0.0
            self._link_tput[link.name].record(now, throughput)
            self._link_util[link.name].record(now, utilization)
            snapshot.links[link.name] = LinkSample(
                link_name=link.name,
                time=now,
                throughput=throughput,
                utilization=utilization,
                bandwidth=link.bandwidth,
            )
        self._snapshot = snapshot

    # -- queries --------------------------------------------------------------------

    @property
    def snapshot(self) -> FabricSnapshot:
        """The most recent fabric snapshot."""
        if self._snapshot is None:
            raise RuntimeError("no samples yet (did you start() and run?)")
        return self._snapshot

