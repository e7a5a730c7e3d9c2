"""Unit tests for the grid monitoring service and dynamic matchmaking."""

import pytest

from repro.grid.matchmaker import Matchmaker
from repro.grid.monitor import MonitoringService
from repro.grid.registry import ServiceRegistry
from repro.grid.resources import ResourceRequirement
from repro.obs.registry import MetricsRegistry
from repro.simnet.engine import Environment
from repro.simnet.hosts import CpuCostModel
from repro.simnet.topology import Network


def make_fabric():
    env = Environment()
    net = Network(env)
    net.create_host("a", cores=2)
    net.create_host("b", cores=2)
    net.connect("a", "b", bandwidth=1000.0)
    return env, net


class TestMonitoringService:
    def test_interval_validation(self):
        env, net = make_fabric()
        with pytest.raises(ValueError):
            MonitoringService(env, net, MetricsRegistry(), interval=0)

    def test_double_start_rejected(self):
        env, net = make_fabric()
        mon = MonitoringService(env, net, MetricsRegistry())
        mon.start()
        with pytest.raises(RuntimeError):
            mon.start()

    def test_snapshot_before_samples_raises(self):
        env, net = make_fabric()
        mon = MonitoringService(env, net, MetricsRegistry())
        with pytest.raises(RuntimeError):
            _ = mon.snapshot

    def test_idle_fabric_shows_zero_utilization(self):
        env, net = make_fabric()
        mon = MonitoringService(env, net, MetricsRegistry(), interval=1.0)
        mon.start()
        env.run(until=5.0)
        mon.stop()
        snap = mon.snapshot
        assert snap.hosts["a"].utilization == 0.0
        assert snap.links["a->b"].throughput == 0.0

    def test_busy_host_utilization_measured(self):
        env, net = make_fabric()
        host = net.host("a")

        def burner(env):
            while True:
                yield host.execute(CpuCostModel(), seconds=1.0)

        env.process(burner(env))
        mon = MonitoringService(env, net, MetricsRegistry(), interval=1.0)
        mon.start()
        env.run(until=5.0)
        snap = mon.snapshot
        # One core of two busy continuously -> utilization 0.5.
        assert snap.hosts["a"].utilization == pytest.approx(0.5, abs=0.05)
        assert snap.hosts["b"].utilization == 0.0

    def test_link_throughput_measured(self):
        env, net = make_fabric()
        link = net.link("a", "b")

        def sender(env):
            while True:
                yield link.send("x", size=500.0)

        env.process(sender(env))
        mon = MonitoringService(env, net, MetricsRegistry(), interval=1.0)
        mon.start()
        env.run(until=5.0)
        snap = mon.snapshot
        # Link runs saturated: 1000 B/s delivered, utilization ~1.
        assert snap.links["a->b"].throughput == pytest.approx(1000.0, rel=0.1)
        assert snap.links["a->b"].utilization == pytest.approx(1.0, rel=0.1)

    def test_histories_accumulate(self):
        env, net = make_fabric()
        registry = MetricsRegistry()
        mon = MonitoringService(env, net, registry, interval=0.5)
        mon.start()
        env.run(until=5.0)
        assert len(registry.get("host.a.utilization").series) == 10
        assert len(registry.get("link.a->b.throughput").series) == 10
        assert "host.ghost.utilization" not in registry

    def test_stop_ends_sampling(self):
        env, net = make_fabric()
        registry = MetricsRegistry()
        mon = MonitoringService(env, net, registry, interval=1.0)
        mon.start()
        env.run(until=2.0)
        mon.stop()
        env.run(until=10.0)
        assert len(registry.get("host.a.utilization").series) <= 3

    def test_snapshot_helpers(self):
        env, net = make_fabric()
        host = net.host("b")

        def burner(env):
            while True:
                yield host.execute(CpuCostModel(), seconds=1.0)

        env.process(burner(env))
        mon = MonitoringService(env, net, MetricsRegistry(), interval=1.0)
        mon.start()
        env.run(until=3.0)
        assert mon.snapshot.idlest_host() == "a"


class TestDynamicMatchmaking:
    def test_busy_host_ranked_down(self):
        env, net = make_fabric()
        registry = ServiceRegistry()
        registry.register_network(net)
        host_a = net.host("a")

        def burner(env):
            while True:
                yield host_a.execute(CpuCostModel(), seconds=1.0)

        env.process(burner(env))
        env.process(burner(env))  # both cores of 'a' busy
        mon = MonitoringService(env, net, MetricsRegistry(), interval=1.0)
        mon.start()
        env.run(until=3.0)

        static = Matchmaker(registry)
        dynamic = Matchmaker(registry, monitor=mon, utilization_weight=5.0)
        req = ResourceRequirement()
        # Statically 'a' and 'b' tie (same offer) -> 'a' by name; with the
        # monitor, fully-busy 'a' loses to idle 'b'.
        assert static.match_one(req) == "a"
        assert dynamic.match_one(req) == "b"

    def test_monitor_without_snapshot_is_ignored(self):
        env, net = make_fabric()
        registry = ServiceRegistry()
        registry.register_network(net)
        mon = MonitoringService(env, net, MetricsRegistry())
        mm = Matchmaker(registry, monitor=mon)
        assert mm.match_one(ResourceRequirement()) == "a"

    def test_negative_weight_rejected(self):
        env, net = make_fabric()
        registry = ServiceRegistry()
        registry.register_network(net)
        with pytest.raises(ValueError):
            Matchmaker(registry, utilization_weight=-1.0)
