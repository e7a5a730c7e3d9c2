"""Unit tests for hosts, cost models, and the topology layer."""

import math

import pytest

from repro.simnet.engine import Environment
from repro.simnet.hosts import CpuCostModel, Host
from repro.simnet.topology import Network, TopologyError


class TestCpuCostModel:
    def test_affine_cost(self):
        model = CpuCostModel(fixed=0.1, per_item=0.01, per_byte=0.001)
        assert model.cost(items=10, nbytes=100) == pytest.approx(0.1 + 0.1 + 0.1)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            CpuCostModel(per_byte=-0.001)

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            CpuCostModel().cost(items=-1)

    def test_zero_model_is_free(self):
        assert CpuCostModel().cost(items=1000, nbytes=1e6) == 0.0


class TestHost:
    def test_invalid_parameters(self):
        env = Environment()
        with pytest.raises(ValueError):
            Host(env, "h", speed_factor=0)
        with pytest.raises(ValueError):
            Host(env, "h", memory_mb=0)

    def test_execute_charges_cost_model(self):
        env = Environment()
        host = Host(env, "h")
        model = CpuCostModel(per_byte=0.001)  # 1 ms/byte
        done = []

        def proc(env):
            yield host.execute(model, nbytes=1000)
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done == [1.0]

    def test_speed_factor_scales_time(self):
        env = Environment()
        fast = Host(env, "fast", speed_factor=2.0)
        done = []

        def proc(env):
            yield fast.execute(CpuCostModel(per_byte=0.001), nbytes=1000)
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done == [0.5]

    def test_explicit_seconds_override(self):
        env = Environment()
        host = Host(env, "h")
        done = []

        def proc(env):
            yield host.execute(CpuCostModel(), seconds=3.0)
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done == [3.0]

    def test_core_contention_serializes(self):
        env = Environment()
        host = Host(env, "h", cores=1)
        done = []

        def proc(env, label):
            yield host.execute(CpuCostModel(), seconds=2.0)
            done.append((label, env.now))

        env.process(proc(env, "a"))
        env.process(proc(env, "b"))
        env.run()
        assert done == [("a", 2.0), ("b", 4.0)]

    def test_multicore_runs_in_parallel(self):
        env = Environment()
        host = Host(env, "h", cores=2)
        done = []

        def proc(env, label):
            yield host.execute(CpuCostModel(), seconds=2.0)
            done.append((label, env.now))

        env.process(proc(env, "a"))
        env.process(proc(env, "b"))
        env.run()
        assert done == [("a", 2.0), ("b", 2.0)]

    def test_utilization(self):
        env = Environment()
        host = Host(env, "h", cores=2)

        def proc(env):
            yield host.execute(CpuCostModel(), seconds=2.0)
            yield env.timeout(2.0)

        env.process(proc(env))
        env.run()
        assert host.utilization() == pytest.approx(2.0 / 8.0)


class TestNetwork:
    def _basic(self):
        env = Environment()
        net = Network(env)
        net.create_host("a")
        net.create_host("b")
        net.create_host("c")
        net.connect("a", "b", bandwidth=100.0)
        net.connect("b", "c", bandwidth=50.0)
        return env, net

    def test_duplicate_host_rejected(self):
        env = Environment()
        net = Network(env)
        net.create_host("a")
        with pytest.raises(TopologyError):
            net.create_host("a")

    def test_unknown_host_rejected(self):
        env, net = self._basic()
        with pytest.raises(TopologyError):
            net.host("zzz")
        with pytest.raises(TopologyError):
            net.connect("a", "zzz", 100.0)

    def test_self_link_rejected(self):
        env, net = self._basic()
        with pytest.raises(TopologyError):
            net.connect("a", "a", 100.0)

    def test_link_lookup(self):
        env, net = self._basic()
        assert net.link("a", "b").bandwidth == 100.0
        assert net.has_link("b", "a")  # bidirectional by default
        with pytest.raises(TopologyError):
            net.link("a", "c")

    def test_unidirectional_link(self):
        env = Environment()
        net = Network(env)
        net.create_host("x")
        net.create_host("y")
        net.connect("x", "y", 10.0, bidirectional=False)
        assert net.has_link("x", "y")
        assert not net.has_link("y", "x")

    def test_route_multi_hop(self):
        env, net = self._basic()
        links = net.route("a", "c")
        assert [l.name for l in links] == ["a->b", "b->c"]

    def test_route_to_self_is_empty(self):
        env, net = self._basic()
        assert net.route("a", "a") == []
        assert net.path_bandwidth("a", "a") == math.inf

    def test_no_route_raises(self):
        env = Environment()
        net = Network(env)
        net.create_host("isolated")
        net.create_host("other")
        with pytest.raises(TopologyError):
            net.route("isolated", "other")

    def test_path_bandwidth_is_bottleneck(self):
        env, net = self._basic()
        assert net.path_bandwidth("a", "c") == 50.0

    def test_star_factory(self):
        env = Environment()
        net = Network.star(env, "hub", ["s1", "s2", "s3"], bandwidth=100.0)
        assert len(net.hosts) == 4
        for leaf in ("s1", "s2", "s3"):
            assert net.has_link(leaf, "hub")
        assert net.host("hub").cores == 4

    def test_chain_factory(self):
        env = Environment()
        net = Network.chain(env, ["a", "b", "c"], bandwidth=10.0)
        assert net.has_link("a", "b") and net.has_link("b", "c")
        with pytest.raises(TopologyError):
            Network.chain(env, ["solo"], bandwidth=10.0)

    def test_neighbors(self):
        env, net = self._basic()
        assert set(net.neighbors("b")) == {"a", "c"}

    def test_edges_enumeration(self):
        env, net = self._basic()
        assert len(net.edges()) == 4  # two bidirectional connections

    def test_end_to_end_transfer_over_topology(self):
        env, net = self._basic()
        link = net.link("a", "b")
        arrivals = []

        def sender(env):
            yield link.send("payload", size=200.0)

        def receiver(env):
            msg = yield link.receive()
            arrivals.append((env.now, msg.payload))

        env.process(sender(env))
        env.process(receiver(env))
        env.run()
        assert arrivals == [(2.0, "payload")]
