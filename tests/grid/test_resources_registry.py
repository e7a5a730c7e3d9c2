"""Unit tests for resource offers/requirements and the service registry."""

import pytest

from repro.grid.registry import RegistryError, ServiceRegistry
from repro.grid.resources import ResourceOffer, ResourceRequirement
from repro.simnet.engine import Environment
from repro.simnet.topology import Network


def make_network(env=None):
    env = env or Environment()
    net = Network(env)
    net.create_host("src-0", cores=1, memory_mb=512)
    net.create_host("src-1", cores=1, memory_mb=512)
    net.create_host("hub", cores=8, speed_factor=2.0, memory_mb=4096)
    net.connect("src-0", "hub", bandwidth=100_000.0)
    net.connect("src-1", "hub", bandwidth=1_000.0)
    return net


class TestResourceRequirement:
    def test_defaults_are_permissive(self):
        req = ResourceRequirement()
        assert req.min_cores == 1 and req.placement_hint is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ResourceRequirement(min_cores=0)
        with pytest.raises(ValueError):
            ResourceRequirement(min_memory_mb=-1)
        with pytest.raises(ValueError):
            ResourceRequirement(min_speed_factor=-0.1)
        with pytest.raises(ValueError):
            ResourceRequirement(min_bandwidth_to={"hub": 0})


class TestResourceOffer:
    def _offer(self, **kw):
        defaults = dict(host_name="h", cores=4, speed_factor=1.0, memory_mb=2048)
        defaults.update(kw)
        return ResourceOffer(**defaults)

    def test_satisfies(self):
        offer = self._offer()
        assert offer.satisfies(ResourceRequirement(min_cores=4))
        assert not offer.satisfies(ResourceRequirement(min_cores=5))
        assert not offer.satisfies(ResourceRequirement(min_memory_mb=4096))
        assert not offer.satisfies(ResourceRequirement(min_speed_factor=2.0))

    def test_score_infeasible_is_neg_inf(self):
        offer = self._offer()
        assert offer.score(ResourceRequirement(min_cores=8)) == float("-inf")

    def test_score_prefers_headroom(self):
        big = self._offer(host_name="big", cores=16)
        small = self._offer(host_name="small", cores=1)
        req = ResourceRequirement(min_cores=1)
        assert big.score(req) > small.score(req)


class TestServiceRegistry:
    def test_register_network_advertises_all_hosts(self):
        reg = ServiceRegistry()
        reg.register_network(make_network())
        assert len(reg.offers()) == 3
        assert reg.offer("hub").cores == 8

    def test_offer_lookup_unknown_raises(self):
        reg = ServiceRegistry()
        with pytest.raises(RegistryError):
            reg.offer("nope")

    def test_network_property_requires_registration(self):
        with pytest.raises(RegistryError):
            _ = ServiceRegistry().network

    def test_reregistration_updates(self):
        reg = ServiceRegistry()
        reg.register_offer(ResourceOffer("h", cores=1, speed_factor=1, memory_mb=100))
        reg.register_offer(ResourceOffer("h", cores=2, speed_factor=1, memory_mb=100))
        assert reg.offer("h").cores == 2

    def test_service_directory_lifecycle(self):
        reg = ServiceRegistry()
        reg.register_service("gates/h/app-stage", object())
        assert "gates/h/app-stage" in reg.services()
        with pytest.raises(RegistryError):
            reg.register_service("gates/h/app-stage", object())
        reg.deregister_service("gates/h/app-stage")
        assert "gates/h/app-stage" not in reg.services()
        with pytest.raises(RegistryError):
            reg.deregister_service("gates/h/app-stage")

    def test_services_prefix_filter(self):
        reg = ServiceRegistry()
        reg.register_service("gates/a/x", 1)
        reg.register_service("gates/b/y", 2)
        assert list(reg.services(prefix="gates/a")) == ["gates/a/x"]
