"""Unit tests for service containers, instances, and the code repository."""

import pytest

from repro.grid.registry import ServiceRegistry
from repro.grid.repository import CodeRepository, RepositoryError
from repro.grid.services import ServiceContainer, ServiceError, ServiceState
from repro.simnet.engine import Environment
from repro.simnet.hosts import Host


def make_container(registry=None, t0=0.0):
    env = Environment(initial_time=t0)
    host = Host(env, "node-1")
    return env, ServiceContainer(host, registry=registry)


class DummyProcessor:
    def __init__(self, tag="x"):
        self.tag = tag


class TestServiceLifecycle:
    def test_create_starts_in_created_state(self):
        _, container = make_container()
        inst = container.create_instance("app/stage")
        assert inst.state is ServiceState.CREATED

    def test_duplicate_name_rejected(self):
        _, container = make_container()
        container.create_instance("x")
        with pytest.raises(ServiceError):
            container.create_instance("x")

    def test_customize_then_activate(self):
        _, container = make_container()
        inst = container.create_instance("s")
        inst.customize(DummyProcessor, top_k=10)
        assert inst.state is ServiceState.CUSTOMIZED
        assert inst.properties == {"top_k": 10}
        inst.activate()
        assert inst.state is ServiceState.ACTIVE

    def test_activate_without_customize_rejected(self):
        _, container = make_container()
        inst = container.create_instance("s")
        with pytest.raises(ServiceError):
            inst.activate()

    def test_customize_active_instance_rejected(self):
        _, container = make_container()
        inst = container.create_instance("s")
        inst.customize(DummyProcessor)
        inst.activate()
        with pytest.raises(ServiceError):
            inst.customize(DummyProcessor)

    def test_instantiate_processor_requires_active(self):
        _, container = make_container()
        inst = container.create_instance("s")
        inst.customize(DummyProcessor)
        with pytest.raises(ServiceError):
            inst.instantiate_processor()
        inst.activate()
        proc = inst.instantiate_processor(tag="y")
        assert isinstance(proc, DummyProcessor) and proc.tag == "y"

    def test_destroy_is_idempotent_and_forgets(self):
        _, container = make_container()
        inst = container.create_instance("s")
        inst.destroy()
        inst.destroy()
        with pytest.raises(ServiceError):
            container.instance("s")

    def test_destroyed_instance_rejects_operations(self):
        _, container = make_container()
        inst = container.create_instance("s")
        inst.destroy()
        with pytest.raises(ServiceError):
            inst.customize(DummyProcessor)
        with pytest.raises(ServiceError):
            inst.keepalive(10.0)

    def test_registry_integration(self):
        registry = ServiceRegistry()
        _, container = make_container(registry=registry)
        inst = container.create_instance("app/s1")
        assert registry.services()["gates/node-1/app/s1"] is inst
        inst.destroy()
        assert "gates/node-1/app/s1" not in registry.services()

    def test_instance_ids_unique(self):
        _, container = make_container()
        a = container.create_instance("a")
        b = container.create_instance("b")
        assert a.instance_id != b.instance_id


class TestLifetimes:
    def test_unlimited_lifetime_never_expires(self):
        env, container = make_container()
        inst = container.create_instance("s")
        env.run(until=1e9)
        assert not inst.expired

    def test_expiry_after_lifetime(self):
        env, container = make_container()
        inst = container.create_instance("s", lifetime=10.0)
        assert not inst.expired
        env.run(until=10.0)
        assert inst.expired

    def test_keepalive_extends(self):
        env, container = make_container()
        inst = container.create_instance("s", lifetime=10.0)
        env.run(until=5.0)
        inst.keepalive(10.0)
        env.run(until=14.0)
        assert not inst.expired
        env.run(until=15.0)
        assert inst.expired

    def test_keepalive_validation(self):
        _, container = make_container()
        inst = container.create_instance("s", lifetime=10.0)
        with pytest.raises(ServiceError):
            inst.keepalive(0.0)

    def test_reap_expired(self):
        env, container = make_container()
        container.create_instance("short", lifetime=5.0)
        container.create_instance("long", lifetime=50.0)
        env.run(until=10.0)
        assert container.reap_expired() == 1
        assert list(container.instances) == ["long"]


class TestCodeRepository:
    def test_publish_and_fetch(self):
        repo = CodeRepository()
        repo.publish("repo://app/stage", DummyProcessor)
        assert repo.fetch("repo://app/stage") is DummyProcessor

    def test_publish_bad_scheme(self):
        repo = CodeRepository()
        with pytest.raises(RepositoryError):
            repo.publish("http://x", DummyProcessor)

    def test_republish_rejected(self):
        repo = CodeRepository()
        repo.publish("repo://a", DummyProcessor)
        with pytest.raises(RepositoryError):
            repo.publish("repo://a", DummyProcessor)

    def test_publish_non_callable_rejected(self):
        repo = CodeRepository()
        with pytest.raises(RepositoryError):
            repo.publish("repo://a", 42)

    def test_fetch_missing(self):
        repo = CodeRepository()
        with pytest.raises(RepositoryError):
            repo.fetch("repo://ghost")

    def test_fetch_unknown_scheme(self):
        repo = CodeRepository()
        with pytest.raises(RepositoryError):
            repo.fetch("ftp://x")

    def test_import_scheme(self):
        repo = CodeRepository()
        factory = repo.fetch("py://collections:OrderedDict")
        assert factory().__class__.__name__ == "OrderedDict"

    def test_import_scheme_errors(self):
        repo = CodeRepository()
        with pytest.raises(RepositoryError):
            repo.fetch("py://no_such_module_xyz:Thing")
        with pytest.raises(RepositoryError):
            repo.fetch("py://collections:NoSuchAttr")
        with pytest.raises(RepositoryError):
            repo.fetch("py://collections")  # missing ':attr'

    def test_contains(self):
        repo = CodeRepository()
        repo.publish("repo://a", DummyProcessor)
        assert "repo://a" in repo
        assert "repo://b" not in repo
        assert "py://collections:OrderedDict" in repo
        assert "py://ghost:X" not in repo
        assert "other://x" not in repo

    def test_urls_sorted(self):
        repo = CodeRepository()
        repo.publish("repo://b", DummyProcessor)
        repo.publish("repo://a", DummyProcessor)
        assert repo.urls() == ["repo://a", "repo://b"]
