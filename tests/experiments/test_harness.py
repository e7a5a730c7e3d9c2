"""The experiment harness's star fabric.

The paper's shapes themselves are claims over the full-scale runs
(``tests/experiments/claims.py``), checked by ``test_claims.py``.
"""

import pytest

from repro.experiments.common import build_star_fabric


class TestFabricBuilder:
    def test_star_shape(self):
        fabric = build_star_fabric(4, bandwidth=100_000.0)
        assert len(fabric.network.hosts) == 5
        for host in fabric.source_hosts:
            assert fabric.network.has_link(host, fabric.center_host)

    def test_registry_populated(self):
        fabric = build_star_fabric(2, bandwidth=1000.0)
        assert len(fabric.registry.offers()) == 3

    def test_codes_published(self):
        fabric = build_star_fabric(1, bandwidth=1000.0)
        for url in (
            "repo://count-samps/filter",
            "repo://count-samps/join",
            "repo://count-samps/relay",
            "repo://count-samps/central",
            "repo://comp-steer/sampler",
            "repo://comp-steer/analysis",
            "repo://intrusion/filter",
            "repo://intrusion/alert",
        ):
            assert url in fabric.repository, url

    def test_invalid_source_count(self):
        with pytest.raises(ValueError):
            build_star_fabric(0, bandwidth=1000.0)
