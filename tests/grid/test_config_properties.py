"""Property-based tests: generated configurations survive the XML round trip."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.config import AppConfig, ParameterConfig, StageConfig, StreamConfig
from repro.grid.resources import ResourceRequirement
from tests.grid.test_graph_equivalence import stage_graph

name_strategy = st.text(
    alphabet=string.ascii_lowercase + string.digits + "-",
    min_size=1,
    max_size=12,
).filter(lambda s: s[0].isalpha())


@st.composite
def parameters(draw):
    minimum = draw(st.floats(min_value=-100.0, max_value=100.0))
    span = draw(st.floats(min_value=0.0, max_value=100.0))
    maximum = minimum + span
    init = minimum + draw(st.floats(min_value=0.0, max_value=1.0)) * span
    return ParameterConfig(
        name=draw(name_strategy),
        init=init,
        minimum=minimum,
        maximum=maximum,
        increment=draw(st.floats(min_value=1e-3, max_value=10.0)),
        direction=draw(st.sampled_from([-1, 1])),
    )


@st.composite
def requirements(draw):
    return ResourceRequirement(
        min_cores=draw(st.integers(min_value=1, max_value=16)),
        min_memory_mb=draw(st.floats(min_value=0.0, max_value=4096.0)),
        min_speed_factor=draw(st.floats(min_value=0.0, max_value=4.0)),
        placement_hint=draw(st.one_of(st.none(), name_strategy)),
        min_bandwidth_to=draw(
            st.dictionaries(
                name_strategy,
                st.floats(min_value=1.0, max_value=1e9),
                max_size=3,
            )
        ),
    )


@st.composite
def app_configs(draw):
    """A random valid linear-or-fan pipeline configuration."""
    n_stages = draw(st.integers(min_value=1, max_value=6))
    stage_names = draw(
        st.lists(name_strategy, min_size=n_stages, max_size=n_stages, unique=True)
    )
    stages = []
    for name in stage_names:
        stages.append(
            StageConfig(
                name=name,
                code_url=f"repo://gen/{name}",
                requirement=draw(requirements()),
                parameters=draw(st.lists(parameters(), max_size=3)).copy(),
                properties=draw(
                    st.dictionaries(name_strategy, name_strategy, max_size=3)
                ),
            )
        )
    # Deduplicate parameter names within each stage.
    for stage in stages:
        seen = set()
        stage.parameters[:] = [
            p for p in stage.parameters
            if p.name not in seen and not seen.add(p.name)
        ]
    # Streams only flow "forward" in stage order, so the DAG is acyclic.
    streams = []
    for i, src in enumerate(stage_names[:-1]):
        for j in range(i + 1, len(stage_names)):
            if draw(st.booleans()):
                streams.append(
                    StreamConfig(
                        name=f"s-{i}-{j}",
                        src=src,
                        dst=stage_names[j],
                        item_size=draw(st.floats(min_value=0.5, max_value=1e4)),
                    )
                )
    return AppConfig(name=draw(name_strategy), stages=stages, streams=streams)


class TestConfigRoundTripProperties:
    @given(config=app_configs())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_preserves_structure(self, config):
        config.validate()
        restored = AppConfig.from_xml(config.to_xml())
        assert restored.name == config.name
        assert [s.name for s in restored.stages] == [s.name for s in config.stages]
        for original, parsed in zip(config.stages, restored.stages):
            assert parsed.code_url == original.code_url
            assert parsed.properties == original.properties
            assert parsed.requirement.min_cores == original.requirement.min_cores
            assert parsed.requirement.placement_hint == original.requirement.placement_hint
            assert parsed.requirement.min_bandwidth_to == original.requirement.min_bandwidth_to
            assert len(parsed.parameters) == len(original.parameters)
            for p_orig, p_new in zip(original.parameters, parsed.parameters):
                assert p_new == p_orig
        assert restored.streams == config.streams

    @given(config=app_configs())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_idempotent(self, config):
        once = AppConfig.from_xml(config.to_xml())
        twice = AppConfig.from_xml(once.to_xml())
        assert once.to_xml() == twice.to_xml()

    @given(config=app_configs())
    @settings(max_examples=40, deadline=None)
    def test_graph_queries_consistent(self, config):
        graph = stage_graph(config)
        assert set(graph.nodes) == {s.name for s in config.stages}
        for stream in config.streams:
            assert stream.dst in config.downstream_of(stream.src)
            assert stream.src in config.upstream_of(stream.dst)
        order = [s.name for s in config.topological_stages()]
        position = {name: i for i, name in enumerate(order)}
        for stream in config.streams:
            assert position[stream.src] < position[stream.dst]
