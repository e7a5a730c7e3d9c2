"""The stage-graph and routing code against networkx, the reference.

``AppConfig`` orders stages with its own Kahn's algorithm, names a
cycle with its own depth-first search, and ``Network`` routes with its
own Dijkstra, so that nothing under ``src/`` imports networkx (a test
dependency only).  Each replaced a networkx call whose *tie-breaking*
other code had come to rely on (deployment order; the cycle GA101
names; which of two equal-bandwidth routes a stream takes, which the
golden simulator digests hash), so they are held here to the same
answers as networkx — element for element and hop for hop, ties
included.
"""

import glob
import itertools
import os
import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import verify_document
from repro.experiments.common import build_star_fabric
from repro.grid.config import AppConfig, ConfigError, StageConfig, StreamConfig
from repro.simnet.engine import Environment
from repro.simnet.topology import Network, TopologyError

CONFIGS = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "analysis", "fixtures", "configs"
)


# -- stage graph --------------------------------------------------------------


def stage_graph(config: AppConfig) -> nx.DiGraph:
    """The stage graph as networkx sees it: stages in declaration order,
    one edge per stream (parallel streams merge)."""
    graph = nx.DiGraph()
    graph.add_nodes_from(s.name for s in config.stages)
    for stream in config.streams:
        graph.add_edge(stream.src, stream.dst, stream=stream)
    return graph


def assert_same_order(config: AppConfig) -> None:
    graph = stage_graph(config)
    assert [s.name for s in config.topological_stages()] == list(
        nx.topological_sort(graph)
    )
    for stage in config.stages:
        assert config.upstream_of(stage.name) == sorted(graph.predecessors(stage.name))
        assert config.downstream_of(stage.name) == sorted(graph.successors(stage.name))


def valid_fixture_configs():
    for path in sorted(glob.glob(os.path.join(CONFIGS, "*.xml"))):
        with open(path, encoding="utf-8") as handle:
            try:
                yield os.path.basename(path), AppConfig.from_xml(handle.read())
            except (ConfigError, ValueError):
                continue  # the broken half of the verifier's corpus


def test_fixture_configs_sort_as_networkx_sorts_them():
    names = []
    for name, config in valid_fixture_configs():
        assert_same_order(config)
        names.append(name)
    assert len(names) >= 25, names


@st.composite
def dag_configs(draw):
    """A DAG whose declaration order is unrelated to its dependency
    order, with parallel streams between some stage pairs."""
    n = draw(st.integers(min_value=1, max_value=9))
    rank = draw(st.permutations(range(n)))  # rank[i]: depth order of stage i
    pairs = [(a, b) for a in range(n) for b in range(n) if rank[a] < rank[b]]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    return AppConfig(
        name="generated",
        stages=[StageConfig(f"s{i}", "repo://x/y") for i in range(n)],
        streams=[
            StreamConfig(f"e{k}", f"s{a}", f"s{b}") for k, (a, b) in enumerate(chosen)
        ],
    )


@settings(max_examples=300, deadline=None)
@given(dag_configs())
def test_generated_dags_sort_as_networkx_sorts_them(config):
    config.validate()
    assert_same_order(config)


def test_cycle_is_rejected_with_the_message_networkx_gave():
    config = AppConfig(
        name="loop",
        stages=[StageConfig(n, "repo://x/y") for n in ("in", "a", "b", "c", "out")],
        streams=[
            StreamConfig("e0", "in", "a"), StreamConfig("e1", "a", "b"),
            StreamConfig("e2", "b", "c"), StreamConfig("e3", "c", "a"),
            StreamConfig("e4", "c", "out"),
        ],
    )
    cycle = nx.find_cycle(stage_graph(config))
    assert cycle == [("a", "b"), ("b", "c"), ("c", "a")]
    expected = "stage graph has a cycle: " + " -> ".join([a for a, _ in cycle] + ["a"])
    assert expected == "stage graph has a cycle: a -> b -> c -> a"
    with pytest.raises(ConfigError) as raised:
        config.validate()
    assert str(raised.value) == expected
    with pytest.raises(ConfigError):
        config.topological_stages()


@st.composite
def digraph_configs(draw):
    """Any stage graph: cycles, self-loops and parallel streams allowed."""
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = list(itertools.product(range(n), repeat=2))
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=14))
    return AppConfig(
        name="generated",
        stages=[StageConfig(f"s{i}", "repo://x/y") for i in range(n)],
        streams=[
            StreamConfig(f"e{k}", f"s{a}", f"s{b}") for k, (a, b) in enumerate(chosen)
        ],
    )


@settings(max_examples=300, deadline=None)
@given(digraph_configs())
def test_generated_cycles_are_named_as_networkx_names_them(config):
    cycles = [f.message for f in config.findings() if f.code == "GA101"]
    try:
        cycle = nx.find_cycle(stage_graph(config))
    except nx.NetworkXNoCycle:
        assert cycles == []
        return
    names = [a for a, _ in cycle] + [cycle[0][0]]
    assert cycles == ["stage graph has a cycle: " + " -> ".join(names)]


def test_configs_load_and_cycles_are_named_without_networkx(monkeypatch):
    monkeypatch.setitem(sys.modules, "networkx", None)
    with pytest.raises(ImportError):
        import networkx  # noqa: F401
    for _, config in valid_fixture_configs():
        config.validate()
    with open(os.path.join(CONFIGS, "ga101_cycle.xml"), encoding="utf-8") as handle:
        report = verify_document(handle.read(), filename="ga101_cycle.xml")
    (diagnostic,) = [d for d in report.errors if d.code == "GA101"]
    assert diagnostic.message == "stage graph has a cycle: a -> b -> a"


def test_ga101_report_text():
    with open(os.path.join(CONFIGS, "ga101_cycle.xml"), encoding="utf-8") as handle:
        report = verify_document(handle.read(), filename="ga101_cycle.xml")
    (diagnostic,) = [d for d in report.errors if d.code == "GA101"]
    assert diagnostic.message == "stage graph has a cycle: a -> b -> a"


@pytest.mark.parametrize("stem", ["ga103_duplicate_stream", "ga104_disconnected"])
def test_acyclic_but_odd_graphs_raise_no_ga101(stem):
    with open(os.path.join(CONFIGS, stem + ".xml"), encoding="utf-8") as handle:
        report = verify_document(handle.read(), filename=stem)
    assert "GA101" not in report.codes()


# -- routing ------------------------------------------------------------------


def reference_graph(hosts, edges) -> nx.DiGraph:
    """What ``Network`` used to keep: hosts in creation order, then the
    links in creation order, weighted by 1/bandwidth."""
    graph = nx.DiGraph()
    graph.add_nodes_from(hosts)
    for src, dst, bandwidth in edges:
        graph.add_edge(src, dst, weight=1.0 / bandwidth)
    return graph


def assert_same_routes(network: Network, graph: nx.DiGraph) -> None:
    for src, dst in itertools.permutations(network.hosts, 2):
        try:
            expected = nx.shortest_path(graph, src, dst, weight="weight")
        except nx.NetworkXNoPath:
            with pytest.raises(TopologyError):
                network.route(src, dst)
            continue
        hops = [link.name for link in network.route(src, dst)]
        assert hops == [f"{a}->{b}" for a, b in zip(expected, expected[1:])]


def as_built(network: Network) -> nx.DiGraph:
    return reference_graph(
        network.hosts, [(s, d, link.bandwidth) for s, d, link in network.edges()]
    )


def full_mesh(names) -> Network:
    """The worker fleet as ``NetworkedRuntime._place`` models it."""
    network = Network(Environment())
    for name in names:
        network.create_host(name, cores=4)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            network.connect(a, b, bandwidth=1e9)
    return network


@pytest.mark.parametrize("network", [
    build_star_fabric(4, bandwidth=10_000.0).network,
    Network.star(Environment(), "hub", ["l0", "l1", "l2"], bandwidth=500.0),
    Network.chain(Environment(), ["a", "b", "c", "d", "e"], bandwidth=100.0),
    full_mesh([f"worker-{i}" for i in range(4)]),
], ids=["star-fabric", "star", "chain", "full-mesh"])
def test_shipped_topologies_route_as_networkx_routed_them(network):
    assert_same_routes(network, as_built(network))


@st.composite
def weighted_digraphs(draw):
    """Hosts and one-way links in a drawn creation order; bandwidths
    from three values, so equal-weight routes are the common case."""
    n = draw(st.integers(min_value=2, max_value=8))
    hosts = [f"h{i}" for i in draw(st.permutations(range(n)))]
    pairs = [(a, b) for a in hosts for b in hosts if a != b]
    links = draw(st.lists(
        st.tuples(st.sampled_from(pairs), st.sampled_from([1.0, 2.0, 4.0])),
        max_size=30,
    ))
    return hosts, [(a, b, bandwidth) for (a, b), bandwidth in links]


@settings(max_examples=300, deadline=None)
@given(weighted_digraphs())
def test_generated_digraphs_route_as_networkx_routes_them(drawn):
    hosts, links = drawn
    network = Network(Environment())
    for host in hosts:
        network.create_host(host)
    for src, dst, bandwidth in links:
        network.connect(src, dst, bandwidth, bidirectional=False)
    assert_same_routes(network, reference_graph(hosts, links))
