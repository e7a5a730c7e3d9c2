"""XML application configuration.

The application developer "writes an XML file, specifying the configuration
information of an application.  Such information includes the number of
stages and where the stages' codes are" (Section 3.2).  This module defines
the typed model (:class:`AppConfig`, :class:`StageConfig`,
:class:`StreamConfig`, :class:`ParameterConfig`) plus XML round-tripping
via the stdlib :mod:`xml.etree`.

Example document::

    <application name="count-samps">
      <stage name="filter-0" code="repo://count-samps/filter">
        <requirement min-cores="1" placement="near:source-0"/>
        <parameter name="sample-size" init="100" min="10" max="240"
                   increment="10" direction="-1"/>
        <property key="top-k" value="10"/>
      </stage>
      <stage name="join" code="repo://count-samps/join"/>
      <stream name="s0" from="filter-0" to="join" item-size="8.0"/>
    </application>
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Tuple

from repro.grid.resources import ResourceRequirement

__all__ = ["AppConfig", "ConfigError", "ParameterConfig", "StageConfig", "StreamConfig"]


class ConfigError(Exception):
    """Raised for malformed or inconsistent configurations."""


def find_cycle(
    nodes: Iterable[str], edges: Iterable[Tuple[str, str]]
) -> List[Tuple[str, str]]:
    """The edges of one cycle, for the message of a cyclic-graph error.

    Only the error branches of :meth:`AppConfig.validate` and the
    verifier's GA101 pass call this, so networkx is imported here and a
    process that runs valid applications never loads it.
    """
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return list(nx.find_cycle(graph))


@dataclass(frozen=True)
class ParameterConfig:
    """Declarative form of an adjustment parameter (Section 3.3).

    ``direction`` mirrors the last argument of ``specifyPara``: +1 means
    increasing the value *increases* the processing rate (and typically
    lowers accuracy); -1 means increasing the value *decreases* the
    processing rate (more data retained, more accurate).
    """

    name: str
    init: float
    minimum: float
    maximum: float
    increment: float
    direction: int

    def __post_init__(self) -> None:
        if self.minimum > self.maximum:
            raise ConfigError(
                f"parameter {self.name!r}: min {self.minimum} > max {self.maximum}"
            )
        if not (self.minimum <= self.init <= self.maximum):
            raise ConfigError(
                f"parameter {self.name!r}: init {self.init} outside "
                f"[{self.minimum}, {self.maximum}]"
            )
        if self.increment <= 0:
            raise ConfigError(
                f"parameter {self.name!r}: increment must be > 0, got {self.increment}"
            )
        if self.direction not in (-1, 1):
            raise ConfigError(
                f"parameter {self.name!r}: direction must be +1 or -1, "
                f"got {self.direction}"
            )


@dataclass
class StageConfig:
    """One pipeline stage: code location, resources, parameters, properties."""

    name: str
    code_url: str
    requirement: ResourceRequirement = field(default_factory=ResourceRequirement)
    parameters: List[ParameterConfig] = field(default_factory=list)
    properties: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class StreamConfig:
    """A directed stream between two stages.

    ``item_size`` is the bytes-per-item used for link transmission-time
    accounting (the paper's integer streams use 4-8 byte items).
    """

    name: str
    src: str
    dst: str
    item_size: float = 8.0

    def __post_init__(self) -> None:
        if self.item_size <= 0:
            raise ConfigError(
                f"stream {self.name!r}: item-size must be > 0, got {self.item_size}"
            )
        if self.src == self.dst:
            raise ConfigError(f"stream {self.name!r}: src == dst ({self.src!r})")


@dataclass
class AppConfig:
    """A complete application description."""

    name: str
    stages: List[StageConfig] = field(default_factory=list)
    streams: List[StreamConfig] = field(default_factory=list)

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise :class:`ConfigError` if broken.

        Invariants: non-empty name, at least one stage, unique stage and
        stream names, streams reference declared stages, and the stage
        graph is acyclic (GATES applications are pipelines/DAGs).
        """
        if not self.name:
            raise ConfigError("application name must be non-empty")
        if not self.stages:
            raise ConfigError(f"application {self.name!r} declares no stages")
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate stage names in {self.name!r}")
        stream_names = [s.name for s in self.streams]
        if len(set(stream_names)) != len(stream_names):
            raise ConfigError(f"duplicate stream names in {self.name!r}")
        known = set(names)
        for stream in self.streams:
            for endpoint in (stream.src, stream.dst):
                if endpoint not in known:
                    raise ConfigError(
                        f"stream {stream.name!r} references unknown stage "
                        f"{endpoint!r}"
                    )
        if len(self._topological_names()) < len(names):
            cycle = find_cycle(names, ((s.src, s.dst) for s in self.streams))
            raise ConfigError(f"stage graph has a cycle: {cycle}")

    def stage_graph(self) -> Any:
        """The stage DAG as a ``networkx.DiGraph`` (nodes = stage names,
        edges = streams).

        For analysis and tests; nothing a run executes calls it, which
        is why networkx is imported here and not by the module.
        """
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(s.name for s in self.stages)
        for stream in self.streams:
            graph.add_edge(stream.src, stream.dst, stream=stream)
        return graph

    def stage(self, name: str) -> StageConfig:
        """Look up a stage by name."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise ConfigError(f"no stage {name!r} in application {self.name!r}")

    def _topological_names(self) -> List[str]:
        """Stage names by Kahn's algorithm, one generation at a time.

        A generation lists its stages in the order their last upstream
        stage released them (declaration order for the sources), and a
        stage's downstream stages are visited in stream declaration
        order — the order ``networkx.topological_sort`` gives for
        :meth:`stage_graph`.  Stages on or behind a cycle are left out,
        so a result shorter than ``stages`` means the graph is cyclic.
        """
        downstream: Dict[str, Dict[str, None]] = {s.name: {} for s in self.stages}
        for stream in self.streams:
            downstream[stream.src][stream.dst] = None
        waiting = dict.fromkeys(downstream, 0)
        for targets in downstream.values():
            for target in targets:
                waiting[target] += 1
        order: List[str] = []
        generation = [name for name, count in waiting.items() if not count]
        while generation:
            order += generation
            released: List[str] = []
            for name in generation:
                for target in downstream[name]:
                    waiting[target] -= 1
                    if not waiting[target]:
                        released.append(target)
            generation = released
        return order

    def topological_stages(self) -> List[StageConfig]:
        """Stages in dependency order (sources first)."""
        order = self._topological_names()
        if len(order) < len(self.stages):
            raise ConfigError(f"stage graph of {self.name!r} has a cycle")
        by_name = {stage.name: stage for stage in self.stages}
        return [by_name[name] for name in order]

    def upstream_of(self, name: str) -> List[str]:
        """Names of stages feeding ``name``."""
        self.stage(name)
        return sorted({s.src for s in self.streams if s.dst == name})

    def downstream_of(self, name: str) -> List[str]:
        """Names of stages fed by ``name``."""
        self.stage(name)
        return sorted({s.dst for s in self.streams if s.src == name})

    # -- XML serialization ---------------------------------------------------

    def to_xml(self) -> str:
        """Serialize to the configuration document format."""
        root = ET.Element("application", name=self.name)
        for stage in self.stages:
            el = ET.SubElement(root, "stage", name=stage.name, code=stage.code_url)
            req = stage.requirement
            attrs: Dict[str, str] = {}
            if req.min_cores != 1:
                attrs["min-cores"] = str(req.min_cores)
            if req.min_memory_mb:
                attrs["min-memory-mb"] = repr(req.min_memory_mb)
            if req.min_speed_factor:
                attrs["min-speed-factor"] = repr(req.min_speed_factor)
            if req.placement_hint:
                attrs["placement"] = req.placement_hint
            if attrs or req.min_bandwidth_to:
                req_el = ET.SubElement(el, "requirement", attrs)
                for peer, bw in sorted(req.min_bandwidth_to.items()):
                    ET.SubElement(
                        req_el, "bandwidth", {"to": peer, "min": repr(bw)}
                    )
            for param in stage.parameters:
                ET.SubElement(
                    el,
                    "parameter",
                    name=param.name,
                    init=repr(param.init),
                    min=repr(param.minimum),
                    max=repr(param.maximum),
                    increment=repr(param.increment),
                    direction=str(param.direction),
                )
            for key, value in sorted(stage.properties.items()):
                ET.SubElement(el, "property", key=key, value=value)
        for stream in self.streams:
            ET.SubElement(
                root,
                "stream",
                {
                    "name": stream.name,
                    "from": stream.src,
                    "to": stream.dst,
                    "item-size": repr(stream.item_size),
                },
            )
        ET.indent(root)
        return ET.tostring(root, encoding="unicode")

    @classmethod
    def from_xml(cls, document: str) -> "AppConfig":
        """Parse and validate a configuration document."""
        try:
            root = ET.fromstring(document)
        except ET.ParseError as exc:
            raise ConfigError(f"malformed XML: {exc}") from exc
        if root.tag != "application":
            raise ConfigError(f"expected <application> root, got <{root.tag}>")
        name = root.get("name")
        if not name:
            raise ConfigError("<application> missing 'name' attribute")
        config = cls(name=name)
        for el in root:
            if not isinstance(el.tag, str):
                continue  # XML comments / processing instructions
            if el.tag == "stage":
                config.stages.append(cls._parse_stage(el))
            elif el.tag == "stream":
                config.streams.append(cls._parse_stream(el))
            else:
                raise ConfigError(f"unexpected element <{el.tag}>")
        config.validate()
        return config

    @staticmethod
    def _parse_stage(el: ET.Element) -> StageConfig:
        name = el.get("name")
        code = el.get("code")
        if not name or not code:
            raise ConfigError("<stage> requires 'name' and 'code' attributes")
        requirement = ResourceRequirement()
        parameters: List[ParameterConfig] = []
        properties: Dict[str, str] = {}
        for child in el:
            if not isinstance(child.tag, str):
                continue  # XML comments
            if child.tag == "requirement":
                bandwidth = {
                    b.get("to", ""): float(b.get("min", "0"))
                    for b in child.findall("bandwidth")
                }
                requirement = ResourceRequirement(
                    min_cores=int(child.get("min-cores", "1")),
                    min_memory_mb=float(child.get("min-memory-mb", "0")),
                    min_speed_factor=float(child.get("min-speed-factor", "0")),
                    placement_hint=child.get("placement"),
                    min_bandwidth_to=bandwidth,
                )
            elif child.tag == "parameter":
                try:
                    parameters.append(
                        ParameterConfig(
                            name=child.get("name", ""),
                            init=float(child.get("init", "nan")),
                            minimum=float(child.get("min", "nan")),
                            maximum=float(child.get("max", "nan")),
                            increment=float(child.get("increment", "nan")),
                            direction=int(child.get("direction", "0")),
                        )
                    )
                except ValueError as exc:
                    raise ConfigError(f"bad <parameter> in stage {name!r}: {exc}") from exc
            elif child.tag == "property":
                key = child.get("key")
                if not key:
                    raise ConfigError(f"<property> in stage {name!r} missing key")
                properties[key] = child.get("value", "")
            else:
                raise ConfigError(f"unexpected element <{child.tag}> in stage {name!r}")
        return StageConfig(
            name=name,
            code_url=code,
            requirement=requirement,
            parameters=parameters,
            properties=properties,
        )

    @staticmethod
    def _parse_stream(el: ET.Element) -> StreamConfig:
        name = el.get("name")
        src = el.get("from")
        dst = el.get("to")
        if not name or not src or not dst:
            raise ConfigError("<stream> requires 'name', 'from' and 'to'")
        return StreamConfig(
            name=name,
            src=src,
            dst=dst,
            item_size=float(el.get("item-size", "8.0")),
        )
