"""XML application configuration.

The application developer "writes an XML file, specifying the configuration
information of an application.  Such information includes the number of
stages and where the stages' codes are" (Section 3.2).  This module owns
that document format, once:

* the typed model (:class:`AppConfig`, :class:`StageConfig`,
  :class:`StreamConfig`, :class:`ParameterConfig`), which may hold an
  invalid configuration so that it can be reported;
* the one reader, :func:`parse_document` (stdlib expat), which reports
  every shape defect with its line and keeps reading;
* the one copy of each structural rule, :meth:`AppConfig.findings`;
* the writer, :meth:`AppConfig.to_xml` (stdlib ElementTree).

Both XML modules load only when a document is read or written, so a
process that runs stages never imports them.  :meth:`AppConfig.from_xml`
and :meth:`AppConfig.validate` raise the first finding as a
:class:`ConfigError`; ``repro check`` (:mod:`repro.analysis.verifier`)
reports all of them, under the same codes, with the deeper semantic
passes added.

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

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple,
)

from repro.grid.resources import ResourceRequirement

if TYPE_CHECKING:
    from xml.parsers.expat import XMLParserType

__all__ = [
    "AppConfig", "ConfigError", "Finding", "ParameterConfig", "StageConfig",
    "StreamConfig", "parse_document",
]


class ConfigError(Exception):
    """Raised for malformed or inconsistent configurations."""


class Finding(NamedTuple):
    """One defect of a configuration, under its ``GAxxx`` code.

    ``line``/``column`` locate it in the document it was read from (None
    for a configuration built in code); ``config_path`` names the
    element (``"stage 'join'"``).
    """

    code: str
    message: str
    line: Optional[int] = None
    config_path: Optional[str] = None
    column: Optional[int] = None

    def __str__(self) -> str:
        return self.message if self.line is None else f"line {self.line}: {self.message}"


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
    direction: float
    #: Line of the ``<parameter>`` element, when read from a document.
    line: Optional[int] = field(default=None, compare=False, repr=False)

    def findings(self, stage: str) -> Iterator[Finding]:
        """GA100 (a non-finite number), GA202 (min > max), GA201 (init
        outside the range) and GA203 (increment or direction)."""
        def found(code: str, problem: str) -> Finding:
            return Finding(code, f"parameter {self.name!r}: {problem}", self.line,
                           f"stage {stage!r} / parameter {self.name!r}")

        numbers = (("init", self.init), ("min", self.minimum),
                   ("max", self.maximum), ("increment", self.increment))
        unbounded = [(attr, value) for attr, value in numbers if not math.isfinite(value)]
        for attr, value in unbounded:
            yield found("GA100", f"{attr} must be a finite number, got {value}")
        if unbounded:
            return
        if self.minimum > self.maximum:
            yield found("GA202", f"min {self.minimum:g} > max {self.maximum:g}")
        elif not (self.minimum <= self.init <= self.maximum):
            yield found("GA201", f"init {self.init:g} outside "
                                 f"[{self.minimum:g}, {self.maximum:g}]")
        if not self.increment > 0:
            yield found("GA203", f"increment must be > 0, got {self.increment:g}")
        if self.direction not in (-1, 1):
            yield found("GA203", f"direction must be +1 or -1, got {self.direction:g}")


@dataclass
class StageConfig:
    """One pipeline stage: code location, resources, parameters, properties."""

    name: str
    code_url: str
    requirement: ResourceRequirement = field(default_factory=ResourceRequirement)
    parameters: List[ParameterConfig] = field(default_factory=list)
    properties: Dict[str, str] = field(default_factory=dict)
    #: Line of the ``<stage>`` element, when read from a document.
    line: Optional[int] = field(default=None, compare=False, repr=False)


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
    #: Line of the ``<stream>`` element, when read from a document.
    line: Optional[int] = field(default=None, compare=False, repr=False)


@dataclass
class AppConfig:
    """A complete application description."""

    name: str
    stages: List[StageConfig] = field(default_factory=list)
    streams: List[StreamConfig] = field(default_factory=list)

    # -- validation -------------------------------------------------------

    def findings(self) -> Iterator[Finding]:
        """Every structural defect: GA100 (no name, no stages, an item
        size that is not a finite number > 0, a non-finite parameter
        value), GA105 (duplicate names), GA102 (unknown stream
        endpoint), GA101 (cycle) and GA201-GA203 (parameter range,
        increment and direction).

        A configuration without findings can be run; these are the only
        rules the loader applies (:meth:`validate`).
        """
        if not self.name:
            yield Finding("GA100", "application name must be non-empty")
        if not self.stages:
            yield Finding("GA100", f"application {self.name!r} declares no stages")
        stages: Dict[str, None] = {}
        for stage in self.stages:
            if stage.name in stages:
                yield Finding("GA105", f"stage name {stage.name!r} declared more than once",
                              stage.line, f"stage {stage.name!r}")
            stages[stage.name] = None
        streams: Set[str] = set()
        for stream in self.streams:
            if stream.name in streams:
                yield Finding("GA105", f"stream name {stream.name!r} declared more than once",
                              stream.line, f"stream {stream.name!r}")
            streams.add(stream.name)
        for stream in self.streams:
            for label, endpoint in (("from", stream.src), ("to", stream.dst)):
                if endpoint not in stages:
                    yield Finding("GA102", f"stream {stream.name!r} {label}= references "
                                           f"unknown stage {endpoint!r}",
                                  stream.line, f"stream {stream.name!r}")
        cycle = self._cycle()
        if cycle:
            path = " -> ".join(cycle + cycle[:1])
            yield Finding("GA101", f"stage graph has a cycle: {path}")
        for stream in self.streams:
            if not 0 < stream.item_size < math.inf:
                yield Finding("GA100", f"stream {stream.name!r}: item-size must be a "
                                       f"finite number > 0, got {stream.item_size}",
                              stream.line, f"stream {stream.name!r}")
        for stage in self.stages:
            for param in stage.parameters:
                yield from param.findings(stage.name)

    def validate(self) -> None:
        """Raise the first of :meth:`findings` as a :class:`ConfigError`."""
        for finding in self.findings():
            raise ConfigError(str(finding))

    def stage(self, name: str) -> StageConfig:
        """Look up a stage by name."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise ConfigError(f"no stage {name!r} in application {self.name!r}")

    def _downstream(self) -> Dict[str, Dict[str, None]]:
        """Each stage's downstream stages, in stream declaration order
        (stages in declaration order; streams naming an unknown stage
        are ignored)."""
        downstream: Dict[str, Dict[str, None]] = {s.name: {} for s in self.stages}
        for stream in self.streams:
            if stream.src in downstream and stream.dst in downstream:
                downstream[stream.src][stream.dst] = None
        return downstream

    def _cycle(self) -> List[str]:
        """The stages of one cycle, in stream direction, or ``[]``.

        A depth-first search from each stage in declaration order that
        follows streams in declaration order and stops at the first
        stream back onto its own path: the cycle the graph library it
        replaced reported, which ``tests/grid/test_graph_equivalence.py``
        holds it to.
        """
        downstream = self._downstream()
        finished: Set[str] = set()
        for start in downstream:
            if start in finished:
                continue
            path = [start]
            pending = [iter(downstream[start])]
            while pending:
                target = next(pending[-1], None)
                if target is None:
                    finished.add(path.pop())
                    pending.pop()
                elif target in path:
                    return path[path.index(target):]
                elif target not in finished:
                    path.append(target)
                    pending.append(iter(downstream[target]))
        return []

    def _topological_names(self) -> List[str]:
        """Stage names by Kahn's algorithm, one generation at a time.

        A generation lists its stages in the order their last upstream
        stage released them (declaration order for the sources), and a
        stage's downstream stages are visited in stream declaration
        order — the order of the graph library it replaced, which
        ``tests/grid/test_graph_equivalence.py`` holds it to.  Stages on
        or behind a cycle are left out, so a result shorter than the
        distinct stage names means the graph is cyclic.
        """
        downstream = self._downstream()
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
        import xml.etree.ElementTree as ET

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
        """Read and validate a configuration document; the first finding
        of :func:`parse_document` or :meth:`validate` raises."""
        config, findings = parse_document(document)
        if config is None or findings:  # no config comes with a finding
            raise ConfigError(str(findings[0]))
        config.validate()
        return config


def parse_document(text: str) -> Tuple[Optional[AppConfig], List[Finding]]:
    """Read a configuration document, reporting every shape defect.

    Each defect is a GA100 finding with its line: malformed XML, an
    unexpected element, a missing attribute, a number that is not finite
    (or a ``min-cores`` that is not an integer) and a requirement
    :class:`ResourceRequirement` rejects.  The element concerned is left
    out, or, for an attribute with a default, the default is used, and
    reading goes on.  The configuration is returned unvalidated — run
    :meth:`AppConfig.findings` on it — and is None only when the XML is
    malformed before the root element.
    """
    from xml.parsers import expat

    parser = expat.ParserCreate()
    reader = _Reader(parser)
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        reader.findings.append(Finding(
            "GA100", f"malformed XML: {expat.errors.messages[exc.code]}",
            exc.lineno, column=exc.offset,
        ))
    return reader.config, reader.findings


class _Reader:
    """Expat handlers building an :class:`AppConfig` and its findings."""

    def __init__(self, parser: XMLParserType) -> None:
        parser.StartElementHandler = self._start
        parser.EndElementHandler = self._end
        self._parser = parser
        self._app = AppConfig("")
        #: The configuration read, once the root element has opened.
        self.config: Optional[AppConfig] = None
        self.findings: List[Finding] = []
        #: The open elements: each one's tag, or None where it is skipped.
        self._open: List[Optional[str]] = []
        self._stage = StageConfig("", "")
        #: The open <requirement>'s arguments and line.
        self._requirement: Dict[str, Any] = {}
        self._requirement_line = 0

    def _shape(self, message: str, line: Optional[int] = None) -> None:
        self.findings.append(Finding(
            "GA100", message, self._parser.CurrentLineNumber if line is None else line,
        ))

    def _number(self, tag: str, attrs: Dict[str, str], key: str,
                default: float) -> Optional[float]:
        """Attribute ``key`` as a finite number (``default`` when absent);
        None, reported, when it is not one."""
        text = attrs.get(key)
        if text is None:
            return default
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if math.isfinite(value):
            return value
        self._shape(f"<{tag}> attribute {key}={text!r} is not a finite number")
        return None

    # -- expat handlers -------------------------------------------------------

    def _start(self, tag: str, attrs: Dict[str, str]) -> None:
        if not self._open:
            if tag != "application":
                self._shape(f"expected <application> root, got <{tag}>")
            self._app.name = attrs.get("name", "")
            self.config = self._app
            self._open.append("application")
            return
        parent = self._open[-1]
        read: Optional[str] = None
        if parent is not None:
            handler = self._HANDLERS.get((parent, tag))
            if handler is None:
                where = (f"in stage {self._stage.name!r}" if parent == "stage"
                         else f"under <{parent}>")
                self._shape(f"unexpected element <{tag}> {where}")
            elif handler(self, attrs):
                read = tag
        self._open.append(read)

    def _end(self, tag: str) -> None:
        if self._open.pop() != "requirement":
            return
        try:
            self._stage.requirement = ResourceRequirement(**self._requirement)
        except ValueError as exc:
            self._shape(f"<requirement> in stage {self._stage.name!r}: {exc}",
                        self._requirement_line)

    def _read_stage(self, attrs: Dict[str, str]) -> bool:
        name, code = attrs.get("name"), attrs.get("code")
        if not name or not code:
            self._shape("<stage> requires 'name' and 'code' attributes")
            return False
        self._stage = StageConfig(name, code, line=self._parser.CurrentLineNumber)
        self._app.stages.append(self._stage)
        return True

    def _read_stream(self, attrs: Dict[str, str]) -> bool:
        name, src, dst = attrs.get("name"), attrs.get("from"), attrs.get("to")
        if not name or not src or not dst:
            self._shape("<stream> requires 'name', 'from' and 'to' attributes")
            return False
        size = self._number("stream", attrs, "item-size", 8.0)
        self._app.streams.append(StreamConfig(
            name, src, dst, 8.0 if size is None else size,
            line=self._parser.CurrentLineNumber,
        ))
        return True

    def _read_requirement(self, attrs: Dict[str, str]) -> bool:
        cores_text = attrs.get("min-cores", "1")
        try:
            cores = int(cores_text)
        except ValueError:
            self._shape(f"<requirement> attribute min-cores={cores_text!r} "
                        "is not an integer")
            cores = 1
        memory = self._number("requirement", attrs, "min-memory-mb", 0.0)
        speed = self._number("requirement", attrs, "min-speed-factor", 0.0)
        self._requirement = {
            "min_cores": cores,
            "min_memory_mb": 0.0 if memory is None else memory,
            "min_speed_factor": 0.0 if speed is None else speed,
            "placement_hint": attrs.get("placement"),
            "min_bandwidth_to": {},
        }
        self._requirement_line = self._parser.CurrentLineNumber
        return True

    def _read_bandwidth(self, attrs: Dict[str, str]) -> bool:
        peer = attrs.get("to")
        value = self._number("bandwidth", attrs, "min", 0.0)
        if not peer:
            self._shape("<bandwidth> missing 'to' attribute")
        elif value is not None:
            self._requirement["min_bandwidth_to"][peer] = value
        return True

    def _read_parameter(self, attrs: Dict[str, str]) -> bool:
        name = attrs.get("name", "")
        if not name:
            self._shape("<parameter> missing 'name' attribute")
        values: List[float] = []
        for attr in ("init", "min", "max", "increment", "direction"):
            if attr not in attrs:
                self._shape(f"<parameter> {name!r} missing {attr!r} attribute")
                continue
            value = self._number("parameter", attrs, attr, math.nan)
            if value is not None:
                values.append(value)
        if name and len(values) == 5:
            init, minimum, maximum, increment, direction = values
            self._stage.parameters.append(ParameterConfig(
                name, init, minimum, maximum, increment,
                int(direction) if direction.is_integer() else direction,
                line=self._parser.CurrentLineNumber,
            ))
        return True

    def _read_property(self, attrs: Dict[str, str]) -> bool:
        key = attrs.get("key")
        if not key:
            self._shape(f"<property> in stage {self._stage.name!r} missing key")
        else:
            self._stage.properties[key] = attrs.get("value", "")
        return True

    #: The elements read, by (parent, tag); any other element is a GA100.
    _HANDLERS: Dict[Tuple[str, str], Callable[["_Reader", Dict[str, str]], bool]] = {
        ("application", "stage"): _read_stage,
        ("application", "stream"): _read_stream,
        ("stage", "requirement"): _read_requirement,
        ("stage", "parameter"): _read_parameter,
        ("stage", "property"): _read_property,
        ("requirement", "bandwidth"): _read_bandwidth,
    }
