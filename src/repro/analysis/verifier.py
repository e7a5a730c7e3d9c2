"""Multi-pass semantic verifier for application configurations.

The Launcher "parses an XML file specifying the configuration information
of an application" before the Deployer touches the grid (Section 3.2).
:meth:`AppConfig.validate` raises the first structural finding of
:mod:`repro.grid.config` (shape, names, endpoints, acyclicity, parameter
ranges); this module reports every one of them, with its line, and adds
the deep pre-deploy passes that the ``repro check`` command and all three
runtimes run, covering what otherwise surfaces at runtime — possibly
mid-failover on a remote worker:

* **structural rules** — :meth:`AppConfig.findings` and the shape
  findings of :func:`~repro.grid.config.parse_document` (GA100-102,
  GA105, GA201-203), the exact set the loader rejects;
* **graph passes** — duplicate streams between one stage pair (GA103,
  which the single-edge stage graph would silently collapse),
  disconnected stages (GA104), declared fan-in vs. connected streams
  (GA106);
* **option passes** — the runtimes' own parser
  (:mod:`repro.core.options`): a value they reject (GA106, GA210, GA220,
  GA231, else GA209) and an undeclared reserved-namespace key (GA209);
* **adaptation passes** — duplicate parameters (GA207), Section-4
  increment-grid reachability (GA204-206), stage
  properties that mirror a parameter but disagree with it (GA208);
* **deployment passes** — stage code resolution through the repository
  (GA301), the snapshot/restore checkpoint contract (GA302), a placement
  feasibility dry-run against the Matchmaker (GA303), and summary-stream
  item sizes vs. the wire codec (GA304).

Entry points: :func:`verify_path` / :func:`verify_document` analyze XML
text (read once, with line numbers; :func:`check_document` also returns
the configuration read); :func:`verify_config` analyzes an in-memory
:class:`~repro.grid.config.AppConfig` (used by the runtimes' pre-deploy
gates).  All report a :class:`~repro.analysis.diagnostics.Report`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis.diagnostics import Report, Severity, SourceSpan
from repro.core.options import StageOptions, knobs, read_options, undeclared
from repro.grid.config import AppConfig, StageConfig, parse_document

__all__ = ["check_document", "verify_config", "verify_document", "verify_path"]

#: Relative/absolute tolerance for the increment-grid arithmetic: config
#: values are human-written decimals, so exact float equality is wrong.
_TOL = 1e-9

#: Stage property marking a sketch-producing stage (its output streams
#: carry (value, count) summary pairs in the streams.wire codec).
SKETCH_PROPERTY = "sketch"

#: The code an invalid option value is reported under, by the option's
#: topic (any other topic: GA209).
_VALUE_CODES = {"graph": "GA106", "batching": "GA210", "sharding": "GA220", "migration": "GA231"}

#: Each stage with its options, or None where a value is invalid.
_Parsed = List[Tuple[StageConfig, Optional[StageOptions]]]


def verify_path(
    path: str,
    *,
    repository: Optional[object] = None,
    registry: Optional[object] = None,
) -> Report:
    """Verify the configuration document at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return verify_document(
        text, filename=path, repository=repository, registry=registry
    )


def verify_document(
    text: str,
    filename: Optional[str] = None,
    *,
    repository: Optional[object] = None,
    registry: Optional[object] = None,
) -> Report:
    """Verify configuration XML ``text`` (every finding, all passes)."""
    return check_document(
        text, filename, repository=repository, registry=registry
    )[1]


def check_document(
    text: str,
    filename: Optional[str] = None,
    *,
    repository: Optional[object] = None,
    registry: Optional[object] = None,
) -> Tuple[Optional[AppConfig], Report]:
    """Read configuration XML ``text`` once: the configuration read (None
    when the XML breaks before its root element) and its report."""
    config, shape = parse_document(text)
    out = _Located(filename, text)
    for finding in shape:
        out.report.add(finding.code, finding.message, span=SourceSpan(
            file=filename, line=finding.line, column=finding.column))
    if config is not None:
        _verify(config, out, repository, registry, None, None)
    return config, out.report


def verify_config(
    config: AppConfig,
    *,
    repository: Optional[object] = None,
    registry: Optional[object] = None,
    resilience: Optional[object] = None,
    migrating: Optional[Iterable[str]] = None,
) -> Report:
    """Run every pass over an in-memory configuration.

    ``repository`` (a :class:`~repro.grid.repository.CodeRepository`)
    enables the code-resolution and checkpoint-contract passes;
    ``registry`` (a :class:`~repro.grid.registry.ServiceRegistry` with a
    registered network) enables the placement dry-run.  Either may be
    None, which skips the corresponding passes — the structural, graph
    and parameter passes never need external services.

    ``migrating`` names stages treated as migration-enabled in addition
    to any declaring ``migratable: true``; ``resilience`` (a
    :class:`~repro.resilience.policy.ResilienceConfig`) lets the GA231
    pass confirm the checkpoint store backing a migration-enabled run
    is actually armed.
    """
    out = _Located()
    _verify(config, out, repository, registry, resilience, migrating)
    return out.report


class _Located:
    """A report whose findings point into one document, when there is one."""

    def __init__(self, file: Optional[str] = None, text: Optional[str] = None) -> None:
        self.report = Report()
        self.file = file
        self.lines = None if text is None else text.splitlines()

    def add(
        self,
        code: str,
        message: str,
        *,
        line: Optional[int] = None,
        config_path: Optional[str] = None,
        severity: Optional[Severity] = None,
    ) -> None:
        """Report a finding, attaching the source line when known."""
        excerpt = None
        if self.lines is not None and line is not None and 1 <= line <= len(self.lines):
            excerpt = self.lines[line - 1]
        self.report.add(
            code,
            message,
            severity=severity,
            span=SourceSpan(file=self.file, line=line, config_path=config_path),
            source_line=excerpt,
        )


def _verify(
    config: AppConfig,
    out: _Located,
    repository: Optional[object],
    registry: Optional[object],
    resilience: Optional[object],
    migrating: Optional[Iterable[str]],
) -> None:
    for finding in config.findings():
        out.add(finding.code, finding.message, line=finding.line,
                config_path=finding.config_path)
    _check_duplicate_parameters(config, out)
    _check_graph(config, out)
    parsed = [(stage, _check_options(stage, out)) for stage in config.stages]
    _check_fan_in(config, parsed, out)
    for stage, options in parsed:
        _check_parameters(stage, out)
        _check_property_mirrors(stage, out)
        if options is not None:
            _check_batching(stage, options, out)
            _check_sharding(stage, options, out)
    _check_wire(config, out)
    _check_migration(config, parsed, repository, resilience, migrating, out)
    _check_ledger(config, parsed, repository, out)
    if repository is not None:
        _check_codes(config, repository, out)
    if registry is not None:
        _check_placement(config, registry, out)


# -- GA1xx: names and graph ----------------------------------------------------


def _check_duplicate_parameters(config: AppConfig, out: _Located) -> None:
    """GA207: a stage declaring one parameter name twice."""
    for stage in config.stages:
        declared: Dict[str, int] = {}
        for param in stage.parameters:
            if param.name and param.name in declared:
                out.add("GA207",
                        f"stage {stage.name!r} declares parameter "
                        f"{param.name!r} twice",
                        line=param.line,
                        config_path=f"stage {stage.name!r} / "
                                    f"parameter {param.name!r}")
            declared[param.name] = 1


def _check_graph(config: AppConfig, out: _Located) -> None:
    """GA103 (duplicate edges), GA104 (disconnected stages)."""
    known = {stage.name for stage in config.stages}
    pairs: Dict[Tuple[str, str], List[str]] = {}
    for stream in config.streams:
        if stream.src in known and stream.dst in known:
            pairs.setdefault((stream.src, stream.dst), []).append(stream.name)
    for (src, dst), names in sorted(pairs.items()):
        if len(names) > 1:
            first, rest = names[0], names[1:]
            out.add("GA103",
                    f"streams {', '.join(repr(n) for n in rest)} duplicate "
                    f"stream {first!r} between {src!r} and {dst!r}",
                    config_path=f"stream {rest[0]!r}")
    if len(config.stages) > 1:
        touched = {s.src for s in config.streams} | {s.dst for s in config.streams}
        for stage in config.stages:
            if stage.name not in touched:
                out.add("GA104",
                        f"stage {stage.name!r} has no incoming or outgoing "
                        "streams",
                        line=stage.line, config_path=f"stage {stage.name!r}")


def _check_options(stage: StageConfig, out: _Located) -> Optional[StageOptions]:
    """GA209 (undeclared key in a reserved namespace), and every value
    the runtimes would reject, at ERROR severity under its topic's code.

    Returns the stage's options, or None when a value is invalid.
    """
    config_path = f"stage {stage.name!r}"
    for key, near in undeclared(stage.properties):
        guess = f"; did you mean {near!r}?" if near else ""
        out.add("GA209",
                f"stage {stage.name!r}: {key!r} is not a middleware option{guess}",
                line=stage.line, config_path=config_path)
    options, problems = read_options(stage.properties)
    for option, message in problems:
        out.add(_VALUE_CODES.get(option.topic, "GA209"),
                f"stage {stage.name!r}: {message}",
                line=stage.line, config_path=config_path, severity=Severity.ERROR)
    return None if problems else options


def _check_fan_in(config: AppConfig, parsed: _Parsed, out: _Located) -> None:
    """GA106: the optional ``fan-in`` option must match the in-degree."""
    for stage, options in parsed:
        if options is None or options.fan_in is None:
            continue
        actual = sum(1 for s in config.streams if s.dst == stage.name)
        if options.fan_in != actual:
            out.add("GA106",
                    f"stage {stage.name!r} declares fan-in={options.fan_in} "
                    f"but {actual} incoming stream"
                    f"{'s connect' if actual != 1 else ' connects'} to it",
                    line=stage.line, config_path=f"stage {stage.name!r}")


# -- GA2xx: adaptation parameters ----------------------------------------------


def _off_grid(offset: float, increment: float) -> bool:
    """True when ``offset`` is not a whole multiple of ``increment``."""
    steps = offset / increment
    return abs(steps - round(steps)) > _TOL * max(1.0, abs(steps))


def _check_parameters(stage: StageConfig, out: _Located) -> None:
    """GA204-GA206 for every parameter of one stage that satisfies the
    structural rules (:meth:`ParameterConfig.findings`)."""
    for param in stage.parameters:
        if any(param.findings(stage.name)):
            continue  # reported by the structural rules
        config_path = f"stage {stage.name!r} / parameter {param.name!r}"
        span = param.maximum - param.minimum
        if span > 0 and param.increment > span + _TOL:
            out.add("GA206",
                    f"parameter {param.name!r}: increment {param.increment:g} "
                    f"exceeds the adjustable span {span:g}",
                    line=param.line, config_path=config_path)
            continue
        if span > 0 and _off_grid(span, param.increment):
            out.add("GA204",
                    f"parameter {param.name!r}: max {param.maximum:g} is not "
                    f"min + k*increment (increment {param.increment:g}), so "
                    "adaptation only reaches it by clamping",
                    line=param.line, config_path=config_path)
        if _off_grid(param.init - param.minimum, param.increment):
            out.add("GA205",
                    f"parameter {param.name!r}: init {param.init:g} is off the "
                    f"min + k*increment grid (increment {param.increment:g}); "
                    "the first adjustment will move it",
                    line=param.line, config_path=config_path)


def _check_property_mirrors(stage: StageConfig, out: _Located) -> None:
    """GA208: ``name``/``name-min``/``name-max`` properties must agree
    with the parameter declaration they mirror."""
    for param in stage.parameters:
        if not param.name:
            continue
        mirrors = (
            (param.name, "init", param.init),
            (f"{param.name}-min", "min", param.minimum),
            (f"{param.name}-max", "max", param.maximum),
        )
        for key, attribute, declared in mirrors:
            text = stage.properties.get(key)
            if text is None:
                continue
            try:
                value = float(text)
            except ValueError:
                continue  # non-numeric property, not a mirror
            if not math.isclose(value, declared, rel_tol=_TOL, abs_tol=_TOL):
                out.add("GA208",
                        f"stage {stage.name!r}: property {key}={value:g} "
                        f"disagrees with parameter {param.name!r} "
                        f"{attribute}={declared:g}",
                        line=param.line,
                        config_path=f"stage {stage.name!r} / property {key!r}")


def _check_batching(stage: StageConfig, options: StageOptions, out: _Located) -> None:
    """GA210: the flush delay must stay under the Section-4 sampling
    interval (an unparseable batch option is GA210 too, from
    :func:`_check_options`).

    A partial batch held for longer than one sampling interval means the
    adaptation monitor's queue-length samples alternate between "starved"
    (everything buffered upstream) and "burst" (a whole batch landed at
    once) — load the batching itself manufactured, which the estimator
    then reacts to.
    """
    from repro.core.adaptation.policy import AdaptationPolicy

    max_delay = options.batch_max_delay
    sample_interval = AdaptationPolicy().sample_interval
    if max_delay is not None and max_delay >= sample_interval:
        out.add("GA210",
                f"stage {stage.name!r}: batch-max-delay={max_delay:g} "
                f"is not below the adaptation sampling interval "
                f"({sample_interval:g}s); the monitor would sample bursts "
                "the batching itself creates",
                line=stage.line, config_path=f"stage {stage.name!r}")


def _check_sharding(stage: StageConfig, options: StageOptions, out: _Located) -> None:
    """GA220 (invalid shard/scale contract), GA221 (inert knobs).

    GA220 applies exactly the checks that
    :func:`repro.core.sharding.expand_shards` would run at deployment, so
    a contradictory ``replicas``/``shard-*``/``scale-*`` declaration
    fails at analysis time.  GA221 flags declarations that parse but do
    nothing: a ``shard-*``/``scale-*`` knob on a stage with no
    ``replicas`` (expansion is keyed on ``replicas``, so the knob is
    inert), and a range partitioner with fewer than ``slots - 1``
    boundaries (the boundary list induces ``len + 1`` ranges, so the
    replica slots above that can never own a key).
    """
    from repro.core.sharding import ShardingError, shard_spec

    config_path = f"stage {stage.name!r}"
    try:
        spec = shard_spec(stage.name, options)
    except ShardingError as exc:
        out.add("GA220", str(exc),
                line=stage.line, config_path=config_path)
        return
    if spec is None:
        if options.shard_group is not None:
            return  # an already-expanded replica; markers are expected
        inert = sorted(options.given.intersection(knobs("sharding")))
        if inert:
            out.add("GA221",
                    f"stage {stage.name!r}: {', '.join(inert)} without "
                    "replicas has no effect; the stage will not be sharded",
                    line=stage.line, config_path=config_path)
        return
    _replicas, slots, _policy = spec
    boundaries = len(options.shard_boundaries or ())
    if options.shard_partitioner == "range" and boundaries < slots - 1:
        out.add("GA221",
                f"stage {stage.name!r}: range partitioner declares "
                f"{boundaries} boundaries for {slots} replica "
                f"slots; slots above {boundaries} can never own "
                "any keys",
                line=stage.line, config_path=config_path)


# -- GA23x: live migration -----------------------------------------------------


def _check_migration(
    config: AppConfig,
    parsed: _Parsed,
    repository: Optional[object],
    resilience: Optional[object],
    migrating: Optional[Iterable[str]],
    out: _Located,
) -> None:
    """GA230 (handoff contract), GA231 (invalid or unsatisfiable gate).

    A stage is migration-enabled when it declares ``migratable: true`` or
    is named in ``migrating`` (the coordinator passes the stages its
    :class:`~repro.resilience.migration.MigrationPlan` list targets).
    The live-migration handoff transports ``snapshot()`` state into a
    fresh instance on the target node, so a migration-enabled stage whose
    class keeps the no-op defaults would silently move with empty state
    — that is GA230, checkable only when a ``repository`` resolves the
    stage class.  GA231 covers everything that makes the gate itself
    wrong: a non-boolean ``migratable`` value, a ``migrating`` name that
    matches no declared stage, a sharded stage (per-shard queues and the
    partitioner pin replicas to their slots; moving one replica is
    rescaling, not migration), and — when the caller supplies the run's
    ``resilience`` config — a disarmed checkpoint store, without which a
    mid-move crash cannot degrade to failover.
    """
    from repro.core.api import StreamProcessor
    from repro.core.sharding import SHARD_SEPARATOR
    from repro.grid.repository import RepositoryError

    requested = {name for name in (migrating or ())}
    known = {stage.name for stage in config.stages}
    for name in sorted(requested - known):
        out.add("GA231",
                f"migration plan targets unknown stage {name!r}")

    enabled: List[StageConfig] = []
    for stage, options in parsed:
        if options is None:
            continue  # an invalid value is already reported
        if not options.migratable and stage.name not in requested:
            continue
        if options.replicas is not None or SHARD_SEPARATOR in stage.name:
            out.add("GA231",
                    f"stage {stage.name!r} is sharded (replicas "
                    "declared) and cannot migrate; replicas are pinned to "
                    "their partitioner slots",
                    line=stage.line, config_path=f"stage {stage.name!r}")
            continue
        enabled.append(stage)

    if not enabled:
        return
    if resilience is not None and getattr(
            resilience, "checkpoint_interval", None) is None:
        names = ", ".join(repr(s.name) for s in enabled)
        out.add("GA231",
                f"migration-enabled stage{'s' if len(enabled) > 1 else ''} "
                f"{names} without a checkpoint store: set "
                "resilience.checkpoint_interval so a mid-move crash can "
                "degrade to failover")
    if repository is None:
        return
    for stage in enabled:
        config_path = f"stage {stage.name!r}"
        try:
            factory: Callable[..., object] = repository.fetch(stage.code_url)
        except RepositoryError:
            continue  # unresolvable URL is GA301's finding
        if not (isinstance(factory, type)
                and issubclass(factory, StreamProcessor)):
            continue  # non-class factories cannot be checked statically
        has_snapshot = factory.snapshot is not StreamProcessor.snapshot
        has_restore = factory.restore is not StreamProcessor.restore
        if not (has_snapshot and has_restore):
            out.add("GA230",
                    f"stage {stage.name!r}: class {factory.__name__} does "
                    "not override snapshot() and restore(); the migration "
                    "handoff would move it with empty state",
                    line=stage.line, config_path=config_path)


def _check_ledger(
    config: AppConfig, parsed: _Parsed, repository: Optional[object], out: _Located
) -> None:
    """GA240: sinks in a ledger-enabled pipeline must be idempotent.

    A pipeline is ledger-enabled when any stage declares
    ``ledger-enabled: true`` (or carries a ``ledger-mode`` of record or
    replay — the properties the harness stamps).  Delivery below a sink
    is then at-least-once: failover replay and migration handoff both
    re-deliver items, and the replay harness's exactly-once claim rests
    entirely on the sink deduplicating by item key.  Every sink stage
    (no outgoing streams) must therefore resolve to a class implementing
    the :class:`~repro.ledger.sinks.SinkTxn` protocol (``txn_begin`` +
    ``txn_commit``), unless it explicitly accepts duplicates with
    ``at-least-once-ok: true``.
    """
    from repro.grid.repository import RepositoryError

    if not any(
        options is not None
        and (options.ledger_enabled or options.ledger_mode in ("record", "replay"))
        for _, options in parsed
    ):
        return
    sources = {stream.src for stream in config.streams}
    for stage, options in parsed:
        if stage.name in sources:
            continue  # not a sink
        config_path = f"stage {stage.name!r}"
        if options is None or options.at_least_once_ok:
            continue
        if repository is None:
            continue  # cannot resolve the class without a repository
        try:
            factory: Callable[..., object] = repository.fetch(stage.code_url)
        except RepositoryError:
            continue  # unresolvable URL is GA301's finding
        if not isinstance(factory, type):
            continue  # non-class factories cannot be checked statically
        if callable(getattr(factory, "txn_begin", None)) and callable(
            getattr(factory, "txn_commit", None)
        ):
            continue
        out.add("GA240",
                f"stage {stage.name!r}: sink class {factory.__name__} does "
                "not implement the SinkTxn protocol; redelivered duplicates "
                "in this ledger-enabled pipeline would double-apply effects "
                "(add txn_begin/txn_commit via repro.ledger.sinks.SinkTxn, "
                "or declare at-least-once-ok: true)",
                line=stage.line, config_path=config_path)


# -- GA3xx: deployment ---------------------------------------------------------


def _check_codes(config: AppConfig, repository: object, out: _Located) -> None:
    """GA301 (unresolvable code URL), GA302 (checkpoint contract)."""
    from repro.core.api import StreamProcessor
    from repro.grid.repository import RepositoryError

    for stage in config.stages:
        config_path = f"stage {stage.name!r}"
        try:
            factory: Callable[..., object] = repository.fetch(stage.code_url)
        except RepositoryError as exc:
            out.add("GA301",
                    f"stage {stage.name!r}: {exc}",
                    line=stage.line, config_path=config_path)
            continue
        cls = factory if isinstance(factory, type) else type(factory)
        if not (isinstance(factory, type)
                and issubclass(factory, StreamProcessor)):
            # A non-class factory (closure, partial) could build anything;
            # the contract can only be checked statically for classes.
            continue
        has_snapshot = cls.snapshot is not StreamProcessor.snapshot
        has_restore = cls.restore is not StreamProcessor.restore
        if has_snapshot != has_restore:
            present = "snapshot()" if has_snapshot else "restore()"
            missing = "restore()" if has_snapshot else "snapshot()"
            out.add("GA302",
                    f"stage {stage.name!r}: class {cls.__name__} overrides "
                    f"{present} but not {missing}; failover cannot rebuild "
                    "its state",
                    line=stage.line, config_path=config_path)


def _check_wire(config: AppConfig, out: _Located) -> None:
    """GA304: sketch-stage output streams must use the codec pair size."""
    from repro.streams.wire import PAIR_BYTES

    for stream in config.streams:
        source = next((s for s in config.stages if s.name == stream.src), None)
        if source is None or SKETCH_PROPERTY not in source.properties:
            continue
        if not math.isclose(stream.item_size, PAIR_BYTES,
                            rel_tol=_TOL, abs_tol=_TOL):
            out.add("GA304",
                    f"stream {stream.name!r} from sketch stage {stream.src!r} "
                    f"declares item-size {stream.item_size:g}, but the wire "
                    f"codec sends {PAIR_BYTES}-byte (value, count) pairs",
                    line=stream.line, config_path=f"stream {stream.name!r}")


def _check_placement(config: AppConfig, registry: object, out: _Located) -> None:
    """GA303: dry-run the Matchmaker over the declared requirements."""
    from repro.grid.matchmaker import MatchError, Matchmaker

    requirements = [(stage.name, stage.requirement) for stage in config.stages]
    try:
        Matchmaker(registry).match_all(requirements)
    except MatchError as exc:
        out.add("GA303", f"placement dry-run failed: {exc}")
