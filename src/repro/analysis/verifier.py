"""Multi-pass semantic verifier for application configurations.

The Launcher "parses an XML file specifying the configuration information
of an application" before the Deployer touches the grid (Section 3.2).
:meth:`AppConfig.validate` only enforces the structural minimum (names,
endpoints, acyclicity); this module is the deep pre-deploy gate that the
``repro check`` command and all three runtimes run, covering what
otherwise surfaces at runtime — possibly mid-failover on a remote worker:

* **graph passes** — cycles (GA101), dangling stream endpoints (GA102),
  duplicate streams between one stage pair (GA103, which the single-edge
  stage graph would silently collapse), disconnected stages (GA104),
  duplicate names (GA105), declared fan-in vs. connected streams (GA106);
* **option passes** — the runtimes' own parser
  (:mod:`repro.core.options`): a value they reject (GA106, GA210, GA220,
  GA231, else GA209) and an undeclared reserved-namespace key (GA209);
* **adaptation passes** — parameter range and shape errors (GA201-203,
  GA207), Section-4 increment-grid reachability (GA204-206), stage
  properties that mirror a parameter but disagree with it (GA208);
* **deployment passes** — stage code resolution through the repository
  (GA301), the snapshot/restore checkpoint contract (GA302), a placement
  feasibility dry-run against the Matchmaker (GA303), and summary-stream
  item sizes vs. the wire codec (GA304).

Entry points: :func:`verify_path` / :func:`verify_document` analyze XML
text (tolerantly parsed, with line numbers); :func:`verify_config`
analyzes an in-memory :class:`~repro.grid.config.AppConfig` (used by the
runtimes' pre-deploy gates).  All return a
:class:`~repro.analysis.diagnostics.Report`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis.diagnostics import Report, Severity
from repro.analysis.xmlparse import (
    RawApp,
    RawParameter,
    RawStage,
    parse_document,
)
from repro.core.options import StageOptions, knobs, read_options, undeclared

__all__ = ["verify_config", "verify_document", "verify_path", "verify_raw"]

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
_Parsed = List[Tuple[RawStage, Optional[StageOptions]]]


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
    """Verify configuration XML ``text`` (tolerant parse, all passes)."""
    app, shape_diagnostics = parse_document(text, filename)
    report = Report(shape_diagnostics)
    if app is not None:
        report.extend(verify_raw(app, repository=repository, registry=registry))
    return report


def verify_config(
    config: "AppConfig",  # noqa: F821 - imported lazily to avoid a cycle
    *,
    repository: Optional[object] = None,
    registry: Optional[object] = None,
    resilience: Optional[object] = None,
    migrating: Optional[Iterable[str]] = None,
) -> Report:
    """Verify an in-memory AppConfig (no file spans, same passes)."""
    return verify_raw(
        RawApp.from_config(config), repository=repository, registry=registry,
        resilience=resilience, migrating=migrating,
    )


def verify_raw(
    app: RawApp,
    *,
    repository: Optional[object] = None,
    registry: Optional[object] = None,
    resilience: Optional[object] = None,
    migrating: Optional[Iterable[str]] = None,
) -> Report:
    """Run every semantic pass over a tolerant document model.

    ``repository`` (a :class:`~repro.grid.repository.CodeRepository`)
    enables the code-resolution and checkpoint-contract passes;
    ``registry`` (a :class:`~repro.grid.registry.ServiceRegistry` with a
    registered network) enables the placement dry-run.  Either may be
    None, which skips the corresponding passes — the graph and parameter
    passes never need external services.

    ``migrating`` names stages treated as migration-enabled in addition
    to any declaring ``migratable: true``; ``resilience`` (a
    :class:`~repro.resilience.policy.ResilienceConfig`) lets the GA231
    pass confirm the checkpoint store backing a migration-enabled run
    is actually armed.
    """
    report = Report()
    _check_names(app, report)
    _check_graph(app, report)
    parsed = [(stage, _check_options(app, stage, report)) for stage in app.stages]
    _check_fan_in(app, parsed, report)
    for stage, options in parsed:
        _check_parameters(app, stage, report)
        _check_property_mirrors(app, stage, report)
        if options is not None:
            _check_batching(app, stage, options, report)
            _check_sharding(app, stage, options, report)
    _check_wire(app, report)
    _check_migration(app, parsed, repository, resilience, migrating, report)
    _check_ledger(app, parsed, repository, report)
    if repository is not None:
        _check_codes(app, repository, report)
    if registry is not None:
        _check_placement(app, registry, report)
    return report


def _add(
    report: Report,
    app: RawApp,
    code: str,
    message: str,
    *,
    line: Optional[int] = None,
    config_path: Optional[str] = None,
    severity: Optional[Severity] = None,
) -> None:
    """Report a finding located in ``app`` (attaching the source line)."""
    report.add(
        code,
        message,
        severity=severity,
        span=app.span(line, config_path),
        source_line=app.excerpt(line),
    )


# -- GA1xx: names and graph ----------------------------------------------------


def _check_names(app: RawApp, report: Report) -> None:
    """GA100 (empty app), GA105 (duplicate names), GA207 (dup parameters)."""
    if not app.stages:
        _add(report, app, "GA100",
             f"application {app.name!r} declares no stages")
    seen_stages: Dict[str, RawStage] = {}
    for stage in app.stages:
        if stage.name in seen_stages:
            _add(report, app, "GA105",
                 f"stage name {stage.name!r} declared more than once",
                 line=stage.line, config_path=f"stage {stage.name!r}")
        else:
            seen_stages[stage.name] = stage
    seen_streams: Dict[str, int] = {}
    for stream in app.streams:
        if stream.name in seen_streams:
            _add(report, app, "GA105",
                 f"stream name {stream.name!r} declared more than once",
                 line=stream.line, config_path=f"stream {stream.name!r}")
        else:
            seen_streams[stream.name] = 1
    for stage in app.stages:
        declared: Dict[str, int] = {}
        for param in stage.parameters:
            if param.name and param.name in declared:
                _add(report, app, "GA207",
                     f"stage {stage.name!r} declares parameter "
                     f"{param.name!r} twice",
                     line=param.line,
                     config_path=f"stage {stage.name!r} / "
                                 f"parameter {param.name!r}")
            declared[param.name] = 1


def _check_graph(app: RawApp, report: Report) -> None:
    """GA101 (cycles), GA102 (dangling endpoints), GA103 (duplicate
    edges), GA104 (disconnected stages)."""
    known = {stage.name for stage in app.stages}
    pairs: Dict[Tuple[str, str], List[str]] = {}
    for stream in app.streams:
        dangling = False
        for label, endpoint in (("from", stream.src), ("to", stream.dst)):
            if endpoint not in known:
                _add(report, app, "GA102",
                     f"stream {stream.name!r} {label}= references unknown "
                     f"stage {endpoint!r}",
                     line=stream.line, config_path=f"stream {stream.name!r}")
                dangling = True
        if dangling:
            continue
        pairs.setdefault((stream.src, stream.dst), []).append(stream.name)
    for (src, dst), names in sorted(pairs.items()):
        if len(names) > 1:
            first, rest = names[0], names[1:]
            _add(report, app, "GA103",
                 f"streams {', '.join(repr(n) for n in rest)} duplicate "
                 f"stream {first!r} between {src!r} and {dst!r}",
                 config_path=f"stream {rest[0]!r}")
    # Peel off, round by round, every stage that no remaining stage
    # feeds; whatever cannot be peeled lies on or behind a cycle.
    remaining = set(known)
    while True:
        fed = {dst for src, dst in pairs if src in remaining}
        if remaining <= fed:
            break
        remaining &= fed
    if remaining:
        from repro.grid.config import find_cycle

        cycle = find_cycle([stage.name for stage in app.stages], pairs)
        path = " -> ".join([edge[0] for edge in cycle] + [cycle[0][0]])
        _add(report, app, "GA101",
             f"stage graph has a cycle: {path}")
    if len(app.stages) > 1:
        touched = {s.src for s in app.streams} | {s.dst for s in app.streams}
        for stage in app.stages:
            if stage.name not in touched:
                _add(report, app, "GA104",
                     f"stage {stage.name!r} has no incoming or outgoing "
                     "streams",
                     line=stage.line, config_path=f"stage {stage.name!r}")


def _check_options(app: RawApp, stage: RawStage, report: Report) -> Optional[StageOptions]:
    """GA209 (undeclared key in a reserved namespace), and every value
    the runtimes would reject, at ERROR severity under its topic's code.

    Returns the stage's options, or None when a value is invalid.
    """
    config_path = f"stage {stage.name!r}"
    for key, near in undeclared(stage.properties):
        guess = f"; did you mean {near!r}?" if near else ""
        _add(report, app, "GA209",
             f"stage {stage.name!r}: {key!r} is not a middleware option{guess}",
             line=stage.line, config_path=config_path)
    options, problems = read_options(stage.properties)
    for option, message in problems:
        _add(report, app, _VALUE_CODES.get(option.topic, "GA209"),
             f"stage {stage.name!r}: {message}",
             line=stage.line, config_path=config_path, severity=Severity.ERROR)
    return None if problems else options


def _check_fan_in(app: RawApp, parsed: _Parsed, report: Report) -> None:
    """GA106: the optional ``fan-in`` option must match the in-degree."""
    for stage, options in parsed:
        if options is None or options.fan_in is None:
            continue
        actual = sum(1 for s in app.streams if s.dst == stage.name)
        if options.fan_in != actual:
            _add(report, app, "GA106",
                 f"stage {stage.name!r} declares fan-in={options.fan_in} "
                 f"but {actual} incoming stream"
                 f"{'s connect' if actual != 1 else ' connects'} to it",
                 line=stage.line, config_path=f"stage {stage.name!r}")


# -- GA2xx: adaptation parameters ----------------------------------------------


def _off_grid(offset: float, increment: float) -> bool:
    """True when ``offset`` is not a whole multiple of ``increment``."""
    steps = offset / increment
    return abs(steps - round(steps)) > _TOL * max(1.0, abs(steps))


def _check_parameters(app: RawApp, stage: RawStage, report: Report) -> None:
    """GA201-GA206 for every parameter of one stage."""
    for param in stage.parameters:
        if not param.ok:
            continue  # shape errors already reported as GA100
        config_path = f"stage {stage.name!r} / parameter {param.name!r}"

        def emit(code: str, message: str, _p: RawParameter = param,
                 _cp: str = config_path) -> None:
            _add(report, app, code, message, line=_p.line, config_path=_cp)

        range_ok = True
        if param.minimum > param.maximum:
            emit("GA202",
                 f"parameter {param.name!r}: min {param.minimum:g} > "
                 f"max {param.maximum:g}")
            range_ok = False
        elif not (param.minimum <= param.init <= param.maximum):
            emit("GA201",
                 f"parameter {param.name!r}: init {param.init:g} outside "
                 f"[{param.minimum:g}, {param.maximum:g}]")
            range_ok = False
        stepping_ok = True
        if not (param.increment > 0):  # catches NaN too
            emit("GA203",
                 f"parameter {param.name!r}: increment must be > 0, "
                 f"got {param.increment:g}")
            stepping_ok = False
        if param.direction not in (-1.0, 1.0):
            emit("GA203",
                 f"parameter {param.name!r}: direction must be +1 or -1, "
                 f"got {param.direction:g}")
            stepping_ok = False
        if not (range_ok and stepping_ok):
            continue
        span = param.maximum - param.minimum
        if span > 0 and param.increment > span + _TOL:
            emit("GA206",
                 f"parameter {param.name!r}: increment {param.increment:g} "
                 f"exceeds the adjustable span {span:g}")
            continue
        if span > 0 and _off_grid(span, param.increment):
            emit("GA204",
                 f"parameter {param.name!r}: max {param.maximum:g} is not "
                 f"min + k*increment (increment {param.increment:g}), so "
                 "adaptation only reaches it by clamping")
        if _off_grid(param.init - param.minimum, param.increment):
            emit("GA205",
                 f"parameter {param.name!r}: init {param.init:g} is off the "
                 f"min + k*increment grid (increment {param.increment:g}); "
                 "the first adjustment will move it")


def _check_property_mirrors(app: RawApp, stage: RawStage, report: Report) -> None:
    """GA208: ``name``/``name-min``/``name-max`` properties must agree
    with the parameter declaration they mirror."""
    for param in stage.parameters:
        if not param.ok or not param.name:
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
                _add(report, app, "GA208",
                     f"stage {stage.name!r}: property {key}={value:g} "
                     f"disagrees with parameter {param.name!r} "
                     f"{attribute}={declared:g}",
                     line=param.line,
                     config_path=f"stage {stage.name!r} / property {key!r}")


def _check_batching(app: RawApp, stage: RawStage, options: StageOptions, report: Report) -> None:
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
        _add(report, app, "GA210",
             f"stage {stage.name!r}: batch-max-delay={max_delay:g} "
             f"is not below the adaptation sampling interval "
             f"({sample_interval:g}s); the monitor would sample bursts "
             "the batching itself creates",
             line=stage.line, config_path=f"stage {stage.name!r}")


def _check_sharding(app: RawApp, stage: RawStage, options: StageOptions, report: Report) -> None:
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
        _add(report, app, "GA220", str(exc),
             line=stage.line, config_path=config_path)
        return
    if spec is None:
        if options.shard_group is not None:
            return  # an already-expanded replica; markers are expected
        inert = sorted(options.given.intersection(knobs("sharding")))
        if inert:
            _add(report, app, "GA221",
                 f"stage {stage.name!r}: {', '.join(inert)} without "
                 "replicas has no effect; the stage will not be sharded",
                 line=stage.line, config_path=config_path)
        return
    _replicas, slots, _policy = spec
    boundaries = len(options.shard_boundaries or ())
    if options.shard_partitioner == "range" and boundaries < slots - 1:
        _add(report, app, "GA221",
             f"stage {stage.name!r}: range partitioner declares "
             f"{boundaries} boundaries for {slots} replica "
             f"slots; slots above {boundaries} can never own "
             "any keys",
             line=stage.line, config_path=config_path)


# -- GA23x: live migration -----------------------------------------------------


def _check_migration(
    app: RawApp,
    parsed: _Parsed,
    repository: Optional[object],
    resilience: Optional[object],
    migrating: Optional[Iterable[str]],
    report: Report,
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
    known = {stage.name for stage in app.stages}
    for name in sorted(requested - known):
        _add(report, app, "GA231",
             f"migration plan targets unknown stage {name!r}")

    enabled: List[RawStage] = []
    for stage, options in parsed:
        if options is None:
            continue  # an invalid value is already reported
        if not options.migratable and stage.name not in requested:
            continue
        if options.replicas is not None or SHARD_SEPARATOR in stage.name:
            _add(report, app, "GA231",
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
        _add(report, app, "GA231",
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
            _add(report, app, "GA230",
                 f"stage {stage.name!r}: class {factory.__name__} does "
                 "not override snapshot() and restore(); the migration "
                 "handoff would move it with empty state",
                 line=stage.line, config_path=config_path)


def _check_ledger(
    app: RawApp, parsed: _Parsed, repository: Optional[object], report: Report
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
    sources = {stream.src for stream in app.streams}
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
        _add(report, app, "GA240",
             f"stage {stage.name!r}: sink class {factory.__name__} does "
             "not implement the SinkTxn protocol; redelivered duplicates "
             "in this ledger-enabled pipeline would double-apply effects "
             "(add txn_begin/txn_commit via repro.ledger.sinks.SinkTxn, "
             "or declare at-least-once-ok: true)",
             line=stage.line, config_path=config_path)


# -- GA3xx: deployment ---------------------------------------------------------


def _check_codes(app: RawApp, repository: object, report: Report) -> None:
    """GA301 (unresolvable code URL), GA302 (checkpoint contract)."""
    from repro.core.api import StreamProcessor
    from repro.grid.repository import RepositoryError

    for stage in app.stages:
        config_path = f"stage {stage.name!r}"
        try:
            factory: Callable[..., object] = repository.fetch(stage.code_url)
        except RepositoryError as exc:
            _add(report, app, "GA301",
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
            _add(report, app, "GA302",
                 f"stage {stage.name!r}: class {cls.__name__} overrides "
                 f"{present} but not {missing}; failover cannot rebuild "
                 "its state",
                 line=stage.line, config_path=config_path)


def _check_wire(app: RawApp, report: Report) -> None:
    """GA304: sketch-stage output streams must use the codec pair size."""
    from repro.streams.wire import PAIR_BYTES

    for stream in app.streams:
        source = app.stage_named(stream.src)
        if source is None or SKETCH_PROPERTY not in source.properties:
            continue
        if math.isnan(stream.item_size):
            continue  # unparseable size already reported as GA100
        if not math.isclose(stream.item_size, PAIR_BYTES,
                            rel_tol=_TOL, abs_tol=_TOL):
            _add(report, app, "GA304",
                 f"stream {stream.name!r} from sketch stage {stream.src!r} "
                 f"declares item-size {stream.item_size:g}, but the wire "
                 f"codec sends {PAIR_BYTES}-byte (value, count) pairs",
                 line=stream.line, config_path=f"stream {stream.name!r}")


def _check_placement(app: RawApp, registry: object, report: Report) -> None:
    """GA303: dry-run the Matchmaker over the declared requirements."""
    from repro.grid.matchmaker import MatchError, Matchmaker
    from repro.grid.resources import ResourceRequirement

    requirements: List[Tuple[str, ResourceRequirement]] = []
    for stage in app.stages:
        raw = stage.requirement
        if math.isnan(raw.min_memory_mb) or math.isnan(raw.min_speed_factor):
            continue  # unparseable requirement already reported as GA100
        try:
            requirement = ResourceRequirement(
                min_cores=raw.min_cores,
                min_memory_mb=raw.min_memory_mb,
                min_speed_factor=raw.min_speed_factor,
                placement_hint=raw.placement_hint,
                min_bandwidth_to=dict(raw.min_bandwidth_to),
            )
        except ValueError as exc:
            _add(report, app, "GA303",
                 f"stage {stage.name!r}: invalid requirement: {exc}",
                 line=raw.line or stage.line,
                 config_path=f"stage {stage.name!r}")
            return
        requirements.append((stage.name, requirement))
    try:
        Matchmaker(registry).match_all(requirements)
    except MatchError as exc:
        _add(report, app, "GA303", f"placement dry-run failed: {exc}")
