"""The middleware's stage options: one table, one parser.

In GATES the Deployer uploads each stage's code with its configuration
properties (Section 3.2).  Most belong to the stage's own code
(``sample-size``, ``top-n``); the options here are the ones the
middleware reads itself: micro-batching, the input queue, sharding and
scaling, the record/replay ledger, migration and fan-in.  Each is one
field of the frozen :class:`StageOptions` with its default, parser,
range check, scope (a user ``knob``, or a marker that ``expansion`` or
the ledger ``harness`` stamps) and doc; :data:`OPTIONS` lists them by
key.  The three runtimes, the networked worker and the static verifier
all parse with :func:`read_options`, so ``repro check`` and a run
cannot disagree; writers go through :func:`stamp`.  Every runtime
process imports this module: no numpy, no ``repro.analysis``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Tuple

from repro.core.batching import BatchPolicy
from repro.grid.config import ConfigError

__all__ = [
    "OPTIONS",
    "Option",
    "ShardingError",
    "StageOptions",
    "knobs",
    "read_options",
    "stage_options",
    "stamp",
    "undeclared",
]

#: Key prefixes the middleware reserves; an undeclared key under one of
#: them is a typo (verifier code GA209).
RESERVED_PREFIXES = ("batch-", "shard-", "scale-", "ledger-", "queue-", "net-")

#: The ``shard-by`` forms besides ``payload`` (see ``extract_key``).
SHARD_BY_FIELD = re.compile(r"^field:(?P<name>.+)$")
SHARD_BY_INDEX = re.compile(r"^index:(?P<index>\d+)$")


class ShardingError(ConfigError):
    """Raised for invalid sharding or scaling configuration."""


class Option(NamedTuple):
    """One middleware stage property.

    ``parse`` turns the raw value into the typed one (``default`` when the
    key is absent; ``None`` there means "not set"); ``check`` is the range
    check, and ``want`` says in words what both accept.
    """

    key: str
    default: Any
    parse: Callable[[Any], Any]
    check: Optional[Callable[[Any], bool]]
    want: str
    scope: str
    topic: str
    doc: str

    @property
    def error(self) -> type:
        """The exception an invalid value raises: ``ShardingError`` for
        the sharding and scaling rows, ``ValueError`` for the rest."""
        return ShardingError if self.topic == "sharding" else ValueError

    @property
    def default_text(self) -> str:
        """The default as the docs' knob tables show it (``—``: unset)."""
        if self.default is None:
            return "—"
        return f"`{self.default}`" if isinstance(self.default, str) else str(self.default)


def _option(default: Any, parse: Callable[[Any], Any], check: Optional[Callable[[Any], bool]],
            want: str, scope: str, topic: str, doc: str) -> Any:
    """Declare the :class:`StageOptions` field for one option (its key is
    the field name with dashes)."""
    return field(default=default, metadata={"option": (parse, check, want, scope, topic, doc)})


def _at_least(floor: int) -> Callable[[Any], bool]:
    return lambda value: value >= floor


def _one_of(*choices: str) -> Callable[[Any], bool]:
    return lambda value: value in choices


def _flag(text: Any) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


def _numbers(text: Any) -> Tuple[float, ...]:
    return tuple(float(part) for part in str(text).split(",") if part.strip())


def _shard_by(spec: Any) -> bool:
    return spec == "payload" or bool(SHARD_BY_FIELD.match(spec) or SHARD_BY_INDEX.match(spec))


_INT1 = "an integer >= 1"


# eq=False: nothing compares options, and it halves the cost of creating
# the class, which every runtime process pays at import.
@dataclass(frozen=True, eq=False)
class StageOptions:
    """One stage's middleware options, typed; the table of them.

    Each field but ``given`` declares one option, ``batch_max_items`` for
    the ``batch-max-items`` property: its default (``None``: not set),
    parser, range check, scope, topic and doc (:data:`OPTIONS` lists
    them as :class:`Option` rows).  ``given`` holds the declared keys
    the properties set explicitly.
    """

    # -- micro-batching (docs/performance.md); unset inherits the runtime's
    batch_max_items: Optional[int] = _option(
        None, int, _at_least(1), _INT1, "knob", "batching",
        "flush an edge's batch at this many items (1: unbatched)")
    batch_max_delay: Optional[float] = _option(
        None, float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0", "knob",
        "batching", "longest a partial batch waits, in runtime seconds")
    queue_capacity: int = _option(
        200, int, _at_least(1), _INT1, "knob", "queue", "input-queue capacity C, on every runtime")
    # -- sharding and elastic scaling (docs/sharding.md)
    replicas: Optional[int] = _option(
        None, int, _at_least(1), _INT1, "knob", "sharding",
        "replica count the stage starts with (>= 1)")
    shard_by: str = _option(
        "payload", str, _shard_by, "payload | field:<name> | index:<i>", "knob", "sharding",
        "key extractor: payload | field:<name> | index:<i>")
    shard_partitioner: str = _option(
        "hash", str, _one_of("hash", "range"), "hash | range", "knob", "sharding",
        "partition function: hash (default) | range")
    shard_boundaries: Optional[Tuple[float, ...]] = _option(
        None, _numbers, None, "comma-separated numbers", "knob", "sharding",
        "sorted comma-separated range boundaries (range only)")
    scale_min_replicas: Optional[int] = _option(
        None, int, _at_least(1), _INT1, "knob", "sharding",
        "elastic floor on the active replica count")
    scale_max_replicas: Optional[int] = _option(
        None, int, _at_least(1), _INT1, "knob", "sharding",
        "elastic ceiling; also the number of replica slots")
    scale_up_occupancy: float = _option(
        0.75, float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]", "knob", "sharding",
        "mean queue occupancy that counts as a breach")
    scale_down_occupancy: float = _option(
        0.10, float, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)", "knob", "sharding",
        "mean queue occupancy that counts as idle")
    scale_breach_samples: int = _option(
        3, int, _at_least(1), _INT1, "knob", "sharding",
        "consecutive breach samples before scale-up")
    scale_idle_samples: int = _option(
        5, int, _at_least(1), _INT1, "knob", "sharding",
        "consecutive idle samples before scale-down")
    scale_cooldown_samples: int = _option(
        2, int, _at_least(0), "an integer >= 0", "knob", "sharding",
        "samples ignored after each transition")
    shard_group: Optional[str] = _option(
        None, str, None, "", "expansion", "sharding",
        "a replica's group: the stage name as declared")
    shard_index: Optional[int] = _option(
        None, int, _at_least(0), "an integer >= 0", "expansion", "sharding",
        "a replica's slot in its group")
    shard_count: Optional[int] = _option(
        None, int, _at_least(1), _INT1, "expansion", "sharding", "the group's replica slots")
    shard_active: Optional[int] = _option(
        None, int, _at_least(1), _INT1, "expansion", "sharding",
        "the group's starting active replica count")
    # -- record/replay ledger (docs/replay.md)
    ledger_enabled: bool = _option(
        False, _flag, None, "true | false", "knob", "ledger",
        "the pipeline records to the run ledger (the GA240 gate)")
    ledger_mode: str = _option(
        "off", lambda text: str(text).strip().lower(), _one_of("off", "record", "replay"),
        "off | record | replay", "harness", "ledger",
        "the stage's DeterministicContext mode, case-insensitive")
    ledger_dir: str = _option(
        "", lambda text: str(text).strip(), None, "", "harness", "ledger",
        "directory of the stage's sidecar ledger (empty: recording off)")
    ledger_path: str = _option(
        "", lambda text: str(text).strip(), None, "", "harness", "ledger",
        "the recorded run ledger a replay serves reads from")
    at_least_once_ok: bool = _option(
        False, _flag, None, "true | false", "knob", "ledger",
        "a sink that accepts redelivered duplicates (waives GA240)")
    # -- live migration and graph shape
    migratable: bool = _option(
        False, _flag, None, "true | false", "knob", "migration",
        "opt the stage into live migration (docs/migration.md)")
    fan_in: Optional[int] = _option(
        None, int, None, "an integer", "knob", "graph",
        "the number of incoming streams the stage expects (GA106)")
    given: FrozenSet[str] = frozenset()

    def batch_policy(self, default: Optional[BatchPolicy]) -> Optional[BatchPolicy]:
        """The stage's micro-batch policy: ``batch-*`` override the
        runtime-level ``default`` (None: unbatched), and either alone
        inherits the other from ``default``, or from ``BatchPolicy()``
        when there is none.  ``default`` itself when neither is set."""
        if self.batch_max_items is None and self.batch_max_delay is None:
            return default
        base = default if default is not None else BatchPolicy()
        return BatchPolicy(
            max_items=base.max_items if self.batch_max_items is None else self.batch_max_items,
            max_delay=base.max_delay if self.batch_max_delay is None else self.batch_max_delay,
        )


#: Every middleware stage property, in :class:`StageOptions` field order.
OPTIONS: Tuple[Option, ...] = tuple(
    Option(f.name.replace("_", "-"), f.default, *f.metadata["option"])
    for f in fields(StageOptions) if "option" in f.metadata
)

_BY_KEY: Dict[str, Option] = {option.key: option for option in OPTIONS}


def read_options(
    properties: Mapping[str, Any]
) -> Tuple[StageOptions, List[Tuple[Option, str]]]:
    """Parse a stage's properties without raising.

    Returns the options, with every invalid value replaced by its row's
    default, and an ``(option, message)`` problem per invalid value, in
    table order.
    """
    values: Dict[str, Any] = {}
    problems: List[Tuple[Option, str]] = []
    for option in OPTIONS:
        raw = properties.get(option.key)
        if raw is None:
            continue
        try:
            value = option.parse(raw)
            valid = option.check is None or option.check(value)
        except (TypeError, ValueError):
            valid = False
        if valid:
            values[option.key.replace("-", "_")] = value
        else:
            problems.append((option, f"{option.key}={raw!r}: want {option.want}"))
    return StageOptions(**values, given=frozenset(_BY_KEY).intersection(properties)), problems


def stage_options(properties: Mapping[str, Any]) -> StageOptions:
    """Parse a stage's properties into its typed options.

    Raises:
        ShardingError: On the first invalid sharding or scaling value.
        ValueError: On the first invalid value of any other option.
    """
    options, problems = read_options(properties)
    if problems:
        option, message = problems[0]
        raise option.error(message)
    return options


def undeclared(properties: Mapping[str, Any]) -> List[Tuple[str, Optional[str]]]:
    """Keys under a reserved prefix that no row declares, each paired
    with the closest declared key (None when nothing is close)."""
    import difflib

    return [
        (key, next(iter(difflib.get_close_matches(key, _BY_KEY, n=1)), None))
        for key in properties
        if key.startswith(RESERVED_PREFIXES) and key not in _BY_KEY
    ]


def stamp(properties: Dict[str, str], **values: Any) -> Dict[str, str]:
    """Write options into ``properties`` by :class:`StageOptions` field
    name, rendered the way the parser reads them back (``None`` removes
    the key); returns ``properties``."""
    for name, value in values.items():
        key = _BY_KEY[name.replace("_", "-")].key
        if value is None:
            properties.pop(key, None)
        else:
            properties[key] = str(value).lower() if isinstance(value, bool) else str(value)
    return properties


def knobs(topic: str) -> Dict[str, Option]:
    """The user knobs of one topic (``"sharding"``, ...), by key."""
    return {o.key: o for o in OPTIONS if o.topic == topic and o.scope == "knob"}
