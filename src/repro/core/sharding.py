"""Key-partitioned stage replicas (sharding) and the elastic scaling model.

A GATES stage normally runs as one service instance.  This module
generalizes the channel model so any stage can run as ``N``
key-partitioned replicas, on every runtime, from the *same*
configuration: a stage declaring the ``replicas`` property is expanded
by :func:`expand_shards` into ``N`` replica stages named
``<stage>#<i>``, and every stream touching the stage is split into one
edge per replica.  Runtimes then route each emitted item to exactly one
replica — the **owner** of the item's key under the group's
:class:`Partitioner` — so the per-key arrival order is preserved: a key
maps to one replica, and every edge is FIFO.

The scaling half closes the paper's Section-4 control loop: the same
queue-occupancy signal the adaptation algorithm samples is fed to a
:class:`ShardScaler`, a pure decision procedure that turns sustained
queue-band breaches into scale-up decisions and sustained idleness into
scale-down decisions (the Grid-brokering direction of the related work).
The :class:`~repro.core.runtime_threads.ThreadedRuntime` executes those
decisions live; the simulated and networked runtimes run the static
replica count.  See ``docs/sharding.md`` for the documented model
(:mod:`repro.analysis.docscheck` keeps its knob table and the sharding
rows of :data:`repro.core.options.OPTIONS` in lockstep).

Everything here is deterministic: partition mapping uses a stable CRC-32
hash (Python's ``hash`` is salted per process, which would break
cross-process agreement in the networked runtime), and the scaler is a
pure function of its observation sequence.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.options import SHARD_BY_FIELD, SHARD_BY_INDEX, ShardingError, StageOptions
from repro.core.options import read_options, stamp
from repro.grid.config import AppConfig, StageConfig, StreamConfig

__all__ = [
    "HashPartitioner",
    "Partitioner",
    "RangePartitioner",
    "ScalingPolicy",
    "ShardGroup",
    "ShardScaler",
    "ShardingError",
    "expand_shards",
    "export_keyed_state",
    "extract_key",
    "groups_of",
    "import_keyed_state",
    "logical_stream",
    "parse_replica",
    "partitioner_for",
    "replica_name",
    "shard_spec",
    "stable_hash",
]

#: Separator between a stage's base name and its replica index.  Never a
#: dot: replica names instantiate ``stage.{stage}.*`` metric templates,
#: whose placeholders match any dot-free run of characters.
SHARD_SEPARATOR = "#"

def stable_hash(key: Any) -> int:
    """Process-independent 32-bit hash of a partition key.

    Arguments:
        key: Any value with a stable ``repr`` (ints, strings, bytes,
            floats, tuples of those...).  ``bytes`` hash their content
            directly; everything else hashes its UTF-8 encoded ``repr``.

    Returns:
        A non-negative integer below 2**32, identical across processes
        and platforms — unlike ``hash()``, whose per-process salt would
        let the coordinator and a worker disagree about key ownership.
    """
    if isinstance(key, bytes):
        data = key
    elif isinstance(key, str):
        data = key.encode("utf-8")
    else:
        data = repr(key).encode("utf-8")
    return zlib.crc32(data) & 0xFFFFFFFF


def extract_key(payload: Any, shard_by: str) -> Any:
    """Pull the partition key out of a payload per the ``shard-by`` spec.

    Arguments:
        payload: The emitted item payload.
        shard_by: ``"payload"`` (the payload itself is the key),
            ``"field:<name>"`` (mapping entry or attribute ``<name>``),
            or ``"index:<i>"`` (``payload[i]`` of a sequence).

    Returns:
        The partition key.

    Raises:
        ShardingError: If the spec is malformed or the payload lacks the
            requested field/index.
    """
    if shard_by == "payload":
        return payload
    match = SHARD_BY_FIELD.match(shard_by)
    if match:
        name = match.group("name")
        if isinstance(payload, dict):
            try:
                return payload[name]
            except KeyError:
                raise ShardingError(
                    f"shard-by field {name!r} missing from payload {payload!r}"
                ) from None
        try:
            return getattr(payload, name)
        except AttributeError:
            raise ShardingError(
                f"shard-by field {name!r} missing from payload {payload!r}"
            ) from None
    match = SHARD_BY_INDEX.match(shard_by)
    if match:
        index = int(match.group("index"))
        try:
            return payload[index]
        except (TypeError, IndexError, KeyError):
            raise ShardingError(
                f"shard-by index {index} not addressable in payload {payload!r}"
            ) from None
    raise ShardingError(
        f"invalid shard-by spec {shard_by!r} "
        "(want payload | field:<name> | index:<i>)"
    )


class Partitioner:
    """Maps a partition key to a replica index in ``[0, count)``."""

    def select(self, key: Any, count: int) -> int:
        """Choose the owning replica index for ``key``.

        Arguments:
            key: The partition key extracted from a payload.
            count: Number of currently active replicas (>= 1).

        Returns:
            The owner's index in ``[0, count)``.
        """
        raise NotImplementedError


class HashPartitioner(Partitioner):
    """Uniform ownership via the stable CRC-32 hash (the default)."""

    def select(self, key: Any, count: int) -> int:
        """Owner index: ``stable_hash(key) % count``.

        Arguments:
            key: The partition key.
            count: Number of active replicas (>= 1).

        Returns:
            The owner's index in ``[0, count)``.
        """
        if count < 1:
            raise ShardingError(f"partition count must be >= 1, got {count}")
        return stable_hash(key) % count


class RangePartitioner(Partitioner):
    """Ownership by sorted boundary ranges over orderable keys.

    ``boundaries = [b0, b1, ...]`` assigns keys ``<= b0`` to replica 0,
    ``(b0, b1]`` to replica 1, and so on; keys beyond the last boundary
    go to the last active replica.  Indices past ``count - 1`` are
    clamped, so shrinking the active set never strands a range.
    """

    def __init__(self, boundaries: Sequence[float]) -> None:
        """Arguments:
            boundaries: Strictly increasing upper bounds, one fewer than
                the intended full replica count.
        """
        bounds = [float(b) for b in boundaries]
        if not bounds:
            raise ShardingError("range partitioner needs at least one boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ShardingError(
                f"range boundaries must be strictly increasing, got {bounds}"
            )
        self.boundaries = bounds

    def select(self, key: Any, count: int) -> int:
        """Owner index by binary search, clamped to the active set.

        Arguments:
            key: A numeric (orderable) partition key.
            count: Number of active replicas (>= 1).

        Returns:
            The owner's index in ``[0, count)``.
        """
        if count < 1:
            raise ShardingError(f"partition count must be >= 1, got {count}")
        try:
            # bisect_left keeps a key equal to a boundary in the lower
            # range, matching the documented "keys <= b0 -> replica 0".
            index = bisect_left(self.boundaries, float(key))
        except (TypeError, ValueError):
            raise ShardingError(
                f"range partitioning needs a numeric key, got {key!r}"
            ) from None
        return min(index, count - 1)


def partitioner_for(options: StageOptions) -> Partitioner:
    """Build the partitioner a stage's options declare.

    Arguments:
        options: The stage's parsed options.

    Returns:
        A :class:`HashPartitioner` (the default) or a
        :class:`RangePartitioner` when ``shard-partitioner`` is
        ``"range"`` (which requires ``shard-boundaries``).

    Raises:
        ShardingError: When range boundaries are missing or unsorted.
    """
    if options.shard_partitioner == "hash":
        return HashPartitioner()
    if options.shard_boundaries is None:
        raise ShardingError("shard-partitioner=range requires shard-boundaries")
    return RangePartitioner(options.shard_boundaries)


def replica_name(base: str, index: int) -> str:
    """The canonical name of replica ``index`` of stage ``base``.

    Arguments:
        base: The declared (logical) stage name.
        index: Replica index (>= 0).

    Returns:
        ``"<base>#<index>"``.
    """
    return f"{base}{SHARD_SEPARATOR}{index}"


def parse_replica(name: str) -> Optional[Tuple[str, int]]:
    """Split a replica name back into its base name and index.

    Arguments:
        name: A stage or stream endpoint name.

    Returns:
        ``(base, index)`` when the name ends in ``#<digits>``; ``None``
        for ordinary (unsharded) names.
    """
    base, sep, suffix = name.rpartition(SHARD_SEPARATOR)
    if not sep or not suffix.isdigit():
        return None
    return base, int(suffix)


def logical_stream(name: str) -> str:
    """The declared stream name behind a per-replica stream name.

    Arguments:
        name: A stream name, possibly suffixed by ``#i`` (and, for
            sharded-to-sharded meshes, ``#i-j``) by :func:`expand_shards`.

    Returns:
        The name as the application configuration declared it.
    """
    return name.split(SHARD_SEPARATOR, 1)[0]


# -- scaling policy and decision procedure ---------------------------------


@dataclass(frozen=True)
class ScalingPolicy:
    """Elastic autoscaling knobs for one shard group.

    ``min_replicas``/``max_replicas`` bound the active set;
    ``up_occupancy``/``down_occupancy`` are the mean queue-occupancy
    bands (the Section-4 load signal, normalized by queue capacity);
    breach/idle sample counts demand *sustained* pressure before acting,
    and ``cooldown_samples`` quiets the scaler after each transition so
    handoff stalls are not misread as load.
    """

    min_replicas: int = 1
    max_replicas: int = 1
    up_occupancy: float = 0.75
    down_occupancy: float = 0.10
    breach_samples: int = 3
    idle_samples: int = 5
    cooldown_samples: int = 2

    def __post_init__(self) -> None:
        """Validate the knob ranges; raise :class:`ShardingError` if broken."""
        if self.min_replicas < 1:
            raise ShardingError(
                f"min_replicas must be >= 1, got {self.min_replicas}"
            )
        if self.max_replicas < self.min_replicas:
            raise ShardingError(
                f"max_replicas {self.max_replicas} < min_replicas "
                f"{self.min_replicas}"
            )
        if not (0.0 < self.up_occupancy <= 1.0):
            raise ShardingError(
                f"up_occupancy must be in (0, 1], got {self.up_occupancy}"
            )
        if not (0.0 <= self.down_occupancy < self.up_occupancy):
            raise ShardingError(
                f"down_occupancy must be in [0, up_occupancy), got "
                f"{self.down_occupancy}"
            )
        if self.breach_samples < 1 or self.idle_samples < 1:
            raise ShardingError("breach/idle sample counts must be >= 1")
        if self.cooldown_samples < 0:
            raise ShardingError("cooldown_samples must be >= 0")

    @classmethod
    def from_options(cls, options: StageOptions, replicas: int) -> "ScalingPolicy":
        """Read the ``scale-*`` options of a sharded stage.

        Arguments:
            options: The stage's parsed options.
            replicas: The stage's declared starting replica count
                (defaults both bounds when no ``scale-*`` bound is given).

        Returns:
            The effective policy; without any ``scale-*`` bound the
            bounds collapse to ``replicas`` and the group is static.
        """
        low, high = options.scale_min_replicas, options.scale_max_replicas
        elastic = low is not None or high is not None
        return cls(
            min_replicas=low if low is not None else (1 if elastic else replicas),
            max_replicas=high if high is not None else replicas,
            up_occupancy=options.scale_up_occupancy,
            down_occupancy=options.scale_down_occupancy,
            breach_samples=options.scale_breach_samples,
            idle_samples=options.scale_idle_samples,
            cooldown_samples=options.scale_cooldown_samples,
        )

    @property
    def elastic(self) -> bool:
        """Whether the bounds leave the scaler any room to act."""
        return self.max_replicas > self.min_replicas


class ShardScaler:
    """Pure scale-up/scale-down decision procedure for one group.

    Feed it one mean-occupancy observation per adaptation sample via
    :meth:`observe`; it returns the new target replica count on the
    sample that commits a transition and ``None`` otherwise.  It holds
    no clock and no lock — determinism and thread-safety are the
    caller's (trivially satisfiable) concerns.
    """

    def __init__(self, policy: ScalingPolicy, active: int) -> None:
        """Arguments:
            policy: The group's scaling knobs.
            active: The starting active replica count (clamped into the
                policy's bounds).
        """
        self.policy = policy
        self.active = min(max(active, policy.min_replicas), policy.max_replicas)
        self._breaches = 0
        self._idles = 0
        self._cooldown = 0

    def observe(self, occupancy: float) -> Optional[int]:
        """Consume one mean-occupancy sample; maybe decide a transition.

        Arguments:
            occupancy: Mean queue occupancy across the group's active
                replicas, in ``[0, 1]`` (queue length / capacity,
                clamped).

        Returns:
            The new target active count when this sample completes a
            sustained breach (scale-up) or idle stretch (scale-down);
            ``None`` when no transition fires.  The caller applies the
            transition and the scaler starts its cooldown.
        """
        if self._cooldown > 0:
            self._cooldown -= 1
            return None
        if occupancy >= self.policy.up_occupancy:
            self._breaches += 1
            self._idles = 0
            if (
                self._breaches >= self.policy.breach_samples
                and self.active < self.policy.max_replicas
            ):
                return self._transition(self.active + 1)
        elif occupancy <= self.policy.down_occupancy:
            self._idles += 1
            self._breaches = 0
            if (
                self._idles >= self.policy.idle_samples
                and self.active > self.policy.min_replicas
            ):
                return self._transition(self.active - 1)
        else:
            self._breaches = 0
            self._idles = 0
        return None

    def _transition(self, target: int) -> int:
        self.active = target
        self._breaches = 0
        self._idles = 0
        self._cooldown = self.policy.cooldown_samples
        return target


# -- runtime-facing group descriptor ---------------------------------------


@dataclass
class ShardGroup:
    """One sharded stage as a runtime sees it after expansion.

    ``members`` lists every replica slot in index order;
    ``active`` is how many of them currently own keys (the threaded
    runtime's autoscaler moves it inside the policy bounds, the other
    runtimes keep it static).  Inactive slots still exist — they receive
    end-of-stream sentinels and terminate normally — they just own no
    partition of the key space.
    """

    name: str
    members: List[str]
    partitioner: Partitioner
    shard_by: str
    active: int
    policy: ScalingPolicy

    @classmethod
    def of(cls, options: StageOptions) -> "ShardGroup":
        """The group a replica's options describe.

        Arguments:
            options: Any member's options: expansion stamps the same group
                facts onto every replica, and names the ``shard-count``
                members with :func:`replica_name`.
        """
        name = str(options.shard_group)
        members = [replica_name(name, index) for index in range(options.shard_count or 0)]
        active = len(members) if options.shard_active is None else options.shard_active
        return cls(
            name=name,
            members=members,
            partitioner=partitioner_for(options),
            shard_by=options.shard_by,
            active=min(max(active, 1), len(members)),
            policy=ScalingPolicy.from_options(
                options, active if options.replicas is None else options.replicas
            ),
        )

    def owner(self, payload: Any) -> int:
        """Index of the replica owning ``payload``'s key.

        Arguments:
            payload: The emitted item payload.

        Returns:
            An index into :attr:`members`, below :attr:`active`.
        """
        key = extract_key(payload, self.shard_by)
        return self.partitioner.select(key, self.active)


def groups_of(stages: Iterable[StageOptions]) -> Dict[str, ShardGroup]:
    """Reconstruct the shard groups from expanded stages' options.

    Arguments:
        stages: Every stage's options, as a runtime holds them after
            :func:`expand_shards`.

    Returns:
        Mapping of group (base stage) name to its :class:`ShardGroup`.
    """
    return {
        str(options.shard_group): ShardGroup.of(options)
        for options in stages
        if options.shard_group is not None
    }


# -- keyed-state handoff ---------------------------------------------------


def export_keyed_state(processor: Any) -> Optional[Dict[Any, Any]]:
    """Ask a processor for its per-key state, if it keeps any.

    Arguments:
        processor: A :class:`~repro.core.api.StreamProcessor`.

    Returns:
        The mapping its optional ``export_keyed_state()`` hook returns
        (keys are partition keys), or ``None`` for stateless processors
        that do not implement the hook.
    """
    hook = getattr(processor, "export_keyed_state", None)
    if hook is None:
        return None
    state = hook()
    return dict(state) if state is not None else None


def import_keyed_state(processor: Any, state: Dict[Any, Any]) -> None:
    """Hand a processor the per-key state it now owns after a rebalance.

    Arguments:
        processor: A :class:`~repro.core.api.StreamProcessor`.
        state: Partition-key -> state mapping produced by the old
            owners' :func:`export_keyed_state`.

    The call is a no-op for processors without an
    ``import_keyed_state`` hook (their state, if any, is not keyed).
    """
    hook = getattr(processor, "import_keyed_state", None)
    if hook is not None and state:
        hook(state)


# -- configuration expansion -----------------------------------------------


def shard_spec(name: str, options: StageOptions) -> Optional[Tuple[int, int, ScalingPolicy]]:
    """Check a declared stage's sharding knobs the way expansion applies them.

    Also the static verifier's entry point (diagnostic ``GA220``), so a
    configuration fails at analysis time rather than at deployment.

    Arguments:
        name: The declared stage name (used in error messages and for the
            :data:`SHARD_SEPARATOR` name check).
        options: The stage's parsed options.

    Returns:
        ``(replicas, slots, policy)`` for sharded stages — ``slots`` is
        ``policy.max_replicas``, the number of replica stages to create —
        or ``None`` for ordinary single-instance stages and for replicas
        (expansion is idempotent).

    Raises:
        ShardingError: When the knobs parse but contradict each other.
    """
    replicas = options.replicas
    if options.shard_group is not None or replicas is None:
        return None
    try:
        partitioner_for(options)  # validates eagerly
        policy = ScalingPolicy.from_options(options, replicas)
    except ShardingError as exc:
        raise ShardingError(f"stage {name!r}: {exc}") from None
    if replicas > policy.max_replicas or replicas < policy.min_replicas:
        raise ShardingError(
            f"stage {name!r}: replicas={replicas} outside "
            f"[{policy.min_replicas}, {policy.max_replicas}]"
        )
    if SHARD_SEPARATOR in name:
        raise ShardingError(
            f"stage {name!r}: sharded stage names may not contain "
            f"{SHARD_SEPARATOR!r}"
        )
    return replicas, policy.max_replicas, policy


def expand_shards(config: AppConfig) -> AppConfig:
    """Rewrite an application so every sharded stage becomes N replicas.

    A stage declaring ``replicas`` (>= 2, or any ``scale-*`` elasticity)
    expands into one stage per replica slot — ``<name>#0`` ...
    ``<name>#<slots-1>`` — each carrying the original code, requirement,
    parameters, and properties plus the ``shard-group`` /
    ``shard-index`` / ``shard-count`` / ``shard-active`` markers the
    runtimes route by.  Streams are split alongside: an inbound stream
    ``s: X -> S`` becomes ``s#i: X -> S#i`` per replica, an outbound
    stream ``t: S -> Y`` becomes ``t#i: S#i -> Y``, and a stream between
    two sharded stages becomes the full ``M x N`` mesh
    (``u#i-j: S#i -> T#j``).  Every split edge registers its own
    end-of-stream expectation downstream, so replica-group termination
    falls out of the ordinary per-edge counting.

    Arguments:
        config: The application as declared (``replicas`` properties
            intact).  Not modified.

    Returns:
        A new validated :class:`~repro.grid.config.AppConfig`.  When no
        stage declares sharding the original config is returned as-is.

    Raises:
        ShardingError: On malformed sharding declarations.
    """
    specs: Dict[str, Tuple[int, int, ScalingPolicy]] = {}
    for stage in config.stages:
        options, problems = read_options(stage.properties)
        for option, message in problems:
            if option.error is ShardingError:
                raise ShardingError(f"stage {stage.name!r}: {message}")
        spec = shard_spec(stage.name, options)
        if spec is not None and spec[1] > 1:
            specs[stage.name] = spec
    if not specs:
        return config

    stages: List[StageConfig] = []
    for stage in config.stages:
        if stage.name not in specs:
            stages.append(stage)
            continue
        replicas, slots, _policy = specs[stage.name]
        for index in range(slots):
            properties = stamp(dict(stage.properties), replicas=None)
            stamp(properties, shard_group=stage.name, shard_index=index,
                  shard_count=slots, shard_active=replicas, replicas=replicas)
            stages.append(
                StageConfig(
                    name=replica_name(stage.name, index),
                    code_url=stage.code_url,
                    requirement=stage.requirement,
                    parameters=list(stage.parameters),
                    properties=properties,
                )
            )

    streams: List[StreamConfig] = []
    for stream in config.streams:
        src_slots = specs[stream.src][1] if stream.src in specs else 0
        dst_slots = specs[stream.dst][1] if stream.dst in specs else 0
        if not src_slots and not dst_slots:
            streams.append(stream)
        elif src_slots and dst_slots:
            for i in range(src_slots):
                for j in range(dst_slots):
                    streams.append(
                        replace(
                            stream,
                            name=f"{stream.name}{SHARD_SEPARATOR}{i}-{j}",
                            src=replica_name(stream.src, i),
                            dst=replica_name(stream.dst, j),
                        )
                    )
        elif dst_slots:
            for j in range(dst_slots):
                streams.append(
                    replace(
                        stream,
                        name=f"{stream.name}{SHARD_SEPARATOR}{j}",
                        dst=replica_name(stream.dst, j),
                    )
                )
        else:
            for i in range(src_slots):
                streams.append(
                    replace(
                        stream,
                        name=f"{stream.name}{SHARD_SEPARATOR}{i}",
                        src=replica_name(stream.src, i),
                    )
                )

    expanded = AppConfig(name=config.name, stages=stages, streams=streams)
    expanded.validate()
    return expanded
