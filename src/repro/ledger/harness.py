"""ReplayHarness: record a run, replay it anywhere, prove it identical.

The harness is the orchestration layer of the run ledger
(:mod:`repro.ledger.records`): :func:`record` executes the demo
pipeline on any of the three runtimes with recording properties stamped
onto every stage, writes the run-level records (``META``, one
``INGRESS`` per source item, the Section-4 decision trail mined from
the run's event log) into its own sidecar, merges all sidecars into one
canonically ordered ``run.ledger``, and seals the chain with an ``END``
record carrying the sink-output and final-state digests.

:func:`replay` then re-executes the recorded run on *any* runtime —
the pipeline comes from the recorded config XML, the input from the
``INGRESS`` records, and every nondeterministic read is pinned by the
:class:`~repro.ledger.DeterministicContext` in replay mode — and
returns a :class:`ReplayReport` comparing the replayed digests against
the recorded ``END``, localizing the first divergence by stage and item
key when they disagree.

Digest rules (the heart of the parity claim):

* the **sink digest** covers the committed sink *effects* — ``SINK``
  records deduplicated by ``(stage, key)`` and sorted by numeric key —
  so at-least-once delivery below the sinks (failover replay, migration
  handoff) cannot perturb it as long as the sinks are idempotent;
* the **state digest** covers the per-stage ``STATE`` records with the
  replicas of a sharded group merged by key union, so an autoscaled
  recording and a differently partitioned replay still compare equal
  when the computation matches.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Dict, List, Optional, Tuple

from ..core.options import stamp
from ..grid.config import AppConfig, StageConfig, StreamConfig
from .context import MODE_RECORD, MODE_REPLAY, base_stage_name, reset_registry
from .ledger import LedgerError, LedgerReader, LedgerWriter, merge_ledgers
from .records import READ_TYPES, SCHEMA, Record
from .stages import wrap

__all__ = [
    "RUNTIMES",
    "RecordResult",
    "ReplayReport",
    "ReplaySpec",
    "record",
    "replay",
]

#: Runtimes the harness can record on and replay on.
RUNTIMES = ("sim", "threaded", "net")

#: Filename of the merged, sealed run ledger inside a recording dir.
RUN_LEDGER = "run.ledger"

#: Sidecar holding the harness's own run-level records.
_RUN_SIDECAR = "_run.ledger"

#: Event-log kinds mined into decision records after a recorded run.
_EVENT_TO_TYPE = {
    "parameter-adjusted": "ADJUST",
    "shard-scaled": "SCALE",
    "stage-migrated": "MIGRATE",
    "stage-down": "FAILOVER",
    "stage-recovered": "FAILOVER",
    "shard-rebalanced": "REBALANCE",
}

_DECISION_TYPES = ("ADJUST", "SCALE", "MIGRATE", "FAILOVER", "REBALANCE")


@dataclass
class ReplaySpec:
    """Shape of the demo pipeline run the harness records.

    The pipeline is ``src -> work (sharded) -> mid (migratable) ->
    sink`` built from :mod:`repro.ledger.stages` /
    :mod:`repro.ledger.sinks` classes; ``chaos=True`` additionally
    injects a host crash under ``src`` (heartbeat failover), a planned
    migration of ``mid``, and a ``work`` scale-up mid-run — the
    combined Section-4 decision load replay must survive.
    """

    items: int = 96
    rate: float = 400.0
    chaos: bool = False
    adaptation: bool = False
    fail_at: float = 0.12
    migrate_at: float = 0.18
    scale_at: float = 0.08
    checkpoint_interval: float = 0.05
    workers: int = 3

    def payloads(self) -> List[Dict[str, Any]]:
        """The enveloped source items (key = ingress sequence number)."""
        return [wrap(i, (i * 7 + 3) % 101) for i in range(self.items)]


@dataclass
class RecordResult:
    """What :func:`record` hands back."""

    ledger_path: str
    runtime: str
    counts: Dict[str, int]
    sink_digest: str
    state_digest: str
    #: Duplicate deliveries the sink itself absorbed (txn_begin == False).
    sink_duplicates: int = 0
    #: Redeliveries counted at the delivery layer (recovery./migration.
    #: duplicates metrics) — the at-least-once evidence.
    delivery_duplicates: int = 0
    #: Final sink effects as ``[[key, value], ...]`` in key order.
    effects: List[List[Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (CLI ``--json`` output)."""
        return {
            "ledger": self.ledger_path,
            "runtime": self.runtime,
            "counts": dict(self.counts),
            "sink_digest": self.sink_digest,
            "state_digest": self.state_digest,
            "sink_duplicates": self.sink_duplicates,
            "delivery_duplicates": self.delivery_duplicates,
            "effect_count": len(self.effects),
        }


@dataclass
class ReplayReport:
    """Outcome of one replay: digests, parity verdict, divergence locus."""

    runtime: str
    ledger_path: str
    match: bool
    sink_match: bool
    state_match: bool
    recorded_sink_digest: str
    replayed_sink_digest: str
    recorded_state_digest: str
    replayed_state_digest: str
    first_divergence: Optional[Dict[str, Any]] = None
    replay_misses: int = 0
    dedup_hits: int = 0
    counts: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready report (CLI ``--json`` output)."""
        return {
            "runtime": self.runtime,
            "ledger": self.ledger_path,
            "match": self.match,
            "sink_match": self.sink_match,
            "state_match": self.state_match,
            "recorded_sink_digest": self.recorded_sink_digest,
            "replayed_sink_digest": self.replayed_sink_digest,
            "recorded_state_digest": self.recorded_state_digest,
            "replayed_state_digest": self.replayed_state_digest,
            "first_divergence": self.first_divergence,
            "replay_misses": self.replay_misses,
            "dedup_hits": self.dedup_hits,
            "counts": dict(self.counts),
        }

    def summary_line(self) -> str:
        """One human line: verdict plus the divergence locus if any."""
        if self.match:
            return (
                f"replay on {self.runtime}: MATCH "
                f"(sink {self.replayed_sink_digest[:12]}, "
                f"state {self.replayed_state_digest[:12]}, "
                f"misses {self.replay_misses})"
            )
        where = ""
        if self.first_divergence:
            where = (
                f" first divergence at stage "
                f"{self.first_divergence.get('stage')!r} "
                f"key {self.first_divergence.get('key')!r}"
            )
        return f"replay on {self.runtime}: DIVERGED{where}"


# -- demo pipeline ---------------------------------------------------------


def demo_config(spec: Optional[ReplaySpec] = None, *, hints: bool = False) -> AppConfig:
    """The four-stage replay demo pipeline (no ledger properties yet).

    ``hints`` pins ``src`` to the crashable edge host and ``sink`` to
    the central host of the simulator's fabric (see :func:`_run_pipeline`) —
    only valid when the run executes there.
    """
    from ..grid.resources import ResourceRequirement

    spec = spec or ReplaySpec()

    def req(hint: Optional[str]) -> "ResourceRequirement":
        if hints and hint:
            return ResourceRequirement(placement_hint=hint)
        return ResourceRequirement()

    return AppConfig(
        name="replay-demo",
        stages=[
            StageConfig(
                "src", "py://repro.ledger.stages:DetRelayStage",
                requirement=req("edge"),
                properties=stamp({}, migratable=False),
            ),
            StageConfig(
                "work", "py://repro.ledger.stages:DetRelayStage",
                requirement=req(None),
                properties=stamp({}, replicas=1, scale_max_replicas=2, shard_by="field:lk"),
            ),
            StageConfig(
                "mid", "py://repro.ledger.stages:DetRelayStage",
                requirement=req(None),
                properties=stamp({}, migratable=True),
            ),
            StageConfig(
                "sink", "py://repro.ledger.sinks:TxnCollectStage",
                requirement=req("central"),
            ),
        ],
        streams=[
            StreamConfig("s1", "src", "work"),
            StreamConfig("s2", "work", "mid"),
            StreamConfig("s3", "mid", "sink"),
        ],
    )


def stamp_ledger(
    config: AppConfig,
    mode: str,
    ledger_dir: str,
    ledger_path: Optional[str] = None,
) -> AppConfig:
    """Stamp record/replay properties onto every stage, in place."""
    for stage in config.stages:
        stamp(
            stage.properties,
            ledger_enabled=True,
            ledger_mode=mode,
            ledger_dir=os.path.abspath(ledger_dir),
            ledger_path=None if ledger_path is None else os.path.abspath(ledger_path),
        )
    return config


def _run_pipeline(config: AppConfig, spec: ReplaySpec, runtime: str, *, chaos: bool) -> Any:
    """Run ``config`` on ``runtime``, fed by ``spec``'s payloads.

    The simulator runs on a five-host star (two worker hosts, edge,
    spare, central) with checkpoints armed, its feed paced at
    ``spec.rate``; ``chaos`` adds the edge crash with heartbeat
    failover, the ``work`` scale-up and the ``mid`` migration.  The
    threaded and networked runs feed as fast as the pipeline accepts.
    """
    from ..core.kernel import SourceBinding
    from ..core.run import RunOptions, build

    fabric = None
    options = RunOptions()
    if runtime == "sim":
        from ..grid.fabric import star_fabric
        from ..resilience.policy import ResilienceConfig

        fabric = star_fabric(
            ["w1", "w2", "edge", "spare"], bandwidth=10_000.0, latency=0.005, leaf_cores=4
        )
        options = RunOptions(
            adaptation_enabled=spec.adaptation,
            resilience=ResilienceConfig(checkpoint_interval=spec.checkpoint_interval),
        )
    elif runtime == "net":
        options = RunOptions(workers=spec.workers, adaptation_enabled=False, timeout=90.0)
    source = SourceBinding(
        "feed", "src", payloads=spec.payloads(), rate=spec.rate if fabric else None
    )
    built = build(config, runtime, options, [source], fabric=fabric)
    if chaos:
        from ..grid.faults import FaultInjector, FaultPlan, Redeployer
        from ..grid.heartbeat import HeartbeatDetector
        from ..resilience.failover import FailoverCoordinator
        from ..resilience.migration import Migrator

        assert fabric is not None
        sim, env = built.runtime, fabric.env
        FaultInjector(env, fabric.network).schedule(FaultPlan("edge", fail_at=spec.fail_at))
        detector = HeartbeatDetector(env, fabric.network, interval=0.05, timeout=0.15)
        FailoverCoordinator(sim, detector, Redeployer(fabric.deployer)).arm()
        detector.start()
        migrator = Migrator(fabric.deployer, sim.deployment)

        def _decisions() -> Any:
            yield env.timeout(spec.scale_at)
            sim.scale_stage("work", 2)
            yield env.timeout(max(spec.migrate_at - spec.scale_at, 0.001))
            sim.migrate_stage("mid", migrator=migrator, trigger="chaos")

        env.process(_decisions(), name="chaos-decisions")
    return built.run()


# -- digests ---------------------------------------------------------------


def _canonical_digest(value: Any) -> str:
    return sha256(
        json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def _num_key(key: str) -> Tuple[int, int, str]:
    try:
        return (0, int(key), "")
    except ValueError:
        return (1, 0, key)


def sink_effect_map(records: List[Record]) -> Dict[Tuple[str, str], Any]:
    """Committed sink effects keyed by ``(stage, item key)``.

    ``SINK`` records are deduplicated by assignment: an idempotent sink
    re-committing a key after a checkpoint restore writes the identical
    value, so last-wins is safe (and a genuinely different value is a
    real divergence the digest must catch anyway).
    """
    out: Dict[Tuple[str, str], Any] = {}
    for rec in records:
        if rec.type == "SINK":
            out[(rec.stage, rec.key)] = rec.data.get("v")
    return out


def sink_digest(records: List[Record]) -> str:
    """Digest of the deduplicated, key-ordered sink effects."""
    effects = sink_effect_map(records)
    ordered = [
        [stage, key, effects[(stage, key)]]
        for stage, key in sorted(effects, key=lambda sk: (sk[0], _num_key(sk[1])))
    ]
    return _canonical_digest(ordered)


def state_map(records: List[Record]) -> Dict[str, Any]:
    """Final per-stage state with shard replicas merged by key union.

    Each replica of a sharded group writes its own ``STATE`` record
    under the group's base name; when every contribution is a
    ``[[key, value], ...]`` pair list (the ``replay_state()``
    convention), the union is the group's state regardless of how the
    keys were partitioned at the time of the flush.
    """
    per_stage: Dict[str, List[Any]] = {}
    for rec in records:
        if rec.type == "STATE":
            per_stage.setdefault(rec.stage, []).append(rec.data.get("v"))
    merged: Dict[str, Any] = {}
    for stage, states in per_stage.items():
        if all(
            isinstance(s, list)
            and all(isinstance(p, (list, tuple)) and len(p) == 2 for p in s)
            for s in states
        ):
            pairs: Dict[str, Any] = {}
            for s in states:
                for k, v in s:
                    pairs[str(k)] = v
            merged[stage] = [[k, pairs[k]] for k in sorted(pairs, key=_num_key)]
        elif len(states) == 1:
            merged[stage] = states[0]
        else:
            merged[stage] = sorted(
                states, key=lambda s: json.dumps(s, sort_keys=True, default=str)
            )
    return merged


def state_digest(records: List[Record]) -> str:
    """Digest of the merged per-stage final states."""
    return _canonical_digest(state_map(records))


def _counts(records: List[Record]) -> Dict[str, int]:
    reads = sum(1 for r in records if r.type in READ_TYPES)
    return {
        "records": len(records),
        "ingress": sum(1 for r in records if r.type == "INGRESS"),
        "reads": reads,
        "sinks": len(sink_effect_map(records)),
        "decisions": sum(1 for r in records if r.type in _DECISION_TYPES),
    }


def _sum_counter(records: List[Record], name: str) -> int:
    total = 0
    for rec in records:
        if rec.type == "STATE":
            counters = rec.data.get("counters")
            if isinstance(counters, dict):
                total += int(counters.get(name, 0))
    return total


def _publish_metrics(metrics: Any, records: List[Record]) -> None:
    """Register the per-stage ledger counters on the run's registry."""
    if metrics is None:
        return
    per_stage: Dict[str, Dict[str, int]] = {}
    for rec in records:
        if rec.type in READ_TYPES:
            per_stage.setdefault(rec.stage, {}).setdefault("records", 0)
            per_stage[rec.stage]["records"] += 1
        elif rec.type == "SINK":
            per_stage.setdefault(rec.stage, {}).setdefault("effects", 0)
            per_stage[rec.stage]["effects"] += 1
        elif rec.type == "STATE":
            counters = rec.data.get("counters")
            if isinstance(counters, dict):
                bucket = per_stage.setdefault(rec.stage, {})
                for name in ("dedup_hits", "replay_misses"):
                    bucket[name] = bucket.get(name, 0) + int(
                        counters.get(name, 0)
                    )
    templates = {
        "records": "ledger.{stage}.records",
        "effects": "ledger.{stage}.effects",
        "dedup_hits": "ledger.{stage}.dedup_hits",
        "replay_misses": "ledger.{stage}.replay_misses",
    }
    for stage, bucket in per_stage.items():
        for name, value in bucket.items():
            if value:
                full = templates[name].format(stage=stage)
                metrics.counter(full).inc(float(value))


# -- record ----------------------------------------------------------------


def _merge_dir(out_dir: str) -> List[Record]:
    """Merge every stage sidecar in ``out_dir`` into ``run.ledger``."""
    out_path = os.path.join(out_dir, RUN_LEDGER)
    sidecars = sorted(
        path
        for path in glob.glob(os.path.join(out_dir, "*.ledger"))
        if os.path.basename(path) != RUN_LEDGER
    )
    return merge_ledgers(sidecars, out_path)


def _mine_decisions(writer: LedgerWriter, result: Any) -> int:
    """Write the run's adaptation/fault decisions from its event log."""
    events = getattr(result, "events", None)
    entries = getattr(events, "entries", None) or []
    mined = 0
    for time, kind, attrs in entries:
        rtype = _EVENT_TO_TYPE.get(kind)
        if rtype is None:
            continue
        data = {"t": float(time), "event": kind}
        for name, value in attrs.items():
            if isinstance(value, (str, int, float, bool)) or value is None:
                data[name] = value
            else:
                data[name] = repr(value)
        stage = str(attrs.get("stage", attrs.get("group", "")))
        writer.append(rtype, stage=base_stage_name(stage), data=data)
        mined += 1
    return mined


def record(
    out_dir: str,
    runtime: str = "sim",
    spec: Optional[ReplaySpec] = None,
) -> RecordResult:
    """Record the demo pipeline on ``runtime`` into ``out_dir``.

    Produces per-stage sidecar ledgers plus the harness's run-level
    sidecar, merges them into ``out_dir/run.ledger`` and seals the
    chain with the ``END`` digest record.  Returns the summary the CLI
    prints; the ledger path inside it is what :func:`replay` takes.
    """
    spec = spec or ReplaySpec()
    if runtime not in RUNTIMES:
        raise ValueError(f"unknown runtime {runtime!r}; expected one of {RUNTIMES}")
    out_dir = os.path.abspath(out_dir)
    if os.path.isdir(out_dir):
        for stale in glob.glob(os.path.join(out_dir, "*.ledger*")):
            os.remove(stale)
    os.makedirs(out_dir, exist_ok=True)
    reset_registry()

    base = demo_config(spec, hints=(runtime == "sim" and spec.chaos))
    meta_xml = base.to_xml()
    config = stamp_ledger(base, MODE_RECORD, out_dir)
    try:
        result = _run_pipeline(config, spec, runtime, chaos=spec.chaos)
    finally:
        reset_registry()  # close sidecar writers before merging

    writer = LedgerWriter(os.path.join(out_dir, _RUN_SIDECAR))
    try:
        writer.append(
            "META",
            data={
                "schema": SCHEMA,
                "runtime": runtime,
                "app": meta_xml,
                "source": {"name": "feed", "target": "src"},
                "items": spec.items,
                "chaos": bool(spec.chaos),
            },
        )
        for payload in spec.payloads():
            writer.append(
                "INGRESS",
                key=str(payload["lk"]),
                data={"v": payload["lv"], "source": "feed"},
            )
        _mine_decisions(writer, result)
    finally:
        writer.close()

    merged = _merge_dir(out_dir)
    sink_d = sink_digest(merged)
    state_d = state_digest(merged)
    counts = _counts(merged)
    run_path = os.path.join(out_dir, RUN_LEDGER)
    end_writer = LedgerWriter(run_path)
    try:
        end_writer.append(
            "END",
            data={
                "sink_digest": sink_d,
                "state_digest": state_d,
                "counts": counts,
            },
        )
    finally:
        end_writer.close()

    sink_duplicates = 0
    effects: List[List[Any]] = []
    try:
        final = result.final_value("sink")
    except Exception:
        final = None
    if isinstance(final, dict):
        effects = list(final.get("effects") or [])
        sink_duplicates = int(final.get("duplicates", 0))
    metrics = getattr(result, "metrics", None)
    delivery_duplicates = 0.0
    if metrics is not None:
        for stage in {base_stage_name(s.name) for s in config.stages}:
            for family in ("recovery", "migration"):
                delivery_duplicates += metrics.value(
                    f"{family}.{stage}.duplicates", default=0.0
                )
    _publish_metrics(metrics, merged)
    return RecordResult(
        ledger_path=run_path,
        runtime=runtime,
        counts=counts,
        sink_digest=sink_d,
        state_digest=state_d,
        sink_duplicates=sink_duplicates,
        delivery_duplicates=int(delivery_duplicates),
        effects=effects,
    )


# -- replay ----------------------------------------------------------------


def _first_divergence(
    recorded: List[Record], replayed: List[Record]
) -> Optional[Dict[str, Any]]:
    """Locate the first differing sink effect or stage state."""
    rec_eff = sink_effect_map(recorded)
    rep_eff = sink_effect_map(replayed)
    for stage, key in sorted(
        set(rec_eff) | set(rep_eff), key=lambda sk: (sk[0], _num_key(sk[1]))
    ):
        a = rec_eff.get((stage, key), "<missing>")
        b = rep_eff.get((stage, key), "<missing>")
        if a != b:
            sseq = next(
                (
                    r.sseq
                    for r in recorded
                    if r.type == "SINK" and r.stage == stage and r.key == key
                ),
                None,
            )
            return {
                "kind": "sink",
                "stage": stage,
                "key": key,
                "sseq": sseq,
                "recorded": a,
                "replayed": b,
            }
    rec_state = state_map(recorded)
    rep_state = state_map(replayed)
    for stage in sorted(set(rec_state) | set(rep_state)):
        a = rec_state.get(stage, "<missing>")
        b = rep_state.get(stage, "<missing>")
        if a != b:
            divergence: Dict[str, Any] = {
                "kind": "state",
                "stage": stage,
                "key": "",
                "recorded": a,
                "replayed": b,
            }
            if isinstance(a, list) and isinstance(b, list):
                a_pairs = {str(p[0]): p[1] for p in a if len(p) == 2}
                b_pairs = {str(p[0]): p[1] for p in b if len(p) == 2}
                for key in sorted(set(a_pairs) | set(b_pairs), key=_num_key):
                    if a_pairs.get(key, "<missing>") != b_pairs.get(key, "<missing>"):
                        divergence["key"] = key
                        divergence["recorded"] = a_pairs.get(key, "<missing>")
                        divergence["replayed"] = b_pairs.get(key, "<missing>")
                        break
            return divergence
    return None


def replay(
    ledger_path: str,
    runtime: str = "sim",
    spec: Optional[ReplaySpec] = None,
    work_dir: Optional[str] = None,
) -> ReplayReport:
    """Re-execute a recorded run on ``runtime`` and compare digests.

    The pipeline config comes from the ledger's ``META`` record (with
    placement hints stripped, so a run recorded on the simulated fabric
    replays on worker processes and vice versa), the input from its
    ``INGRESS`` records, and every recorded read is pinned by the
    replay-mode :class:`~repro.ledger.DeterministicContext`.  Faults
    are *not* re-injected: the whole point is that the recorded
    decisions' effects are already baked into the recorded reads, so a
    fault-free replay must still land on identical digests.
    """
    from ..grid.resources import ResourceRequirement

    spec = spec or ReplaySpec()
    if runtime not in RUNTIMES:
        raise ValueError(f"unknown runtime {runtime!r}; expected one of {RUNTIMES}")
    ledger_path = os.path.abspath(ledger_path)
    recorded = LedgerReader(ledger_path).read()
    meta = next((r for r in recorded if r.type == "META"), None)
    end = next((r for r in recorded if r.type == "END"), None)
    if meta is None or end is None:
        raise LedgerError(
            f"{ledger_path}: not a sealed run ledger (missing META or END record)"
        )

    config = AppConfig.from_xml(str(meta.data["app"]))
    for stage in config.stages:
        stage.requirement = ResourceRequirement()
    ingress = sorted(
        (r for r in recorded if r.type == "INGRESS"),
        key=lambda r: _num_key(r.key),
    )
    payloads = [wrap(int(r.key), r.data.get("v")) for r in ingress]
    replay_spec = ReplaySpec(
        items=len(payloads), rate=spec.rate, workers=spec.workers
    )
    replay_spec.payloads = lambda: payloads  # type: ignore[method-assign]

    work_dir = os.path.abspath(
        work_dir or os.path.join(os.path.dirname(ledger_path), f"replay-{runtime}")
    )
    if os.path.isdir(work_dir):
        shutil.rmtree(work_dir)
    os.makedirs(work_dir, exist_ok=True)
    reset_registry()
    stamp_ledger(config, MODE_REPLAY, work_dir, ledger_path=ledger_path)
    try:
        result = _run_pipeline(config, replay_spec, runtime, chaos=False)
    finally:
        reset_registry()

    replayed = _merge_dir(work_dir)
    rep_sink = sink_digest(replayed)
    rep_state = state_digest(replayed)
    rec_sink = str(end.data.get("sink_digest", ""))
    rec_state = str(end.data.get("state_digest", ""))
    sink_ok = rep_sink == rec_sink
    state_ok = rep_state == rec_state
    divergence = None
    if not (sink_ok and state_ok):
        divergence = _first_divergence(recorded, replayed)
    _publish_metrics(getattr(result, "metrics", None), replayed)
    return ReplayReport(
        runtime=runtime,
        ledger_path=ledger_path,
        match=sink_ok and state_ok,
        sink_match=sink_ok,
        state_match=state_ok,
        recorded_sink_digest=rec_sink,
        replayed_sink_digest=rep_sink,
        recorded_state_digest=rec_state,
        replayed_state_digest=rep_state,
        first_divergence=divergence,
        replay_misses=_sum_counter(replayed, "replay_misses"),
        dedup_hits=_sum_counter(replayed, "dedup_hits"),
        counts=_counts(replayed),
    )
