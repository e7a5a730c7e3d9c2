"""Typed, CRC'd, hash-chained run-ledger records.

A run ledger is a JSON-lines file.  Each line is one :class:`Record`
serialized flat, carrying two integrity fields computed over the
canonical JSON of everything else:

* ``crc`` — CRC-32 of the record body (detects bit rot in place);
* ``h`` — SHA-256 of ``previous h + body`` (chains every record to its
  predecessor, so truncation, reordering, or tampering breaks the chain
  from that point on).

The record *types* are the catalog below; ``docs/replay.md`` documents
exactly these types and the docs-consistency check
(:mod:`repro.analysis.docscheck`, run as a tier-1 test) fails when either
side drifts.  Sequence numbers come in two flavours: ``seq`` is the
position in the containing file, ``sseq`` is the per-stage sequence
number (the paper-facing ordering used for first-divergence reports).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Dict, List, Tuple

__all__ = [
    "GENESIS",
    "RECORD_TYPES",
    "Record",
    "RecordError",
    "RecordTypeInfo",
    "body_json",
    "chain_digest",
    "decode_line",
    "encode_line",
    "sort_key",
    "type_info",
]

#: Schema tag written into META records and used as the chain seed.
SCHEMA = "repro-ledger/1"

#: Chain seed: the digest "before" the first record.
GENESIS = sha256(SCHEMA.encode("utf-8")).hexdigest()


class RecordError(Exception):
    """Raised for malformed, corrupt, or mis-chained ledger records."""


@dataclass(frozen=True)
class RecordTypeInfo:
    """One catalog entry: a record type and its meaning."""

    name: str
    #: Merge rank: records sort by (rank, stage, key, idx, sseq) when
    #: per-stage sidecar files are merged into one run ledger.
    rank: int
    #: One-line description (mirrored in docs/replay.md).
    description: str


#: The record-type catalog (pinned by docs/replay.md).
RECORD_TYPES: Tuple[RecordTypeInfo, ...] = (
    RecordTypeInfo("META", 0,
                   "Run header: application config XML, source bindings, "
                   "schema version."),
    RecordTypeInfo("INGRESS", 1,
                   "One source item: source name, ingress sequence number "
                   "(the item's stable key), payload."),
    RecordTypeInfo("ADJUST", 2,
                   "Section-4 adaptation decision: a parameter value "
                   "change suggested by the middleware."),
    RecordTypeInfo("SCALE", 3,
                   "Autoscaler decision: a shard group's active replica "
                   "count changed."),
    RecordTypeInfo("MIGRATE", 4,
                   "Migration trigger: a stage was re-placed (planned or "
                   "degraded to failover)."),
    RecordTypeInfo("FAILOVER", 5,
                   "Recovery event: a stage was restored from checkpoint "
                   "after its host failed."),
    RecordTypeInfo("REBALANCE", 6,
                   "Partition rebalance: keyed state moved between shard "
                   "replicas."),
    RecordTypeInfo("CLOCK", 7,
                   "Recorded wall-clock read made by stage code through "
                   "the DeterministicContext."),
    RecordTypeInfo("RNG", 7,
                   "Recorded random draw made by stage code through the "
                   "DeterministicContext."),
    RecordTypeInfo("PARAM", 7,
                   "Recorded getSuggestedValue() read: the parameter value "
                   "the stage observed for one item."),
    RecordTypeInfo("SINK", 8,
                   "One committed sink effect: item key and the effect "
                   "value (duplicates deduplicated away never appear)."),
    RecordTypeInfo("STATE", 9,
                   "Final stage state at flush (the replay_state()/"
                   "snapshot() of the processor)."),
    RecordTypeInfo("END", 10,
                   "Chain seal: record counts plus the sink-output and "
                   "final-state digests replay must reproduce."),
)

_BY_NAME: Dict[str, RecordTypeInfo] = {info.name: info for info in RECORD_TYPES}

#: Read-kinds served by the DeterministicContext per (stage, key, idx).
READ_TYPES = ("CLOCK", "RNG", "PARAM")


def type_info(name: str) -> RecordTypeInfo:
    """The catalog entry for ``name``; raises :class:`RecordError` if unknown."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise RecordError(f"unknown ledger record type {name!r}") from None


@dataclass(frozen=True)
class Record:
    """One ledger record (see :data:`RECORD_TYPES` for the catalog)."""

    type: str
    #: Position in the containing ledger file (assigned by the writer).
    seq: int
    #: Per-stage sequence number ("" stages share the run-level counter).
    sseq: int
    #: Owning stage (base name, without any ``#i`` shard suffix); ""
    #: for run-level records (META, INGRESS, END).
    stage: str = ""
    #: Item key (the ingress sequence number as a string); "" when the
    #: record is not tied to one item.
    key: str = ""
    #: Occurrence index among same (type, stage, key) reads.
    idx: int = 0
    #: Type-specific payload (JSON-representable).
    data: Dict[str, Any] = field(default_factory=dict)

    def body(self) -> Dict[str, Any]:
        """The integrity-covered fields, in canonical order."""
        return {
            "type": self.type,
            "seq": self.seq,
            "sseq": self.sseq,
            "stage": self.stage,
            "key": self.key,
            "idx": self.idx,
            "data": self.data,
        }


def body_json(record: Record) -> str:
    """Canonical JSON of the record body (what crc/h are computed over)."""
    return json.dumps(record.body(), sort_keys=True, separators=(",", ":"))


def chain_digest(prev: str, body: str) -> str:
    """The chained digest of one record given its predecessor's."""
    return sha256((prev + body).encode("utf-8")).hexdigest()


def encode_line(record: Record, prev: str) -> Tuple[str, str]:
    """Serialize one record; returns ``(line, digest)``.

    ``prev`` is the previous record's chained digest (:data:`GENESIS`
    for the first record).
    """
    type_info(record.type)  # reject unknown types at write time
    body = body_json(record)
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    digest = chain_digest(prev, body)
    envelope = dict(record.body())
    envelope["crc"] = crc
    envelope["h"] = digest
    return json.dumps(envelope, sort_keys=True, separators=(",", ":")), digest


def decode_line(line: str, prev: str) -> Tuple[Record, str]:
    """Parse and verify one ledger line; returns ``(record, digest)``.

    Verifies the CRC against the body and the chained digest against
    ``prev``; raises :class:`RecordError` on any mismatch.
    """
    try:
        envelope = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RecordError(f"malformed ledger line: {exc}") from exc
    if not isinstance(envelope, dict):
        raise RecordError("ledger line is not a JSON object")
    try:
        record = Record(
            type=str(envelope["type"]),
            seq=int(envelope["seq"]),
            sseq=int(envelope["sseq"]),
            stage=str(envelope.get("stage", "")),
            key=str(envelope.get("key", "")),
            idx=int(envelope.get("idx", 0)),
            data=dict(envelope.get("data", {})),
        )
        crc = int(envelope["crc"])
        digest = str(envelope["h"])
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordError(f"ledger line missing required fields: {exc}") from exc
    type_info(record.type)
    body = body_json(record)
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != crc:
        raise RecordError(
            f"CRC mismatch on record seq={record.seq} ({record.type}); "
            "the record was altered in place"
        )
    expected = chain_digest(prev, body)
    if digest != expected:
        raise RecordError(
            f"hash-chain break at record seq={record.seq} ({record.type}); "
            "a predecessor was dropped, reordered, or tampered with"
        )
    return record, digest


def _key_num(key: str) -> Tuple[int, str]:
    """Numeric-first ordering for item keys ("10" after "9")."""
    try:
        return (int(key), "")
    except ValueError:
        return (1 << 62, key)


def sort_key(record: Record) -> Tuple[Any, ...]:
    """Deterministic merge order for records from per-stage sidecars."""
    return (
        type_info(record.type).rank,
        record.stage,
        _key_num(record.key),
        record.idx,
        record.sseq,
        record.type,
    )


def merge_order(records: List[Record]) -> List[Record]:
    """The canonical order of a merged run ledger."""
    return sorted(records, key=sort_key)
