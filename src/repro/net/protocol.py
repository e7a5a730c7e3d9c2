"""Framed wire protocol for the networked runtime.

Everything that crosses a socket in ``repro.net`` is a *frame*:

```
offset  size  field
0       2     magic  b"GS"
2       1     protocol version (1)
3       1     frame type (FrameType)
4       4     payload length, uint32 little-endian
8       4     CRC-32 of the payload, uint32 little-endian
12      n     payload
```

Control frames (HELLO, REGISTER, CHANNEL, ...) carry UTF-8 JSON
payloads.  DATA frames carry a *typed payload*: a one-byte codec tag, an
8-byte declared item size (so stage-level byte metrics agree with the
other runtimes, which account declared — not encoded — sizes), then the
codec body.  Count-samps summary dicts ride the compact
:mod:`repro.streams.wire` codec; plain ints use a fixed 8-byte layout;
everything else falls back to JSON.

The incremental :class:`FrameDecoder` is the single parsing path — the
asyncio readers, both ends of every data connection (:class:`FrameStreamProtocol`
feeds it from the transport callback) and the protocol fuzz tests all
feed it byte chunks of arbitrary alignment.  The payload is materialized
exactly once per frame, and a partial frame's bytes are buffered in a
compacting ``bytearray`` whose consumed prefix is dropped in amortized
O(1) batches rather than per frame.

The send side is zero-copy too: :func:`new_frame_buffer` reserves the
12-byte header hole, the ``encode_*_into`` codecs append the payload
straight into that buffer, and :func:`finish_frame` packs the header in
place with a single CRC pass over a ``memoryview`` of the payload
region — one allocation and one ``write()`` per frame, no matter how
many items a batch carries.
"""

from __future__ import annotations

import asyncio
import enum
import json
import struct
import zlib
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.streams import wire as summary_wire

__all__ = [
    "ANNOUNCE_PREFIX",
    "FRAME_HEADER_BYTES",
    "MAX_PAYLOAD",
    "Frame",
    "FrameDecoder",
    "FrameStreamProtocol",
    "FrameType",
    "ProtocolError",
    "cap_read_buffer",
    "decode_credit",
    "decode_json",
    "decode_payload",
    "decode_payload_batch",
    "decode_payload_columns",
    "encode_credit",
    "encode_frame",
    "encode_json",
    "encode_payload_batch_into",
    "encode_payload_columns_into",
    "encode_payload_into",
    "finish_frame",
    "is_batch_payload",
    "new_frame_buffer",
    "open_frame_connection",
    "read_frame",
    "send_frame",
]

#: A worker's stdout announce line: ``REPRO-NET-WORKER <port>`` — plus an
#: optional third token, the worker's UNIX-socket path, when one is bound
#: (the co-located fast path; older parsers that only read the port keep
#: working).
ANNOUNCE_PREFIX = "REPRO-NET-WORKER"

MAGIC = b"GS"
VERSION = 1
#: magic 2s + version B + type B + length I + crc I
_HEADER_STRUCT = struct.Struct("<2sBBII")
FRAME_HEADER_BYTES = _HEADER_STRUCT.size  # 12
#: Upper bound on a single frame's payload; anything larger is a
#: protocol violation (and, on a fuzzed length field, keeps a corrupt
#: header from making the decoder wait for gigabytes).
MAX_PAYLOAD = 16 * 1024 * 1024

_Buffer = Union[bytes, bytearray, memoryview]


class ProtocolError(Exception):
    """Raised for malformed frames or payloads."""


class FrameType(enum.IntEnum):
    """Every message kind the coordinator/worker/peer protocol uses."""

    HELLO = 1       # connection handshake (coordinator <-> worker)
    PING = 2        # RTT probe (coordinator -> worker)
    PONG = 3        # RTT echo (worker -> coordinator)
    REGISTER = 4    # ship one stage registration to a worker
    CHANNEL = 5     # declare a data channel endpoint on a worker
    SYNC = 6        # coordinator: "registration batch complete?"
    START = 7       # coordinator: dial peers and start processing
    READY = 8       # worker ack for SYNC / START phases
    ATTACH = 9      # peer data connection: "I send stream X to stage Y"
    DATA = 10       # one stream item (typed payload)
    CREDIT = 11     # receiver -> sender: grant credit for n more items
    EOS = 12        # end-of-stream sentinel for one channel
    EXCEPTION = 13  # load exception travelling upstream (paper §4)
    RESULT = 14     # worker -> coordinator: finals + metrics registry
    SHUTDOWN = 15   # coordinator -> worker: exit cleanly
    ERROR = 16      # fatal error report (either direction)
    MIGRATE = 17    # live-migration control step (pause/expect/export/
                    # adopt/resume/collect; JSON body with "action" or,
                    # in worker replies, "phase") — see docs/migration.md
    HANDOFF = 18    # worker -> coordinator: migrating stage's exported
                    # StageCheckpoint.to_dict() (the adopt body carries it on)


#: Wire type byte -> member, built once: per frame, a dict lookup is an
#: order of magnitude cheaper than calling the enum.
_FRAME_TYPES: Dict[int, FrameType] = {int(t): t for t in FrameType}


class Frame:
    """One decoded frame: a type and its raw payload bytes.

    A plain slotted class, not a dataclass: the decoder builds one per
    frame, and a frozen dataclass costs five times as much to create.
    """

    __slots__ = ("type", "payload")

    def __init__(self, type: FrameType, payload: bytes) -> None:
        self.type = type
        self.payload = payload

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return self.type is other.type and self.payload == other.payload

    def __repr__(self) -> str:
        return f"Frame(type={self.type!r}, payload={self.payload!r})"

    def json(self) -> Dict[str, Any]:
        """Decode the payload as a JSON object (control frames)."""
        return decode_json(self.payload)


def encode_frame(frame_type: FrameType, payload: bytes = b"") -> bytes:
    """Serialize one frame (header + payload) to bytes."""
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds MAX_PAYLOAD ({MAX_PAYLOAD})"
        )
    header = _HEADER_STRUCT.pack(
        MAGIC, VERSION, int(frame_type), len(payload), zlib.crc32(payload)
    )
    return header + payload


def new_frame_buffer() -> bytearray:
    """A fresh send buffer with the frame-header hole already reserved.

    Append the payload (``encode_payload_into`` and friends write
    straight into it), then :func:`finish_frame` packs the header over
    the hole — the frame is built in one buffer, copied nowhere.
    """
    return bytearray(FRAME_HEADER_BYTES)


def finish_frame(
    out: bytearray, frame_type: FrameType, start: int = 0
) -> bytearray:
    """Pack the header into ``out[start:start+12]`` over the payload after it.

    The CRC is computed in a single pass over a ``memoryview`` of the
    payload region — no slice copy, no second traversal.  Returns ``out``
    so call sites can build-and-ship in one expression.
    """
    length = len(out) - start - FRAME_HEADER_BYTES
    if length < 0:
        raise ProtocolError("frame buffer is smaller than its header hole")
    if length > MAX_PAYLOAD:
        raise ProtocolError(
            f"payload of {length} bytes exceeds MAX_PAYLOAD ({MAX_PAYLOAD})"
        )
    with memoryview(out) as view:
        crc = zlib.crc32(view[start + FRAME_HEADER_BYTES:])
    _HEADER_STRUCT.pack_into(
        out, start, MAGIC, VERSION, int(frame_type), length, crc
    )
    return out


#: Consumed-prefix bytes past which ``feed`` compacts its buffer.  Below
#: the threshold the cursor just advances — ``del buf[:n]`` per frame
#: would make a k-frame chunk O(k^2); one compaction per ~64 KiB keeps
#: it amortized O(1) per byte.
_COMPACT_THRESHOLD = 64 * 1024


class FrameDecoder:
    """Incremental frame parser; tolerant of arbitrary chunk boundaries.

    ``feed(data)`` returns every complete frame ``data`` finishes.  With
    nothing pending, a ``bytes`` chunk (what a transport delivers) is
    parsed where it lies — each payload is one slice of it — and only an
    unfinished tail is kept.  Otherwise the bytes join a buffer that is
    walked with an offset cursor, payloads are read through a
    ``memoryview``, and the consumed prefix is compacted in amortized
    O(1) batches instead of per frame.  Either way a payload is
    materialized exactly once.

    Corruption (bad magic/version/type, oversized length, CRC mismatch)
    raises :class:`ProtocolError` — a stream protocol has no way to
    resynchronise after a framing error, so callers must drop the
    connection.  The decoder *poisons itself* when that happens: any
    later ``feed`` raises immediately instead of silently mis-parsing
    whatever stale bytes were left in the buffer.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._offset = 0
        self._poisoned = False

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return len(self._buffer) - self._offset

    def feed(self, data: _Buffer) -> List[Frame]:
        if self._poisoned:
            raise ProtocolError(
                "decoder is poisoned after a framing error; the stream "
                "cannot be resynchronised — drop the connection"
            )
        buffer = self._buffer
        if type(data) is bytes and self._offset == len(buffer):
            frames, end = self._parse(data, 0)
            buffer.clear()
            self._offset = 0
            if end < len(data):
                with memoryview(data) as view:
                    buffer += view[end:]
            return frames
        buffer += data
        frames, self._offset = self._parse(buffer, self._offset)
        if self._offset >= len(buffer):
            buffer.clear()
            self._offset = 0
        elif self._offset >= _COMPACT_THRESHOLD:
            del buffer[:self._offset]
            self._offset = 0
        return frames

    def _parse(
        self, buf: Union[bytes, bytearray], start: int
    ) -> Tuple[List[Frame], int]:
        """Every complete frame in ``buf`` from ``start``, and where the
        first incomplete one begins."""
        frames: List[Frame] = []
        end = len(buf)
        try:
            while end - start >= FRAME_HEADER_BYTES:
                magic, version, ftype, length, crc = _HEADER_STRUCT.unpack_from(
                    buf, start
                )
                if magic != MAGIC:
                    raise ProtocolError(f"bad frame magic {bytes(magic)!r}")
                if version != VERSION:
                    raise ProtocolError(f"unsupported protocol version {version}")
                frame_type = _FRAME_TYPES.get(ftype)
                if frame_type is None:
                    raise ProtocolError(f"unknown frame type {ftype}")
                if length > MAX_PAYLOAD:
                    raise ProtocolError(
                        f"declared payload length {length} exceeds MAX_PAYLOAD"
                    )
                stop = start + FRAME_HEADER_BYTES + length
                if stop > end:
                    break
                if type(buf) is bytes:
                    payload = buf[start + FRAME_HEADER_BYTES:stop]
                    good = zlib.crc32(payload) == crc
                else:
                    with memoryview(buf) as view:
                        with view[start + FRAME_HEADER_BYTES:stop] as body:
                            good = zlib.crc32(body) == crc
                            payload = bytes(body)
                if not good:
                    raise ProtocolError(
                        f"payload CRC mismatch on {frame_type.name} frame"
                    )
                frames.append(Frame(frame_type, payload))
                start = stop
        except ProtocolError:
            self._poisoned = True
            raise
        return frames, start


# ---------------------------------------------------------------------------
# JSON payloads (control frames)
# ---------------------------------------------------------------------------

def encode_json(obj: Dict[str, Any]) -> bytes:
    """Compact UTF-8 JSON for control-frame payloads."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")


def decode_json(payload: bytes) -> Dict[str, Any]:
    """Parse a control-frame payload; must be a JSON object."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"control payload must be a JSON object, got {type(obj).__name__}"
        )
    return obj


#: CREDIT body: the item count granted, int32 little-endian (signed, so a
#: negative grant reads as one); the stream is the connection's.
_CREDIT_STRUCT = struct.Struct("<i")


def encode_credit(n: int) -> bytes:
    """The body of a CREDIT frame granting ``n`` more items."""
    return _CREDIT_STRUCT.pack(n)


def decode_credit(payload: _Buffer) -> int:
    """The count a CREDIT body grants; the sender validates its range."""
    if len(payload) != _CREDIT_STRUCT.size:
        raise ProtocolError(f"CREDIT body of {len(payload)} bytes, expected 4")
    return _CREDIT_STRUCT.unpack(payload)[0]


# ---------------------------------------------------------------------------
# DATA payloads: codec tag + declared size + body
# ---------------------------------------------------------------------------

_PAYLOAD_JSON = 0
_PAYLOAD_INT = 1
_PAYLOAD_SUMMARY = 2
#: Generic batch: uint32 item count, then per item a uint32 length prefix
#: and that item's full single-item encoding.
_PAYLOAD_BATCH = 3
#: Summary batch fast path (every item a count-samps summary dict):
#: uint32 record count, per-record metadata (uint16 source-name length +
#: name bytes + float64 declared size), then one streams.wire batch blob.
_PAYLOAD_SUMMARY_BATCH = 4
#: Int batch fast path (every item a plain int64): uint32 item count,
#: then n declared sizes (float64 each) and n values (int64 each), both
#: packed as single vectorized struct calls.
_PAYLOAD_INT_BATCH = 5

#: declared item size travels as a little-endian float64 so receiver-side
#: stage metrics match the sender's declared accounting exactly.
_SIZE_STRUCT = struct.Struct("<d")
_INT_STRUCT = struct.Struct("<q")
_SRC_LEN_STRUCT = struct.Struct("<H")
#: Fused little-endian layouts (no padding) so each payload prefix is one
#: pack call instead of a tag byte + per-field concatenation.
_TAG_SIZE_STRUCT = struct.Struct("<Bd")          # tag + declared size
_INT_PAYLOAD_STRUCT = struct.Struct("<Bdq")      # tag + size + int64 body
_SUMMARY_PREFIX_STRUCT = struct.Struct("<BdH")   # tag + size + source len

_SUMMARY_KEYS = frozenset({"source", "pairs", "items_seen"})

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def encode_payload_into(out: bytearray, obj: Any, size: float) -> None:
    """Append one stream item's DATA encoding to ``out`` (no copies).

    ``size`` is the *declared* item size (what ``context.emit`` was told)
    — the receiver re-attaches it so stage byte metrics stay comparable
    across the simulated/threaded/networked runtimes, while ``net.*``
    metrics count the real encoded bytes.  The caller supplies the buffer
    so batch/frame builders compose without intermediate ``bytes``
    objects.
    """
    base = len(out)
    if isinstance(obj, dict) and set(obj.keys()) == _SUMMARY_KEYS:
        source = obj["source"]
        if isinstance(source, str):
            src_bytes = source.encode("utf-8")
            if len(src_bytes) <= 0xFFFF:
                out += _SUMMARY_PREFIX_STRUCT.pack(
                    _PAYLOAD_SUMMARY, float(size), len(src_bytes)
                )
                out += src_bytes
                try:
                    summary_wire.encode_summary_into(
                        out,
                        [(int(v), int(c)) for v, c in obj["pairs"]],
                        items_seen=int(obj["items_seen"]),
                    )
                except (summary_wire.WireError, TypeError, ValueError):
                    del out[base:]  # not summary-encodable; fall back
                else:
                    return
    if isinstance(obj, int) and not isinstance(obj, bool):
        if _INT64_MIN <= obj <= _INT64_MAX:
            out += _INT_PAYLOAD_STRUCT.pack(_PAYLOAD_INT, float(size), obj)
            return
    try:
        blob = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        del out[base:]
        raise ProtocolError(
            f"payload of type {type(obj).__name__} is not wire-encodable"
        ) from exc
    out += _TAG_SIZE_STRUCT.pack(_PAYLOAD_JSON, float(size))
    out += blob


def decode_payload(data: _Buffer) -> Tuple[Any, float]:
    """Inverse of :func:`encode_payload_into`: returns (object, declared size).

    Accepts any bytes-like buffer; batch decoding hands in ``memoryview``
    slices so per-item bodies are never copied.
    """
    if len(data) < 1 + _SIZE_STRUCT.size:
        raise ProtocolError(f"DATA payload too short: {len(data)} bytes")
    kind = data[0]
    (size,) = _SIZE_STRUCT.unpack_from(data, 1)
    body = data[1 + _SIZE_STRUCT.size:]
    if kind == _PAYLOAD_SUMMARY:
        if len(body) < _SRC_LEN_STRUCT.size:
            raise ProtocolError("summary payload missing source-name length")
        (src_len,) = _SRC_LEN_STRUCT.unpack_from(body, 0)
        rest = body[_SRC_LEN_STRUCT.size:]
        if len(rest) < src_len:
            raise ProtocolError("summary payload truncated in source name")
        source = str(rest[:src_len], "utf-8")
        try:
            pairs, items_seen = summary_wire.decode_summary(rest[src_len:])
        except summary_wire.WireError as exc:
            raise ProtocolError(f"corrupt summary body: {exc}") from exc
        return {"source": source, "pairs": pairs, "items_seen": items_seen}, size
    if kind == _PAYLOAD_INT:
        if len(body) != _INT_STRUCT.size:
            raise ProtocolError(f"int payload of {len(body)} bytes")
        return _INT_STRUCT.unpack(body)[0], size
    if kind == _PAYLOAD_JSON:
        try:
            return json.loads(str(body, "utf-8")), size
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"malformed JSON item payload: {exc}") from exc
    raise ProtocolError(f"unknown payload codec tag {kind}")


# ---------------------------------------------------------------------------
# Batched DATA payloads (several items, one frame)
# ---------------------------------------------------------------------------

_COUNT_STRUCT = struct.Struct("<I")
_COUNT_HOLE = bytes(_COUNT_STRUCT.size)

_BATCH_TAGS = (_PAYLOAD_BATCH, _PAYLOAD_SUMMARY_BATCH, _PAYLOAD_INT_BATCH)


@lru_cache(maxsize=256)
def _sizes_struct(n: int) -> struct.Struct:
    """Vectorized layout for ``n`` float64 declared sizes."""
    return struct.Struct(f"<{n}d")


@lru_cache(maxsize=256)
def _ints_struct(n: int) -> struct.Struct:
    """Vectorized layout for ``n`` int64 values."""
    return struct.Struct(f"<{n}q")


def is_batch_payload(data: _Buffer) -> bool:
    """True when a DATA payload carries a batch (several items)."""
    return bool(len(data)) and data[0] in _BATCH_TAGS


def _try_encode_summary_batch_into(
    out: bytearray, values: Sequence[Any], sizes: Sequence[float]
) -> bool:
    """Append the summary-batch body when *every* item is a summary dict.

    Builds metadata straight into ``out``; on the first non-summary item
    the partial write is truncated and the generic batch path takes over.
    """
    base = len(out)
    out += bytes((_PAYLOAD_SUMMARY_BATCH,))
    out += _COUNT_STRUCT.pack(len(values))
    records = []
    for obj, size in zip(values, sizes):
        if not isinstance(obj, dict) or set(obj.keys()) != _SUMMARY_KEYS:
            del out[base:]
            return False
        source = obj["source"]
        if not isinstance(source, str):
            del out[base:]
            return False
        src_bytes = source.encode("utf-8")
        if len(src_bytes) > 0xFFFF:
            del out[base:]
            return False
        try:
            records.append(
                ([(int(v), int(c)) for v, c in obj["pairs"]], int(obj["items_seen"]))
            )
        except (TypeError, ValueError):
            del out[base:]
            return False
        out += _SRC_LEN_STRUCT.pack(len(src_bytes))
        out += src_bytes
        out += _SIZE_STRUCT.pack(float(size))
    try:
        summary_wire.encode_summary_batch_into(out, records)
    except summary_wire.WireError:
        del out[base:]
        return False
    return True


def _try_encode_int_batch_into(
    out: bytearray, values: Sequence[Any], sizes: Sequence[float]
) -> bool:
    """Append the int-batch body when *every* item is a plain int64.

    Two vectorized packs (all sizes, then all values) replace ``len(values)``
    per-item tag/size/value packs — the dominant encode cost for the
    plain-int workloads the ingress stages ship.  ``type(obj) is int``
    deliberately excludes bools and int subclasses so their encodings stay
    byte-identical to the single-item codec's.
    """
    for obj in values:
        if type(obj) is not int:
            return False
    base = len(out)
    n = len(values)
    out += bytes((_PAYLOAD_INT_BATCH,))
    out += _COUNT_STRUCT.pack(n)
    try:
        out += _sizes_struct(n).pack(*sizes)
        out += _ints_struct(n).pack(*values)
    except (struct.error, TypeError, ValueError, OverflowError):
        del out[base:]  # a value outside int64 or a bad size; generic path
        return False
    return True


def encode_payload_columns_into(
    out: bytearray, values: Sequence[Any], sizes: Sequence[float]
) -> None:
    """Append the batched DATA encoding of ``values`` (declared ``sizes``).

    The whole batch — tag, counts, per-item encodings — is built in the
    caller's buffer with length holes patched by ``struct.pack_into``;
    nothing round-trips through intermediate objects.  Callers typically
    pass a :func:`new_frame_buffer` and ship :func:`finish_frame`'s result.
    """
    if not values:
        raise ProtocolError("cannot encode an empty payload batch")
    if len(values) > 0xFFFFFFFF:
        raise ProtocolError(f"too many items for uint32 count: {len(values)}")
    if _try_encode_int_batch_into(out, values, sizes):
        return
    if _try_encode_summary_batch_into(out, values, sizes):
        return
    out += bytes((_PAYLOAD_BATCH,))
    out += _COUNT_STRUCT.pack(len(values))
    for obj, size in zip(values, sizes):
        hole = len(out)
        out += _COUNT_HOLE
        encode_payload_into(out, obj, size)
        _COUNT_STRUCT.pack_into(out, hole, len(out) - hole - _COUNT_STRUCT.size)


def encode_payload_batch_into(out: bytearray, items: "Sequence[Tuple[Any, ...]]") -> None:
    """Append several ``(object, declared size, ...)`` items as one DATA payload.

    :func:`encode_payload_columns_into` picks the int-batch fast path when
    every item is a plain int64 (two vectorized struct packs), the
    summary-batch fast path when every item is a count-samps summary dict
    (one :func:`repro.streams.wire.encode_summary_batch_into` blob,
    per-record metadata up front), and otherwise the generic batch: each
    item's ordinary :func:`encode_payload_into` bytes behind a uint32
    length prefix.  The receiver distinguishes batch from single-item
    payloads by the leading codec tag.
    """
    if not items:
        raise ProtocolError("cannot encode an empty payload batch")
    columns = tuple(zip(*items))
    encode_payload_columns_into(out, columns[0], columns[1])


def decode_payload_batch(data: _Buffer) -> "List[Tuple[Any, float]]":
    """Inverse of :func:`encode_payload_batch_into`: ``(object, size)`` pairs."""
    if len(data) and data[0] not in _BATCH_TAGS:
        raise ProtocolError(f"unknown batch payload codec tag {data[0]}")
    return list(zip(*decode_payload_columns(data)))


def decode_payload_columns(data: _Buffer) -> Tuple[Sequence[Any], Sequence[float]]:
    """Any DATA payload as ``(objects, declared sizes)``, parsed in place:
    an int batch is the two tuples its layout unpacks to."""
    if not is_batch_payload(data):
        obj, size = decode_payload(data)
        return (obj,), (size,)
    if len(data) < 1 + _COUNT_STRUCT.size:
        raise ProtocolError(f"batch payload too short: {len(data)} bytes")
    kind = data[0]
    (count,) = _COUNT_STRUCT.unpack_from(data, 1)
    offset = 1 + _COUNT_STRUCT.size
    size_total = len(data)
    view = memoryview(data)
    if kind == _PAYLOAD_SUMMARY_BATCH:
        metadata: List[Tuple[str, float]] = []
        for index in range(count):
            if size_total - offset < _SRC_LEN_STRUCT.size:
                raise ProtocolError(
                    f"summary batch truncated in record {index} metadata"
                )
            (src_len,) = _SRC_LEN_STRUCT.unpack_from(data, offset)
            offset += _SRC_LEN_STRUCT.size
            if size_total - offset < src_len + _SIZE_STRUCT.size:
                raise ProtocolError(
                    f"summary batch truncated in record {index} metadata"
                )
            source = str(view[offset:offset + src_len], "utf-8")
            offset += src_len
            (size,) = _SIZE_STRUCT.unpack_from(data, offset)
            offset += _SIZE_STRUCT.size
            metadata.append((source, size))
        try:
            records = summary_wire.decode_summary_batch(view[offset:])
        except summary_wire.WireError as exc:
            raise ProtocolError(f"corrupt summary batch body: {exc}") from exc
        if len(records) != count:
            raise ProtocolError(
                f"summary batch declares {count} records, wire blob "
                f"carries {len(records)}"
            )
        return [
            {"source": source, "pairs": pairs, "items_seen": items_seen}
            for (source, _), (pairs, items_seen) in zip(metadata, records)
        ], [size for _, size in metadata]
    if kind == _PAYLOAD_INT_BATCH:
        expected = count * (_SIZE_STRUCT.size + _INT_STRUCT.size)
        if size_total - offset != expected:
            raise ProtocolError(
                f"int batch declares {count} values ({expected} bytes), "
                f"{size_total - offset} present"
            )
        sizes = _sizes_struct(count).unpack_from(data, offset)
        values = _ints_struct(count).unpack_from(
            data, offset + count * _SIZE_STRUCT.size
        )
        return values, sizes
    if kind == _PAYLOAD_BATCH:
        objects: List[Any] = []
        declared: List[float] = []
        for index in range(count):
            if size_total - offset < _COUNT_STRUCT.size:
                raise ProtocolError(f"batch truncated at item {index} length")
            (item_len,) = _COUNT_STRUCT.unpack_from(data, offset)
            offset += _COUNT_STRUCT.size
            if size_total - offset < item_len:
                raise ProtocolError(
                    f"batch truncated in item {index}: declared {item_len} "
                    f"bytes, {size_total - offset} left"
                )
            obj, size = decode_payload(view[offset:offset + item_len])
            objects.append(obj)
            declared.append(size)
            offset += item_len
        if offset != size_total:
            raise ProtocolError(
                f"trailing bytes: {size_total - offset} past the declared "
                f"item count {count}"
            )
        return objects, declared
    raise ProtocolError(f"unknown batch payload codec tag {kind}")


# ---------------------------------------------------------------------------
# asyncio stream helpers
# ---------------------------------------------------------------------------

async def read_frame(reader: asyncio.StreamReader) -> Optional[Frame]:
    """Read exactly one frame; ``None`` on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(FRAME_HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            f"connection closed mid-header ({len(exc.partial)} bytes)"
        ) from exc
    decoder = FrameDecoder()
    frames = decoder.feed(header)
    if frames:
        return frames[0]
    _, _, _, length, _ = _HEADER_STRUCT.unpack(header)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-payload ({len(exc.partial)}/{length} bytes)"
        ) from exc
    frames = decoder.feed(body)
    if not frames:
        raise ProtocolError("frame did not complete after declared length")
    return frames[0]


#: Most bytes one socket read returns (see :func:`cap_read_buffer`) —
#: large enough that one syscall typically yields many frames.
_READ_CHUNK = 64 * 1024


def cap_read_buffer(writer: asyncio.StreamWriter) -> None:
    """Have the transport under ``writer`` receive at most ``_READ_CHUNK``
    bytes per readiness event.

    The selector transport allocates a ``bytes`` of its ``max_size``
    (256 KiB) for every ``recv``.  That is above glibc's default 128 KiB
    mmap threshold, so each socket read pays an mmap, a munmap and the
    page faults between them — some 15 µs against 1 µs from the heap.
    (The threshold only moves up once a larger mmapped block has been
    freed, which loading ``numpy.random`` happens to do.)  A transport
    without the attribute (``max_size`` is not public API) is left as it
    is.
    """
    transport = writer.transport
    if getattr(transport, "max_size", 0) > _READ_CHUNK:
        transport.max_size = _READ_CHUNK  # type: ignore[attr-defined]


class FrameStreamProtocol(asyncio.StreamReaderProtocol):
    """A stream protocol that can hand its bytes straight to a frame callback.

    Until :meth:`divert` it is an ordinary ``StreamReaderProtocol``: the
    connection's ``StreamReader`` / ``StreamWriter`` pair works as usual,
    so a handshake is read with :func:`read_frame`.  After it, every
    chunk the transport receives is parsed inside ``data_received`` by
    one persistent :class:`FrameDecoder`, and its complete frames go to
    ``on_frames`` before the event loop runs anything else — no reader
    task, no ``StreamReader`` buffer, no wakeup between the socket and
    the consumer.  The writer keeps working: its drain and close hooks
    live on this protocol.

    ``on_close(error)`` is called once, when the diverted connection
    ends: with ``None`` for a clean EOF at a frame boundary, a
    :class:`ProtocolError` for a framing error (including one that
    ``on_frames`` raises) or an EOF mid-frame, or the transport's own
    exception.  Bytes after a framing error are dropped; the stream
    cannot be resynchronised.

    Divert only where the peer cannot yet have sent bytes past the
    handshake (a data channel's sender waits for its first credit
    grant, and its own end is diverted before it sends ATTACH):
    whatever the ``StreamReader`` already buffered stays there.
    """

    _decoder: Optional[FrameDecoder] = None
    _on_frames: Optional[Callable[[List[Frame]], None]] = None
    _on_close: Optional[Callable[[Optional[BaseException]], None]] = None

    def divert(
        self,
        on_frames: Callable[[List[Frame]], None],
        on_close: Callable[[Optional[BaseException]], None],
    ) -> None:
        self._decoder = FrameDecoder()
        self._on_frames = on_frames
        self._on_close = on_close

    def _end(self, error: Optional[BaseException]) -> None:
        on_close = self._on_close
        if on_close is not None:
            self._on_frames = self._on_close = None
            on_close(error)

    def data_received(self, data: bytes) -> None:
        if self._decoder is None:
            super().data_received(data)
            return
        if self._on_frames is None:
            return
        try:
            frames = self._decoder.feed(data)
            if frames:
                self._on_frames(frames)
        except ProtocolError as exc:
            self._end(exc)

    def eof_received(self) -> Optional[bool]:
        if self._decoder is not None:
            pending = self._decoder.pending_bytes
            self._end(
                ProtocolError(f"connection closed mid-frame ({pending} bytes buffered)")
                if pending else None
            )
        return super().eof_received()

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        if self._decoder is not None:
            self._end(exc)
        super().connection_lost(exc)


async def open_frame_connection(
    on_frames: Callable[[List[Frame]], None],
    on_close: Callable[[Optional[BaseException]], None],
    host: str, port: int, path: Optional[str] = None,
) -> Tuple[asyncio.StreamWriter, str]:
    """Dial the UNIX socket ``path`` if reachable, else ``host:port``, diverted
    from the first byte; returns the writer and ``"uds"`` or ``"tcp"``."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(loop=loop)
    protocol = FrameStreamProtocol(reader, loop=loop)
    kind = "uds"
    try:
        if path is None:
            raise OSError("no UNIX socket advertised")
        transport, _ = await loop.create_unix_connection(lambda: protocol, path)
    except (OSError, NotImplementedError, AttributeError):
        # Remote peer, missing socket file, or no AF_UNIX: TCP.
        transport, _ = await loop.create_connection(lambda: protocol, host, port)
        kind = "tcp"
    protocol.divert(on_frames, on_close)
    writer = asyncio.StreamWriter(transport, protocol, reader, loop)
    cap_read_buffer(writer)
    return writer, kind


async def send_frame(
    writer: asyncio.StreamWriter, frame_type: FrameType, payload: bytes = b""
) -> int:
    """Write one frame and drain; returns the bytes put on the wire."""
    data = encode_frame(frame_type, payload)
    writer.write(data)
    await writer.drain()
    return len(data)
