"""Byte-parity between the zero-copy codecs and the pre-rewrite layout.

The zero-copy rewrite (``encode_payload_into`` / ``finish_frame`` /
vectorized ``streams.wire``) must produce *byte-identical* output to the
old concatenation-based encoders — workers from mixed builds share
sockets during rolling migrations, and the record/replay ledger stores
frame bytes.  Each ``_legacy_*`` helper below re-implements the old
encoder layout naively (independent of ``repro.net.protocol``'s
internals), and the corpus comes from a real recorded-ledger run so the
payload shapes are the ones the pipeline actually ships: ingress ints,
nested sink dicts, stage-state structures, and count-samps summaries.

One deliberate divergence: all-int64 batches now take a vectorized
int-batch layout (codec tag 5) the old encoder did not have, so those
chunks assert a lossless round trip instead of byte identity.
"""

import json
import struct
import zlib

import pytest

from repro.ledger.harness import ReplaySpec, record
from repro.ledger.ledger import LedgerReader
from repro.net.protocol import (
    FrameType,
    decode_payload,
    decode_payload_batch,
    encode_frame,
    encode_payload_into,
    finish_frame,
    new_frame_buffer,
)
from repro.streams.wire import (
    decode_summary,
    decode_summary_batch,
    encode_summary,
    encode_summary_batch,
)
from tests.net.payloads import payload, payload_batch

# ---------------------------------------------------------------------------
# Legacy encoders: the exact pre-rewrite byte layouts, rebuilt from plain
# struct packs and bytes concatenation (the old hot path).
# ---------------------------------------------------------------------------

_SIZE = struct.Struct("<d")
_INT = struct.Struct("<q")
_SRC_LEN = struct.Struct("<H")
_COUNT = struct.Struct("<I")
_PAIR = struct.Struct("<qI")
_WIRE_HEADER = struct.Struct("<BBIQ")
_WIRE_BATCH_HEADER = struct.Struct("<BBI")
_FRAME_HEADER = struct.Struct("<2sBBII")
_SUMMARY_KEYS = {"source", "pairs", "items_seen"}


def _legacy_encode_summary(pairs, items_seen=0):
    out = _WIRE_HEADER.pack(0xA7, 1, len(pairs), items_seen)
    for value, count in pairs:
        out += _PAIR.pack(value, count)
    return out


def _legacy_encode_summary_batch(records):
    out = _WIRE_BATCH_HEADER.pack(0xA8, 1, len(records))
    for pairs, items_seen in records:
        out += _legacy_encode_summary(pairs, items_seen)
    return out


def _summary_record(obj):
    """(src_bytes, pairs, items_seen) when obj takes the summary fast path."""
    if not isinstance(obj, dict) or set(obj.keys()) != _SUMMARY_KEYS:
        return None
    if not isinstance(obj["source"], str):
        return None
    src = obj["source"].encode("utf-8")
    if len(src) > 0xFFFF:
        return None
    try:
        pairs = [(int(v), int(c)) for v, c in obj["pairs"]]
        items_seen = int(obj["items_seen"])
    except (TypeError, ValueError):
        return None
    for value, count in pairs:
        if not -(1 << 63) <= value < (1 << 63) or not 0 <= count < (1 << 32):
            return None
    if not 0 <= items_seen < (1 << 64):
        return None
    return src, pairs, items_seen


def _legacy_encode_payload(obj, size):
    rec = _summary_record(obj)
    if rec is not None:
        src, pairs, items_seen = rec
        return (
            bytes([2])
            + _SIZE.pack(float(size))
            + _SRC_LEN.pack(len(src))
            + src
            + _legacy_encode_summary(pairs, items_seen)
        )
    if isinstance(obj, int) and not isinstance(obj, bool):
        if -(1 << 63) <= obj < (1 << 63):
            return bytes([1]) + _SIZE.pack(float(size)) + _INT.pack(obj)
    blob = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return bytes([0]) + _SIZE.pack(float(size)) + blob


def _legacy_encode_payload_batch(items):
    recs = [(_summary_record(obj), size) for obj, size in items]
    if all(rec is not None for rec, _ in recs):
        metadata = b""
        records = []
        for (src, pairs, items_seen), size in recs:
            metadata += _SRC_LEN.pack(len(src)) + src + _SIZE.pack(float(size))
            records.append((pairs, items_seen))
        return (
            bytes([4])
            + _COUNT.pack(len(items))
            + metadata
            + _legacy_encode_summary_batch(records)
        )
    out = bytes([3]) + _COUNT.pack(len(items))
    for obj, size in items:
        encoded = _legacy_encode_payload(obj, size)
        out += _COUNT.pack(len(encoded)) + encoded
    return out


def _legacy_encode_frame(frame_type, payload=b""):
    header = _FRAME_HEADER.pack(
        b"GS", 1, int(frame_type), len(payload), zlib.crc32(payload)
    )
    return header + payload


# ---------------------------------------------------------------------------
# Corpus: payload shapes from an actual recorded-ledger run.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ledger_corpus(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("parity-ledger")
    res = record(str(out_dir), runtime="sim", spec=ReplaySpec(items=48))
    records = LedgerReader(res.ledger_path).read()
    assert records, "ledger run produced no records"

    corpus = []
    ingress_values = []
    for rec in records:
        data = rec.data
        if isinstance(data, dict) and data:
            corpus.append(data)
        if rec.type == "INGRESS" and isinstance(data.get("v"), int):
            ingress_values.append(data["v"])
    assert ingress_values, "no ingress values in the recorded ledger"
    corpus.extend(ingress_values)

    # Count-samps summaries built from the recorded ingress values, so the
    # summary and summary-batch fast paths see realistic distributions.
    for i in range(0, len(ingress_values), 8):
        chunk = ingress_values[i : i + 8]
        pairs = sorted(
            {int(v): idx + 1 for idx, v in enumerate(chunk)}.items()
        )
        corpus.append(
            {"source": f"feed-{i // 8}", "pairs": pairs, "items_seen": len(chunk)}
        )

    # Edge cases the ledger run won't hit.
    corpus.extend(
        [
            0,
            -1,
            (1 << 63) - 1,
            -(1 << 63),
            1 << 63,  # too big for int64 → JSON path
            {"source": "empty", "pairs": [], "items_seen": 0},
            {"source": "bools", "pairs": [(True, 2)], "items_seen": 1},
            {"source": 7, "pairs": [(1, 1)], "items_seen": 1},  # bad source
            {"source": "neg", "pairs": [(1, -1)], "items_seen": 1},  # bad count
            {"source": "x", "pairs": [(1, 1)]},  # missing key → JSON
            [1, "two", {"three": 3.0}],
            "just a string",
            None,
        ]
    )
    return corpus


def _sizes(corpus):
    return [float(8 + (i % 5) * 13) for i in range(len(corpus))]


class TestPayloadParity:
    def test_single_item_encodings_are_byte_identical(self, ledger_corpus):
        for obj, size in zip(ledger_corpus, _sizes(ledger_corpus)):
            new = payload(obj, size)
            old = _legacy_encode_payload(obj, size)
            assert new == old, f"payload bytes diverged for {obj!r}"

    def test_single_item_round_trip(self, ledger_corpus):
        for obj, size in zip(ledger_corpus, _sizes(ledger_corpus)):
            decoded, got_size = decode_payload(payload(obj, size))
            assert got_size == size
            rec = _summary_record(obj)
            if rec is not None:
                # The summary fast path int-coerces pairs (True → 1), as
                # the old codec did; compare against the coerced form.
                _, pairs, items_seen = rec
                expected = dict(obj, pairs=pairs, items_seen=items_seen)
            else:
                expected = obj
            assert json.dumps(decoded, sort_keys=True, default=list) == json.dumps(
                expected, sort_keys=True, default=list
            )

    def test_mixed_batches_are_byte_identical(self, ledger_corpus):
        sizes = _sizes(ledger_corpus)
        for width in (1, 2, 7, 32):
            for start in range(0, len(ledger_corpus), width):
                items = list(
                    zip(
                        ledger_corpus[start : start + width],
                        sizes[start : start + width],
                    )
                )
                if not items:
                    continue
                new = payload_batch(items)
                decoded = decode_payload_batch(new)
                assert [s for _, s in decoded] == [s for _, s in items]
                if all(
                    type(obj) is int and -(1 << 63) <= obj < (1 << 63)
                    for obj, _ in items
                ):
                    # All-int64 batches take the vectorized tag-5 fast
                    # path, which the legacy codec did not have; assert
                    # the round trip instead of byte identity.
                    assert new[0] == 5
                    assert [obj for obj, _ in decoded] == [
                        obj for obj, _ in items
                    ]
                    continue
                old = _legacy_encode_payload_batch(items)
                assert new == old, f"batch bytes diverged at [{start}:+{width}]"

    def test_all_summary_batch_takes_fast_path(self, ledger_corpus):
        summaries = [
            (obj, 16.0)
            for obj in ledger_corpus
            if _summary_record(obj) is not None
        ]
        assert len(summaries) >= 4
        new = payload_batch(summaries)
        old = _legacy_encode_payload_batch(summaries)
        assert new == old
        assert new[0] == 4  # summary-batch tag
        decoded = decode_payload_batch(new)
        assert [obj["source"] for obj, _ in decoded] == [
            obj["source"] for obj, _ in summaries
        ]

    def test_decode_accepts_memoryview_slices(self, ledger_corpus):
        for obj, size in zip(ledger_corpus, _sizes(ledger_corpus)):
            blob = payload(obj, size)
            padded = b"\xff" * 3 + blob + b"\xff" * 2
            view = memoryview(padded)[3 : 3 + len(blob)]
            assert decode_payload(view) == decode_payload(blob)


class TestFrameParity:
    def test_finish_frame_matches_legacy_frame_bytes(self, ledger_corpus):
        for obj, size in zip(ledger_corpus, _sizes(ledger_corpus)):
            buf = new_frame_buffer()
            encode_payload_into(buf, obj, size)
            body = bytes(buf[12:])
            finished = finish_frame(buf, FrameType.DATA)
            assert bytes(finished) == _legacy_encode_frame(FrameType.DATA, body)
            assert bytes(finished) == encode_frame(FrameType.DATA, body)

    def test_empty_frame_parity(self):
        for ftype in (FrameType.SYNC, FrameType.EOS, FrameType.CREDIT):
            assert encode_frame(ftype) == _legacy_encode_frame(ftype)
            assert bytes(finish_frame(new_frame_buffer(), ftype)) == (
                _legacy_encode_frame(ftype)
            )


class TestWireParity:
    def test_summary_wire_bytes_are_identical(self, ledger_corpus):
        records = []
        for obj in ledger_corpus:
            rec = _summary_record(obj)
            if rec is not None:
                records.append((rec[1], rec[2]))
        assert records
        for pairs, items_seen in records:
            new = encode_summary(pairs, items_seen=items_seen)
            assert new == _legacy_encode_summary(pairs, items_seen)
            assert decode_summary(new) == (list(pairs), items_seen)
        batch = encode_summary_batch(records)
        assert batch == _legacy_encode_summary_batch(records)
        assert decode_summary_batch(batch) == [
            (list(p), s) for p, s in records
        ]
