"""Frame codec tests: round-trips, error classes, and fuzzing.

The FrameDecoder is the single parsing path for every socket in
``repro.net``, so these tests hammer it with arbitrary chunk alignments,
mutated headers, and random garbage — a framing error must always
surface as :class:`ProtocolError`, never as a hang, an unbounded buffer,
or a stray ``struct.error``.
"""

import json
import random
import struct
import timeit

import pytest

from repro.net.protocol import (
    FRAME_HEADER_BYTES,
    MAX_PAYLOAD,
    Frame,
    FrameDecoder,
    FrameType,
    ProtocolError,
    decode_json,
    decode_payload,
    decode_payload_batch,
    encode_frame,
    encode_json,
    is_batch_payload,
)
from tests.net.payloads import payload, payload_batch


def frame_of(ftype=FrameType.DATA, payload=b"hello"):
    return encode_frame(ftype, payload)


def min_seconds(fn, number=100):
    """Best of five ``timeit`` runs: the least noisy cost of ``fn``."""
    return min(timeit.repeat(fn, repeat=5, number=number))


class TestFrameRoundTrip:
    @pytest.mark.parametrize("ftype", list(FrameType))
    def test_every_type_round_trips(self, ftype):
        payload = encode_json({"type": ftype.name})
        frames = FrameDecoder().feed(encode_frame(ftype, payload))
        assert frames == [Frame(type=ftype, payload=payload)]

    def test_empty_payload(self):
        frames = FrameDecoder().feed(encode_frame(FrameType.SYNC))
        assert frames == [Frame(type=FrameType.SYNC, payload=b"")]

    def test_byte_at_a_time_feeding(self):
        wire = frame_of(payload=b"x" * 100)
        decoder = FrameDecoder()
        collected = []
        for i in range(len(wire)):
            collected += decoder.feed(wire[i:i + 1])
        assert len(collected) == 1
        assert collected[0].payload == b"x" * 100
        assert decoder.pending_bytes == 0

    def test_many_frames_in_one_chunk(self):
        wire = b"".join(
            encode_frame(FrameType.DATA, str(i).encode()) for i in range(50)
        )
        frames = FrameDecoder().feed(wire)
        assert [f.payload for f in frames] == [str(i).encode() for i in range(50)]

    def test_split_across_frame_boundary(self):
        wire = frame_of(payload=b"one") + frame_of(payload=b"two")
        cut = len(frame_of(payload=b"one")) + 5
        decoder = FrameDecoder()
        first = decoder.feed(wire[:cut])
        second = decoder.feed(wire[cut:])
        assert [f.payload for f in first + second] == [b"one", b"two"]

    def test_pending_bytes_reports_partial_frame(self):
        decoder = FrameDecoder()
        decoder.feed(frame_of(payload=b"abcdef")[:FRAME_HEADER_BYTES + 2])
        assert decoder.pending_bytes == FRAME_HEADER_BYTES + 2


class TestFrameErrors:
    def test_bad_magic(self):
        wire = bytearray(frame_of())
        wire[0:2] = b"XX"
        with pytest.raises(ProtocolError, match="magic"):
            FrameDecoder().feed(bytes(wire))

    def test_bad_version(self):
        wire = bytearray(frame_of())
        wire[2] = 99
        with pytest.raises(ProtocolError, match="version 99"):
            FrameDecoder().feed(bytes(wire))

    def test_unknown_frame_type(self):
        wire = bytearray(frame_of())
        wire[3] = 200
        with pytest.raises(ProtocolError, match="unknown frame type 200"):
            FrameDecoder().feed(bytes(wire))

    def test_oversized_declared_length(self):
        wire = bytearray(frame_of())
        struct.pack_into("<I", wire, 4, MAX_PAYLOAD + 1)
        with pytest.raises(ProtocolError, match="MAX_PAYLOAD"):
            FrameDecoder().feed(bytes(wire))

    def test_crc_mismatch_on_corrupt_payload(self):
        wire = bytearray(frame_of(payload=b"payload"))
        wire[-1] ^= 0xFF
        with pytest.raises(ProtocolError, match="CRC"):
            FrameDecoder().feed(bytes(wire))

    def test_encode_rejects_oversized_payload(self):
        class HugeBytes(bytes):
            def __len__(self):
                return MAX_PAYLOAD + 1

        with pytest.raises(ProtocolError, match="exceeds MAX_PAYLOAD"):
            encode_frame(FrameType.DATA, HugeBytes())


class TestFrameFuzz:
    def test_random_garbage_never_hangs_or_leaks_exceptions(self):
        rng = random.Random(0xBEEF)
        for _ in range(300):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
            decoder = FrameDecoder()
            try:
                frames = decoder.feed(blob)
            except ProtocolError:
                continue
            # No error: either nothing parsed yet, or the garbage
            # happened to be well-formed (header is 12 structured bytes,
            # so this is astronomically unlikely but legal).
            assert decoder.pending_bytes <= len(blob)
            for frame in frames:
                assert isinstance(frame.type, FrameType)

    def test_single_byte_mutations_of_valid_frames(self):
        rng = random.Random(42)
        original = encode_frame(FrameType.DATA, b"some test payload")
        for _ in range(300):
            wire = bytearray(original)
            pos = rng.randrange(len(wire))
            bit = 1 << rng.randrange(8)
            wire[pos] ^= bit
            decoder = FrameDecoder()
            try:
                frames = decoder.feed(bytes(wire))
            except ProtocolError:
                continue
            if frames:
                # Only a type-byte flip landing on another valid type can
                # survive with the CRC intact; the payload is untouched.
                assert pos == 3
                assert [f.payload for f in frames] == [b"some test payload"]
            else:
                # Length-field flip: the decoder waits for more bytes.
                assert 4 <= pos < 8

    def test_truncations_never_produce_frames(self):
        wire = encode_frame(FrameType.RESULT, encode_json({"k": "v"}))
        for cut in range(len(wire)):
            decoder = FrameDecoder()
            assert decoder.feed(wire[:cut]) == []
            assert decoder.pending_bytes == cut


class TestJsonPayloads:
    def test_round_trip(self):
        body = {"stage": "join", "nested": {"a": [1, 2, 3]}, "x": 1.5}
        assert decode_json(encode_json(body)) == body

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_json(b"[1,2,3]")

    def test_malformed_utf8_rejected(self):
        with pytest.raises(ProtocolError, match="malformed JSON"):
            decode_json(b"\xff\xfe{}")


class TestDataPayloadCodec:
    def test_int_round_trips_via_fixed_layout(self):
        data = payload(12345, 8.0)
        assert data[0] == 1  # _PAYLOAD_INT tag
        assert decode_payload(data) == (12345, 8.0)

    def test_int_boundaries(self):
        for value in (-(1 << 63), (1 << 63) - 1, 0, -1):
            obj, size = decode_payload(payload(value, 4.0))
            assert obj == value

    def test_oversized_int_falls_back_to_json(self):
        huge = 1 << 70
        data = payload(huge, 8.0)
        assert data[0] == 0  # _PAYLOAD_JSON tag
        assert decode_payload(data) == (huge, 8.0)

    def test_bool_is_not_confused_with_int(self):
        obj, _ = decode_payload(payload(True, 1.0))
        assert obj is True

    def test_summary_rides_the_compact_wire_codec(self):
        summary = {
            "source": "filter-0",
            "pairs": [(7, 3), (1, 2)],
            "items_seen": 11,
        }
        data = payload(summary, 24.0)
        assert data[0] == 2  # _PAYLOAD_SUMMARY tag
        obj, size = decode_payload(data)
        assert size == 24.0
        assert obj["source"] == "filter-0"
        assert obj["items_seen"] == 11
        assert [tuple(p) for p in obj["pairs"]] == [(7, 3), (1, 2)]

    def test_summary_shaped_dict_with_extra_keys_goes_json(self):
        almost = {"source": "s", "pairs": [], "items_seen": 0, "extra": 1}
        assert payload(almost, 1.0)[0] == 0

    def test_declared_size_is_preserved_not_recomputed(self):
        data = payload({"big": "x" * 1000}, 12.0)
        _, size = decode_payload(data)
        assert size == 12.0
        assert len(data) > 1000  # encoded bytes dwarf the declared size

    def test_unencodable_object_raises(self):
        with pytest.raises(ProtocolError, match="not wire-encodable"):
            payload(object(), 8.0)

    def test_truncated_payload_raises(self):
        with pytest.raises(ProtocolError, match="too short"):
            decode_payload(b"\x02\x00")

    def test_unknown_codec_tag_raises(self):
        blob = bytes([9]) + struct.pack("<d", 1.0) + b"body"
        with pytest.raises(ProtocolError, match="codec tag 9"):
            decode_payload(blob)

    def test_payload_codec_fuzz(self):
        rng = random.Random(7)
        for _ in range(200):
            good = payload(
                {"k": rng.randrange(1000)}, float(rng.randrange(64))
            )
            blob = bytearray(good)
            blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            try:
                obj, size = decode_payload(bytes(blob))
            except ProtocolError:
                continue
            # Surviving mutations must still yield a well-typed result.
            json.dumps(obj)
            assert isinstance(size, float)


def summary_of(source, pairs, items_seen):
    return {"source": source, "pairs": pairs, "items_seen": items_seen}


class TestBatchPayloadCodec:
    """Batched DATA payloads: several items behind one frame."""

    MIXED = [
        (42, 8.0),
        ({"k": "v", "n": [1, 2]}, 16.0),
        (summary_of("filter-0", [(7, 3)], 11), 24.0),
        ("text", 4.0),
    ]
    SUMMARIES = [
        (summary_of("filter-0", [(7, 3), (1, 2)], 11), 24.0),
        (summary_of("filter-1", [], 0), 12.0),
        (summary_of("join", [(-5, 1)], 6), 12.0),
    ]

    def test_mixed_batch_round_trips_via_generic_tag(self):
        data = payload_batch(self.MIXED)
        assert data[0] == 3  # _PAYLOAD_BATCH tag
        decoded = decode_payload_batch(data)
        assert decoded[0] == (42, 8.0)
        assert decoded[1] == ({"k": "v", "n": [1, 2]}, 16.0)
        assert decoded[3] == ("text", 4.0)
        obj, size = decoded[2]
        assert size == 24.0
        assert obj["source"] == "filter-0"
        assert [tuple(p) for p in obj["pairs"]] == [(7, 3)]

    def test_all_summary_batch_takes_the_compact_tag(self):
        data = payload_batch(self.SUMMARIES)
        assert data[0] == 4  # _PAYLOAD_SUMMARY_BATCH tag
        decoded = decode_payload_batch(data)
        assert [size for _, size in decoded] == [24.0, 12.0, 6.0 * 2]
        for (obj, _), (want, _) in zip(decoded, self.SUMMARIES):
            assert obj["source"] == want["source"]
            assert obj["items_seen"] == want["items_seen"]
            assert [tuple(p) for p in obj["pairs"]] == [
                tuple(p) for p in want["pairs"]
            ]

    def test_summary_batch_is_smaller_than_generic_framing(self):
        compact = payload_batch(self.SUMMARIES)
        # The generic batch would carry each item's single encoding behind
        # a uint32 length prefix, after the tag byte and uint32 count.
        generic = 1 + 4 + sum(
            4 + len(payload(obj, size)) for obj, size in self.SUMMARIES
        )
        assert len(compact) < generic

    def test_single_item_batch_round_trips(self):
        decoded = decode_payload_batch(payload_batch([(7, 8.0)]))
        assert decoded == [(7, 8.0)]

    def test_is_batch_payload_discriminates(self):
        assert is_batch_payload(payload_batch(self.MIXED))
        assert is_batch_payload(payload_batch(self.SUMMARIES))
        assert not is_batch_payload(payload(42, 8.0))
        assert not is_batch_payload(payload(self.SUMMARIES[0][0], 24.0))
        assert not is_batch_payload(b"")

    def test_empty_batch_rejected(self):
        with pytest.raises(ProtocolError, match="empty payload batch"):
            payload_batch([])

    def test_unencodable_item_raises(self):
        with pytest.raises(ProtocolError, match="not wire-encodable"):
            payload_batch([(1, 8.0), (object(), 8.0)])

    def test_truncated_batch_raises(self):
        good = payload_batch(self.MIXED)
        for cut in range(1, len(good)):
            with pytest.raises(ProtocolError):
                decode_payload_batch(good[:cut])

    def test_truncated_summary_batch_raises(self):
        good = payload_batch(self.SUMMARIES)
        for cut in range(1, len(good)):
            with pytest.raises(ProtocolError):
                decode_payload_batch(good[:cut])

    def test_trailing_bytes_rejected(self):
        good = payload_batch(self.MIXED)
        with pytest.raises(ProtocolError, match="trailing bytes"):
            decode_payload_batch(good + b"\x00")

    def test_count_mismatch_in_summary_batch(self):
        # Declare one more record than the wire blob carries.
        good = bytearray(payload_batch(self.SUMMARIES))
        (count,) = struct.unpack_from("<I", good, 1)
        struct.pack_into("<I", good, 1, count + 1)
        with pytest.raises(ProtocolError):
            decode_payload_batch(bytes(good))

    def test_unknown_batch_tag_raises(self):
        blob = bytes([9]) + struct.pack("<I", 1) + b"body"
        with pytest.raises(ProtocolError, match="codec tag 9"):
            decode_payload_batch(blob)

    def test_batch_payload_fuzz(self):
        rng = random.Random(0xB47C)
        for _ in range(200):
            items = [
                ({"k": rng.randrange(1000)}, float(rng.randrange(64)))
                for _ in range(rng.randrange(1, 6))
            ]
            blob = bytearray(payload_batch(items))
            blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            try:
                decoded = decode_payload_batch(bytes(blob))
            except ProtocolError:
                continue
            for obj, size in decoded:
                json.dumps(obj)
                assert isinstance(size, float)

    def test_summary_batch_fuzz(self):
        rng = random.Random(0x5B47)
        for _ in range(200):
            items = [
                (
                    summary_of(
                        f"s{rng.randrange(10)}",
                        [(rng.randrange(100), rng.randrange(10))],
                        rng.randrange(1000),
                    ),
                    float(rng.randrange(64)),
                )
                for _ in range(rng.randrange(1, 5))
            ]
            blob = bytearray(payload_batch(items))
            blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            try:
                decoded = decode_payload_batch(bytes(blob))
            except ProtocolError:
                continue
            except UnicodeDecodeError:
                continue  # strict utf-8 source names reject mangled bytes
            for obj, size in decoded:
                json.dumps(obj)
                assert isinstance(size, float)


class TestIntBatchPayloadCodec:
    """All-int64 batches ride the vectorized tag-5 layout."""

    INTS = [(42, 8.0), (-7, 16.0), (0, 0.0), ((1 << 63) - 1, 8.0), (-(1 << 63), 8.0)]

    def test_all_int_batch_takes_the_vectorized_tag(self):
        data = payload_batch(self.INTS)
        assert data[0] == 5  # _PAYLOAD_INT_BATCH tag
        assert is_batch_payload(data)
        assert decode_payload_batch(data) == self.INTS

    def test_int_batch_is_smaller_than_generic_framing(self):
        compact = payload_batch(self.INTS)
        generic = 1 + 4 + sum(
            4 + len(payload(obj, size)) for obj, size in self.INTS
        )
        assert len(compact) < generic

    def test_bool_items_force_the_generic_tag(self):
        data = payload_batch([(1, 8.0), (True, 8.0)])
        assert data[0] == 3  # bools keep their single-item JSON encoding
        assert decode_payload_batch(data) == [(1, 8.0), (True, 8.0)]

    def test_oversized_int_forces_the_generic_tag(self):
        items = [(1, 8.0), (1 << 63, 8.0)]
        data = payload_batch(items)
        assert data[0] == 3  # beyond int64 → per-item JSON fallback
        assert decode_payload_batch(data) == items

    def test_int_subclass_forces_the_generic_tag(self):
        class MyInt(int):
            pass

        data = payload_batch([(MyInt(5), 8.0), (6, 8.0)])
        assert data[0] == 3
        assert decode_payload_batch(data) == [(5, 8.0), (6, 8.0)]

    def test_truncated_int_batch_raises(self):
        good = payload_batch(self.INTS)
        for cut in range(1, len(good)):
            with pytest.raises(ProtocolError):
                decode_payload_batch(good[:cut])

    def test_trailing_bytes_in_int_batch_raise(self):
        good = payload_batch(self.INTS)
        with pytest.raises(ProtocolError, match="int batch"):
            decode_payload_batch(good + b"\x00")

    def test_int_batch_decodes_from_memoryview_slice(self):
        good = payload_batch(self.INTS)
        padded = b"\xff" * 3 + good + b"\xff" * 2
        view = memoryview(padded)[3 : 3 + len(good)]
        assert decode_payload_batch(view) == self.INTS

    def test_int_batch_is_no_slower_than_single_items(self):
        # The whole point of the vectorized layout: a 32-int batch must
        # round-trip at least as fast per item as 32 single-item payloads
        # (about 220 vs 870 ns/item on a 2-vCPU Xeon VM).
        items = [(value, 8.0) for value in range(32)]

        def batched():
            decode_payload_batch(payload_batch(items))

        def single():
            for obj, size in items:
                decode_payload(payload(obj, size))

        assert min_seconds(batched) <= min_seconds(single)

    def test_int_batch_fuzz(self):
        rng = random.Random(0x17B5)
        for _ in range(200):
            items = [
                (rng.randrange(-(1 << 63), 1 << 63), float(rng.randrange(64)))
                for _ in range(rng.randrange(1, 9))
            ]
            blob = bytearray(payload_batch(items))
            assert blob[0] == 5
            blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            try:
                decoded = decode_payload_batch(bytes(blob))
            except ProtocolError:
                continue
            for obj, size in decoded:
                assert isinstance(obj, (int, dict, list, str, float, bool, type(None)))
                assert isinstance(size, float)


class TestDecoderPoisoning:
    """After a framing error the decoder must refuse further bytes.

    A framed TCP stream cannot be resynchronised once the length field is
    untrusted — feeding more data would parse garbage at an arbitrary
    offset.  The decoder therefore latches poisoned and the caller drops
    the connection.
    """

    def test_feed_after_bad_magic_raises(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="magic"):
            decoder.feed(b"XX" + bytes(FRAME_HEADER_BYTES - 2))
        with pytest.raises(ProtocolError, match="poisoned"):
            decoder.feed(frame_of())

    def test_feed_after_crc_error_raises_even_for_empty_feed(self):
        wire = bytearray(frame_of(payload=b"checksummed"))
        wire[-1] ^= 0xFF
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="CRC"):
            decoder.feed(bytes(wire))
        with pytest.raises(ProtocolError, match="poisoned"):
            decoder.feed(b"")

    def test_feed_after_oversized_length_raises(self):
        header = struct.pack(
            "<2sBBII", b"GS", 1, int(FrameType.DATA), MAX_PAYLOAD + 1, 0
        )
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="exceeds"):
            decoder.feed(header)
        with pytest.raises(ProtocolError, match="poisoned"):
            decoder.feed(frame_of())

    def test_frames_parsed_before_the_error_are_kept(self):
        decoder = FrameDecoder()
        good = decoder.feed(frame_of(payload=b"ok"))
        assert [f.payload for f in good] == [b"ok"]
        bad = bytearray(frame_of())
        bad[0] = 0
        with pytest.raises(ProtocolError):
            decoder.feed(bytes(bad))

    def test_fresh_decoder_is_not_poisoned(self):
        decoder = FrameDecoder()
        assert decoder.feed(frame_of()) != []


class TestDecoderChunking:
    """Zero-copy buffering across arbitrary chunk boundaries."""

    def test_every_split_inside_the_header(self):
        wire = frame_of(payload=b"p" * 37)
        for cut in range(1, FRAME_HEADER_BYTES):
            decoder = FrameDecoder()
            assert decoder.feed(wire[:cut]) == []
            assert decoder.pending_bytes == cut
            frames = decoder.feed(wire[cut:])
            assert [f.payload for f in frames] == [b"p" * 37]
            assert decoder.pending_bytes == 0

    def test_zero_length_payloads_back_to_back_in_one_feed(self):
        wire = b"".join(
            encode_frame(FrameType.SYNC if i % 2 else FrameType.CREDIT)
            for i in range(64)
        )
        frames = FrameDecoder().feed(wire)
        assert len(frames) == 64
        assert all(f.payload == b"" for f in frames)

    def test_mixed_frames_in_one_feed_preserve_order(self):
        payloads = [b"", b"x", b"y" * 300, b"", b"z" * 7]
        wire = b"".join(encode_frame(FrameType.DATA, p) for p in payloads)
        frames = FrameDecoder().feed(wire)
        assert [f.payload for f in frames] == payloads

    def test_random_chunking_of_many_frames(self):
        rng = random.Random(613)
        payloads = [
            bytes(rng.randrange(256) for _ in range(rng.choice([0, 1, 7, 64, 300])))
            for _ in range(100)
        ]
        wire = b"".join(encode_frame(FrameType.DATA, p) for p in payloads)
        decoder = FrameDecoder()
        out = []
        i = 0
        while i < len(wire):
            step = rng.randrange(1, 97)
            out.extend(decoder.feed(wire[i : i + step]))
            i += step
        assert [f.payload for f in out] == payloads
        assert decoder.pending_bytes == 0

    def test_compaction_threshold_crossing(self):
        # ~260 KiB of frames through 1000-byte feeds forces the internal
        # buffer past the compaction threshold several times; payloads
        # must come out intact (no aliasing with the compacted buffer).
        payload = bytes(range(256)) * 16  # 4 KiB
        wire = encode_frame(FrameType.DATA, payload) * 64
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(wire), 1000):
            out.extend(decoder.feed(wire[i : i + 1000]))
        assert len(out) == 64
        assert all(f.payload == payload for f in out)
        assert decoder.pending_bytes == 0

    def test_feed_accepts_bytearray_and_memoryview(self):
        wire = frame_of(payload=b"views")
        half = len(wire) // 2
        decoder = FrameDecoder()
        assert decoder.feed(bytearray(wire[:half])) == []
        frames = decoder.feed(memoryview(wire)[half:])
        assert [f.payload for f in frames] == [b"views"]
