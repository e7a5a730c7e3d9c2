"""Tests for the summary wire encoding."""

import timeit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams.wire import (
    BATCH_HEADER_BYTES,
    HEADER_BYTES,
    PAIR_BYTES,
    WireError,
    decode_summary,
    decode_summary_batch,
    encode_summary,
    encode_summary_batch,
    summary_wire_size,
)


class TestEncodeDecode:
    def test_round_trip(self):
        pairs = [(5, 100), (-3, 2), (2**40, 1)]
        data = encode_summary(pairs, items_seen=1234)
        decoded, items_seen = decode_summary(data)
        assert decoded == pairs
        assert items_seen == 1234

    def test_empty_summary(self):
        data = encode_summary([], items_seen=0)
        assert len(data) == HEADER_BYTES
        assert decode_summary(data) == ([], 0)

    def test_length_matches_wire_size(self):
        pairs = [(i, i) for i in range(17)]
        assert len(encode_summary(pairs)) == summary_wire_size(17)

    def test_pair_bytes_is_twelve(self):
        # The evaluation's "12 bytes per pair" is this exact layout.
        assert PAIR_BYTES == 12

    def test_non_int_value_rejected(self):
        with pytest.raises(WireError):
            encode_summary([("a", 1)])
        with pytest.raises(WireError):
            encode_summary([(True, 1)])

    def test_count_out_of_range_rejected(self):
        with pytest.raises(WireError):
            encode_summary([(1, -1)])
        with pytest.raises(WireError):
            encode_summary([(1, 2**32)])

    def test_negative_items_seen_rejected(self):
        with pytest.raises(WireError):
            encode_summary([], items_seen=-1)

    def test_corrupt_data_rejected(self):
        good = encode_summary([(1, 2)], items_seen=3)
        with pytest.raises(WireError):
            decode_summary(good[:-1])          # truncated body
        with pytest.raises(WireError):
            decode_summary(good[:5])           # truncated header
        with pytest.raises(WireError):
            decode_summary(b"\x00" + good[1:])  # bad magic
        bad_version = bytearray(good)
        bad_version[1] = 99
        with pytest.raises(WireError):
            decode_summary(bytes(bad_version))

    def test_wire_size_validation(self):
        with pytest.raises(WireError):
            summary_wire_size(-1)


class TestDecodeFailureClasses:
    """Each corruption class is rejected with its own distinct error."""

    def _good(self):
        return encode_summary([(7, 3), (-2, 9)], items_seen=42)

    def test_truncated_header(self):
        good = self._good()
        for cut in range(HEADER_BYTES):
            with pytest.raises(WireError, match="truncated header"):
                decode_summary(good[:cut])

    def test_bad_magic(self):
        good = self._good()
        with pytest.raises(WireError, match="bad magic"):
            decode_summary(b"\xa8" + good[1:])

    def test_bad_version(self):
        bad = bytearray(self._good())
        bad[1] = 99
        with pytest.raises(WireError, match="unsupported wire version 99"):
            decode_summary(bytes(bad))

    def test_truncated_body(self):
        good = self._good()
        for cut in range(HEADER_BYTES, len(good)):
            with pytest.raises(WireError, match="truncated body"):
                decode_summary(good[:cut])

    def test_trailing_bytes_rejected(self):
        good = self._good()
        with pytest.raises(WireError, match="trailing bytes"):
            decode_summary(good + b"\x00")
        with pytest.raises(WireError, match="trailing bytes"):
            decode_summary(good + good)

    def test_count_mismatch_declared_pairs_exceed_body(self):
        # Header says 1000 pairs but the body only carries two.
        bad = bytearray(self._good())
        import struct

        struct.pack_into("<I", bad, 2, 1000)
        with pytest.raises(WireError, match="declared pair count 1000"):
            decode_summary(bytes(bad))

    def test_count_mismatch_declared_pairs_below_body(self):
        # Header says 1 pair; the second pair becomes trailing garbage.
        bad = bytearray(self._good())
        import struct

        struct.pack_into("<I", bad, 2, 1)
        with pytest.raises(WireError, match="trailing bytes"):
            decode_summary(bytes(bad))


class TestEncodeRangeChecks:
    def test_items_seen_uint64_overflow_rejected(self):
        with pytest.raises(WireError, match="uint64"):
            encode_summary([], items_seen=2**64)
        # Top of the range is still fine.
        _, seen = decode_summary(encode_summary([], items_seen=2**64 - 1))
        assert seen == 2**64 - 1

    def test_value_int64_overflow_rejected(self):
        with pytest.raises(WireError, match="int64"):
            encode_summary([(2**63, 1)])
        with pytest.raises(WireError, match="int64"):
            encode_summary([(-(2**63) - 1, 1)])
        decoded, _ = decode_summary(encode_summary([(2**63 - 1, 1), (-(2**63), 1)]))
        assert decoded == [(2**63 - 1, 1), (-(2**63), 1)]

    def test_encoded_length_always_matches_wire_size(self):
        for n in (0, 1, 17, 128):
            pairs = [(i, i + 1) for i in range(n)]
            assert len(encode_summary(pairs)) == summary_wire_size(n)


class TestSummaryBatch:
    """The batch container for coalesced summary DATA frames."""

    RECORDS = [
        ([(5, 100), (-3, 2)], 7),
        ([], 0),
        ([(2**40, 1)], 2**63),
    ]

    def test_round_trip(self):
        data = encode_summary_batch(self.RECORDS)
        assert decode_summary_batch(data) == self.RECORDS

    def test_empty_batch_round_trips(self):
        data = encode_summary_batch([])
        assert len(data) == BATCH_HEADER_BYTES
        assert decode_summary_batch(data) == []

    def test_overhead_is_one_batch_header(self):
        # Records are self-delimiting: batching N summaries costs exactly
        # BATCH_HEADER_BYTES more than sending them back to back.
        data = encode_summary_batch(self.RECORDS)
        singles = sum(
            len(encode_summary(pairs, seen)) for pairs, seen in self.RECORDS
        )
        assert len(data) == BATCH_HEADER_BYTES + singles

    def test_bad_record_surfaces_the_encode_error(self):
        with pytest.raises(WireError, match="int64"):
            encode_summary_batch([([(2**63, 1)], 0)])

    def test_truncated_batch_header(self):
        good = encode_summary_batch(self.RECORDS)
        for cut in range(BATCH_HEADER_BYTES):
            with pytest.raises(WireError, match="truncated batch header"):
                decode_summary_batch(good[:cut])

    def test_bad_batch_magic(self):
        good = encode_summary_batch(self.RECORDS)
        # 0xA7 is the single-summary magic; it must not decode as a batch.
        with pytest.raises(WireError, match="bad batch magic"):
            decode_summary_batch(b"\xa7" + good[1:])

    def test_bad_batch_version(self):
        bad = bytearray(encode_summary_batch(self.RECORDS))
        bad[1] = 99
        with pytest.raises(WireError, match="unsupported batch wire version"):
            decode_summary_batch(bytes(bad))

    def test_truncated_record(self):
        good = encode_summary_batch(self.RECORDS)
        for cut in range(BATCH_HEADER_BYTES + 1, len(good)):
            with pytest.raises(WireError, match="truncated record"):
                decode_summary_batch(good[:cut])

    def test_trailing_bytes_rejected(self):
        good = encode_summary_batch(self.RECORDS)
        with pytest.raises(WireError, match="trailing bytes"):
            decode_summary_batch(good + b"\x00")

    def test_declared_count_above_records_rejected(self):
        import struct

        bad = bytearray(encode_summary_batch(self.RECORDS))
        struct.pack_into("<I", bad, 2, 1000)
        with pytest.raises(WireError, match="truncated record"):
            decode_summary_batch(bytes(bad))

    def test_declared_count_below_records_rejected(self):
        import struct

        bad = bytearray(encode_summary_batch(self.RECORDS))
        struct.pack_into("<I", bad, 2, 1)
        with pytest.raises(WireError, match="trailing bytes"):
            decode_summary_batch(bytes(bad))

    def test_batch_is_no_slower_than_single_summaries(self):
        # A 32-record batch must round-trip at least as fast per record as
        # 32 single summaries (about 2.5 vs 3.2 us/record on a 2-vCPU Xeon
        # VM); equality would mean it degenerated into a per-record loop.
        record = ([(value, value + 1) for value in range(8)], 100)
        records = [record] * 32

        def batched():
            decode_summary_batch(encode_summary_batch(records))

        def single():
            for pairs, items_seen in records:
                decode_summary(encode_summary(pairs, items_seen))

        def best(fn):
            return min(timeit.repeat(fn, repeat=5, number=100))

        assert best(batched) <= best(single)

    def test_bit_flip_fuzz_never_crashes(self):
        import random

        rng = random.Random(0xA8)
        good = encode_summary_batch(self.RECORDS)
        for _ in range(300):
            mutated = bytearray(good)
            bit = rng.randrange(len(mutated) * 8)
            mutated[bit // 8] ^= 1 << (bit % 8)
            try:
                records = decode_summary_batch(bytes(mutated))
            except WireError:
                continue
            # Survivors must still be well-typed (pairs, items_seen) rows.
            for pairs, items_seen in records:
                assert isinstance(items_seen, int) and items_seen >= 0
                for value, count in pairs:
                    assert isinstance(value, int)
                    assert isinstance(count, int) and count >= 0

    @given(
        records=st.lists(
            st.tuples(
                st.lists(
                    st.tuples(
                        st.integers(min_value=-(2**62), max_value=2**62),
                        st.integers(min_value=0, max_value=2**32 - 1),
                    ),
                    max_size=8,
                ),
                st.integers(min_value=0, max_value=2**63),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_any_records(self, records):
        assert decode_summary_batch(encode_summary_batch(records)) == records


class TestWireProperties:
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=-(2**62), max_value=2**62),
                st.integers(min_value=0, max_value=2**32 - 1),
            ),
            max_size=100,
        ),
        items_seen=st.integers(min_value=0, max_value=2**63),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_any_pairs(self, pairs, items_seen):
        decoded, seen = decode_summary(encode_summary(pairs, items_seen))
        assert decoded == pairs
        assert seen == items_seen

    @given(n=st.integers(min_value=0, max_value=500))
    def test_size_formula(self, n):
        pairs = [(i, 1) for i in range(n)]
        assert len(encode_summary(pairs)) == HEADER_BYTES + n * PAIR_BYTES
