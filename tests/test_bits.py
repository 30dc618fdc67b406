import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmemcheck.bits import (
    as_bits,
    check_positions,
    flip_rows,
    hamming_distance,
    pack_rows,
    read_rows,
    unpack_rows,
    word_count,
)
from qmemcheck.code import HadamardCode

PACKED_LENGTHS = [1, 5, 8, 63, 64, 65, 130, 256]  # one partial word, whole words, a word and a bit


class TestAsBits:
    def test_from_string(self):
        got = as_bits("0101")
        assert got.dtype == np.uint8
        assert got.tolist() == [0, 1, 0, 1]

    def test_from_list_and_array(self):
        assert as_bits([1, 0, 1]).tolist() == [1, 0, 1]
        arr = np.array([1, 0], dtype=np.int64)
        assert as_bits(arr).tolist() == [1, 0]

    def test_from_bool_array(self):
        assert as_bits(np.array([True, False])).tolist() == [1, 0]

    def test_returns_fresh_copy(self):
        src = np.array([1, 0, 1], dtype=np.uint8)
        out = as_bits(src)
        out[0] = 0
        assert src[0] == 1

    @pytest.mark.parametrize("bad", ["", "012", "ab"])
    def test_rejects_bad_strings(self, bad):
        with pytest.raises(ValueError):
            as_bits(bad)

    @pytest.mark.parametrize("bad", [[], [2], [0, -1], [[0, 1]], [0.5]])
    def test_rejects_bad_sequences(self, bad):
        with pytest.raises(ValueError):
            as_bits(bad)

    def test_rejects_uint8_out_of_range(self):
        with pytest.raises(ValueError):
            as_bits(np.array([0, 7], dtype=np.uint8))

    def test_error_mentions_name(self):
        with pytest.raises(ValueError, match="message"):
            as_bits("21", name="message")


class TestIntConversions:
    # an integer x is the n-bit message as_bits(f"{x:0{n}b}"), and a bit vector reads back
    # as "".join of its entries

    def test_msb_first(self):
        # first entry is the most significant bit
        assert int("".join(map(str, as_bits("101"))), 2) == 5
        assert as_bits(f"{5:03b}").tolist() == [1, 0, 1]

    def test_width_bounds(self):
        # a value past the width formats one bit too long, and a negative one with a sign
        code = HadamardCode(3)
        with pytest.raises(ValueError, match="message length 4 != n=3"):
            code.encode(f"{8:03b}")
        with pytest.raises(ValueError, match="0s and 1s"):
            code.encode(f"{-1:03b}")

    @given(st.integers(min_value=0, max_value=2**12 - 1))
    def test_round_trip(self, value):
        assert int("".join(map(str, as_bits(f"{value:012b}"))), 2) == value

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=16))
    def test_str_round_trip(self, bits):
        s = "".join(map(str, as_bits(bits)))
        assert as_bits(s).tolist() == bits


class TestCheckPositions:
    @pytest.mark.parametrize("values", [True, 2.0, "1", [1.5], [0.7], ["1"], [True], [np.True_], [None], [0, 1.0]])
    def test_non_integers_rejected(self, values):
        with pytest.raises(TypeError, match="^pos: expected integers"):
            check_positions(values, 8, name="pos")

    # entries past 64 bits reach numpy as object or float64 arrays, yet are integers out of range
    @pytest.mark.parametrize("values", [8, -1, [0, 8], [2, -1], np.array([2**63], dtype=np.uint64), 2**64, [1, 2**70], [-1, 2**63]])
    def test_out_of_range_rejected(self, values):
        with pytest.raises(IndexError, match=r"^pos out of range \[0, 8\)$"):
            check_positions(values, 8, name="pos")

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8, np.uint64])
    def test_numpy_integers_accepted(self, dtype):
        out = check_positions(np.array([[7, 0], [3, 1]], dtype=dtype), 8, name="pos")
        assert out.dtype == np.int64 and out.tolist() == [[7, 0], [3, 1]]
        assert check_positions(dtype(5), 8, name="pos") == 5

    def test_empty_and_scalar(self):
        # np.asarray([]) is float64, but an empty list names no position at all
        out = check_positions([], 8, name="pos")
        assert out.dtype == np.int64 and out.shape == (0,)
        out = check_positions(3, 8, name="pos")
        assert out.dtype == np.int64 and out.shape == () and out == 3

    def test_int64_arrays_are_not_copied(self):
        positions = np.arange(8)
        assert check_positions(positions, 8, name="pos") is positions


class TestHamming:
    def test_known_distance(self):
        assert hamming_distance(as_bits("0101"), as_bits("0110")) == 2

    def test_zero_on_equal(self):
        a = as_bits("110")
        assert hamming_distance(a, a) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(as_bits("01"), as_bits("011"))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=32))
    def test_complement_is_full_length(self, bits):
        a = as_bits(bits)
        assert hamming_distance(a, 1 - a) == len(bits)


@pytest.mark.parametrize("m", PACKED_LENGTHS)
def test_packed_rows_layout(m):
    # position a is bit a & 63 of word a >> 6, and every padding bit is zero
    bits = np.random.default_rng(m).integers(0, 2, size=(3, m), dtype=np.uint8)
    words = pack_rows(bits)
    assert words.dtype == np.uint64 and words.shape == (3, word_count(m))
    assert np.array_equal(unpack_rows(words, m), bits)
    positions = np.tile(np.arange(m), (3, 1))
    assert np.array_equal(read_rows(words, positions), bits)
    expected = sum(int(b) << a for a, b in enumerate(bits[0]))
    assert sum(int(w) << (64 * i) for i, w in enumerate(words[0])) == expected


@given(st.sampled_from(PACKED_LENGTHS), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_packed_flips_equal_byte_flips(m, rows, data):
    # sorted distinct positions per row, up to every position, so many share a word
    count = data.draw(st.sampled_from([0, 1, min(2, m), m // 2, m]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cols = np.sort([rng.permutation(m)[:count] for _ in range(rows)], axis=1).reshape(rows, count)
    before = rng.integers(0, 2, size=(rows, m), dtype=np.uint8)
    words = pack_rows(before)
    flip_rows(words, cols)
    expected = before.copy()
    expected[np.arange(rows)[:, None], cols] ^= 1
    assert np.array_equal(unpack_rows(words, m), expected)
    assert np.array_equal(words, pack_rows(expected))  # padding bits stay zero
