import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmemcheck.bits import as_bits, hamming_distance, pack_rows, read_rows, unpack_rows, word_count
from qmemcheck.code import MAX_HADAMARD_N, CodeParams, HadamardCode


class TestCodeParams:
    def test_valid(self):
        p = CodeParams(n=3, m=8, q=2, delta=0.5, delta_dec=0.125, eps_dec=0.25)
        assert p.m == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, m=8, q=2, delta=0.5, delta_dec=0.125, eps_dec=0.25),
            dict(n=3, m=2, q=2, delta=0.5, delta_dec=0.125, eps_dec=0.25),  # m < n
            dict(n=3, m=8, q=0, delta=0.5, delta_dec=0.125, eps_dec=0.25),
            dict(n=3, m=8, q=2, delta=0.0, delta_dec=0.125, eps_dec=0.25),
            dict(n=3, m=8, q=2, delta=0.5, delta_dec=0.25, eps_dec=0.25),  # not < delta/2
            dict(n=3, m=8, q=2, delta=0.5, delta_dec=-0.1, eps_dec=0.25),
            dict(n=3, m=8, q=2, delta=0.5, delta_dec=0.125, eps_dec=0.75),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            CodeParams(**kwargs)


class TestHadamardParams:
    def test_shape(self):
        code = HadamardCode(3)
        p = code.params
        assert (p.n, p.m, p.q) == (3, 8, 2)
        assert p.delta == 0.5
        assert p.delta_dec == 0.125
        assert p.eps_dec == 0.25

    def test_size_cap(self):
        with pytest.raises(ValueError):
            HadamardCode(MAX_HADAMARD_N + 1)
        with pytest.raises(ValueError):
            HadamardCode(0)

    @pytest.mark.parametrize("n", [True, 3.0, "3"])
    def test_non_integer_n_rejected(self, n):
        # a bool would build m = 2, a float fails late inside a shift
        with pytest.raises(TypeError, match="n must be an integer"):
            HadamardCode(n)

    def test_numpy_integer_n(self):
        p = HadamardCode(np.int64(3)).params
        assert (p.n, p.m) == (3, 8)
        assert type(p.n) is int and type(p.m) is int


def brute_substitution_law(code, target, message):
    """The law of the distance from the stored codeword to its substitute, by
    enumerating every (stored, target) message pair the arguments allow, as
    exact fractions."""
    n = code.params.n
    words = {x: code.encode(x) for x in map("".join, itertools.product("01", repeat=n))}
    stored = list(words) if message == "random" else [message]
    law = Counter()
    for x in stored:
        targets = [y for y in words if y != x] if target == "random" else [target]
        for y in targets:
            law[hamming_distance(words[x], words[y])] += Fraction(1, len(stored) * len(targets))
    return dict(law)


class TestSubstitutionDistances:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_target(self, n):
        code = HadamardCode(n)
        for message in ["random"] + ["".join(x) for x in itertools.product("01", repeat=n)]:
            law = code.substitution_distances("random", message)
            assert {d: Fraction(w) for d, w in law.items()} == brute_substitution_law(code, "random", message)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fixed_target_random_message(self, n):
        code = HadamardCode(n)
        for target in map("".join, itertools.product("01", repeat=n)):
            law = code.substitution_distances(target, "random")
            assert {d: Fraction(w) for d, w in law.items()} == brute_substitution_law(code, target, "random")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fixed_target_fixed_message(self, n):
        code = HadamardCode(n)
        messages = list(map("".join, itertools.product("01", repeat=n)))
        for target, message in itertools.permutations(messages, 2):
            law = code.substitution_distances(target, message)
            assert {d: Fraction(w) for d, w in law.items()} == brute_substitution_law(code, target, message)


class TestEncode:
    def test_known_codeword(self):
        # n=3, x=101: parities <x,a> over a = 000,001,...,111
        code = HadamardCode(3)
        assert "".join(map(str, code.encode("101"))) == "01011010"

    def test_zero_message(self):
        for n in (1, 3, 5):
            word = HadamardCode(n).encode("0" * n)
            assert not word.any()
            assert word.size == 2**n

    def test_distance_between_unit_messages(self):
        code = HadamardCode(3)
        assert hamming_distance(code.encode("100"), code.encode("001")) == 4

    def test_all_pairwise_distances_are_half(self):
        # distinct codewords sit at exactly m/2, the code's whole point
        for n in (1, 2, 3, 4):
            code = HadamardCode(n)
            words = [code.encode(f"{x:0{n}b}") for x in range(2**n)]
            for x, y in itertools.combinations(range(2**n), 2):
                assert hamming_distance(words[x], words[y]) == 2 ** (n - 1)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            HadamardCode(3).encode("10")

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 13, MAX_HADAMARD_N])
    def test_matches_parity_definition(self, n, rng):
        # reference: position a holds the parity of <x, a>, x read MSB-first
        masks = np.arange(2**n, dtype=np.uint64)
        code = HadamardCode(n)
        for _ in range(3):
            msg = rng.integers(0, 2, size=n, dtype=np.uint8)
            x = int("".join(map(str, msg)), 2)
            expected = (np.bitwise_count(masks & np.uint64(x)) & 1).astype(np.uint8)
            assert np.array_equal(code.encode(msg), expected)

    @staticmethod
    def parity_rows(msgs: np.ndarray) -> np.ndarray:
        """Codewords by definition, one byte per position: position a of row r is <msgs[r], a>."""
        n = msgs.shape[1]
        masks = np.arange(2**n, dtype=np.uint64)
        weights = 1 << np.arange(n - 1, -1, -1, dtype=np.uint64)
        return (np.bitwise_count(masks & (msgs @ weights)[:, None]) & 1).astype(np.uint8)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 13])
    def test_batch_matches_parity_definition(self, n, rng):
        # each row of a batch, unpacked, is the codeword of its message, with or without out
        msgs = rng.integers(0, 2, size=(5, n), dtype=np.uint8)
        expected = self.parity_rows(msgs)
        code = HadamardCode(n)
        assert np.array_equal(unpack_rows(code.encode_batch(msgs), 2**n), expected)
        out = np.full((5, word_count(2**n)), 7, dtype=np.uint64)
        assert code.encode_batch(msgs, out=out) is out
        assert np.array_equal(unpack_rows(out, 2**n), expected)

    @pytest.mark.parametrize("n", range(1, 14))
    def test_batch_is_packed_with_zero_padding(self, n, rng):
        # position a is bit a & 63 of word a >> 6: numpy's little-endian bit packing,
        # padded with zero bytes to whole words, so no bit past m is ever set
        msgs = rng.integers(0, 2, size=(9, n), dtype=np.uint8)
        packed = np.zeros((9, 8 * word_count(2**n)), dtype=np.uint8)
        packed[:, : -(-(2**n) // 8)] = np.packbits(self.parity_rows(msgs), axis=1, bitorder="little")
        words = HadamardCode(n).encode_batch(msgs)
        assert words.dtype == np.uint64
        assert np.array_equal(words, packed.view("<u8"))
        assert not np.unpackbits(words.astype("<u8").view(np.uint8), axis=1, bitorder="little")[:, 2**n :].any()

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, n, data):
        x = data.draw(st.integers(0, 2**n - 1))
        y = data.draw(st.integers(0, 2**n - 1))
        code = HadamardCode(n)
        lhs = code.encode(f"{x:0{n}b}") ^ code.encode(f"{y:0{n}b}")
        rhs = code.encode(f"{x ^ y:0{n}b}")
        assert np.array_equal(lhs, rhs)

    @pytest.mark.parametrize("n", [1, 5, 6, 7, 10])
    def test_batch_is_linear(self, n, rng):
        # C(a) ^ C(b) = C(a ^ b) on packed rows, padding included: a substitution's
        # corruption pattern is written as the codeword of target ^ message
        a, b = (rng.integers(0, 2, size=(50, n), dtype=np.uint8) for _ in range(2))
        code = HadamardCode(n)
        assert np.array_equal(code.encode_batch(a ^ b), code.encode_batch(a) ^ code.encode_batch(b))


def reader(word: np.ndarray, calls: list | None = None):
    """A read over one codeword (or one row per decode row) that logs each position array."""

    def read(pos):
        if calls is not None:
            calls.append(pos)
        return word[pos] if word.ndim == 1 else word[np.arange(pos.shape[0])[:, None], pos]

    return read


class TestQueryPlan:
    def test_unit_mask_is_msb_first(self):
        code = HadamardCode(3)
        assert [code.unit_mask(i) for i in range(3)] == [4, 2, 1]
        assert code.unit_mask(np.array([2, 0, 1])).tolist() == [1, 4, 2]

    def test_known_plan(self):
        # index 1 (second message bit), mask a=011 -> positions {011, 001}
        code, calls = HadamardCode(3), []
        code.decode(1, [0b011], reader(np.zeros(8, dtype=np.uint8), calls))
        assert [c.tolist() for c in calls] == [[[0b011, 0b001]]]

    def test_zero_mask_plan(self):
        code, calls = HadamardCode(4), []
        code.decode(np.arange(4), np.zeros(4, dtype=np.int64), reader(np.zeros(16, dtype=np.uint8), calls))
        assert calls[0].tolist() == [[0, code.unit_mask(i)] for i in range(4)]

    def test_plan_length_is_q(self, rng):
        # read gets one (rows, q) array of in-range positions per call
        code, calls = HadamardCode(3), []
        code.decode(rng.integers(3, size=1000), rng.integers(8, size=1000), reader(np.zeros(8, dtype=np.uint8), calls))
        assert len(calls) == 1
        assert calls[0].shape == (1000, code.params.q)
        assert calls[0].min() >= 0 and calls[0].max() < code.params.m

    def test_index_out_of_range(self):
        # scalar or in an array, a bad index raises before any read
        code, calls = HadamardCode(3), []
        for index in (3, -1, np.array([0, 3]), np.array([-1, 2])):
            with pytest.raises(IndexError):
                code.decode(index, np.zeros(np.size(index), dtype=np.int64), reader(np.zeros(8, dtype=np.uint8), calls))
        assert calls == []

    def test_non_integer_index_or_mask(self):
        code, calls = HadamardCode(3), []
        for index, masks in ((True, [0]), (1.0, [0]), ("1", [0]), (0, [1.5]), (0, [True]), (0, ["1"])):
            with pytest.raises(TypeError):
                code.decode(index, masks, reader(np.zeros(8, dtype=np.uint8), calls))
        assert calls == []

    def test_mask_out_of_range(self):
        code, calls = HadamardCode(3), []
        for masks in ([8], [-1], [0, 8]):
            with pytest.raises(IndexError):
                code.decode(0, masks, reader(np.zeros(8, dtype=np.uint8), calls))
        assert calls == []


class TestDecode:
    def test_exact_at_zero_corruption(self):
        # every n <= 4, message, index and mask: the xor of the two reads is x_index
        for n in range(1, 5):
            code, m = HadamardCode(n), 2**n
            masks = np.arange(m)
            msgs = np.array([as_bits(f"{x:0{n}b}") for x in range(m)])
            words = unpack_rows(code.encode_batch(msgs), m)
            for msg, word in zip(msgs, words):
                for index in range(n):  # one index for every row
                    assert (code.decode(index, masks, reader(word)) == msg[index]).all()
            # one index per row, each row reading its own codeword
            rows = np.array(list(itertools.product(range(m), range(n), range(m))))
            decoded = code.decode(rows[:, 1], rows[:, 2], reader(words[rows[:, 0]]))
            assert np.array_equal(decoded, msgs[rows[:, 0], rows[:, 1]])

    def test_single_flip_success_rate(self):
        # n=3, x=101, first message bit: one flipped bit kills at most
        # the two masks whose read pair straddles it -> success >= 3/4
        code = HadamardCode(3)
        word = code.encode("101")
        for flip in range(8):
            corrupted = word.copy()
            corrupted[flip] ^= 1
            assert (code.decode(0, np.arange(8), reader(corrupted)) == 1).mean() >= 0.75

    def test_failure_iff_exactly_one_read_corrupted(self):
        # every corruption pattern of an n=3 codeword, every index and mask
        code = HadamardCode(3)
        msg = as_bits("110")
        word = code.encode(msg)
        masks = np.arange(8)
        for pattern in range(256):
            corrupted = as_bits(f"{pattern:08b}")
            for index in range(3):
                wrong = code.decode(index, masks, reader(word ^ corrupted)) != msg[index]
                one_hit = corrupted[masks] != corrupted[masks ^ code.unit_mask(index)]
                assert np.array_equal(wrong, one_hit)

    @pytest.mark.parametrize("n", [1, 5, 6, 7, 10])
    def test_decode_is_linear(self, n, rng):
        # decoding C(x) ^ P gives x_i ^ the decode of P, for random patterns P of every
        # density, read from packed rows as the engine reads them; at n = 7 and 10 the
        # indices cover both sides of the 6-bit word boundary (unit masks above and below 64)
        rows, m = 300, 2**n
        code = HadamardCode(n)
        msgs = rng.integers(0, 2, size=(rows, n), dtype=np.uint8)
        patterns = pack_rows((rng.random((rows, m)) < rng.random((rows, 1))).astype(np.uint8))
        memory = code.encode_batch(msgs) ^ patterns
        index, masks = np.arange(rows) % n, rng.integers(m, size=rows)
        if n > 6:
            assert (code.unit_mask(index) >= 64).any() and (code.unit_mask(index) < 64).any()
        answer = code.decode(index, masks, lambda pos: read_rows(memory, pos))
        wrong = code.decode(index, masks, lambda pos: read_rows(patterns, pos))
        assert wrong.any() and not wrong.all()
        assert np.array_equal(answer, msgs[np.arange(rows), index] ^ wrong)

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_decode_round_trip_random(self, n, data):
        x = data.draw(st.integers(0, 2**n - 1))
        index = data.draw(st.integers(0, n - 1))
        mask = data.draw(st.integers(0, 2**n - 1))
        code = HadamardCode(n)
        msg = as_bits(f"{x:0{n}b}")
        assert code.decode(index, [mask], reader(code.encode(msg))).tolist() == [msg[index]]
