import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmemcheck.bits import as_bits, bits_to_str, hamming_distance, int_to_bits
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


class TestEncode:
    def test_known_codeword(self):
        # n=3, x=101: parities <x,a> over a = 000,001,...,111
        code = HadamardCode(3)
        assert bits_to_str(code.encode("101")) == "01011010"

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
            words = [code.encode(int_to_bits(x, n)) for x in range(2**n)]
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

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 13])
    def test_batch_matches_parity_definition(self, n, rng):
        # each row of a batch is the codeword of its message, with or without out
        masks = np.arange(2**n, dtype=np.uint64)
        msgs = rng.integers(0, 2, size=(5, n), dtype=np.uint8)
        weights = 1 << np.arange(n - 1, -1, -1, dtype=np.uint64)
        expected = (np.bitwise_count(masks & (msgs @ weights)[:, None]) & 1).astype(np.uint8)
        code = HadamardCode(n)
        assert np.array_equal(code.encode_batch(msgs), expected)
        out = np.full((5, 2**n), 7, dtype=np.uint8)
        assert code.encode_batch(msgs, out=out) is out
        assert np.array_equal(out, expected)

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, n, data):
        x = data.draw(st.integers(0, 2**n - 1))
        y = data.draw(st.integers(0, 2**n - 1))
        code = HadamardCode(n)
        lhs = code.encode(int_to_bits(x, n)) ^ code.encode(int_to_bits(y, n))
        rhs = code.encode(int_to_bits(x ^ y, n))
        assert np.array_equal(lhs, rhs)


class TestQueryPlan:
    def test_unit_mask_is_msb_first(self):
        code = HadamardCode(3)
        assert [code.unit_mask(i) for i in range(3)] == [4, 2, 1]

    def test_known_plan(self):
        # index 1 (second message bit), mask a=011 -> positions {011, 001}
        code = HadamardCode(3)
        assert code.plan_for_mask(1, 0b011) == [0b011, 0b001]

    def test_zero_mask_plan(self):
        code = HadamardCode(4)
        for i in range(4):
            assert code.plan_for_mask(i, 0) == [0, code.unit_mask(i)]

    def test_plan_length_is_q(self, rng):
        code = HadamardCode(3)
        for _ in range(1000):
            plan = code.decode_query_plan(int(rng.integers(3)), rng)
            assert len(plan) <= code.params.q
            assert all(0 <= pos < code.params.m for pos in plan)

    def test_index_out_of_range(self, rng):
        code = HadamardCode(3)
        with pytest.raises(IndexError):
            code.decode_query_plan(3, rng)
        with pytest.raises(IndexError):
            code.plan_for_mask(-1, 0)


class TestDecode:
    def test_exact_at_zero_corruption(self, rng):
        # every mask, every index, every message: XOR of the two reads is x_j
        code = HadamardCode(3)
        for x in range(8):
            msg = int_to_bits(x, 3)
            word = code.encode(msg)
            for index in range(3):
                for mask in range(8):
                    plan = code.plan_for_mask(index, mask)
                    answers = word[plan]
                    assert code.decode_from_answers(index, plan, answers) == msg[index]

    def test_single_flip_success_rate(self):
        # n=3, x=101, first message bit: one flipped bit kills at most
        # the two masks whose read pair straddles it -> success >= 3/4
        code = HadamardCode(3)
        word = code.encode("101")
        for flip in range(8):
            corrupted = word.copy()
            corrupted[flip] ^= 1
            good = 0
            for mask in range(8):
                plan = code.plan_for_mask(0, mask)
                if code.decode_from_answers(0, plan, corrupted[plan]) == 1:
                    good += 1
            assert good / 8 >= 0.75

    def test_failure_iff_exactly_one_read_corrupted(self):
        code = HadamardCode(3)
        word = code.encode("110")
        index = 2
        plan = code.plan_for_mask(index, 0b101)
        one = word.copy()
        one[plan[0]] ^= 1
        assert code.decode_from_answers(index, plan, one[plan]) == 1  # true bit is 0: wrong answer
        both = word.copy()
        both[plan[0]] ^= 1
        both[plan[1]] ^= 1
        assert code.decode_from_answers(index, plan, both[plan]) == 0

    def test_answers_length_checked(self):
        code = HadamardCode(3)
        plan = code.plan_for_mask(0, 3)
        with pytest.raises(ValueError):
            code.decode_from_answers(0, plan, as_bits("101"))

    def test_plan_consistency_checked(self):
        code = HadamardCode(3)
        with pytest.raises(ValueError):
            # positions do not differ by the target unit mask
            code.decode_from_answers(0, [0b011, 0b010], as_bits("01"))
        with pytest.raises(ValueError):
            code.decode_from_answers(0, [0b011], as_bits("0"))

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_decode_round_trip_random(self, n, data):
        x = data.draw(st.integers(0, 2**n - 1))
        index = data.draw(st.integers(0, n - 1))
        mask = data.draw(st.integers(0, 2**n - 1))
        code = HadamardCode(n)
        msg = int_to_bits(x, n)
        word = code.encode(msg)
        plan = code.plan_for_mask(index, mask)
        assert code.decode_from_answers(index, plan, word[plan]) == msg[index]
