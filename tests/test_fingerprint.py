import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmemcheck import analysis
from qmemcheck.bits import hamming_distance
from qmemcheck.code import HadamardCode
from qmemcheck.checker import Fingerprint, SwapOutcome, make_fingerprint, sample_swap_test, swap_accept_prob
from qmemcheck.fingerprint import MAX_ORACLE_M, _amplitude_rows, check_oracle_size, cswap_statevector_probs, p_single


def reference_cswap_probs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The gate-level circuit cswap_statevector_probs replaced: the full (P, 2, m, m)
    statevector through both Hadamards on the control and the controlled swap."""
    pairs, m = a.shape
    n_reg = m.bit_length() - 1
    state = np.zeros((pairs, 2, m, m))
    amp_a = ((-1.0) ** a.astype(np.int64)) / math.sqrt(m)
    amp_b = ((-1.0) ** b.astype(np.int64)) / math.sqrt(m)
    state[:, 0] = amp_a[:, :, None] * amp_b[:, None, :]

    def hadamard_on_control(s):
        out = np.empty_like(s)
        out[:, 0] = (s[:, 0] + s[:, 1]) / math.sqrt(2)
        out[:, 1] = (s[:, 0] - s[:, 1]) / math.sqrt(2)
        return out

    state = hadamard_on_control(state)
    branch = state[:, 1].reshape((pairs,) + (2,) * (2 * n_reg))
    for i in range(n_reg):
        branch = np.swapaxes(branch, 1 + i, 1 + n_reg + i)
    state[:, 1] = branch.reshape(pairs, m, m)
    state = hadamard_on_control(state)
    return (state[:, 0] ** 2).reshape(pairs, m * m).sum(axis=1)


class _FirstBlock(Exception):
    pass


def oracle_block(m: int) -> int:
    """Pairs in a full block of verify_swap_oracle at size m: its first circuit call's
    row count, with more pairs to check than any block holds."""

    def first(a, b):
        raise _FirstBlock(len(a))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "cswap_statevector_probs", first)
        with pytest.raises(_FirstBlock) as block:
            analysis.verify_swap_oracle(sizes=(m,), pairs_per_size=analysis.MAX_ORACLE_PAIRS)
    return block.value.args[0]


def fp_with_distance(m: int, d: int) -> tuple[Fingerprint, Fingerprint]:
    a = np.zeros(m, dtype=np.uint8)
    b = np.zeros(m, dtype=np.uint8)
    b[:d] = 1
    return Fingerprint(a), Fingerprint(b)


def one_pair_prob(a: Fingerprint, b: Fingerprint) -> float:
    """The circuit's accept probability for two fingerprints: one row of the oracle."""
    return float(cswap_statevector_probs(a.phases[None], b.phases[None])[0])


def assert_inner_product(a: Fingerprint, b: Fingerprint, expected: float) -> None:
    """<a|b> summed from the two amplitude vectors is expected, and so is (m - 2d)/m,
    the integer form at Hamming distance d."""
    assert float(_amplitude_rows(a.phases) @ _amplitude_rows(b.phases)) == pytest.approx(expected, abs=1e-12)
    assert (a.m - 2 * hamming_distance(a.phases, b.phases)) / a.m == pytest.approx(expected, abs=1e-12)


class TestFingerprint:
    def test_zero_word_amplitudes(self):
        fp = Fingerprint("0000")
        assert np.allclose(_amplitude_rows(fp.phases), 0.5)

    def test_amplitudes_signs_and_norm(self):
        fp = Fingerprint("0110")
        amp = _amplitude_rows(fp.phases)
        assert np.allclose(amp, [0.5, -0.5, -0.5, 0.5])
        assert math.isclose(float(amp @ amp), 1.0)

    def test_phases_from_codeword(self):
        word = HadamardCode(3).encode("101")
        assert make_fingerprint(word).phases.tolist() == [0, 1, 0, 1, 1, 0, 1, 0]

    def test_make_fingerprint_takes_over_and_freezes(self):
        # a package-built word is shared, not parsed or copied, and made read-only
        word = HadamardCode(2).encode("01")
        fp = make_fingerprint(word)
        assert fp.phases is word
        assert not word.flags.writeable
        with pytest.raises(ValueError):
            word[0] = 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Fingerprint("")

    def test_immutable(self):
        fp = Fingerprint("01")
        with pytest.raises(AttributeError):
            fp.phases = np.zeros(2, dtype=np.uint8)
        with pytest.raises(ValueError):
            fp.phases[0] = 1

    def test_equality_and_hash(self):
        assert Fingerprint("0101") == Fingerprint([0, 1, 0, 1])
        assert Fingerprint("0101") != Fingerprint("0100")
        assert hash(Fingerprint("0101")) == hash(Fingerprint("0101"))
        assert Fingerprint("01") != "01"

    def test_repr_shows_up_to_16_phases(self):
        assert repr(Fingerprint("0110")) == "Fingerprint(0110, m=4)"
        assert repr(Fingerprint("01" * 8)) == f"Fingerprint({'01' * 8}, m=16)"

    def test_repr_elides_past_16_phases(self):
        assert repr(Fingerprint("01" * 8 + "1")) == f"Fingerprint({'01' * 8}..., m=17)"
        assert repr(make_fingerprint(np.ones(64, dtype=np.uint8))) == f"Fingerprint({'1' * 16}..., m=64)"


class TestSwapOutcome:
    def test_valid_bits(self):
        assert SwapOutcome(0).bit == 0
        assert SwapOutcome(1).bit == 1

    def test_invalid_bit(self):
        with pytest.raises(ValueError):
            SwapOutcome(2)


class TestInnerProduct:
    def test_identical(self):
        a, b = fp_with_distance(8, 0)
        assert_inner_product(a, b, 1.0)

    def test_orthogonal_at_half_distance(self):
        a, b = fp_with_distance(8, 4)
        assert_inner_product(a, b, 0.0)

    def test_quarter_distance(self):
        a, b = fp_with_distance(8, 2)
        assert_inner_product(a, b, 0.5)

    def test_full_complement_is_global_phase(self):
        a, b = fp_with_distance(8, 8)
        assert_inner_product(a, b, -1.0)
        assert swap_accept_prob(a, b) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(Fingerprint("01").phases, Fingerprint("011").phases)
        with pytest.raises(ValueError):
            _amplitude_rows(Fingerprint("01").phases) @ _amplitude_rows(Fingerprint("011").phases)

    @given(st.integers(1, 64), st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_hamming_formula(self, m, data):
        d = data.draw(st.integers(0, m))
        a, b = fp_with_distance(m, d)
        assert_inner_product(a, b, (m - 2 * d) / m)


class TestAcceptProb:
    def test_identical_accepts_surely(self):
        a, b = fp_with_distance(4, 0)
        assert swap_accept_prob(a, b) == 1.0

    def test_orthogonal_is_coin_flip(self):
        a, b = fp_with_distance(8, 4)
        assert swap_accept_prob(a, b) == 0.5

    def test_quarter_distance_value(self):
        a, b = fp_with_distance(8, 2)
        assert swap_accept_prob(a, b) == 0.625

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            swap_accept_prob(Fingerprint("01"), Fingerprint("011"))

    def test_range(self, rng):
        for _ in range(100):
            a = Fingerprint(rng.integers(0, 2, size=16, dtype=np.uint8))
            b = Fingerprint(rng.integers(0, 2, size=16, dtype=np.uint8))
            assert 0.5 <= swap_accept_prob(a, b) <= 1.0


class TestSampling:
    def test_identical_never_rejects(self, rng):
        a, b = fp_with_distance(4, 0)
        assert all(sample_swap_test(a, b, rng).bit == 0 for _ in range(200))

    def test_orthogonal_rate(self):
        # p = 1/2 exactly; 1e5 samples stay within 3 sigma
        a, b = fp_with_distance(8, 4)
        rng = np.random.default_rng(99)
        n = 100_000
        accepts = sum(sample_swap_test(a, b, rng).bit == 0 for _ in range(n))
        sigma = math.sqrt(0.25 / n)
        assert abs(accepts / n - 0.5) < 3 * sigma

    @pytest.mark.parametrize("copies", [1, 7])
    @pytest.mark.parametrize("d_frac", [0, 0.25, 0.5, 1])
    def test_copies_match_sequential_tests(self, copies, d_frac):
        # one call on k copies == k sequential single tests, draw for draw
        m = 64
        a, b = fp_with_distance(m, int(d_frac * m))
        g1, g2 = np.random.default_rng(2024), np.random.default_rng(2024)
        rejects = 0
        for _ in range(300):
            together = sample_swap_test(a, b, g1, copies=copies).bit
            apart = [sample_swap_test(a, b, g2).bit for _ in range(copies)]
            assert together == int(any(apart))
            rejects += together
        assert g1.bit_generator.state == g2.bit_generator.state
        if 0 < d_frac < 1:
            assert rejects > 0  # the comparison saw both outcomes

    def test_length_mismatch(self, rng):
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            sample_swap_test(Fingerprint("01"), Fingerprint("011"), rng, copies=3)
        assert rng.bit_generator.state == state  # nothing drawn

    def test_copies_validated(self, rng):
        a, b = fp_with_distance(4, 0)
        with pytest.raises(ValueError):
            sample_swap_test(a, b, rng, copies=0)

    def test_outcomes_are_shared(self, rng):
        a, b = fp_with_distance(4, 0)
        assert sample_swap_test(a, b, rng) is sample_swap_test(a, b, rng, copies=3)

    def test_seeded_reproducibility(self):
        a, b = fp_with_distance(8, 2)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(7)
            runs.append([sample_swap_test(a, b, rng).bit for _ in range(50)])
        assert runs[0] == runs[1]


class TestStatevectorOracle:
    def test_identical_m4(self):
        a, b = fp_with_distance(4, 0)
        assert one_pair_prob(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_m8_d2(self):
        a, b = fp_with_distance(8, 2)
        assert one_pair_prob(a, b) == pytest.approx(0.625, abs=1e-12)

    def test_m8_d4(self):
        a, b = fp_with_distance(8, 4)
        assert one_pair_prob(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_m8_full_complement(self):
        a, b = fp_with_distance(8, 8)
        assert one_pair_prob(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_m2_minimal(self):
        a, b = fp_with_distance(2, 1)
        assert one_pair_prob(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_matches_analytic_on_random_pairs(self, rng):
        for m in (2, 4, 8, 16):
            for _ in range(25):
                a = Fingerprint(rng.integers(0, 2, size=m, dtype=np.uint8))
                b = Fingerprint(rng.integers(0, 2, size=m, dtype=np.uint8))
                assert one_pair_prob(a, b) == pytest.approx(
                    swap_accept_prob(a, b), abs=1e-10
                )

    def test_circuit_matches_p_single_at_every_distance(self):
        # p_single is the formula every bound, required_k and lemma1_bound use
        for d in range(17):
            a, b = fp_with_distance(16, d)
            assert abs(one_pair_prob(a, b) - p_single(d / 16)) <= 1e-10
            assert swap_accept_prob(a, b) == p_single(d / 16)

    def test_rejects_non_power_of_two(self):
        a, b = fp_with_distance(6, 2)
        with pytest.raises(ValueError):
            one_pair_prob(a, b)

    def test_rejects_oversize(self):
        a, b = fp_with_distance(2 * MAX_ORACLE_M, 0)
        with pytest.raises(ValueError):
            one_pair_prob(a, b)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            one_pair_prob(Fingerprint("01"), Fingerprint("0110"))

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 16, 32, 64])
    def test_rows_equal_one_pair_calls(self, m, rng):
        pairs = 12 if m == 64 else 40
        a = rng.integers(0, 2, size=(pairs, m), dtype=np.uint8)
        b = rng.integers(0, 2, size=(pairs, m), dtype=np.uint8)
        b[0] = a[0]
        b[1] = 1 - a[1]
        probs = cswap_statevector_probs(a, b)
        assert probs.shape == (pairs,)
        for i in range(pairs):
            # the same double, not merely close: one circuit, run on one row or many
            assert probs[i] == one_pair_prob(Fingerprint(a[i]), Fingerprint(b[i]))
        assert probs[0] == pytest.approx(1.0, abs=1e-12)
        assert probs[1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 16, 32, 64])
    def test_rows_equal_full_statevector_circuit(self, m, rng):
        # pair counts around the oracle's block: the same doubles as the (P, 2, m, m) circuit
        block = oracle_block(m)
        for pairs in (1, block - 1, block, block + 1):
            a = rng.integers(0, 2, size=(pairs, m), dtype=np.uint8)
            b = rng.integers(0, 2, size=(pairs, m), dtype=np.uint8)
            b[0] = a[0]
            assert cswap_statevector_probs(a, b).tobytes() == reference_cswap_probs(a, b).tobytes()

    def test_rows_reject_shape_mismatch(self):
        a = np.zeros((3, 4), dtype=np.uint8)
        for b in (np.zeros((2, 4), dtype=np.uint8), np.zeros((3, 8), dtype=np.uint8), np.zeros(4, dtype=np.uint8)):
            with pytest.raises(ValueError, match="phase rows"):
                cswap_statevector_probs(a, b)
        with pytest.raises(ValueError, match="phase rows"):
            cswap_statevector_probs(a[0], a[0])

    @pytest.mark.parametrize("bad", [np.array([[2, 0]], np.uint8), np.array([[-1, 0]], np.int8), np.array([[0.5, 0.0]])])
    def test_rows_reject_non_bits(self, bad):
        # the amplitude sign is 1 - 2*phase, so any other entry would give a probability outside [0, 1]
        good = np.zeros((1, 2), dtype=np.uint8)
        for a, b in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="only 0s and 1s"):
                cswap_statevector_probs(a, b)

    @pytest.mark.parametrize("m", [0, -4, 3, 6, 2 * MAX_ORACLE_M])
    def test_oracle_size_rejected(self, m):
        with pytest.raises(ValueError, match=f"power of two in \\[1, {MAX_ORACLE_M}\\], got {m}$"):
            check_oracle_size(m)

    def test_oracle_sizes_accepted(self):
        assert [check_oracle_size(2**i) for i in range(7)] == [1, 2, 4, 8, 16, 32, 64]
