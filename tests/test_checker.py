import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmemcheck import fingerprint
from qmemcheck.bits import as_bits
from qmemcheck.checker import (
    ComplexityReport,
    ProtocolError,
    PublicMemory,
    Verdict,
    complexity_report,
    new_checker,
    qubits_per_summary,
    required_k,
    retrieve,
    store,
)
from qmemcheck.code import HadamardCode


class TestVerdict:
    def test_answer(self):
        v = Verdict.answer(1)
        assert v.kind == "answer" and v.bit == 1 and not v.is_buggy

    def test_buggy(self):
        v = Verdict.buggy()
        assert v.kind == "buggy" and v.bit is None and v.is_buggy

    @pytest.mark.parametrize("kwargs", [dict(kind="answer"), dict(kind="buggy", bit=0), dict(kind="maybe")])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Verdict(**kwargs)

    @pytest.mark.parametrize("bit", [2, -1])
    def test_answer_rejects_non_bit(self, bit):
        with pytest.raises(ValueError, match=f"answer bit must be 0 or 1, got {bit}"):
            Verdict.answer(bit)


class TestRequiredK:
    def test_standard_rate(self):
        assert required_k(0.01, 0.5) == 7

    def test_exact_integer_ratio(self):
        # log 0.25 / log 0.5 = 2 exactly; float noise must not bump it to 3
        assert required_k(0.25, 0.5) == 2

    def test_half_distance_minimizes_k(self):
        # the per-test accept base 1 - 2d + 2d^2 bottoms out at d = 1/2
        for delta in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert required_k(0.01, 0.5) <= required_k(0.01, delta)

    def test_bound_actually_met(self):
        for eps in (0.3, 0.1, 0.01, 0.001):
            for delta in (0.2, 0.5, 0.8):
                k = required_k(eps, delta)
                base = 1 - 2 * delta + 2 * delta * delta
                assert base**k <= eps
                assert k == 1 or base ** (k - 1) > eps

    def test_full_complement_has_no_k(self):
        with pytest.raises(ValueError):
            required_k(0.01, 1.0)

    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0, -0.1])
    def test_epsilon_domain(self, eps):
        with pytest.raises(ValueError):
            required_k(eps, 0.5)


class TestPublicMemory:
    def test_write_then_read(self):
        mem = PublicMemory()
        with pytest.raises(ProtocolError):
            mem.bits
        mem.write(as_bits("0110"))
        assert mem.bits.size == 4
        assert mem.read_bits([1, 3]).tolist() == [1, 0]
        assert mem.read_log == 2

    def test_bits_view_is_read_only(self):
        mem = PublicMemory()
        mem.write(as_bits("01"))
        with pytest.raises(ValueError):
            mem.bits[0] = 1

    def test_word_length_fixed_after_first_write(self):
        mem = PublicMemory()
        mem.write(as_bits("0110"))
        with pytest.raises(ValueError):
            mem.write(as_bits("01"))

    def test_read_bounds_checked(self):
        mem = PublicMemory()
        mem.write(as_bits("0110"))
        with pytest.raises(IndexError):
            mem.read_bits([4])
        with pytest.raises(IndexError):
            mem.read_bits([-1])

    @pytest.mark.parametrize(
        "positions, error",
        [([1.5], TypeError), ([0.7], TypeError), (["1"], TypeError), ([True], TypeError), ([0, 4], IndexError)],
    )
    def test_bad_positions_raise_before_any_effect(self, positions, error):
        mem = PublicMemory()
        mem.write(as_bits("0110"))
        for op in (mem.read_bits, mem.adversary_flip):
            with pytest.raises(error):
                op(positions)
        assert mem.read_log == 0 and mem.summary_log == 0
        assert mem.bits.tolist() == [0, 1, 1, 0]

    def test_empty_positions_read_and_flip_nothing(self):
        mem = PublicMemory()
        mem.write(as_bits("0110"))
        assert mem.read_bits([]).tolist() == []
        mem.adversary_flip([])
        assert mem.read_log == 0 and mem.bits.tolist() == [0, 1, 1, 0]

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_numpy_positions_accepted(self, dtype):
        mem = PublicMemory()
        mem.write(as_bits("0110"))
        assert mem.read_bits(np.array([1, 3], dtype=dtype)).tolist() == [1, 0]
        assert mem.read_bits(dtype(2)) == 1
        mem.adversary_flip(np.array([0, 3], dtype=dtype))
        assert mem.read_log == 3 and mem.bits.tolist() == [1, 1, 1, 1]

    def test_uninitialized_access_rejected(self):
        mem = PublicMemory()
        with pytest.raises(ProtocolError):
            mem.read_bits([0])
        with pytest.raises(ProtocolError):
            mem.fetch_summaries(1)

    def test_summary_counting(self):
        mem = PublicMemory()
        mem.write(as_bits("0110"))
        out = mem.fetch_summaries(3)
        assert len(out) == 3
        assert mem.summary_log == 3
        assert out[0].phases.tolist() == [0, 1, 1, 0]

    @pytest.mark.parametrize("count", [0, -1])
    def test_summary_count_validated(self, count):
        mem = PublicMemory()
        mem.write(as_bits("0110"))
        with pytest.raises(ValueError, match=f"summary count must be >= 1, got {count}"):
            mem.fetch_summaries(count)
        assert mem.summary_log == 0 and mem.read_log == 0
        assert mem.bits.tolist() == [0, 1, 1, 0]

    def test_summary_keeps_phases_after_flip(self):
        # a fetch copies the contents, so later in-place corruption leaves it alone
        mem = PublicMemory()
        mem.write(as_bits("0110"))
        summaries = mem.fetch_summaries(2)
        mem.adversary_flip([0, 3])
        assert mem.bits.tolist() == [1, 1, 1, 1]
        assert all(s.phases.tolist() == [0, 1, 1, 0] for s in summaries)

    def test_adversary_ops_not_counted(self):
        mem = PublicMemory()
        mem.write(as_bits("0000"))
        mem.adversary_flip([0, 2])
        assert mem.read_log == 0 and mem.summary_log == 0
        assert mem.bits.tolist() == [1, 0, 1, 0]

    def test_adversary_flip_rejects_duplicates(self):
        mem = PublicMemory()
        mem.write(as_bits("0000"))
        with pytest.raises(ValueError):
            mem.adversary_flip([1, 1])

    def test_adversary_flip_rejects_far_apart_duplicate(self):
        mem = PublicMemory()
        mem.write(np.zeros(65_536, dtype=np.uint8))
        with pytest.raises(ValueError):
            mem.adversary_flip([5, 60_000, 5])
        assert not mem.bits.any()  # nothing flipped

    def test_adversary_flip_unsorted_distinct(self):
        mem = PublicMemory()
        mem.write(np.zeros(65_536, dtype=np.uint8))
        mem.adversary_flip([60_000, 5, 65_535, 0])
        assert np.flatnonzero(mem.bits).tolist() == [0, 5, 60_000, 65_535]

    @pytest.mark.parametrize("positions", [[3, -1], [16, 0], [2, 16, 2]])
    def test_adversary_flip_range_checked_unsorted(self, positions):
        mem = PublicMemory()
        mem.write(np.zeros(16, dtype=np.uint8))
        with pytest.raises(IndexError):
            mem.adversary_flip(positions)

    @given(st.lists(st.integers(0, 63), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_adversary_flip_rejects_exactly_duplicates(self, positions):
        idx = np.asarray(positions, dtype=np.int64)
        mem = PublicMemory()
        mem.write(np.zeros(64, dtype=np.uint8))
        if np.unique(idx).size != idx.size:
            with pytest.raises(ValueError):
                mem.adversary_flip(idx)
            assert not mem.bits.any()
        else:
            mem.adversary_flip(idx)
            assert np.flatnonzero(mem.bits).tolist() == sorted(positions)


class TestVerification:
    def test_one_distance_per_verification(self, rng, monkeypatch):
        calls = []
        exact = fingerprint.swap_accept_prob

        def counting(a, b):
            calls.append(1)
            return exact(a, b)

        monkeypatch.setattr(fingerprint, "swap_accept_prob", counting)
        state = new_checker(HadamardCode(4), 0.01)
        assert state.k == 7
        mem = PublicMemory()
        store(state, mem, "1011", rng)
        assert calls == []  # the first store has nothing to verify
        retrieve(state, mem, 0, rng)
        assert len(calls) == 1
        store(state, mem, "0110", rng)
        assert len(calls) == 2

    def test_verdicts_are_shared(self, rng):
        state = new_checker(HadamardCode(3), 0.01)
        mem = PublicMemory()
        assert store(state, mem, "101", rng) is Verdict.answer(1)
        assert retrieve(state, mem, 1, rng) is Verdict.answer(0)
        assert Verdict.buggy() is Verdict.buggy()


class TestStoreRetrieve:
    def test_first_store_initializes(self, rng):
        code = HadamardCode(3)
        state = new_checker(code, 0.01)
        mem = PublicMemory()
        verdict = store(state, mem, "101", rng)
        assert verdict == Verdict.answer(1)
        assert mem.bits.tolist() == list(code.encode("101"))
        assert state.initialized and state.k == 7
        assert state.fingerprint.phases.tolist() == list(mem.bits)

    def test_store_wrong_length(self, rng):
        # encoding parses the message before verification, so no summary is served
        state = new_checker(HadamardCode(3), 0.01)
        mem = PublicMemory()
        with pytest.raises(ValueError):
            store(state, mem, "10", rng)
        store(state, mem, "101", rng)
        with pytest.raises(ValueError):
            store(state, mem, "1x1", rng)
        assert mem.summary_log == 0

    def test_stored_fingerprint_is_not_memory(self, rng):
        # memory parses the write into its own array; the fingerprint keeps the codeword
        code = HadamardCode(3)
        state = new_checker(code, 0.01)
        mem = PublicMemory()
        store(state, mem, "101", rng)
        mem.adversary_flip([0, 5])
        assert state.fingerprint.phases.tolist() == list(code.encode("101"))

    def test_honest_restore_never_buggy(self, rng):
        # verification against untouched memory accepts with probability 1
        state = new_checker(HadamardCode(3), 0.01)
        mem = PublicMemory()
        store(state, mem, "101", rng)
        for x in range(8):
            assert not store(state, mem, f"{x:03b}", rng).is_buggy

    def test_retrieve_before_store(self, rng):
        state = new_checker(HadamardCode(3), 0.01)
        with pytest.raises(ProtocolError):
            retrieve(state, PublicMemory(), 0, rng)

    def test_retrieve_index_range(self, rng):
        state = new_checker(HadamardCode(3), 0.01)
        mem = PublicMemory()
        store(state, mem, "101", rng)
        with pytest.raises(IndexError):
            retrieve(state, mem, 3, rng)

    @pytest.mark.parametrize(
        "index, error",
        [(True, TypeError), (2.0, TypeError), ("1", TypeError), ([1], TypeError), (-1, IndexError), (2**70, IndexError)],
    )
    def test_bad_index_raises_before_anything_is_served(self, index, error, rng):
        state = new_checker(HadamardCode(3), 0.01)
        mem = PublicMemory()
        store(state, mem, "101", rng)
        fingerprint, draws = state.fingerprint, rng.bit_generator.state
        with pytest.raises(error):
            retrieve(state, mem, index, rng)
        assert mem.summary_log == 0 and mem.read_log == 0
        assert state.fingerprint is fingerprint and rng.bit_generator.state == draws
        assert mem.bits.tolist() == HadamardCode(3).encode("101").tolist()

    @pytest.mark.parametrize("index", [np.int64(2), np.uint64(2)])
    def test_numpy_index_accepted(self, index, rng):
        state = new_checker(HadamardCode(3), 0.01)
        mem = PublicMemory()
        store(state, mem, "101", rng)
        assert retrieve(state, mem, index, rng) == Verdict.answer(1)

    def test_honest_retrieve_every_index(self, rng):
        code = HadamardCode(4)
        state = new_checker(code, 0.01)
        mem = PublicMemory()
        msg = "1011"
        store(state, mem, msg, rng)
        for index in range(4):
            for _ in range(5):
                verdict = retrieve(state, mem, index, rng)
                assert verdict == Verdict.answer(int(msg[index]))

    def test_honest_retrieve_reads_q_bits(self, rng):
        # one local decode per retrieve, each of its q reads metered once
        code = HadamardCode(5)
        state = new_checker(code, 0.01)
        mem = PublicMemory()
        store(state, mem, "10110", rng)
        for index in range(5):
            before = mem.read_log
            assert retrieve(state, mem, index, rng) == Verdict.answer(int("10110"[index]))
            assert mem.read_log - before == code.params.q

    def test_reject_skips_decode_and_refresh(self, rng):
        # keep the memory at half distance (re-flipping after any accepting
        # retrieve, since acceptance refreshes the fingerprints) until a
        # rejection lands, then check the meters and the stored snapshot
        code = HadamardCode(3)
        state = new_checker(code, 0.01, k=2)
        mem = PublicMemory()
        store(state, mem, "101", rng)
        mem.adversary_flip(range(4))  # distance 1/2: each test accepts w.p. 1/2
        while True:
            before = state.fingerprint
            meters_before = (mem.summary_log, mem.read_log)
            verdict = retrieve(state, mem, 0, rng)
            if verdict.is_buggy:
                break
            mem.adversary_flip(range(4))
        # k summaries served for the tests, no decode reads, no refresh
        assert (mem.summary_log - meters_before[0], mem.read_log - meters_before[1]) == (2, 0)
        assert state.fingerprint is before

    def test_accept_refreshes_fingerprints(self, rng):
        code = HadamardCode(4)
        state = new_checker(code, 0.01, k=1)
        mem = PublicMemory()
        store(state, mem, "1011", rng)
        mem.adversary_flip([0])  # distance 1/16: accept probability 0.8828
        while True:
            meters_before = (mem.summary_log, mem.read_log)
            verdict = retrieve(state, mem, 2, rng)
            if not verdict.is_buggy:
                break
        assert state.fingerprint.phases.tolist() == list(mem.bits)
        # k summaries for the tests, k for the refresh, q = 2 decode reads
        assert (mem.summary_log - meters_before[0], mem.read_log - meters_before[1]) == (2, 2)

    def test_substituted_codeword_mostly_caught(self, rng):
        code = HadamardCode(3)
        n_trials = 2000
        caught = 0
        for _ in range(n_trials):
            state = new_checker(code, 0.01)  # k = 7
            mem = PublicMemory()
            store(state, mem, "101", rng)
            mem.adversary_flip(np.flatnonzero(mem.bits != code.encode("011")))
            caught += retrieve(state, mem, 0, rng).is_buggy
        floor = 1 - 0.5**7
        sigma = math.sqrt(floor * (1 - floor) / n_trials)
        assert caught / n_trials >= floor - 4 * sigma

    def test_quarter_distance_accept_rate(self, rng):
        # one test against memory at distance 1/4 accepts w.p. 0.625
        code = HadamardCode(4)
        n_trials = 20_000
        accepted = 0
        for _ in range(n_trials):
            state = new_checker(code, 0.01, k=1)
            mem = PublicMemory()
            store(state, mem, "1011", rng)
            mem.adversary_flip([0, 5, 9, 12])  # 4 of 16
            accepted += not retrieve(state, mem, 0, rng).is_buggy
        sigma = math.sqrt(0.625 * 0.375 / n_trials)
        assert accepted / n_trials == pytest.approx(0.625, abs=4 * sigma)


class TestComplexity:
    def test_qubits_per_summary(self):
        assert qubits_per_summary(2) == 1
        assert qubits_per_summary(8) == 3
        assert qubits_per_summary(256) == 8

    @pytest.mark.parametrize("m", [0, -4])
    def test_qubits_per_summary_rejects_empty_word(self, m):
        with pytest.raises(ValueError, match=f"m must be >= 1, got {m}"):
            qubits_per_summary(m)

    def test_reference_point(self, rng):
        # n=8, k=7: 56 private qubits, 2*7*8 + 2 = 114 qubits per retrieve
        state = new_checker(HadamardCode(8), 0.01)
        assert state.k == 7
        mem = PublicMemory()
        store(state, mem, "10110100", rng)
        retrieve(state, mem, 0, rng)
        report = complexity_report(state, mem)
        assert report == ComplexityReport(s_qubits=56, t_qubits_per_retrieve=114)

    def test_minimal_point(self, rng):
        state = new_checker(HadamardCode(1), 0.01, k=1)
        mem = PublicMemory()
        store(state, mem, "1", rng)
        retrieve(state, mem, 0, rng)
        report = complexity_report(state, mem)
        assert report.s_qubits == 1
        assert report.t_qubits_per_retrieve == 2 * 1 * 1 + 2

    def test_requires_a_retrieve(self, rng):
        # the first store is served no summary, so there is no traffic to report yet
        state = new_checker(HadamardCode(3), 0.01)
        mem = PublicMemory()
        with pytest.raises(ProtocolError):
            complexity_report(state, mem)
        store(state, mem, "101", rng)
        with pytest.raises(ProtocolError):
            complexity_report(state, mem)

    def test_explicit_log_overrides(self):
        state = new_checker(HadamardCode(3), 0.01, k=2)
        mem = PublicMemory()
        mem.summary_log, mem.read_log = 4, 2
        report = complexity_report(state, mem)
        assert report.t_qubits_per_retrieve == 4 * 3 + 2

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ComplexityReport(s_qubits=-1, t_qubits_per_retrieve=0)


class TestCheckerState:
    def test_auto_k(self):
        assert new_checker(HadamardCode(3), 0.01).k == 7
        assert new_checker(HadamardCode(3), 0.25).k == 2

    def test_explicit_k(self):
        assert new_checker(HadamardCode(3), 0.01, k=3).k == 3

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            new_checker(HadamardCode(3), 0.7)
        with pytest.raises(ValueError):
            new_checker(HadamardCode(3), 0.7, k=3)

    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("epsilon", [0.0, 0.5, math.nan])
    def test_epsilon_checked_by_required_k(self, epsilon, k):
        # required_k runs, and checks epsilon, whether or not k is given
        with pytest.raises(ValueError, match="epsilon"):
            new_checker(HadamardCode(3), epsilon, k=k)

    def test_k_validated(self):
        with pytest.raises(ValueError):
            new_checker(HadamardCode(3), 0.01, k=0)
