import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmemcheck import analysis, engine
from qmemcheck.analysis import (
    MAX_LEMMA2_SCHEDULES,
    MAX_ORACLE_PAIRS,
    BoundReport,
    binomial_std_error,
    binomial_tail,
    lemma1_bound,
    p_multi,
    p_single,
    printed_t2_identity_variant,
    rederived_t2_identity,
    verify_lemma2,
    verify_swap_oracle,
)
from qmemcheck.adversary import FlipCount
from qmemcheck.checker import Fingerprint, swap_accept_prob
from qmemcheck.fingerprint import MAX_ORACLE_M, cswap_statevector_probs, p_accept
from qmemcheck.harness import ExperimentConfig, _attach_bounds, run_experiment


def reference_compositions(grid, t_max, prefix=()):
    """The schedule enumerator verify_lemma2 replaced: a depth-first walk over
    all tuples prefix + (g_1..g_j), j >= 1, of length <= t_max, with integers
    g_i >= 0 summing to <= grid."""
    for g in range(grid + 1):
        tup = prefix + (g,)
        yield tup
        if len(tup) < t_max:
            yield from reference_compositions(grid - g, t_max, tup)


def reference_margins(grid, t_max):
    """p_multi(parts) - p_single(sum(parts)) per schedule, one scalar call each, as verify_lemma2
    computed them. Both read analysis.p_single, so a law patched in there is the law used here."""
    return [p_multi([g / grid for g in parts]) - analysis.p_single(sum(parts) / grid)
            for parts in reference_compositions(grid, t_max)]


def reference_oracle(sizes, pairs_per_size, seed):
    """The oracle's pairs, drawn as one (2 * pairs, m) array of rows per size (a
    then b for each pair), and the worst |circuit - formula| over per-pair
    Fingerprints and one-pair circuit calls. numpy's uint8 draws give the same
    bytes however a size's rows are split into calls, as long as every call but
    the last draws a multiple of 4 bytes; each full oracle block does, so
    these are the pairs the oracle draws block by block."""
    rng = np.random.default_rng(seed)
    pairs, worst = [], 0.0
    for m in sizes:
        rows = rng.integers(0, 2, size=(2 * pairs_per_size, m), dtype=np.uint8)
        for a_row, b_row in zip(rows[0::2], rows[1::2]):
            a, b = Fingerprint(a_row), Fingerprint(b_row)
            pairs.append((a_row, b_row))
            worst = max(worst, abs(cswap_statevector_probs(a_row[None], b_row[None])[0] - swap_accept_prob(a, b)))
    return pairs, worst


class TestBinomialTail:
    @pytest.mark.parametrize(
        "count, samples, p", [(0, 10, 0.3), (3, 10, 0.3), (7, 10, 0.3), (10, 10, 0.3), (19, 40, 0.5)]
    )
    def test_matches_direct_sum(self, count, samples, p):
        pmf = [math.comb(samples, j) * p**j * (1 - p) ** (samples - j) for j in range(samples + 1)]
        # the tail on the observed count's side of the mean
        want = sum(pmf[count:]) if count >= samples * p else sum(pmf[: count + 1])
        assert binomial_tail(count, samples, p) == pytest.approx(want, rel=1e-12)

    def test_stops_once_the_sum_reaches_stop(self):
        full = binomial_tail(500, 1000, 0.5)
        partial = binomial_tail(500, 1000, 0.5, stop=0.01)
        assert 0.01 <= partial < full

    def test_far_tail_is_tiny(self):
        assert binomial_tail(190, 200, 0.99979) < 1e-15
        assert binomial_tail(19, 1000, 2**-7) == pytest.approx(4.6e-4, rel=0.05)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_rate_rejected(self, p):
        with pytest.raises(ValueError):
            binomial_tail(1, 2, p)


class TestPSingle:
    def test_untouched(self):
        assert p_single(0.0) == 1.0

    def test_half(self):
        assert p_single(0.5) == 0.5

    def test_full_complement(self):
        # flipping everything is a global phase: invisible
        assert p_single(1.0) == 1.0
        a = np.zeros((1, 8), dtype=np.uint8)
        assert cswap_statevector_probs(a, 1 - a)[0] == pytest.approx(1.0, abs=1e-12)

    def test_quarter(self):
        assert p_single(0.25) == 0.625

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            p_single(bad)

    @given(st.floats(0, 1))
    def test_range(self, d):
        assert 0.5 <= p_single(d) <= 1.0

    def test_array_entries_equal_scalar_calls(self):
        d = np.concatenate([np.arange(101) / 100, np.random.default_rng(0).random(1000)])
        assert p_single(d).tolist() == [p_single(float(x)) for x in d]

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_array_domain(self, bad):
        with pytest.raises(ValueError):
            p_single(np.array([0.5, bad]))


class TestPMulti:
    def test_two_quarters(self):
        assert p_multi([0.25, 0.25]) == 0.390625

    def test_single_matches_p_single(self):
        assert p_multi([0.3]) == p_single(0.3)

    def test_empty_product(self):
        assert p_multi([]) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            p_multi([0.5, -0.1])
        with pytest.raises(ValueError):
            p_multi([0.7, 0.7])

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.1])
    def test_fraction_out_of_range_raises_in_p_single(self, bad):
        with pytest.raises(ValueError):
            p_multi([0.25, bad])

    @given(st.lists(st.floats(0, 1), max_size=5))
    @settings(max_examples=200)
    def test_single_step_dominates(self, deltas):
        total = sum(deltas)
        if total > 1:
            return
        assert p_multi(deltas) <= p_single(total) + 1e-12


class TestLemma1Bound:
    def test_reference(self):
        assert lemma1_bound(0.5, 7) == 0.0078125

    def test_k_two(self):
        assert lemma1_bound(0.5, 2) == 0.25

    def test_k_one_is_p_single(self):
        assert lemma1_bound(0.3, 1) == p_single(0.3)

    @pytest.mark.parametrize("delta", [0.1, 0.3125, 0.5])
    @pytest.mark.parametrize("k", [1, 7, 37, 368])
    def test_is_the_k_copy_law(self, delta, k):
        assert lemma1_bound(delta, k) == p_accept(delta, k) == p_single(delta) ** k

    def test_domain(self):
        with pytest.raises(ValueError):
            lemma1_bound(0.5, 0)
        with pytest.raises(ValueError):
            lemma1_bound(0.0, 3)
        with pytest.raises(ValueError):
            lemma1_bound(1.5, 3)


class TestT2Identity:
    def test_rederived_matches_direct(self):
        # the quarter/quarter split: direct gap is 0.5 - 0.390625
        direct = p_single(0.5) - p_multi([0.25, 0.25])
        assert direct == 0.109375
        assert rederived_t2_identity(0.25, 0.5) == pytest.approx(direct, abs=1e-15)

    def test_sign_variant_disagrees(self):
        # same expression with the inner sign flipped: off by 2*(D1*D2)^2 here
        assert printed_t2_identity_variant(0.25, 0.5) == 0.140625
        assert printed_t2_identity_variant(0.25, 0.5) != pytest.approx(0.109375, abs=1e-3)

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=200)
    def test_rederived_form_everywhere(self, d1, total):
        if d1 > total:
            d1, total = total, d1
        direct = p_single(total) - p_single(d1) * p_single(total - d1)
        assert rederived_t2_identity(d1, total) == pytest.approx(direct, abs=1e-12)


class TestVerifyLemma2:
    def test_small_grid_passes(self):
        report = verify_lemma2(grid=6, t_max=3)
        assert report.passed
        assert report.details["violations"] == 0
        # tuples of length 1..3 with entries summing to <= 6
        assert report.samples == 7 + 28 + 84
        assert report.details["t2_identity_consistent"]
        assert not report.details["t2_variant_consistent"]
        assert report.details["t2_variant_max_dev"] > report.tolerance

    def test_margin_never_positive(self):
        report = verify_lemma2(grid=5, t_max=2)
        assert report.analytic["max_margin"] <= report.tolerance

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            verify_lemma2(grid=0)
        with pytest.raises(ValueError):
            verify_lemma2(t_max=1)

    def test_oversized_grid_rejected_before_enumerating(self):
        # sum over T <= 8 of C(200 + T, T) is about 7.9e13 schedules
        with pytest.raises(ValueError, match="cap"):
            verify_lemma2(grid=200, t_max=8)
        with pytest.raises(ValueError, match="cap"):
            verify_lemma2(grid=1, t_max=10**9)

    def test_default_and_benchmark_grids_under_cap(self):
        for grid, t_max in ((20, 4), (36, 4)):
            count = sum(math.comb(grid + t, t) for t in range(1, t_max + 1))
            assert count < MAX_LEMMA2_SCHEDULES
        assert verify_lemma2().samples == 12649

    @pytest.mark.parametrize("t_max", [2, 3, 4])
    @pytest.mark.parametrize("grid", [1, 2, 5, 6, 20])
    def test_matches_reference_enumeration(self, grid, t_max):
        margins = reference_margins(grid, t_max)
        # every one-step schedule has margin 0, so a negative tolerance makes the
        # violation count nonzero; a tolerance equal to one of the margins moves the
        # count if that margin is off by one ulp
        for tolerance in (1e-12, -1e-3, sorted(margins)[len(margins) // 3]):
            report = verify_lemma2(grid=grid, t_max=t_max, tolerance=tolerance)
            assert report.samples == len(margins)
            assert report.details["violations"] == sum(x > tolerance for x in margins)
            assert report.analytic["max_margin"] == max(margins)

    @pytest.mark.parametrize("t_max", [2, 3, 4])
    @pytest.mark.parametrize("grid", [1, 2, 3, 4, 5, 6])
    def test_matches_reference_under_a_law_that_breaks_lemma2(self, grid, t_max, monkeypatch):
        # p(a) * p(b) = p(a + b) + a*b/4 under 1 - f/2, so every split with two nonzero parts
        # beats the single step; the largest margin and every violation must still be exact
        monkeypatch.setattr(analysis, "p_single", lambda f: 1.0 - f / 2)
        margins = reference_margins(grid, t_max)
        for tolerance in (analysis.FLOAT_TOL, -1e-3, sorted(margins)[len(margins) // 2]):
            report = verify_lemma2(grid=grid, t_max=t_max, tolerance=tolerance)
            assert report.samples == len(margins)
            assert report.details["violations"] == sum(x > tolerance for x in margins)
            assert report.analytic["max_margin"] == max(margins)
        assert (verify_lemma2(grid=grid, t_max=t_max).details["violations"] > 0) == (grid > 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected_before_counting(self, bad, monkeypatch):
        # an infinite tolerance would pass every schedule, and a NaN one compare false to all
        monkeypatch.setattr(analysis, "p_single", lambda f: pytest.fail("counted before the tolerance check"))
        with pytest.raises(ValueError, match="tolerance"):
            verify_lemma2(grid=6, t_max=3, tolerance=bad)

    def test_violations_fail_the_report(self):
        report = verify_lemma2(grid=6, t_max=3, tolerance=-1e-3)
        assert report.details["violations"] > 0
        assert not report.passed

    def test_blocks_cover_every_schedule_once(self, monkeypatch):
        # tiny blocks split parents across many blocks; the totals must not change. Only a
        # margin over the tolerance sends the check to the exact enumeration.
        real = analysis._schedule_margins
        runs = []

        def recorded(*args):
            runs.append(args)
            return real(*args)

        monkeypatch.setattr(analysis, "_schedule_margins", recorded)
        for tolerance, enumerates in ((analysis.FLOAT_TOL, False), (-1e-2, True)):
            runs.clear()
            want = verify_lemma2(grid=7, t_max=4, tolerance=tolerance).to_dict()
            with monkeypatch.context() as tiny:
                tiny.setattr(engine, "CHUNK_BYTES", 5 * 64)  # blocks of 5 children at 64 bytes each
                assert verify_lemma2(grid=7, t_max=4, tolerance=tolerance).to_dict() == want
            assert len(runs) == (2 if enumerates else 0)
            assert want["passed"] != enumerates

    @pytest.mark.parametrize("cap", [1, 5, 12, 40, 10**6])
    def test_child_blocks_are_whole_parents_up_to_the_cap(self, cap):
        # each block takes every next parent whose children still fit, and at least one
        grid = 9
        table = p_single(np.arange(grid + 1) / grid)
        sums = np.random.default_rng(cap).integers(0, grid + 1, size=30)
        prods = np.random.default_rng(cap + 1).random(30)
        children = (grid + 1 - sums).tolist()
        blocks = list(analysis._child_blocks(sums, prods, table, cap))
        first = 0
        for block_sums, block_prods in blocks:
            counts, size = [], block_sums.size
            while size:
                counts.append(children[first + len(counts)])
                size -= counts[-1]
            assert size == 0 and (sum(counts) <= cap or len(counts) == 1)
            assert first + len(counts) == len(children) or sum(counts) + children[first + len(counts)] > cap
            first += len(counts)
        assert first == len(children)
        want = [(s + g, x * table[g]) for s, x in zip(sums.tolist(), prods.tolist()) for g in range(grid + 1 - s)]
        got = np.concatenate([b[0] for b in blocks]).tolist(), np.concatenate([b[1] for b in blocks]).tolist()
        assert list(zip(*got)) == want

    def test_memory_does_not_grow_with_schedule_count(self):
        # 4,292,144 schedules at (20, 8), 9,692,802 at (4400, 2): as whole arrays, their sums
        # and products alone are 69 MB and 155 MB. A negative tolerance makes the check
        # enumerate them. At t_max 2 every sum has one parent, so no level is smaller per sum.
        for grid, t_max, tolerance in ((20, 8, analysis.FLOAT_TOL), (20, 8, -1e-3), (4400, 2, analysis.FLOAT_TOL)):
            tracemalloc.start()
            try:
                report = verify_lemma2(grid=grid, t_max=t_max, tolerance=tolerance)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.samples == sum(math.comb(grid + t, t) for t in range(1, t_max + 1))
            assert report.passed == (tolerance > 0)
            assert peak < 4 * 2**20, (grid, t_max, tolerance)


class TestVerifySwapOracle:
    def test_small_run_passes(self):
        report = verify_swap_oracle(sizes=(2, 8), pairs_per_size=40, seed=5)
        assert report.passed
        assert report.samples == 80
        assert report.empirical <= 1e-10

    @pytest.mark.parametrize("pairs", [0, -3])
    def test_no_pairs_rejected(self, pairs):
        # 0 samples would pass vacuously
        with pytest.raises(ValueError, match="pairs_per_size"):
            verify_swap_oracle(sizes=(2,), pairs_per_size=pairs)

    def test_deterministic(self):
        a = verify_swap_oracle(sizes=(4,), pairs_per_size=10, seed=9)
        b = verify_swap_oracle(sizes=(4,), pairs_per_size=10, seed=9)
        assert a.empirical == b.empirical

    @pytest.mark.parametrize(
        "sizes, pairs, seed",
        [((2, 4, 8, 16, 32), 200, 0), ((2, 4, 8, 16, 32), 200, 1), ((1, 2, 64), 20, 5), ((32,), 9, 3)],
    )
    def test_matches_per_pair_reference(self, sizes, pairs, seed, monkeypatch):
        # the circuit must see the reference's pairs, not only reach its worst deviation
        seen = []
        real = analysis.cswap_statevector_probs

        def recorded(a, b):
            seen.extend(zip(a.copy(), b.copy()))
            return real(a, b)

        monkeypatch.setattr(analysis, "cswap_statevector_probs", recorded)
        report = verify_swap_oracle(sizes=sizes, pairs_per_size=pairs, seed=seed)
        want, worst = reference_oracle(sizes, pairs, seed)
        assert report.empirical == worst
        assert report.samples == len(sizes) * pairs == len(seen) == len(want)
        for (a, b), (ref_a, ref_b) in zip(seen, want):
            assert np.array_equal(a, ref_a) and np.array_equal(b, ref_b)

    def test_blocks_cover_every_pair_once(self, monkeypatch):
        # any power-of-two cap of 2 or more amplitude entries (16 bytes each: 32 or more chunk bytes)
        # draws the same pairs and gives the same report; odd pair counts at m = 1 end a size
        # on a draw of 2 (mod 4) bytes
        sizes, pairs = (1, 64, 2, 1, 32), 37
        real = analysis.cswap_statevector_probs
        runs = []
        for cap in (2, 2**4, 2**8, 2**12, engine.CHUNK_BYTES // 16, 2**16, 2**20):
            seen = []

            def recorded(a, b):
                seen.append(np.concatenate([a, b], axis=1).tobytes())
                return real(a, b)

            monkeypatch.setattr(engine, "CHUNK_BYTES", 16 * cap)
            monkeypatch.setattr(analysis, "cswap_statevector_probs", recorded)
            report = verify_swap_oracle(sizes=sizes, pairs_per_size=pairs, seed=4).to_dict()
            monkeypatch.undo()
            runs.append((report, b"".join(seen)))
        assert len({run[1] for run in runs}) == 1
        assert all(run[0] == runs[0][0] for run in runs)

    @pytest.mark.parametrize("sizes", [(2, 3), (0,), (-4,), (4, 2 * MAX_ORACLE_M), (6,)])
    def test_bad_size_rejected_before_any_work(self, sizes, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("ran before the sizes were checked")

        monkeypatch.setattr(np.random, "default_rng", no_work)
        monkeypatch.setattr(analysis, "cswap_statevector_probs", no_work)
        with pytest.raises(ValueError, match=f"power of two in \\[1, {MAX_ORACLE_M}\\], got {sizes[-1]}$"):
            verify_swap_oracle(sizes=sizes, pairs_per_size=10)

    def test_oversized_pair_count_rejected_before_any_work(self, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew before the cap check"))
        start = time.monotonic()
        with pytest.raises(ValueError, match="cap"):
            verify_swap_oracle(sizes=(2, 4), pairs_per_size=MAX_ORACLE_PAIRS // 2 + 1)
        with pytest.raises(ValueError, match="cap"):
            verify_swap_oracle(pairs_per_size=10**8)
        assert time.monotonic() - start < 1.0

    def test_pair_cap_is_inclusive(self):
        # exactly MAX_ORACLE_PAIRS pairs is allowed; the check counts over all sizes
        assert MAX_ORACLE_PAIRS == 10**6
        with pytest.raises(ValueError, match="tolerance"):
            verify_swap_oracle(sizes=(1, 2), pairs_per_size=MAX_ORACLE_PAIRS // 2, tolerance=-1.0)

    def test_memory_does_not_grow_with_pair_count(self):
        # 2,000 pairs of 4,096 accept-branch entries are 66 MB as one array
        tracemalloc.start()
        try:
            report = verify_swap_oracle(sizes=(64,), pairs_per_size=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.samples == 2000 and report.passed
        assert peak < 4 * 2**20


class TestBoundReport:
    def test_to_dict(self):
        report = BoundReport(
            name="x", analytic={"v": 1.0}, empirical=0.9, samples=10,
            std_error=0.03, tolerance=0.12, passed=True, details={"note": 1},
        )
        d = report.to_dict()
        assert d["name"] == "x"
        assert d["analytic"] == {"v": 1.0}
        assert d["passed"] is True
        # exported dicts are copies, not views of the report's state
        d["analytic"]["v"] = 2.0
        assert report.analytic["v"] == 1.0

    def test_every_field_is_required(self):
        # a check that leaves out its verdict cannot pass by default
        with pytest.raises(TypeError):
            BoundReport(name="x", analytic={"v": 1.0})


def test_binomial_std_error():
    assert binomial_std_error(0.5, 100) == pytest.approx(0.05)
    assert binomial_std_error(0.0, 50) == 0.0
    with pytest.raises(ValueError):
        binomial_std_error(0.5, 0)


def test_report_dict_is_asdict_for_every_report_kind():
    # to_dict copies two levels where asdict copies every level; the documents must not differ
    flips = ExperimentConfig(n=4, k=2, attack=FlipCount(bits_per_step=3), steps=2, trials=50)
    honest = ExperimentConfig(n=3, trials=20)
    reports = [r for c in (flips, honest) for r in _attach_bounds(c, run_experiment(c).aggregates)]
    reports += [verify_lemma2(grid=4, t_max=2), verify_swap_oracle(sizes=(2, 4), pairs_per_size=3)]
    kinds = {"step_accept", "all_accept", "honest_completeness", "single_step_dominance", "swap_oracle_equivalence"}
    assert {r.name.partition("[")[0] for r in reports} == kinds
    for report in reports:
        out = report.to_dict()
        assert out == dataclasses.asdict(report)
        assert list(out) == list(dataclasses.asdict(report))
        assert out["analytic"] is not report.analytic and out["details"] is not report.details
