import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmemcheck import adversary
from qmemcheck.adversary import (
    SCHEDULES,
    ConfigError,
    FlipCount,
    IncrementalAttack,
    NoOpAttack,
    ScheduleError,
    SubstituteCodeword,
    apply_step,
    round_half_up,
)
from qmemcheck.bits import hamming_distance
from qmemcheck.checker import PublicMemory, new_checker, store
from qmemcheck.code import HadamardCode
from qmemcheck.harness import ExperimentConfig, run_experiment


def fresh_memory(code, msg):
    """Memory after one store of msg, and the stored codeword as the baseline,
    exactly as a session holds them (a first store draws no randomness)."""
    state, mem = new_checker(code, 0.01), PublicMemory()
    store(state, mem, msg, np.random.default_rng(0))
    return mem, state.fingerprint.phases


class TestRounding:
    def test_round_half_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(1.5) == 2
        assert round_half_up(2.4) == 2
        assert round_half_up(2.0) == 2
        assert round_half_up(0.49) == 0


class TestScheduleValidation:
    def test_incremental_needs_steps(self):
        with pytest.raises(ValueError):
            IncrementalAttack(deltas=())

    def test_incremental_delta_range(self):
        with pytest.raises(ValueError):
            IncrementalAttack(deltas=(0.5, -0.1))
        with pytest.raises(ValueError):
            IncrementalAttack(deltas=(0.7, 0.7))  # sum > 1

    def test_position_policy_checked(self):
        with pytest.raises(ValueError):
            IncrementalAttack(deltas=(0.25,), policy="sideways")
        with pytest.raises(ValueError):
            FlipCount(bits_per_step=1, policy="sideways")

    def test_flip_count_nonnegative(self):
        with pytest.raises(ValueError):
            FlipCount(bits_per_step=-1)

    def test_intrinsic_steps(self):
        assert NoOpAttack().intrinsic_steps is None
        assert SubstituteCodeword().intrinsic_steps == 1
        assert FlipCount(bits_per_step=2).intrinsic_steps is None
        assert IncrementalAttack(deltas=(0.25, 0.25)).intrinsic_steps == 2

    @pytest.mark.parametrize("bits", [2.5, "3", True])
    def test_flip_count_must_be_integer(self, bits):
        with pytest.raises(ConfigError) as exc:
            FlipCount(bits_per_step=bits)
        assert exc.value.path == "bits_per_step"

    def test_deltas_normalised_to_float_tuple(self):
        sched = IncrementalAttack(deltas=[0, 0.25])
        assert sched.deltas == (0.0, 0.25)
        assert all(type(d) is float for d in sched.deltas)
        assert hash(sched) == hash(IncrementalAttack(deltas=(0.0, 0.25)))

    @pytest.mark.parametrize("deltas", ["0.5", [0.5, None], [True]])
    def test_deltas_must_be_numbers(self, deltas):
        with pytest.raises(ConfigError) as exc:
            IncrementalAttack(deltas=deltas)
        assert exc.value.path == "deltas"

    def test_field_types_checked(self):
        with pytest.raises(ConfigError):
            IncrementalAttack(deltas=(0.25,), require_reach=1)
        with pytest.raises(ConfigError):
            SubstituteCodeword(target=101)
        with pytest.raises(ConfigError):
            SubstituteCodeword(target="10x")

    def test_step_flip_counts(self):
        sched = IncrementalAttack(deltas=(0.25, 0.25))
        assert sched.step_flip_counts(8) == (2, 2)
        assert sched.step_flip_counts(6) == (2, 2)  # 1.5 rounds up

    def test_step_flip_counts_are_computed_once_per_m(self, monkeypatch):
        calls = []

        def counting(x):
            calls.append(x)
            return round_half_up(x)

        monkeypatch.setattr(adversary, "round_half_up", counting)
        schedule = IncrementalAttack(deltas=(0.02,) * 50)
        run_experiment(ExperimentConfig(n=4, k=1, attack=schedule, trials=3))
        assert len(calls) <= 50  # check, every apply and every step law read the counts at m=16
        schedule.step_distances(HadamardCode(3), "random", 49)
        assert len(calls) <= 100  # a second m computes its own counts once


class TestScheduleProtocol:
    def test_kind_table(self):
        assert SCHEDULES == {
            "noop": NoOpAttack,
            "substitute": SubstituteCodeword,
            "flip_count": FlipCount,
            "incremental": IncrementalAttack,
        }

    def test_to_dict(self):
        assert NoOpAttack().to_dict() == {"kind": "noop"}
        assert SubstituteCodeword("01").to_dict() == {"kind": "substitute", "target": "01"}
        assert FlipCount(3).to_dict() == {"kind": "flip_count", "bits_per_step": 3, "policy": "uniform"}
        assert IncrementalAttack([0.5]).to_dict() == {
            "kind": "incremental", "deltas": (0.5,), "policy": "uniform", "require_reach": False,
        }

    def test_apply_draws_distinct_target(self, rng):
        # a random target is drawn as the step applies: another codeword, at half distance
        code = HadamardCode(3)
        codewords = {tuple(code.encode(f"{x:03b}")) for x in range(8)}
        for _ in range(20):
            mem, baseline = fresh_memory(code, "101")
            apply_step(SubstituteCodeword(), 0, mem, code, baseline, rng)
            assert tuple(mem.bits) in codewords
            assert hamming_distance(baseline, mem.bits) == 4

    def test_apply_fixed_choices_draw_nothing(self, rng):
        code = HadamardCode(3)
        for sched in (NoOpAttack(), SubstituteCodeword("011"), FlipCount(1, policy="prefix")):
            mem, baseline = fresh_memory(code, "101")
            before = rng.bit_generator.state
            apply_step(sched, 0, mem, code, baseline, rng)
            assert rng.bit_generator.state == before

    def test_step_distances(self):
        code = HadamardCode(3)
        assert NoOpAttack().step_distances(code, "random", 0) == {0: 1.0}
        assert FlipCount(3).step_distances(code, "random", 2) == {3: 1.0}
        assert FlipCount(20, policy="prefix").step_distances(code, "101", 0) == {8: 1.0}
        assert IncrementalAttack((0.25, 0.5)).step_distances(code, "random", 1) == {4: 1.0}
        assert SubstituteCodeword().step_distances(code, "random", 0) == {4: 1.0}
        assert SubstituteCodeword("011").step_distances(code, "101", 0) == {4: 1.0}
        # a random message equals the fixed target in 1 of 2^n sessions
        assert SubstituteCodeword("011").step_distances(code, "random", 0) == {4: 7 / 8, 0: 1 / 8}

    def test_check_overflowing_increments(self):
        # m=2: four quarter steps each round up to one flip, 4 > 2
        with pytest.raises(ConfigError) as exc:
            IncrementalAttack(deltas=(0.25,) * 4).check(HadamardCode(1), "random")
        assert exc.value.path == "deltas"
        IncrementalAttack(deltas=(0.25,) * 4).check(HadamardCode(3), "random")

    def test_check_substitute_target(self):
        code = HadamardCode(3)
        SubstituteCodeword("011").check(code, "101")
        with pytest.raises(ConfigError):
            SubstituteCodeword("0110").check(code, "random")
        with pytest.raises(ConfigError):
            SubstituteCodeword("101").check(code, "101")


class TestNoOp(object):
    def test_memory_untouched(self, rng):
        code = HadamardCode(3)
        mem, baseline = fresh_memory(code, "101")
        before = mem.bits.copy()
        apply_step(NoOpAttack(), 0, mem, code, baseline, rng)
        assert np.array_equal(mem.bits, before)
        assert hamming_distance(baseline, mem.bits) == 0


class TestSubstitute(object):
    def test_distance_becomes_half(self, rng):
        code = HadamardCode(3)
        mem, baseline = fresh_memory(code, "100")
        apply_step(SubstituteCodeword(target="001"), 0, mem, code, baseline, rng)
        assert np.array_equal(mem.bits, code.encode("001"))
        assert hamming_distance(baseline, mem.bits) == 4

    def test_second_step_rejected(self, rng):
        code = HadamardCode(3)
        mem, baseline = fresh_memory(code, "100")
        sched = SubstituteCodeword(target="001")
        apply_step(sched, 0, mem, code, baseline, rng)
        with pytest.raises(ScheduleError):
            apply_step(sched, 1, mem, code, baseline, rng)


class TestFlipCount(object):
    def test_prefix_policy(self, rng):
        code = HadamardCode(3)
        mem, baseline = fresh_memory(code, "000")
        apply_step(FlipCount(bits_per_step=3, policy="prefix"), 0, mem, code, baseline, rng)
        assert mem.bits.tolist() == [1, 1, 1, 0, 0, 0, 0, 0]

    def test_uniform_flips_exact_count(self, rng):
        code = HadamardCode(4)
        mem, baseline = fresh_memory(code, "0000")
        apply_step(FlipCount(bits_per_step=5), 0, mem, code, baseline, rng)
        assert int(mem.bits.sum()) == 5

    def test_repeat_steps_may_undo(self, rng):
        # prefix policy flips the same positions twice: back to the codeword
        code = HadamardCode(3)
        mem, baseline = fresh_memory(code, "000")
        sched = FlipCount(bits_per_step=2, policy="prefix")
        apply_step(sched, 0, mem, code, baseline, rng)
        apply_step(sched, 1, mem, code, baseline, rng)
        assert not (mem.bits != baseline).any()


class TestIncremental(object):
    def test_two_quarter_steps(self, rng):
        # m=8: two bits per step, disjoint, half distance after both
        code = HadamardCode(3)
        mem, baseline = fresh_memory(code, "101")
        sched = IncrementalAttack(deltas=(0.25, 0.25))
        apply_step(sched, 0, mem, code, baseline, rng)
        assert hamming_distance(baseline, mem.bits) == 2
        apply_step(sched, 1, mem, code, baseline, rng)
        assert np.count_nonzero(mem.bits != baseline) == 4

    def test_prefix_positions(self, rng):
        code = HadamardCode(3)
        mem, baseline = fresh_memory(code, "000")
        sched = IncrementalAttack(deltas=(0.25, 0.25), policy="prefix")
        apply_step(sched, 0, mem, code, baseline, rng)
        apply_step(sched, 1, mem, code, baseline, rng)
        assert mem.bits.tolist() == [1, 1, 1, 1, 0, 0, 0, 0]

    def test_step_out_of_range(self, rng):
        code = HadamardCode(3)
        mem, baseline = fresh_memory(code, "101")
        sched = IncrementalAttack(deltas=(0.25,))
        apply_step(sched, 0, mem, code, baseline, rng)
        with pytest.raises(ScheduleError):
            apply_step(sched, 1, mem, code, baseline, rng)

    @pytest.mark.parametrize("policy", ["uniform", "prefix"])
    def test_never_draws_a_marked_position(self, policy):
        # with 12 of 16 positions marked, a quarter step must take exactly the other 4
        code = HadamardCode(4)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            mem, baseline = fresh_memory(code, "0000")
            marked = rng.choice(16, size=12, replace=False)
            mem.adversary_flip(marked)
            before = mem.bits.copy()
            apply_step(IncrementalAttack(deltas=(0.25,), policy=policy), 0, mem, code, baseline, rng)
            drawn = np.flatnonzero(mem.bits != before)
            assert sorted(drawn.tolist()) == sorted(set(range(16)) - set(marked.tolist()))
            assert (mem.bits != baseline).all()

    def test_exhausted_fresh_positions(self, rng):
        # rounding half-fractions up makes the flip total overflow m here:
        # m=4 gives counts 2, 2, 1, but only 4 positions exist
        code = HadamardCode(2)
        mem, baseline = fresh_memory(code, "00")
        sched = IncrementalAttack(deltas=(0.375, 0.375, 0.25))
        apply_step(sched, 0, mem, code, baseline, rng)
        apply_step(sched, 1, mem, code, baseline, rng)
        with pytest.raises(ScheduleError):
            apply_step(sched, 2, mem, code, baseline, rng)

    @pytest.mark.parametrize("policy", ["uniform", "prefix"])
    @pytest.mark.parametrize("n, deltas", [(2, (1.0, 0.0)), (3, (0.5, 0.5, 0.0))])
    def test_trailing_zero_step_with_no_fresh_position(self, n, deltas, policy, rng):
        # the earlier steps flip all m positions, so the last one picks 0 of f = 0
        code = HadamardCode(n)
        mem, baseline = fresh_memory(code, "1" * n)
        sched = IncrementalAttack(deltas=deltas, policy=policy)
        for step in range(len(deltas)):
            apply_step(sched, step, mem, code, baseline, rng)
        assert (mem.bits != baseline).all()

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=30, deadline=None)
    def test_disjoint_and_cumulative(self, n, data):
        m = 2**n
        budget = m
        counts = []
        remaining = budget
        for _ in range(data.draw(st.integers(1, 3))):
            c = data.draw(st.integers(0, remaining))
            counts.append(c)
            remaining -= c
        deltas = tuple(c / m for c in counts)
        if not deltas or sum(deltas) > 1:
            return
        code = HadamardCode(n)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        mem, baseline = fresh_memory(code, "0" * n)
        sched = IncrementalAttack(deltas=deltas)
        total = 0
        for step, c in enumerate(counts):
            apply_step(sched, step, mem, code, baseline, rng)
            total += c
            assert np.count_nonzero(mem.bits != baseline) == total


class TestBaseline:
    def test_read_only_and_unchanged_by_flips(self, rng):
        # the baseline is the stored codeword, shared with the checker: steps only read it
        code = HadamardCode(3)
        mem, baseline = fresh_memory(code, "101")
        with pytest.raises(ValueError):
            baseline[0] = 1
        apply_step(FlipCount(bits_per_step=2, policy="prefix"), 0, mem, code, baseline, rng)
        assert baseline.tolist() == code.encode("101").tolist()
        assert hamming_distance(baseline, mem.bits) == 2


class TestReachability:
    def test_exact_budget(self):
        code = HadamardCode(3)
        IncrementalAttack(deltas=(0.25, 0.25), require_reach=True).check(code, "random")

    def test_under_budget(self):
        code = HadamardCode(3)
        with pytest.raises(ConfigError):
            IncrementalAttack(deltas=(0.1, 0.1), require_reach=True).check(code, "random")

    def test_single_step(self):
        code = HadamardCode(3)
        IncrementalAttack(deltas=(0.5,), require_reach=True).check(code, "random")
