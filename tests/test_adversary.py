import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmemcheck.adversary import (
    SCHEDULES,
    AdversaryLog,
    ConfigError,
    FlipCount,
    IncrementalAttack,
    NoOpAttack,
    ScheduleError,
    SubstituteCodeword,
    apply_step,
    codeword_reachability_check,
    round_half_up,
)
from qmemcheck.bits import as_bits, hamming_distance
from qmemcheck.checker import PublicMemory
from qmemcheck.code import HadamardCode


def fresh_memory(code, msg):
    mem = PublicMemory()
    mem.write(code.encode(msg))
    return mem, AdversaryLog(mem.bits)


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
        assert sched.step_flip_counts(8) == [2, 2]
        assert sched.step_flip_counts(6) == [2, 2]  # 1.5 rounds up


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

    def test_resolve_draws_distinct_target(self, rng):
        current = as_bits("101")
        for _ in range(20):
            resolved = SubstituteCodeword().resolve(current, rng)
            assert len(resolved.target) == 3 and resolved.target != "101"

    def test_resolve_keeps_fixed_choices(self, rng):
        for sched in (NoOpAttack(), SubstituteCodeword("011"), FlipCount(1), IncrementalAttack((0.5,))):
            assert sched.resolve(as_bits("101"), rng) is sched

    def test_check_overflowing_increments(self):
        # m=2: four quarter steps each round up to one flip, 4 > 2
        with pytest.raises(ConfigError) as exc:
            IncrementalAttack(deltas=(0.25,) * 4).check(HadamardCode(1).params, "random")
        assert exc.value.path == "deltas"
        IncrementalAttack(deltas=(0.25,) * 4).check(HadamardCode(3).params, "random")

    def test_check_substitute_target(self):
        params = HadamardCode(3).params
        SubstituteCodeword("011").check(params, "101")
        with pytest.raises(ConfigError):
            SubstituteCodeword("0110").check(params, "random")
        with pytest.raises(ConfigError):
            SubstituteCodeword("101").check(params, "101")


class TestNoOp(object):
    def test_memory_untouched(self, rng):
        code = HadamardCode(3)
        mem, log = fresh_memory(code, "101")
        before = mem.bits.copy()
        apply_step(NoOpAttack(), 0, mem, code, log, rng)
        assert np.array_equal(mem.bits, before)
        assert hamming_distance(log.baseline, mem.bits) == 0
        assert not log.flipped.any()


class TestSubstitute(object):
    def test_distance_becomes_half(self, rng):
        code = HadamardCode(3)
        mem, log = fresh_memory(code, "100")
        apply_step(SubstituteCodeword(target="001"), 0, mem, code, log, rng)
        assert np.array_equal(mem.bits, code.encode("001"))
        assert hamming_distance(log.baseline, mem.bits) == 4
        assert np.array_equal(np.flatnonzero(log.flipped), np.flatnonzero(mem.bits != log.baseline))

    def test_unresolved_random_rejected(self, rng):
        code = HadamardCode(3)
        mem, log = fresh_memory(code, "100")
        with pytest.raises(ScheduleError):
            apply_step(SubstituteCodeword(target="random"), 0, mem, code, log, rng)

    def test_second_step_rejected(self, rng):
        code = HadamardCode(3)
        mem, log = fresh_memory(code, "100")
        sched = SubstituteCodeword(target="001")
        apply_step(sched, 0, mem, code, log, rng)
        with pytest.raises(ScheduleError):
            apply_step(sched, 1, mem, code, log, rng)


class TestFlipCount(object):
    def test_prefix_policy(self, rng):
        code = HadamardCode(3)
        mem, log = fresh_memory(code, "000")
        apply_step(FlipCount(bits_per_step=3, policy="prefix"), 0, mem, code, log, rng)
        assert mem.bits.tolist() == [1, 1, 1, 0, 0, 0, 0, 0]

    def test_uniform_flips_exact_count(self, rng):
        code = HadamardCode(4)
        mem, log = fresh_memory(code, "0000")
        apply_step(FlipCount(bits_per_step=5), 0, mem, code, log, rng)
        assert int(mem.bits.sum()) == 5

    def test_repeat_steps_may_undo(self, rng):
        # prefix policy flips the same positions twice: back to the codeword
        code = HadamardCode(3)
        mem, log = fresh_memory(code, "000")
        sched = FlipCount(bits_per_step=2, policy="prefix")
        apply_step(sched, 0, mem, code, log, rng)
        apply_step(sched, 1, mem, code, log, rng)
        assert hamming_distance(log.baseline, mem.bits) == 0
        assert np.flatnonzero(log.flipped).tolist() == [0, 1]  # touched, though flipped back


class TestIncremental(object):
    def test_two_quarter_steps(self, rng):
        # m=8: two bits per step, disjoint, half distance after both
        code = HadamardCode(3)
        mem, log = fresh_memory(code, "101")
        sched = IncrementalAttack(deltas=(0.25, 0.25))
        apply_step(sched, 0, mem, code, log, rng)
        assert hamming_distance(log.baseline, mem.bits) == 2
        apply_step(sched, 1, mem, code, log, rng)
        assert hamming_distance(log.baseline, mem.bits) == 4
        assert np.flatnonzero(log.flipped).size == 4

    def test_prefix_positions(self, rng):
        code = HadamardCode(3)
        mem, log = fresh_memory(code, "000")
        sched = IncrementalAttack(deltas=(0.25, 0.25), policy="prefix")
        apply_step(sched, 0, mem, code, log, rng)
        apply_step(sched, 1, mem, code, log, rng)
        assert mem.bits.tolist() == [1, 1, 1, 1, 0, 0, 0, 0]

    def test_step_out_of_range(self, rng):
        code = HadamardCode(3)
        mem, log = fresh_memory(code, "101")
        sched = IncrementalAttack(deltas=(0.25,))
        apply_step(sched, 0, mem, code, log, rng)
        with pytest.raises(ScheduleError):
            apply_step(sched, 1, mem, code, log, rng)

    @pytest.mark.parametrize("policy", ["uniform", "prefix"])
    def test_never_draws_a_marked_position(self, policy):
        # with 12 of 16 positions marked, a quarter step must take exactly the other 4
        code = HadamardCode(4)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            mem, log = fresh_memory(code, "0000")
            marked = rng.choice(16, size=12, replace=False)
            log.record_step(marked)
            apply_step(IncrementalAttack(deltas=(0.25,), policy=policy), 0, mem, code, log, rng)
            drawn = np.flatnonzero(mem.bits != log.baseline)
            assert sorted(drawn.tolist()) == sorted(set(range(16)) - set(marked.tolist()))
            assert log.flipped.all()

    def test_exhausted_fresh_positions(self, rng):
        # rounding half-fractions up makes the flip total overflow m here:
        # m=4 gives counts 2, 2, 1, but only 4 positions exist
        code = HadamardCode(2)
        mem, log = fresh_memory(code, "00")
        sched = IncrementalAttack(deltas=(0.375, 0.375, 0.25))
        apply_step(sched, 0, mem, code, log, rng)
        apply_step(sched, 1, mem, code, log, rng)
        with pytest.raises(ScheduleError):
            apply_step(sched, 2, mem, code, log, rng)

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
        mem, log = fresh_memory(code, "0" * n)
        sched = IncrementalAttack(deltas=deltas)
        total = 0
        for step, c in enumerate(counts):
            apply_step(sched, step, mem, code, log, rng)
            total += c
            assert hamming_distance(log.baseline, mem.bits) == total
        assert np.flatnonzero(log.flipped).size == total


class TestAdversaryLog:
    def test_baseline_is_a_copy(self):
        mem = PublicMemory()
        mem.write(as_bits("0101"))
        log = AdversaryLog(mem.bits)
        mem.adversary_flip([0])
        assert log.baseline.tolist() == [0, 1, 0, 1]

    def test_flipped_union_sorted_unique(self, rng):
        code = HadamardCode(3)
        mem, log = fresh_memory(code, "000")
        log.record_step([5, 1])
        log.record_step([3])
        log.record_step([])
        assert np.flatnonzero(log.flipped).tolist() == [1, 3, 5]

    def test_relative_distance_tracks_memory(self):
        mem = PublicMemory()
        mem.write(as_bits("0000"))
        log = AdversaryLog(mem.bits)
        mem.adversary_flip([0, 1])
        assert hamming_distance(log.baseline, mem.bits) == 2


class TestReachability:
    def test_exact_budget(self):
        params = HadamardCode(3).params
        assert codeword_reachability_check(IncrementalAttack(deltas=(0.25, 0.25)), params)

    def test_under_budget(self):
        params = HadamardCode(3).params
        assert not codeword_reachability_check(IncrementalAttack(deltas=(0.1, 0.1)), params)

    def test_single_step(self):
        params = HadamardCode(3).params
        assert codeword_reachability_check(IncrementalAttack(deltas=(0.5,)), params)

    def test_type_checked(self):
        with pytest.raises(TypeError):
            codeword_reachability_check(NoOpAttack(), HadamardCode(3).params)
