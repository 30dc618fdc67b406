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
    round_half_up,
)
from qmemcheck.bits import as_bits, flip_rows, unpack_rows, word_count
from qmemcheck.code import HadamardCode
from qmemcheck.engine import OpDraws
from qmemcheck.harness import ExperimentConfig, run_experiment


def stored(code, msg, rows=1):
    """rows sessions right after a store of msg, as the engine holds them: zero
    corruption patterns P (memory xor stored codeword), packed, and the stored messages."""
    return np.zeros((rows, word_count(code.params.m)), dtype=np.uint64), np.tile(as_bits(msg), (rows, 1))


def run(schedule, step, patterns, message, code, rng):
    """One step of the schedule on the rows, each row's draws keyed from rng."""
    schedule.apply(step, patterns, message, code, OpDraws(rng.integers(2**64, size=len(patterns), dtype=np.uint64)))


def unpacked(patterns, code):
    return unpack_rows(patterns, code.params.m)


class UnreadableDraws(OpDraws):
    """Draws that fail when read: a step that makes a fixed choice reads none."""

    def __init__(self) -> None:
        pass

    @property
    def keys(self):
        raise AssertionError("the step read a draw")


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

    def test_step_flips(self):
        sched = IncrementalAttack(deltas=(0.25, 0.5))
        assert [sched.flips(step, 8) for step in (0, 1)] == [(2, True, "uniform"), (4, True, "uniform")]
        assert [sched.flips(step, 6)[0] for step in (0, 1)] == [2, 3]  # 1.5 rounds up

    def test_rounding_is_linear_in_the_steps(self, monkeypatch):
        # check sums every step's count once, and each step law and apply rounds its own step
        calls = []

        def counting(x):
            calls.append(x)
            return round_half_up(x)

        monkeypatch.setattr(adversary, "round_half_up", counting)
        steps = 10_000
        run_experiment(ExperimentConfig(n=4, k=1, attack=IncrementalAttack(deltas=(1e-5,) * steps), trials=2))
        assert steps <= len(calls) <= 4 * steps


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
        baseline = code.encode("101")
        codewords = {tuple(code.encode(f"{x:03b}")) for x in range(8)}
        patterns, message = stored(code, "101", rows=20)
        run(SubstituteCodeword(), 0, patterns, message, code, rng)
        for pattern in unpacked(patterns, code):
            assert tuple(pattern ^ baseline) in codewords
            assert int(pattern.sum()) == 4

    @pytest.mark.parametrize(
        "sched",
        [NoOpAttack(), SubstituteCodeword("011"), FlipCount(1, policy="prefix")],
        ids=["noop", "substitute-target", "flip_count-prefix"],
    )
    def test_apply_fixed_choice_reads_no_draw(self, sched):
        code = HadamardCode(3)
        patterns, message = stored(code, "101")
        sched.apply(0, patterns, message, code, UnreadableDraws())
        [distance] = sched.step_distances(code, "101", 0)
        assert int(unpacked(patterns, code).sum()) == distance

    @pytest.mark.parametrize(
        "sched, step",
        [(SubstituteCodeword("011"), 1), (IncrementalAttack((0.25, 0.5)), -1), (IncrementalAttack((0.25,)), 1)],
        ids=["substitute-second-step", "incremental-negative-step", "incremental-past-its-deltas"],
    )
    def test_step_the_schedule_does_not_provide_refused(self, sched, step, rng):
        code = HadamardCode(3)
        patterns, message = stored(code, "101")
        with pytest.raises(ScheduleError, match=f"step {step} is outside"):
            run(sched, step, patterns, message, code, rng)
        with pytest.raises(ScheduleError, match=f"step {step} is outside"):
            sched.step_distances(code, "101", step)
        assert not patterns.any()  # the pattern row is untouched

    def test_step_distances(self):
        code = HadamardCode(3)
        # a flip step's law is its rule's d flips; a substitution states no flip rule
        flips = [
            (NoOpAttack(), 0, 0), (FlipCount(3), 2, 3), (FlipCount(20, policy="prefix"), 0, 8),
            (IncrementalAttack((0.25, 0.5)), 1, 4),
        ]
        for sched, step, d in flips:
            assert sched.flips(step, code.params.m)[0] == d
            assert sched.step_distances(code, "101", step) == {d: 1.0}
        assert SubstituteCodeword().flips(0, code.params.m) is None
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
        patterns, message = stored(code, "101")
        run(NoOpAttack(), 0, patterns, message, code, rng)
        assert not patterns.any()


class TestSubstitute(object):
    def test_distance_becomes_half(self, rng):
        # the memory becomes C(001), so P is C(001) xor C(100)
        code = HadamardCode(3)
        patterns, message = stored(code, "100")
        run(SubstituteCodeword(target="001"), 0, patterns, message, code, rng)
        [pattern] = unpacked(patterns, code)
        assert np.array_equal(pattern ^ code.encode("100"), code.encode("001"))
        assert int(pattern.sum()) == 4


class TestFlipCount(object):
    def test_prefix_policy(self, rng):
        code = HadamardCode(3)
        patterns, message = stored(code, "101")
        run(FlipCount(bits_per_step=3, policy="prefix"), 0, patterns, message, code, rng)
        assert unpacked(patterns, code).tolist() == [[1, 1, 1, 0, 0, 0, 0, 0]]

    def test_uniform_flips_exact_count(self, rng):
        code = HadamardCode(4)
        patterns, message = stored(code, "0110", rows=10)
        run(FlipCount(bits_per_step=5), 0, patterns, message, code, rng)
        assert unpacked(patterns, code).sum(axis=1).tolist() == [5] * 10

    def test_repeat_steps_may_undo(self, rng):
        # prefix policy flips the same positions twice: back to the codeword
        code = HadamardCode(3)
        patterns, message = stored(code, "000")
        sched = FlipCount(bits_per_step=2, policy="prefix")
        run(sched, 0, patterns, message, code, rng)
        run(sched, 1, patterns, message, code, rng)
        assert not patterns.any()


class TestIncremental(object):
    def test_two_quarter_steps(self, rng):
        # m=8: two bits per step, disjoint, half distance after both
        code = HadamardCode(3)
        patterns, message = stored(code, "101")
        sched = IncrementalAttack(deltas=(0.25, 0.25))
        run(sched, 0, patterns, message, code, rng)
        assert int(unpacked(patterns, code).sum()) == 2
        run(sched, 1, patterns, message, code, rng)
        assert int(unpacked(patterns, code).sum()) == 4

    def test_prefix_positions(self, rng):
        code = HadamardCode(3)
        patterns, message = stored(code, "101")
        sched = IncrementalAttack(deltas=(0.25, 0.25), policy="prefix")
        run(sched, 0, patterns, message, code, rng)
        run(sched, 1, patterns, message, code, rng)
        assert unpacked(patterns, code).tolist() == [[1, 1, 1, 1, 0, 0, 0, 0]]

    @pytest.mark.parametrize("policy", ["uniform", "prefix"])
    def test_never_draws_a_marked_position(self, policy):
        # with 12 of 16 positions marked, a quarter step must take exactly the other 4
        code = HadamardCode(4)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            patterns, message = stored(code, "0110")
            marked = rng.choice(16, size=12, replace=False)
            flip_rows(patterns, marked[None, :])
            before = unpacked(patterns, code)
            run(IncrementalAttack(deltas=(0.25,), policy=policy), 0, patterns, message, code, rng)
            after = unpacked(patterns, code)
            drawn = np.flatnonzero(after[0] != before[0])
            assert sorted(drawn.tolist()) == sorted(set(range(16)) - set(marked.tolist()))
            assert after.all()

    def test_exhausted_fresh_positions(self, rng):
        # rounding half-fractions up makes the flip total overflow m here:
        # m=4 gives counts 2, 2, 1, but only 4 positions exist
        code = HadamardCode(2)
        patterns, message = stored(code, "00")
        sched = IncrementalAttack(deltas=(0.375, 0.375, 0.25))
        run(sched, 0, patterns, message, code, rng)
        run(sched, 1, patterns, message, code, rng)
        with pytest.raises(ScheduleError):
            run(sched, 2, patterns, message, code, rng)

    @pytest.mark.parametrize("policy", ["uniform", "prefix"])
    @pytest.mark.parametrize("n, deltas", [(2, (1.0, 0.0)), (3, (0.5, 0.5, 0.0))])
    def test_trailing_zero_step_with_no_fresh_position(self, n, deltas, policy, rng):
        # the earlier steps flip all m positions, so the last one picks 0 of f = 0
        code = HadamardCode(n)
        patterns, message = stored(code, "1" * n)
        sched = IncrementalAttack(deltas=deltas, policy=policy)
        for step in range(len(deltas)):
            run(sched, step, patterns, message, code, rng)
        assert unpacked(patterns, code).all()

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
        patterns, message = stored(code, "0" * n, rows=4)
        sched = IncrementalAttack(deltas=deltas)
        total = 0
        for step, c in enumerate(counts):
            before = unpacked(patterns, code)
            run(sched, step, patterns, message, code, rng)
            after = unpacked(patterns, code)
            total += c
            assert (after >= before).all()  # fresh positions only: nothing flips back
            assert after.sum(axis=1).tolist() == [total] * 4


class TestStoredMessages:
    @pytest.mark.parametrize(
        "sched",
        [NoOpAttack(), SubstituteCodeword(), FlipCount(bits_per_step=2), IncrementalAttack(deltas=(0.25, 0.25))],
        ids=lambda sched: sched.kind,
    )
    def test_read_only_rows_unchanged(self, sched, rng):
        # the engine passes a fixed message as a read-only broadcast view: a step only reads it
        code = HadamardCode(3)
        patterns, _ = stored(code, "101", rows=16)
        message = np.broadcast_to(as_bits("101"), (16, 3))
        assert not message.flags.writeable
        run(sched, 0, patterns, message, code, rng)
        assert message.tolist() == [[1, 0, 1]] * 16


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
