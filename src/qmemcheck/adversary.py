"""Scripted corruption strategies applied to public memory between user operations.

One adversary step runs between consecutive user operations: after the
checker's fingerprint refresh, before the next retrieve. Under that placement
each retrieve compares the memory against fingerprints of the previous memory
state, so a step flipping a fraction delta of fresh positions is accepted per
comparison with probability exactly 1 - 2*delta + 2*delta^2.

Schedules are immutable config values; all per-session mutable bookkeeping
lives in AdversaryLog: the stored codeword, and one boolean mask of the
positions any step has touched, which each step sets in place. Strategies
are information-theoretic scripts: they never observe checker verdicts or
measurement outcomes. Everything that depends on the kind of attack (field
checks, serialisation, config checks against the code, per-session random
choices, the corruption itself) is a method of its schedule class, so a new
kind is added here, plus its analytic bound in harness._attach_bounds if it
has one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .bits import as_bits, bits_to_str, random_bits
from .checker import PublicMemory
from .code import CodeParams, LocallyDecodableCode

POSITION_POLICIES = ("uniform", "prefix")


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the offending field's path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")

    def under(self, prefix: str) -> "ConfigError":
        """The same error, reported at prefix.path."""
        return ConfigError(f"{prefix}.{self.path}", self.message)


class ScheduleError(ValueError):
    """A schedule step cannot be applied (exhausted positions, bad step index, ...)."""


def round_half_up(x: float) -> int:
    """Nearest integer, ties away from zero for nonnegative x. The rounding rule
    for converting per-step flip fractions into whole bit counts."""
    return int(math.floor(x + 0.5))


def _is_int(value) -> bool:
    # bool is an int subclass; a config saying trials=true is a mistake, not a 1
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_bitstring(value) -> bool:
    return isinstance(value, str) and len(value) > 0 and set(value) <= {"0", "1"}


def _check_policy(policy) -> None:
    if policy not in POSITION_POLICIES:
        raise ConfigError("policy", f"unknown position policy {policy!r}")


class AttackSchedule:
    """Base of the attack schedules. Each subclass is a frozen dataclass whose
    class attribute `kind` names it in configs (see SCHEDULES); its fields are
    the config keys, type-checked on construction. intrinsic_steps is the
    number of steps it provides, or None for any number (driven by the script).
    """

    kind: str
    intrinsic_steps: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, **asdict(self)}

    def check(self, params: CodeParams, message: str) -> None:
        """Reject a schedule that cannot run against this code and the
        config-level message (a bitstring or "random")."""

    def resolve(self, current_msg: np.ndarray, rng: np.random.Generator) -> "AttackSchedule":
        """The schedule with its per-session random choices drawn (may consume rng)."""
        return self

    def apply(self, step, memory, code, log, rng) -> np.ndarray:
        """Corrupt the PublicMemory for one in-range step, given the session's
        LocallyDecodableCode and AdversaryLog; return the positions touched."""
        raise NotImplementedError


@dataclass(frozen=True)
class NoOpAttack(AttackSchedule):
    """Leaves the memory untouched; a placeholder step for honest runs."""

    kind = "noop"

    def apply(self, step, memory, code, log, rng) -> np.ndarray:
        return np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class SubstituteCodeword(AttackSchedule):
    """Overwrite the memory with the codeword of another message, in one step.

    target is the message as a bitstring, or "random" for a per-session
    uniform draw distinct from the currently stored message (drawn by
    resolve before the step applies).
    """

    target: str = "random"

    kind = "substitute"
    intrinsic_steps = 1

    def __post_init__(self) -> None:
        if self.target != "random" and not _is_bitstring(self.target):
            raise ConfigError("target", f"expected 'random' or a bit string, got {self.target!r}")

    def check(self, params: CodeParams, message: str) -> None:
        if self.target == "random":
            return
        if len(self.target) != params.n:
            raise ConfigError("target", f"expected 'random' or a {params.n}-bit string, got {self.target!r}")
        if self.target == message:
            raise ConfigError("target", "equals the stored message, so the substitution changes nothing")

    def resolve(self, current_msg: np.ndarray, rng: np.random.Generator) -> "SubstituteCodeword":
        if self.target != "random":
            return self
        while True:
            candidate = random_bits(current_msg.size, rng)
            if not np.array_equal(candidate, current_msg):
                return SubstituteCodeword(target=bits_to_str(candidate))

    def apply(self, step, memory, code, log, rng) -> np.ndarray:
        if self.target == "random":
            raise ScheduleError('unresolved "random" substitution target; resolve it to concrete bits first')
        word = code.encode(as_bits(self.target, name="target"))
        touched = np.flatnonzero(memory.bits != word)
        memory.adversary_overwrite(word)
        return touched


@dataclass(frozen=True)
class FlipCount(AttackSchedule):
    """Flip a fixed number of positions each step.

    policy "uniform" samples the positions without replacement per step
    (independent across steps, so later steps may undo earlier flips);
    "prefix" deterministically flips the first bits_per_step positions.
    """

    bits_per_step: int
    policy: str = "uniform"

    kind = "flip_count"

    def __post_init__(self) -> None:
        if not _is_int(self.bits_per_step):
            raise ConfigError("bits_per_step", f"expected an integer, got {self.bits_per_step!r}")
        if self.bits_per_step < 0:
            raise ConfigError("bits_per_step", f"must be >= 0, got {self.bits_per_step}")
        _check_policy(self.policy)

    def apply(self, step, memory, code, log, rng) -> np.ndarray:
        m = memory.m
        d = min(self.bits_per_step, m)
        if self.policy == "prefix":
            positions = np.arange(d, dtype=np.int64)
        else:
            positions = rng.choice(m, size=d, replace=False)
        memory.adversary_flip(positions)
        return positions


@dataclass(frozen=True)
class IncrementalAttack(AttackSchedule):
    """Drift toward another codeword: step i flips round(deltas[i] * m) fresh positions.

    Positions flipped across steps are pairwise disjoint (a flipped bit is
    never flipped back), so after step i the distance from the original
    codeword is exactly the running sum of per-step flip counts. policy
    "uniform" samples fresh positions uniformly; "prefix" takes the lowest
    unflipped indices, for reproducible unit tests. deltas is stored as a
    tuple of floats. check rejects rounded flips that exceed m and, with
    require_reach, a total short of the code distance.
    """

    deltas: tuple[float, ...]
    policy: str = "uniform"
    require_reach: bool = False

    kind = "incremental"

    def __post_init__(self) -> None:
        if not isinstance(self.deltas, (list, tuple)) or not all(_is_number(d) for d in self.deltas):
            raise ConfigError("deltas", "expected a list of numbers")
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        if not self.deltas:
            raise ConfigError("deltas", "incremental schedule needs at least one step")
        if not all(0.0 <= d <= 1.0 for d in self.deltas):
            raise ConfigError("deltas", f"each delta must be in [0, 1], got {list(self.deltas)}")
        if sum(self.deltas) > 1.0 + 1e-9:
            raise ConfigError("deltas", f"sum of deltas must be <= 1, got {sum(self.deltas)}")
        _check_policy(self.policy)
        if not isinstance(self.require_reach, bool):
            raise ConfigError("require_reach", "expected a boolean")

    @property
    def intrinsic_steps(self) -> int | None:
        return len(self.deltas)

    def step_flip_counts(self, m: int) -> list[int]:
        """Whole-bit flip counts per step for codeword length m."""
        return [round_half_up(d * m) for d in self.deltas]

    def check(self, params: CodeParams, message: str) -> None:
        total = sum(self.step_flip_counts(params.m))
        if total > params.m:
            raise ConfigError("deltas", f"rounded flips total {total}, more than the m={params.m} positions")
        if self.require_reach and not codeword_reachability_check(self, params):
            raise ConfigError("deltas", f"rounded flip total {total} falls short of the code distance")

    def apply(self, step, memory, code, log, rng) -> np.ndarray:
        d = self.step_flip_counts(memory.m)[step]
        fresh = np.flatnonzero(~log.flipped)
        if d > fresh.size:
            raise ScheduleError(f"step {step} needs {d} fresh positions but only {fresh.size} remain unflipped")
        if self.policy == "prefix":
            positions = fresh[:d]
        else:
            positions = rng.choice(fresh, size=d, replace=False) if d else fresh[:0]
        memory.adversary_flip(positions)
        return positions


SCHEDULES: dict[str, type[AttackSchedule]] = {
    cls.kind: cls for cls in (NoOpAttack, SubstituteCodeword, FlipCount, IncrementalAttack)
}


class AdversaryLog:
    """Per-session corruption bookkeeping: the stored codeword (baseline) and a
    mask of every position a step has touched since (flipped)."""

    def __init__(self, baseline) -> None:
        self.baseline = as_bits(baseline, name="baseline")
        self.flipped = np.zeros(self.baseline.size, dtype=bool)

    def record_step(self, positions) -> None:
        self.flipped[positions] = True


def apply_step(
    schedule: AttackSchedule,
    step: int,
    memory: PublicMemory,
    code: LocallyDecodableCode,
    log: AdversaryLog,
    rng: np.random.Generator,
) -> None:
    """Apply step *step* (0-based) of the schedule, mutating memory and updating the log."""
    intrinsic = schedule.intrinsic_steps
    if step < 0 or (intrinsic is not None and step >= intrinsic):
        raise ScheduleError(f"step {step} out of range for schedule with {intrinsic} steps")
    log.record_step(schedule.apply(step, memory, code, log, rng))


def codeword_reachability_check(schedule: IncrementalAttack, params: CodeParams) -> bool:
    """Whether the rounded per-step flips add up to the code distance.

    True iff sum_i round(deltas[i] * m) >= delta * m, i.e. the scheduled
    drift is large enough to have turned one codeword into another.
    """
    if not isinstance(schedule, IncrementalAttack):
        raise TypeError("reachability is defined for incremental schedules only")
    total = sum(schedule.step_flip_counts(params.m))
    return total >= params.delta * params.m - 1e-9
