"""Scripted corruption strategies applied to public memory between user operations.

One adversary step runs between consecutive user operations: after the
checker's fingerprint refresh, before the next retrieve. Under that placement
each retrieve compares the memory against fingerprints of the previous memory
state, so a step flipping a fraction delta of fresh positions is accepted per
comparison with probability exactly 1 - 2*delta + 2*delta^2.

Schedules are immutable config values, and a step runs on a session's
corruption pattern P, the memory xor the codeword of its last accepted store,
given the stored message; no other per-session state is kept. A position
flips in P exactly where it flips in memory, and a fresh position, one that
still holds the stored codeword's bit, is a zero bit of P. The code is
F2-linear, so replacing the memory by the codeword C(t) of a target t sets P
to C(t) xor C(x) = C(t xor x) for stored message x. Strategies are
information-theoretic scripts: they never observe checker verdicts or
measurement outcomes. Everything that depends on the kind of attack (field
checks, serialisation, config checks against the code, and the step) is a
method of its schedule class. A new kind is added here alone.

A flip schedule states its step once, as a flip rule: flips(step, m) gives
(d, fresh_only, policy), d positions drawn from all m or from the fresh
ones, placed uniformly or by rank. The noop, flip_count and incremental
schedules state only that; the base class derives the rest from it. Their
step_distances is {d: 1}, which ExperimentConfig.ops resolves once per
attack op for the draw plan and harness._attach_bounds. Their apply flips d
ranks in a pool (the codeword, or each row's fresh positions, the zero bits
of P, after one fresh-count check, check_fresh) with one ranked flip,
_flip_ranked, a block of rows at a time under engine.row_blocks, the
package's one memory rule, at 8 bytes a row per rank, or per pool position
where the draws sample the complement. Fresh positions are found for spans
of rows at 8*m bytes a row. The engine's deferred-decision sampler plays a
step in place of apply where its policy is "uniform". A substitution is no
flip: it states its own step_distances and apply. Facts of the code, such
as how far apart two codewords sit, come from the code each method is
given (code.substitution_distances), not from here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import MISSING, dataclass, fields
from functools import cache, cached_property
from typing import Any

import numpy as np

from .bits import as_bits, flip_rows, unpack_rows
from .code import LocallyDecodableCode
from .engine import OpDraws, row_blocks

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


@cache
def _field_table(cls) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Dataclass cls's field names in order, and the names of its fields with no
    default: built once per class, where dataclasses.fields walks it per call."""
    return (
        tuple(f.name for f in fields(cls)),
        tuple(f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING),
    )


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
        return {"kind": self.kind, **{name: getattr(self, name) for name in _field_table(type(self))[0]}}

    def check(self, code: LocallyDecodableCode, message: str) -> None:
        """Reject a schedule that cannot run against this code and the
        config-level message (a bitstring or "random")."""

    def _check_step(self, step: int) -> int:
        """step, if the schedule provides it: ScheduleError below 0 or at or past intrinsic_steps."""
        if step < 0 or (self.intrinsic_steps is not None and step >= self.intrinsic_steps):
            raise ScheduleError(f"step {step} is outside the schedule's {self.intrinsic_steps} step(s)")
        return step

    def flips(self, step: int, m: int) -> tuple[int, bool, str] | None:
        """The step's flip rule for codeword length m, or None for a step that is no
        flip: (d, fresh_only, policy), where the step flips d positions of the m, or of
        the fresh ones (the zero bits of P) when fresh_only, picked by policy (see
        POSITION_POLICIES). The engine's deferred-decision sampler plays the steps whose
        policy is "uniform" in place of apply."""
        return None

    def step_distances(self, code: LocallyDecodableCode, message: str, step: int) -> dict[int, float]:
        """{distance: probability} of the Hamming distance from memory to the
        checker's fingerprint, refreshed at the last accepted op, right after
        step *step* of the default script storing the config-level message:
        {d: 1} for a flip step, whose d flips land on the refreshed memory."""
        return {self.flips(step, code.params.m)[0]: 1.0}

    def apply(self, step, patterns, message, code, draws) -> None:
        """The schedule's one corruption method, run by the engine on its chunks: corrupt
        one in-range step of the (T, W) array of packed corruption patterns (see bits.py;
        a row is the memory xor the stored codeword) in place, given each row's stored
        message (a (T, n) uint8 array, which it only reads) and the step's draws (OpDraws).
        A flip step flips its rule's d positions by rank (_flip_ranked) in a pool: the
        codeword, so a row's ranks are its positions, or a row's f fresh positions."""
        m = code.params.m
        d, fresh_only, policy = self.flips(step, m)
        pool, flip = m, lambda rows, ranks: flip_rows(patterns[rows], ranks)
        if fresh_only:
            # the zero bits of each pattern; padding bits are zero, so they never count
            pool = check_fresh(step, d, m - np.bitwise_count(patterns).sum(axis=1, dtype=np.int64))
            flip = lambda rows, ranks: _flip_fresh(patterns[rows], m, pool, ranks)
        if d:
            _flip_ranked(patterns, policy, pool, d, draws, flip)


@dataclass(frozen=True)
class NoOpAttack(AttackSchedule):
    """Leaves the memory untouched; a placeholder step for honest runs."""

    kind = "noop"

    def flips(self, step, m) -> tuple[int, bool, str]:
        return 0, False, "uniform"


@dataclass(frozen=True)
class SubstituteCodeword(AttackSchedule):
    """Overwrite the memory with the codeword of another message, in one step.

    target is the message as a bitstring, or "random" for a uniform draw,
    made as the step applies, whose codeword differs from the stored one.
    """

    target: str = "random"

    kind = "substitute"
    intrinsic_steps = 1

    def __post_init__(self) -> None:
        if self.target != "random" and not _is_bitstring(self.target):
            raise ConfigError("target", f"expected 'random' or a bit string, got {self.target!r}")

    def check(self, code: LocallyDecodableCode, message: str) -> None:
        if self.target == "random":
            return
        if len(self.target) != code.params.n:
            raise ConfigError("target", f"expected 'random' or a {code.params.n}-bit string, got {self.target!r}")
        if self.target == message:
            raise ConfigError("target", "equals the stored message, so the substitution changes nothing")

    def step_distances(self, code, message, step) -> dict[int, float]:
        self._check_step(step)
        return code.substitution_distances(self.target, message)

    @cached_property
    def _target_bits(self) -> np.ndarray:
        # parsed once per schedule, however many chunks a run has
        return as_bits(self.target, name="target")

    def apply(self, step, patterns, message, code, draws) -> None:
        self._check_step(step)
        if self.target != "random":
            target = self._target_bits
        else:
            target = draws.messages(code.params.n, 0)
            rows = np.flatnonzero((target == message).all(axis=1))
            for slot in itertools.count(1):  # redraw the rows that drew the stored message
                if not rows.size:
                    break
                target[rows] = draws.messages(code.params.n, slot, rows)
                rows = rows[(target[rows] == message[rows]).all(axis=1)]
        # linearity: C(target) xor C(message) = C(target xor message)
        code.encode_batch(target ^ message, out=patterns)


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

    def flips(self, step, m) -> tuple[int, bool, str]:
        # every step flips that many positions of the refreshed memory (prefix
        # toggles the same ones again)
        return min(self.bits_per_step, m), False, self.policy


@dataclass(frozen=True)
class IncrementalAttack(AttackSchedule):
    """Drift toward another codeword: step i flips round(deltas[i] * m) fresh positions.

    A fresh position is one that still holds the stored codeword's bit. Steps
    flip only fresh positions and nothing flips them back, so after step i the
    distance from the stored codeword is exactly the running sum of per-step
    flip counts. policy "uniform" samples fresh positions uniformly; "prefix"
    takes the lowest fresh indices, for reproducible unit tests. deltas is
    stored as a tuple of floats. check rejects rounded flips that exceed m and, with
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

    def check(self, code: LocallyDecodableCode, message: str) -> None:
        params = code.params
        total = sum(round_half_up(d * params.m) for d in self.deltas)
        if total > params.m:
            raise ConfigError("deltas", f"rounded flips total {total}, more than the m={params.m} positions")
        # reaching the code distance means the drift can have turned one codeword into another
        if self.require_reach and total < params.delta * params.m - 1e-9:
            raise ConfigError("deltas", f"rounded flip total {total} falls short of the code distance")

    def flips(self, step, m) -> tuple[int, bool, str]:
        # flips land on whole bits: the rounded count, not the requested fraction
        return round_half_up(self.deltas[self._check_step(step)] * m), True, self.policy


def check_fresh(step: int, d: int, fresh: np.ndarray) -> int:
    """The rows' fresh-position count, which every row must share: every row has run
    the same flip counts since its last store. ScheduleError unless it holds d."""
    f = int(fresh[0])
    if d > f or (fresh != f).any():
        held = sorted(set(fresh.tolist()))
        raise ScheduleError(f"step {step} needs {d} fresh positions in every row, rows hold {held}")
    return f


def _flip_ranked(patterns, policy, pool, d, draws, flip) -> None:
    """Flip d positions of each packed row of patterns, picked by ascending rank in a
    pool of that many: flip(rows, ranks) flips a block of rows given its (rows, d)
    ranks, the lowest d under policy "prefix" (which reads no draw) and a uniform
    d-subset of the pool under "uniform". A block's draws, ranks and flip inputs hold
    8 bytes per row for each rank, or for each pool position where distinct samples
    the complement."""
    for rows in row_blocks(len(patterns), 8 * (pool if 2 * d > pool else max(d, 1))):
        if policy == "prefix":
            flip(rows, np.broadcast_to(np.arange(d), (rows.stop - rows.start, d)))
        else:  # no block's ranks outlive its flip, so they never add to the next block's draws
            flip(rows, OpDraws(draws.keys[rows]).distinct(pool, d))


def _flip_fresh(patterns, m, f, ranks) -> None:
    """Flip, in place, the fresh positions (zero bits of the pattern inside m,
    f of them in every row) of ascending ranks ranks[r] of each packed row r. The
    positions are found for a span of rows at a time, 8 bytes per row for each of
    its m positions, and die before the flip allocates."""
    for span in row_blocks(len(patterns), 8 * m):
        flip_rows(patterns[span], _fresh_positions(patterns[span], m, f, ranks[span]))


def _fresh_positions(patterns, m, f, ranks) -> np.ndarray:
    """Per packed row r, its fresh positions of ascending ranks ranks[r]."""
    at = np.flatnonzero(unpack_rows(np.invert(patterns), m).view(bool))  # flat, row by row, ascending
    picked = at[ranks + f * np.arange(len(patterns))[:, None]]
    picked %= m
    return picked


SCHEDULES: dict[str, type[AttackSchedule]] = {
    cls.kind: cls for cls in (NoOpAttack, SubstituteCodeword, FlipCount, IncrementalAttack)
}

