"""Locally decodable codes: abstract interface plus a concrete Hadamard instance.

The Hadamard code maps an n-bit message x to the 2^n parities <x, a> mod 2,
one per mask a. Codeword position a is the integer whose binary expansion is
the mask (message bit i carries integer weight 2^(n-1-i), i.e. the bit string
read MSB-first). Any two distinct codewords differ in exactly half their
positions, and any single message bit can be recovered from two codeword
positions: x_i = E(x)_a xor E(x)_{a xor e_i} for every mask a, where e_i is
the unit mask of bit i. That makes the code 2-query locally decodable: with
at most a delta_dec fraction of positions corrupted, a uniformly random mask
yields the correct bit with probability at least 1 - 2*delta_dec.

A decode reads each row's q positions through a caller-supplied read, once
per call; amplification (repeating the decode) is deliberately left to
callers so that per-request query counts stay honest. Before any read, a bit
index or mask outside [0, n) or [0, m) raises IndexError, and a non-integer
one TypeError (bits.check_positions).
"""

from __future__ import annotations

import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .bits import as_bits, check_positions, unpack_rows, word_count

# Hadamard codeword length is 2^n; keep n at desk scale.
MAX_HADAMARD_N = 20

# A codeword's first word, positions [0, 64), for each value of the last six
# message bits: bit a of entry x is the parity <x, a>.
_WORD_BITS = 6
_POSITIONS = np.arange(1 << _WORD_BITS, dtype=np.uint64)
_FIRST_WORDS = ((np.bitwise_count(_POSITIONS[:, None] & _POSITIONS) & 1) << _POSITIONS).sum(axis=1, dtype=np.uint64)


@dataclass(frozen=True)
class CodeParams:
    """Static parameters of a locally decodable code.

    n          message length in bits
    m          codeword length in bits
    q          maximum codeword positions a single local decode may read
    delta      relative minimum distance: distinct codewords differ in >= delta*m positions
    delta_dec  corruption radius (fraction of m) the local decoder tolerates
    eps_dec    decoder advantage: success probability >= 1/2 + eps_dec within the radius
    """

    n: int
    m: int
    q: int
    delta: float
    delta_dec: float
    eps_dec: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.m < self.n:
            raise ValueError(f"m must be >= n, got m={self.m}, n={self.n}")
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        if not 0.0 <= self.delta_dec < self.delta / 2:
            raise ValueError(
                f"delta_dec must be in [0, delta/2), got {self.delta_dec} with delta={self.delta}"
            )
        if not 0.0 < self.eps_dec <= 0.5:
            raise ValueError(f"eps_dec must be in (0, 1/2], got {self.eps_dec}")


class LocallyDecodableCode(ABC):
    """Encoding plus probabilistic local decoding under bounded corruption.

    Implementations must be pure: encode is deterministic, and decode depends
    only on (index, masks) and the bits read. Randomness enters solely
    through the caller-supplied masks, which keeps every operation safe to
    use from concurrent workers.
    """

    @property
    @abstractmethod
    def params(self) -> CodeParams: ...

    @abstractmethod
    def encode(self, msg) -> np.ndarray:
        """Deterministically encode an n-bit message into an m-bit codeword."""

    @abstractmethod
    def encode_batch(self, msgs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Encode a (T, n) uint8 array of messages into (T, word_count(m)) uint64
        rows of packed codewords, padding bits zero (into out, if given)."""

    @abstractmethod
    def decode(self, index, masks: np.ndarray, read) -> np.ndarray:
        """Message bit index (an int, or one per row) of each row, decoded with
        that row's randomness masks[row].

        read maps a (rows, q) array of codeword positions to their bits, so the
        caller routes the reads through whatever holds the codewords and can
        count them. Invalid inputs raise before read is called.
        """

    @abstractmethod
    def substitution_distances(self, target: str, message: str) -> dict[int, float]:
        """{distance: probability} of the Hamming distance between the codeword
        of the stored message and the codeword that replaces it. Each argument
        is a bitstring or "random": a random target is uniform over the messages
        other than the stored one, a random message is uniform over all of them,
        and a fixed target differs from a fixed message."""


class HadamardCode(LocallyDecodableCode):
    """The Hadamard code: m = 2^n, q = 2, relative distance 1/2.

    The decode radius is fixed at delta_dec = 1/8, which gives decoder
    advantage eps_dec = 1/2 - 2*delta_dec = 1/4 (the decoder fails only when
    exactly one of its two reads is corrupted, so its failure probability is
    at most 2*delta_dec over the uniform mask).
    """

    def __init__(self, n: int):
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise TypeError(f"n must be an integer, got {n!r}")
        if not 1 <= n <= MAX_HADAMARD_N:
            raise ValueError(f"n must be in [1, {MAX_HADAMARD_N}], got {n}")
        self._params = CodeParams(n=int(n), m=1 << int(n), q=2, delta=0.5, delta_dec=0.125, eps_dec=0.25)

    @property
    def params(self) -> CodeParams:
        return self._params

    def substitution_distances(self, target: str, message: str) -> dict[int, float]:
        # distinct codewords sit exactly m/2 = delta*m apart. A random message
        # equals a fixed target in 1 of 2^n sessions.
        n, half = self._params.n, self._params.m // 2
        if target != "random" and message == "random":
            return {half: 1.0 - 0.5**n, 0: 0.5**n}
        return {half: 1.0}

    def unit_mask(self, index):
        """Integer mask with a single 1 at message bit *index* (MSB-first
        weights); for an integer array of indices, one mask per entry."""
        n = self._params.n
        return 1 << (n - 1 - check_positions(index, n, name="bit index"))

    def encode(self, msg) -> np.ndarray:
        bits = as_bits(msg, name="message")
        n = self._params.n
        if bits.size != n:
            raise ValueError(f"message length {bits.size} != n={n}")
        return unpack_rows(self.encode_batch(bits[None, :]), self._params.m)[0]

    def encode_batch(self, msgs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Packed codewords of a (T, n) uint8 batch of package-built messages, as
        a (T, word_count(m)) uint64 array (out, when given), one row per message;
        nothing is parsed. The code is F2-linear: encode_batch(a ^ b) equals
        encode_batch(a) ^ encode_batch(b), padding included, so the memory C(t)
        differs from a stored C(x) by the codeword C(t ^ x)."""
        n, m = self._params.n, self._params.m
        # The last `low` message bits weigh 1, 2, ..., 32, so the first word
        # holds their parities <x, a>, cut to m bits when m < 64. Then doubling
        # on words: words [w, 2w) are the masks of words [0, w) with the
        # weight-64w bit set, which belongs to message bit n-7-log2(w), so they
        # are the first w words xor that bit (a word of ones where it is set).
        low = min(n, _WORD_BITS)
        x_low = msgs[:, n - low :] @ (1 << np.arange(low - 1, -1, -1))
        words = np.empty((msgs.shape[0], word_count(m)), dtype=np.uint64) if out is None else out
        words[:, 0] = _FIRST_WORDS[x_low] & np.uint64(2 ** min(m, 64) - 1)
        ones = (-msgs[:, : n - low].astype(np.int64)).view(np.uint64)
        w = 1
        for i in range(n - low - 1, -1, -1):
            np.bitwise_xor(words[:, :w], ones[:, i, None], out=words[:, w : 2 * w])
            w *= 2
        return words

    def decode(self, index, masks: np.ndarray, read) -> np.ndarray:
        """Reads [a, a xor e_index] for each row's mask a, and xors the two bits.
        The decode is linear in the word read: on C(x) xor P it returns x_index
        xor its value on P, for any pattern P and mask."""
        units = self.unit_mask(index)
        masks = check_positions(masks, self._params.m, name="decode masks")
        bits = read(np.array([masks, masks ^ units]).T)
        return bits[:, 0] ^ bits[:, 1]
