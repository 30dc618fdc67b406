"""Bit-vector helpers shared across the package.

A bit vector is a 1-D numpy array of dtype uint8 holding only 0s and 1s.
Messages, codewords, raw memory contents, and fingerprint phase patterns
all use this representation. An integer x is the n-bit message
as_bits(f"{x:0{n}b}"), most significant bit first.

The batch engine keeps rows of bits packed instead: a (rows, m) bit array
becomes (rows, word_count(m)) uint64 words, position a being bit a & 63 of
word a >> 6, with the padding bits past m always zero. pack_rows and
unpack_rows convert between the two; read_rows reads positions of packed
rows, and flip_rows flips them in place. Positions and bit indices from
outside the package pass check_positions before anything reads them.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Union

import numpy as np

BitsLike = Union[str, Iterable[int], np.ndarray]


def as_bits(value: BitsLike, *, name: str = "bits") -> np.ndarray:
    """Coerce a bitstring / sequence / array into a fresh uint8 bit vector.

    Accepts strings like "0101", iterables of 0/1, or numpy arrays.
    Raises ValueError for anything that is not a flat sequence of 0s and 1s.
    """
    if isinstance(value, str):
        if not value or any(ch not in "01" for ch in value):
            raise ValueError(f"{name}: expected a nonempty string of 0s and 1s, got {value!r}")
        return np.frombuffer(value.encode("ascii"), dtype=np.uint8) - ord("0")
    arr = np.asarray(value)
    if arr.ndim != 1:
        raise ValueError(f"{name}: expected a 1-D bit vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name}: empty bit vector")
    if not all_bits(arr):
        raise ValueError(f"{name}: entries must be 0 or 1")
    return arr.astype(np.uint8)


def all_bits(arr: np.ndarray) -> bool:
    """Whether every entry of the array is 0 or 1 (True when it is empty); a uint8
    array, the usual case, takes one reduction."""
    if arr.dtype == np.uint8:
        return bool(arr.max(initial=0) <= 1)
    return arr.dtype == np.bool_ or bool(((arr == 0) | (arr == 1)).all())


def check_positions(values, bound: int, *, name: str) -> np.ndarray:
    """An int or integer array of positions in [0, bound), as int64.

    Raises TypeError if any entry is a bool, float or str (or anything else
    that is not an integer), and IndexError if any entry lies outside
    [0, bound). An empty sequence passes and comes back as an empty array.
    """
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        entries = np.asarray(values, dtype=object).flat
        # Integers past 64 bits arrive as object or float64 arrays.
        if all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in entries):
            raise IndexError(f"{name} out of range [0, {bound})")
        raise TypeError(f"{name}: expected integers, got {arr.dtype} values")
    if arr.size and (arr.min() < 0 or arr.max() >= bound):
        raise IndexError(f"{name} out of range [0, {bound})")
    return arr.astype(np.int64, copy=False)


def word_count(m: int) -> int:
    """uint64 words in a packed row of m bits: ceil(m / 64)."""
    return -(-m // 64)


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """(rows, m) 0/1 bytes as (rows, word_count(m)) uint64 words, padding bits zero."""
    rows, m = bits.shape
    packed = np.zeros((rows, 8 * word_count(m)), dtype=np.uint8)
    packed[:, : -(-m // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


def unpack_rows(words: np.ndarray, m: int) -> np.ndarray:
    """The first m bits of each packed row, as a (rows, m) uint8 array."""
    return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), axis=1, count=m, bitorder="little")


def read_rows(words: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Bits at positions pos[r] (a (rows, q) array) of each packed row r, as uint8."""
    picked = words[np.arange(len(words))[:, None], pos >> 6]
    return ((picked >> (pos & 63).astype(np.uint64)) & np.uint64(1)).astype(np.uint8)


def flip_rows(memory: np.ndarray, cols: np.ndarray) -> None:
    """Flip, in place, positions cols[r] (distinct) of each packed row r of a
    (T, W) word array. Positions that share a word add their bits into one
    zeroed word per row; distinct bits sum to their OR, which is then xored in.
    (A fancy-index xor would keep only one of the positions a word shares.)"""
    t, w = memory.shape
    acc = np.zeros_like(memory)
    bits = (cols & 63).astype(np.uint64)
    np.left_shift(np.uint64(1), bits, out=bits)
    words = cols >> 6
    words += np.arange(0, t * w, w, dtype=words.dtype)[:, None]
    np.add.at(acc.reshape(-1), words.reshape(-1), bits.reshape(-1))
    memory ^= acc


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Number of positions where the two equal-length bit vectors differ."""
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))

