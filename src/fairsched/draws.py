"""Random draws computed from raw PCG64 words, value for value the ones
numpy's `Generator` returns.

A scalar `Generator` call spends over a microsecond in dispatch to return
one number. A `DrawStream` instead fetches its bit generator's raw 64-bit
words in blocks, one `random_raw` call per block, and computes each draw
from them with the integer arithmetic of numpy's C code:

- `integers(low, high)` uses Lemire's multiply-shift method with rejection
  (Lemire 2019, "Fast random integer generation in an interval") on 32-bit
  halves while the range is below 2**32. PCG64 hands out a word's low half
  first and buffers its upper half for the next 32-bit draw; the stream
  keeps that half pending the same way. A range of exactly 2**32 takes one
  half as it is, and wider ranges, up to 2**64 - 1, use the 64-bit form on
  whole words.
- `random()` is a word's top 53 bits times 2**-53. It reads a whole word,
  so a pending upper half stays pending, as in numpy.
- `coins(rate, out)` is `random(n) < rate` as one integer comparison of n
  words, and `uniform(low, high, n)` is numpy's `low + (high - low) * random()`
  per word.
- `sorted_choice(m, k)` is `sorted(choice(m, k, replace=False))`: numpy's
  Floyd's algorithm, then the k - 1 draws of its shuffle of the sample,
  which only advance the stream since the sample is sorted.

A stream reads ahead: its bit generator runs up to a block ahead of a
`Generator` that made the same draws. So a stream owns a fresh bit
generator, one with no buffered half, and the two are discarded together
after their one use (one offspring slot, one survivor selection, one
generated dataset). Nothing may draw from the bit generator directly once
the stream has.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_BLOCK = 256  # words per `random_raw` call, at least: an offspring slot of up to ~120 genes
_HALF = 2**32
_WORD = 2**64
_UNIT = 1.0 / 2**53  # numpy's `next_double` scale
_SHIFT = np.uint64(11)  # a word's top 53 bits make a double
_NO_WORDS = np.empty(0, dtype=np.uint64)


@lru_cache(maxsize=8)
def _coin_bound(rate: float) -> np.uint64 | None:
    """The word bound of a coin at `rate`, None when every word is below it.

    `(w >> 11) * 2**-53 < rate` holds exactly when the integer `w >> 11` is
    below `ceil(rate * 2**53)`, that is when w is below that bound shifted
    back by 11 bits. At rate 1.0 the bound is 2**64, beyond uint64."""
    bound = math.ceil(rate * 2**53) << 11
    return np.uint64(bound) if bound < _WORD else None


class DrawStream:
    """Draws of numpy's `Generator(bit_generator)` from raw words; see the
    module docstring for which draws and for why a stream owns its fresh
    bit generator."""

    __slots__ = ("bit_generator", "_words", "_at", "_half")

    def __init__(self, bit_generator):
        self.bit_generator = bit_generator
        self._words = _NO_WORDS
        self._at = 0  # the next unused word
        self._half = -1  # PCG64's buffered upper 32 bits, -1 when none

    def _take(self, n: int) -> np.ndarray:
        """The next n words as a uint64 array. A refill fetches 2n words, as
        a slot's two children take n coins each."""
        at = self._at
        if at + n > len(self._words):
            fresh = self.bit_generator.random_raw(max(2 * n, _BLOCK))
            self._words = np.concatenate((self._words[at:], fresh)) if at < len(self._words) else fresh
            at = 0
        self._at = at + n
        return self._words[at : at + n]

    def _next64(self) -> int:
        at = self._at
        if at == len(self._words):
            self._words, at = self.bit_generator.random_raw(_BLOCK), 0
        self._at = at + 1
        return self._words.item(at)

    def _next32(self) -> int:
        half = self._half
        if half >= 0:
            self._half = -1
            return half
        word = self._next64()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, low: int, high: int) -> int:
        """`Generator.integers(low, high)` for a scalar int64 draw."""
        span = high - low
        if span < _HALF:
            if span <= 1:
                if span < 1:
                    raise ValueError(f"high <= low: integers({low}, {high})")
                return low  # one value draws nothing
            half = self._half  # `_next32`, inline on the hot path
            if half < 0:
                word = self._next64()
                self._half = word >> 32
                m = (word & 0xFFFFFFFF) * span
            else:
                self._half = -1
                m = half * span
            if m & 0xFFFFFFFF < span:
                threshold = _HALF % span
                while m & 0xFFFFFFFF < threshold:
                    m = self._next32() * span
            return low + (m >> 32)
        if span == _HALF:
            return low + self._next32()
        if span < _WORD:
            m = self._next64() * span
            if m & 0xFFFFFFFFFFFFFFFF < span:
                threshold = _WORD % span
                while m & 0xFFFFFFFFFFFFFFFF < threshold:
                    m = self._next64() * span
            return low + (m >> 64)
        raise ValueError(f"a range of 2**64 or more: integers({low}, {high})")

    def random(self) -> float:
        """`Generator.random()`."""
        return (self._next64() >> 11) * _UNIT

    def coins(self, rate: float, out: np.ndarray) -> np.ndarray:
        """`np.less(Generator.random(len(out)), rate, out=out)` for 0 <= rate <= 1,
        one word per coin."""
        words = self._take(len(out))
        bound = _coin_bound(rate)
        if bound is None:
            out.fill(True)
            return out
        return np.less(words, bound, out=out)

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        """`Generator.uniform(low, high, size)`."""
        return low + (high - low) * ((self._take(size) >> _SHIFT) * _UNIT)

    def sorted_choice(self, m: int, k: int) -> list[int]:
        """`sorted(Generator.choice(m, k, replace=False))` where numpy uses
        Floyd's algorithm: m <= 10000 or k <= m // 50."""
        if m > 10000 and k > m // 50:
            raise ValueError(f"choice({m}, {k}) takes numpy's tail shuffle, not Floyd's algorithm")
        sample: list[int] = []
        for j in range(m - k, m):
            value = self.integers(0, j + 1)
            sample.append(j if value in sample else value)
        for i in range(k - 1, 0, -1):
            self.integers(0, i + 1)  # numpy shuffles the sample
        return sorted(sample)
