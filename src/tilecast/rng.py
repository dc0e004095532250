"""Deterministic keyed random streams.

Everything stochastic in this package (scene synthesis, the oracle
detector) draws from splitmix64 streams keyed on explicit integer
tuples, so results are bit-identical across runs, platforms, and
thread schedules. Normal deviates use a fixed Box-Muller rule on the
same streams.

``stream_draws``, ``uniforms`` and ``normal_pairs`` are the vector
twins of ``Stream.next_u64``, ``Stream.uniform`` and
``Stream.normal_pair`` for many streams whose keys differ in one part:
the integer hashing and the uniforms run in uint64 and float64 arrays
and equal the scalar streams bit for bit. The Box-Muller
transcendentals stay in ``math``, applied element by element:
``np.log`` differs from ``math.log`` by one ulp on some inputs, and a
normal one ulp off moves a detection box and so the simulator's
outputs.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Domain tags keep independent uses of the same seed from colliding.
DOMAIN_PIXEL = 0x01
DOMAIN_OBJECT = 0x02
DOMAIN_DETECT = 0x03
DOMAIN_FALSE_POSITIVE = 0x04


def mix64(x: int) -> int:
    """splitmix64 finalizer: avalanche a 64-bit value."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized mix64 over a uint64 array. Matches mix64 bit-for-bit."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def stream_key(*parts: int) -> int:
    """Fold integer key parts into a 64-bit stream state."""
    state = 0
    for p in parts:
        state = mix64(state ^ mix64(p & _MASK64))
    return state


def stream_draws(
    prefix: Sequence[int], parts: Sequence[int], suffix: Sequence[int], count: int
) -> np.ndarray:
    """The first ``count`` ``next_u64`` values of many keyed streams.

    Row i of the ``(len(parts), count)`` uint64 result equals
    ``count`` calls of ``Stream(*prefix, parts[i], *suffix).next_u64()``.
    The constant prefix is folded once; each part (reduced mod 2^64, as
    ``stream_key`` does) and the suffix are folded with ``mix64_array``.
    """
    keys = np.fromiter((p & _MASK64 for p in parts), dtype=np.uint64, count=len(parts))
    state = mix64_array(np.uint64(stream_key(*prefix)) ^ mix64_array(keys))
    for s in suffix:
        state = mix64_array(state ^ np.uint64(mix64(s)))
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    return mix64_array(state[:, None] + steps)


def uniforms(draws: np.ndarray) -> np.ndarray:
    """``Stream.uniform`` over an array of ``next_u64`` values, exactly."""
    return (draws >> np.uint64(11)).astype(np.float64) * 2.0**-53


def normal_pairs(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Stream.normal_pair`` over arrays of its two draws, bit for bit.

    ``first`` and ``second`` hold each pair's two ``next_u64`` values;
    the two normals come back in their shape. The uniforms are formed in
    numpy, exactly; the transcendentals are ``math``'s, one value at a
    time, so each normal is the scalar rule's.
    """
    u = ((first >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
    radii = [math.sqrt(-2.0 * math.log(x)) for x in u.ravel().tolist()]
    angles = ((2.0 * math.pi) * uniforms(second)).ravel().tolist()
    r = np.array(radii).reshape(first.shape)
    cos = np.array(list(map(math.cos, angles))).reshape(second.shape)
    sin = np.array(list(map(math.sin, angles))).reshape(second.shape)
    return r * cos, r * sin


class Stream:
    """A splitmix64 sequence keyed on a tuple of integers."""

    __slots__ = ("_state",)

    def __init__(self, *key: int):
        self._state = stream_key(*key)

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        return self.next_u64() % n

    def normal_pair(self) -> tuple[float, float]:
        """Two independent unit normals via Box-Muller.

        The first uniform is mapped to (0, 1] so the log is finite.
        """
        u = ((self.next_u64() >> 11) + 1) * 2.0**-53
        v = (self.next_u64() >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u))
        return r * math.cos(2.0 * math.pi * v), r * math.sin(2.0 * math.pi * v)

    def poisson(self, lam: float) -> int:
        """Poisson count by Knuth's product-of-uniforms method."""
        if lam < 0:
            raise ValueError("poisson() requires lam >= 0")
        if lam == 0:
            return 0
        limit = math.exp(-lam)
        k = 0
        p = 1.0
        while True:
            p *= self.uniform()
            if p <= limit:
                return k
            k += 1
