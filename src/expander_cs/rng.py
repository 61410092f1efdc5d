"""Deterministic random streams used by every stochastic component.

The generator is pinned down here instead of delegating to a library
default: graph search, verification sampling and noise draws must be
reproducible from a single integer seed, and parallel trial schedules must
not change results (each trial derives its own stream from (seed, index)).

Algorithm (splitmix64, counter mode): the i-th state is
``seed + i * 0x9E3779B97F4A7C15 mod 2^64`` and the i-th output word is the
standard splitmix64 finalizer of that state (multipliers
0xBF58476D1CE4E5B9 and 0x94D049BB133111EB, shifts 30/27/31).

Derived values:
  * uniform double in [0, 1): top 53 bits of a word times 2**-53,
  * bounded integer below k: word mod k (bias is negligible at the sizes
    used here and keeps the stream definition trivial),
  * standard Gaussians: Box-Muller on word pairs (u1, u2) with
    r = sqrt(-2 ln(1 - u1)), angle 2 pi u2; the pair yields r cos, r sin.

``Stream`` consumes words one by one; ``uniforms``, ``gaussians`` and
``Stream.samples_without_replacement`` compute the same words in bulk with
numpy. All walk the identical counter sequence; ``uniforms`` and
``gaussians`` always start at its beginning. ``gaussians``,
``uniforms`` and ``_words`` also take a sequence of seeds and return one
row per seed, each row word for word the call with that seed alone. A bulk
draw of subsets turns its words into Python integers (the Fisher-Yates
step takes them mod n - i) in blocks of at most _DRAW_WORDS words and
writes the subsets into one int64 array, so its peak is that array plus
one block, however many subsets it draws.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DRAW_WORDS = 1 << 16  # words one bulk draw of subsets turns into Python integers at once


def mix64(x: int) -> int:
    """splitmix64 finalizer of a 64-bit integer."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Per-trial sub-seed; trials can run in any order or in parallel."""
    return mix64((mix64(seed) + _GOLDEN * (index + 1)) & _MASK)


class Stream:
    """Scalar word stream: state_i = seed + i * GOLDEN, word_i = mix64(state_i)."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        self._i = 0

    def next_u64(self) -> int:
        self._i += 1
        return mix64((self._seed + self._i * _GOLDEN) & _MASK)

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, k: int) -> int:
        """Integer in [0, k)."""
        if k <= 0:
            raise ValueError("k must be positive")
        return self.next_u64() % k

    def sign(self) -> int:
        """+1 or -1 from the top bit of one word."""
        return 1 if (self.next_u64() >> 63) == 0 else -1

    def signed_uniform(self, lo: float, hi: float) -> float:
        """Random sign times a uniform magnitude in [lo, hi). Two words."""
        s = self.sign()
        return s * (lo + (hi - lo) * self.uniform())

    def gaussian_pair(self) -> tuple[float, float]:
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log1p(-u1))
        a = 2.0 * math.pi * u2
        return r * math.cos(a), r * math.sin(a)

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """Sorted k distinct integers from [0, n), partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} from {n}")
        return _fisher_yates(n, [self.next_u64() for _ in range(k)])

    def samples_without_replacement(self, n: int, k: int, count: int) -> np.ndarray:
        """``count`` successive ``sample_without_replacement(n, k)`` draws
        as the rows of a (count, k) int64 array, with the words computed in
        bulk: whole draws at a time, at most _DRAW_WORDS words (one draw
        when k passes it), so a draw of many rows never holds all its
        words as Python integers at once."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} from {n}")
        out = np.empty((count, k), dtype=np.int64)
        rows = max(1, _DRAW_WORDS // max(k, 1))
        for c in range(0, count, rows):
            block = min(rows, count - c)
            words = _words(self._seed, self._i, block * k).tolist()
            self._i += block * k
            out[c:c + block] = [_fisher_yates(n, words[r * k:(r + 1) * k])
                                for r in range(block)]
        return out


def _fisher_yates(n: int, words: list[int]) -> list[int]:
    """Sorted first len(words) entries of range(n) after a partial
    Fisher-Yates shuffle in which slot i swaps with slot i + words[i] mod
    (n - i). Only the displaced slots are stored, so a draw costs O(k)
    whatever n is."""
    moved: dict[int, int] = {}
    out = []
    for i, w in enumerate(words):
        j = i + w % (n - i)
        out.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return sorted(out)


def _words(seed, start: int, count: int) -> np.ndarray:
    """Vectorized words for counter positions start+1 .. start+count; for
    a sequence of seeds, one row per seed."""
    if isinstance(seed, (int, np.integer)):
        seeds = np.uint64(int(seed) & _MASK)
    else:
        seeds = np.array([int(s) & _MASK for s in seed], dtype=np.uint64)
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    x = seeds[..., None] + idx * np.uint64(_GOLDEN)
    shifted = np.empty_like(x)
    for shift, mul in ((30, _MIX1), (27, _MIX2)):
        x ^= np.right_shift(x, np.uint64(shift), out=shifted)
        x *= np.uint64(mul)
    x ^= np.right_shift(x, np.uint64(31), out=shifted)
    return x


def uniforms(seed, count: int) -> np.ndarray:
    """Vector of the first count uniforms in [0, 1) of seed's stream;
    identical to Stream word for word. A sequence of seeds gives one row
    per seed."""
    words = _words(seed, 0, count)
    words >>= np.uint64(11)
    u = words.astype(np.float64)
    u *= 2.0**-53
    return u


def gaussians(seed, count: int) -> np.ndarray:
    """Vector of standard Gaussians by Stream.gaussian_pair's Box-Muller
    formulas on the same uniforms. numpy picks its log1p, cos and sin loops
    by the CPU's features, and its AVX-512 loops differ from ``math`` by an
    ulp on some arguments, so the draws repeat bit for bit on one numpy
    build and CPU feature level and equal gaussian_pair's to rounding. A
    sequence of seeds gives one row per seed."""
    pairs = (count + 1) // 2
    u = uniforms(seed, 2 * pairs)
    flat = u.reshape(-1)       # rows of even length: one pass serves every row
    r = -flat[0::2]
    r = np.log1p(r)
    r *= -2.0
    np.sqrt(r, out=r)
    a = 2.0 * np.pi * flat[1::2]
    # the pairs overwrite the uniforms they came from; cos and sin write
    # fresh arrays, as numpy picks their loop by the output's layout too
    np.multiply(r, np.cos(a), out=flat[0::2])
    np.multiply(r, np.sin(a), out=flat[1::2])
    return u[..., :count]
