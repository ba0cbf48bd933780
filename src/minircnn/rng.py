"""Deterministic counter-based PRNG (splitmix64) with named substreams.

Every stochastic consumer in the package draws from a named stream
("init", "sampling", "data") derived from one master seed, so runs are
bit-reproducible and independent of draw interleaving between consumers.
"""
from __future__ import annotations

import numpy as np

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_PAIRS = 16384      # Box-Muller pairs per block of `normal`


def _mix(z: int) -> int:
    """splitmix64's finaliser on one word held as a Python integer."""
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    return z ^ (z >> 31)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser, in place on the caller's uint64 array z."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _unit(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of `words`, shifted in place."""
    words >>= np.uint64(11)
    return words.astype(np.float64) * 2.0**-53


def _fnv1a(name: str) -> int:
    h = _FNV_OFFSET
    for byte in name.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _M64
    return h


class Rng:
    """splitmix64 words at counter positions; a one-word draw (`word`, `random`,
    `randint`) is a Python number, an array draw a numpy array."""

    def __init__(self, seed: int):
        self._base = seed & _M64
        self._counter = 0

    def substream(self, stream: str) -> "Rng":
        r = Rng(0)
        r._base = _mix(self._base ^ _fnv1a(stream))
        return r

    def word(self) -> int:
        self._counter += 1
        return _mix((self._base + self._counter * _GAMMA) & _M64)

    def random(self) -> float:
        """The next word's top 53 bits as a double in [0, 1)."""
        return (self.word() >> 11) * 2.0**-53

    def randint(self, lo: int, hi: int) -> int:
        """One uniform integer in [lo, hi)."""
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        return lo + int(self.random() * (hi - lo))     # >= 0, so int() floors

    def _words(self, start: int, n: int) -> np.ndarray:
        """The words at counters start + 1 .. start + n; does not advance."""
        z = np.arange(start + 1, start + n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z += np.uint64(self._base)
        return _mix64(z)

    def next_u64(self, n: int) -> np.ndarray:
        self._counter += n
        return self._words(self._counter - n, n)

    def uniform(self, n: int) -> np.ndarray:
        """i.i.d. doubles in [0, 1) with 53 random bits."""
        return _unit(self.next_u64(n))

    def normal(self, n: int = 1) -> np.ndarray:
        """Standard normals via Box-Muller: pair i of the next 2m = 2 ceil(n/2) words
        is (i, m + i) and gives entries i and m + i; filled `_PAIRS` pairs at a time."""
        m, out = (n + 1) // 2, np.empty(n)
        for s in range(0, m, _PAIRS):
            e = min(s + _PAIRS, m)
            u1 = np.maximum(_unit(self._words(self._counter + s, e - s)), 2.0**-53)
            r = np.sqrt(-2.0 * np.log(u1))
            theta = 2.0 * np.pi * _unit(self._words(self._counter + m + s, e - s))
            out[s:e] = r * np.cos(theta)
            k = min(e, n - m) - s       # this block's sines that are among the n
            out[m + s:m + s + k] = r[:k] * np.sin(theta[:k])
        self._counter += 2 * m
        return out

    def permutation(self, n: int, k: int | None = None) -> np.ndarray:
        """The first k (default all n) entries of a Fisher-Yates permutation of
        range(n): for i = n-1 down to 1, swap i with floor(u * (i + 1)), one
        uniform draw u per step. Every k draws the same uniforms; only the
        k - 1 swaps below k are run.

        Each step i >= k fixes position i and moves the value held there to
        its target. So position t holds, before its own step (t >= k) or
        after all of them (t < k), what the smallest later step targeting t
        held before that step, and so on back to a position that no step
        targets and that holds its own index. Pointer doubling follows the
        links.
        """
        k = n if k is None else k
        if not 0 <= k <= n:
            raise ValueError(f"cannot choose {k} from {n}")
        if n <= 1:
            return np.arange(k)
        targets = (self.uniform(n - 1) * np.arange(n, 1, -1)).astype(np.int64)
        steps = np.arange(n - 1, 0, -1)
        late = (steps >= k) & (targets != steps)
        src = np.full(n, n)
        np.minimum.at(src, targets[late], steps[late])
        src = np.where(src < n, src, np.arange(n))
        while not np.array_equal(nxt := src[src], src):
            src = nxt
        out = src[:k].tolist()
        for i, j in zip(range(k - 1, 0, -1), targets[n - k:].tolist()):
            out[i], out[j] = out[j], out[i]
        return np.array(out, dtype=np.int64)
