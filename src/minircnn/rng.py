"""Deterministic counter-based PRNG (splitmix64) with named substreams.

Every stochastic consumer in the package draws from a named stream
("init", "sampling", "data") derived from one master seed, so runs are
bit-reproducible and independent of draw interleaving between consumers.
"""
from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix64(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _fnv1a(name: str) -> int:
    h = _FNV_OFFSET
    for byte in name.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


class Rng:
    """splitmix64 output sequence at counter positions; vectorized draws."""

    def __init__(self, seed: int):
        self._base = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def substream(self, stream: str) -> "Rng":
        r = Rng(0)
        r._base = _mix64(self._base ^ np.uint64(_fnv1a(stream)))
        return r

    def next_u64(self, n: int = 1) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix64(self._base + idx * _GAMMA)

    def uniform(self, n: int = 1) -> np.ndarray:
        """i.i.d. doubles in [0, 1) with 53 random bits."""
        return (self.next_u64(n) >> np.uint64(11)).astype(np.float64) * (2.0**-53)

    def normal(self, n: int = 1) -> np.ndarray:
        """Standard normals via Box-Muller (both pair members used)."""
        m = (n + 1) // 2
        u1 = self.uniform(m)
        u2 = self.uniform(m)
        u1 = np.maximum(u1, 2.0**-53)  # avoid log(0)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return out[:n]

    def randint(self, lo: int, hi: int, n: int = 1) -> np.ndarray:
        """Uniform integers in [lo, hi)."""
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        return lo + np.floor(self.uniform(n) * (hi - lo)).astype(np.int64)

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
