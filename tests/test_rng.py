"""Deterministic counter-based PRNG: substreams, reproducibility, statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minircnn.rng import _PAIRS, Rng

from oracles import named_stream_words, normal_concat, permutation_loop


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = Rng(42).substream("init")
        b = Rng(42).substream("init")
        assert np.array_equal(a.next_u64(100), b.next_u64(100))
        assert np.array_equal(a.uniform(50), b.uniform(50))
        assert np.array_equal(a.normal(50), b.normal(50))

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).substream("init").next_u64(16),
                                  Rng(2).substream("init").next_u64(16))

    def test_named_substreams_independent(self):
        base = Rng(7).substream("init")
        assert not np.array_equal(Rng(7).substream("init").next_u64(16),
                                  Rng(7).substream("sampling").next_u64(16))
        assert not np.array_equal(Rng(7).substream("sampling").next_u64(16),
                                  Rng(7).substream("data").next_u64(16))
        # drawing from one stream does not perturb a fresh one with the same name
        base.next_u64(1000)
        assert np.array_equal(Rng(7).substream("init").next_u64(8),
                              Rng(7).substream("init").next_u64(8))

    @given(st.one_of(st.integers(-2**80, -1), st.integers(0, 2**64 - 1),
                     st.integers(2**64, 2**80)),
           st.text(min_size=1), st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_substream_is_the_named_stream(self, seed, name, n):
        """`Rng(seed).substream(name)` draws what `Rng(seed, name)` drew
        before `substream` became the one way to name a stream, with one-word
        draws between array draws."""
        r = Rng(seed).substream(name)
        words = named_stream_words(seed, name, n + 9)
        unit = [(w >> 11) * 2.0**-53 for w in words]
        assert r.next_u64(n).tolist() == words[:n]
        assert r.next_u64(1).tolist() == words[n:n + 1]
        assert r.uniform(1).tolist() == unit[n + 1:n + 2]
        assert r.randint(-3, 10, 1).tolist() == [-3 + math.floor(unit[n + 2] * 13)]
        assert r.uniform(2).tolist() == unit[n + 3:n + 5]
        assert r.randint(-3, 10, 3).tolist() == [-3 + math.floor(u * 13)
                                                 for u in unit[n + 5:n + 8]]
        assert r.next_u64(1).tolist() == words[n + 8:]
        assert r._counter == n + 9

    def test_substream_method(self):
        r = Rng(7).substream("init")
        s1 = r.substream("child")
        s2 = Rng(7).substream("init").substream("child")
        assert np.array_equal(s1.next_u64(16), s2.next_u64(16))


class TestDistributions:
    def test_uniform_range(self):
        u = Rng(3).substream("data").uniform(100_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.01

    def test_normal_statistics_million_draws(self):
        # CLT bound from the spec'd init distribution: stddev 0.01, 1e6 draws
        x = 0.01 * Rng(9).substream("init").normal(1_000_000)
        assert abs(x.mean()) <= 4 * (0.01 / 1000.0)
        assert abs(x.std() - 0.01) <= 0.0001

    def test_randint_bounds(self):
        draws = Rng(5).substream("sampling").randint(3, 13, 1000)
        assert draws.min() >= 3 and draws.max() < 13
        assert len(np.unique(draws)) == 10
        with pytest.raises(ValueError):
            Rng(5).substream("sampling").randint(4, 4)

    def test_permutation_is_permutation(self):
        p = Rng(1).substream("data").permutation(100)
        assert sorted(p.tolist()) == list(range(100))

    def test_permutation_prefix_without_replacement(self):
        c = Rng(1).substream("sampling").permutation(50, 20)
        assert len(set(c.tolist())) == 20
        assert c.min() >= 0 and c.max() < 50

    @pytest.mark.parametrize("k", [-1, 51])
    def test_permutation_prefix_outside_0_to_n_rejected(self, k):
        with pytest.raises(ValueError, match=f"cannot choose {k} from 50"):
            Rng(1).substream("sampling").permutation(50, k)

    @pytest.mark.parametrize("k", [0, 1, 50])
    def test_permutation_prefix_is_the_full_permutations_head(self, k):
        fast, full = Rng(3).substream("sampling"), Rng(3).substream("sampling")
        got, want = fast.permutation(50, k), full.permutation(50)[:k]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert fast.next_u64(1) == full.next_u64(1)


class TestNormalMatchesConcat:
    """`normal`, filled `_PAIRS` pairs at a time, draws the bytes of
    Box-Muller over whole arrays and leaves the stream where it does."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 2 * _PAIRS - 1, 2 * _PAIRS, 2 * _PAIRS + 1,
                                   4 * _PAIRS + 1, 589_824])
    def test_same_bytes_and_draws(self, n):
        for seed in (0, 1, 41, 2**64 - 1):
            blocked, whole = Rng(seed).substream("init"), Rng(seed).substream("init")
            blocked.next_u64(3), whole.next_u64(3)
            got, want = blocked.normal(n), normal_concat(whole, n)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert blocked._counter == whole._counter
            assert blocked.next_u64(1) == whole.next_u64(1)


class TestPermutationMatchesLoop:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 256, 2409])
    def test_same_bytes_and_draws(self, n):
        for seed in range(20):
            fast, loop = Rng(seed).substream("data"), Rng(seed).substream("data")
            got, want = fast.permutation(n), permutation_loop(loop, n)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert fast.next_u64(1) == loop.next_u64(1)


class TestPermutationPrefixMatchesLoop:
    """permutation(n, k) is the loop's permutation(n)[:k], from the same draws."""

    @given(st.one_of(st.integers(0, 40), st.integers(0, 2500)).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n))), st.integers(0, 2**64 - 1))
    @settings(max_examples=300, deadline=None)
    def test_same_rows_and_draws(self, nk, seed):
        n, k = nk
        fast, loop = Rng(seed).substream("sampling"), Rng(seed).substream("sampling")
        got, want = fast.permutation(n, k), permutation_loop(loop, n)[:k]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert fast._counter == loop._counter
        assert fast.next_u64(1) == loop.next_u64(1)
