"""Autodiff core: forward values and finite-difference gradient checks.

All gradient checks run in 64-bit mode with kink avoidance: random inputs are
redrawn or nudged so no relu/smooth-L1/max argument sits within 1e-3 of a tie
or branch boundary.
"""

import gc
import itertools
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import minircnn.tensor as T
from minircnn.tensor import ShapeError, Tensor
from oracles import (conv2d_tensordot, gradcheck, maxpool2x2_argmax, relu_where,
                     roi_pool_loop)


def t64(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def rand64(rng, shape, lo=-1.0, hi=1.0):
    return t64(rng.uniform(lo, hi, size=shape))


def away_from(rng, shape, boundaries, margin=2e-3, lo=-2.0, hi=2.0):
    """Uniform draws redrawn until no entry is within margin of a boundary."""
    x = rng.uniform(lo, hi, size=shape)
    for _ in range(100):
        bad = np.zeros(x.shape, dtype=bool)
        for b in boundaries:
            bad |= np.abs(x - b) < margin
        if not bad.any():
            break
        x[bad] = rng.uniform(lo, hi, size=int(bad.sum()))
    return t64(x)


class TestForwardValues:
    def test_smooth_l1_branches(self):
        x = t64([0.0, 0.5, 2.0, -2.0, -0.5])
        y = T.smooth_l1(x)
        np.testing.assert_allclose(y.data, [0.0, 0.125, 1.5, 1.5, 0.125])
        T.tsum(y).backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.5, 1.0, -1.0, -0.5])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        p = T.softmax(rng.normal(size=(50, 7)) * 10, axis=1)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_logloss_perfect_prediction_is_zero(self):
        logits = t64([[50.0, -50.0], [-50.0, 50.0]])
        loss = T.tsum(T.softmax_logloss(logits, np.array([0, 1])))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_logloss_uniform(self):
        loss = T.tsum(T.softmax_logloss(t64([[0.0, 0.0, 0.0, 0.0]]), np.array([2])))
        assert loss.item() == pytest.approx(np.log(4.0), rel=1e-12)

    def test_conv_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = t64(rng.normal(size=(1, 5, 6)))
        w = t64(np.ones((1, 1, 1, 1)))
        b = t64(np.zeros(1))
        y = T.conv2d(x, w, b)
        np.testing.assert_array_equal(y.data, x.data)

    def test_conv_shape_mismatch_names_op(self):
        x = t64(np.zeros((3, 5, 5)))
        w = t64(np.zeros((2, 4, 3, 3)))
        with pytest.raises(ShapeError, match="conv2d"):
            T.conv2d(x, w, t64(np.zeros(2)))
        # a kernel larger than the padded input
        with pytest.raises(ShapeError, match="conv2d: a 3x3 kernel does not fit 2x5 padded by 0"):
            T.conv2d(t64(np.zeros((4, 2, 5))), w, t64(np.zeros(2)))

    def test_maxpool_halves_dims(self):
        x = t64(np.arange(32, dtype=np.float64).reshape(2, 4, 4))
        y = T.maxpool2x2(x)
        assert y.data.shape == (2, 2, 2)
        np.testing.assert_array_equal(y.data[0], [[5, 7], [13, 15]])

    def test_relu(self):
        x = t64([-1.0, 0.5, 2.0])
        np.testing.assert_array_equal(T.relu(x).data, [0.0, 0.5, 2.0])

    def test_linear_matches_matmul(self):
        rng = np.random.default_rng(2)
        x, w, b = (rng.normal(size=(4, 3)), rng.normal(size=(3, 5)),
                   rng.normal(size=5))
        y = T.linear(t64(x), t64(w), t64(b))
        np.testing.assert_allclose(y.data, x @ w + b, atol=1e-12)

    def test_forward_is_pure(self):
        rng = np.random.default_rng(3)
        x = t64(rng.normal(size=(2, 6, 6)))
        w = t64(rng.normal(size=(3, 2, 3, 3)))
        b = t64(rng.normal(size=3))
        y1 = T.conv2d(x, w, b, pad=1).data.copy()
        y2 = T.conv2d(x, w, b, pad=1).data
        np.testing.assert_array_equal(y1, y2)


class TestRoiPoolForward:
    def test_single_cell_p1(self):
        x = t64(np.arange(16, dtype=np.float64).reshape(1, 4, 4))
        rois = np.array([[2.0, 3.0, 3.0, 4.0]])  # feature cell (3, 2) at scale 1
        y = T.roi_pool(x, rois, 1.0, 1)
        assert y.data[0, 0, 0, 0] == x.data[0, 3, 2]

    def test_constant_map(self):
        x = t64(np.full((2, 8, 8), 3.25))
        y = T.roi_pool(x, np.array([[0.0, 0.0, 64.0, 64.0]]), 1 / 8, 4)
        np.testing.assert_array_equal(y.data, np.full((1, 2, 4, 4), 3.25))

    def test_zero_area_roi_uses_nearest_cell(self):
        x = t64(np.arange(16, dtype=np.float64).reshape(1, 4, 4))
        y = T.roi_pool(x, np.array([[2.0, 2.0, 2.0, 2.0]]), 1.0, 1)
        assert np.isfinite(y.data).all()

    def test_bins_cover_extent(self):
        # max over all bins equals max over the whole RoI window
        rng = np.random.default_rng(4)
        x = t64(rng.normal(size=(1, 10, 10)))
        y = T.roi_pool(x, np.array([[1.0, 2.0, 9.0, 8.0]]), 1.0, 3)
        assert y.data.max() == pytest.approx(x.data[0, 2:8, 1:9].max())

    def test_no_rois(self):
        x = t64(np.ones((3, 5, 4)))
        y = T.roi_pool(x, np.zeros((0, 4)), 1.0, 3)
        assert y.data.shape == (0, 3, 3, 3) and y.data.dtype == np.float64
        T.tsum(y).backward()
        np.testing.assert_array_equal(x.grad, np.zeros((3, 5, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_roi_rejected(self, bad):
        x = t64(np.ones((2, 4, 4)))
        rois = np.array([[0.0, 0.0, 2.0, 2.0], [1.0, bad, 3.0, 3.0]])
        with pytest.raises(ValueError, match=r"roi_pool: RoI row 1 "):
            T.roi_pool(x, rois, 1.0, 2)


# Cell values rich in ties the loop breaks by first occurrence: repeated
# palette values, both signed zeros (equal, distinct bits) and NaN.
PALETTE = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, np.nan]
# RoI pooling's cells also take a second NaN bit pattern, the sign-bit NaN
# (astype(float32) keeps it), so the bytes show which NaN a bin took. Two
# more palettes each hold one of NaN and -0.0 without the other, which would
# send the whole map to the rank table, and nothing that beats their ties.
SIGN_NAN = np.copysign(np.nan, -1.0)
ROI_PALETTES = {"palette": PALETTE + [SIGN_NAN], "zeros": [0.0, -0.0, -1.0],
                "nans": [np.nan, SIGN_NAN, -1.0]}


@st.composite
def roi_pool_cases(draw):
    C, H, W = draw(st.integers(1, 8)), draw(st.integers(1, 20)), draw(st.integers(1, 20))
    P = draw(st.integers(1, 7))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    scale = draw(st.sampled_from([1.0, 0.5, 0.125]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(C, H, W))
    kind = draw(st.sampled_from(["normal", "relu", *ROI_PALETTES]))
    if kind == "relu":
        x = np.where(x > 0, x, 0.0)
    elif kind in ROI_PALETTES:
        x = rng.choice(ROI_PALETTES[kind], size=(C, H, W))
    x = x.astype(dtype)
    N = draw(st.integers(1, 12))
    # RoIs reach past every edge of the map; some have zero or negative extent
    ext = np.array([W, H, W, H]) / scale
    rois = rng.uniform(-0.5, 1.5, size=(N, 4)) * ext
    degenerate = rng.random(N) < 0.25
    rois[degenerate, 2:] = rois[degenerate, :2]
    g = rng.normal(size=(N, C, P, P)).astype(dtype)
    return x, rois, scale, P, g


@st.composite
def repeated_roi_cases(draw):
    """RoIs that share most of their bins: exact duplicates, copies moved by
    less than one feature cell, RoIs over the whole map, or none at all."""
    C, H, W = draw(st.integers(1, 6)), draw(st.integers(1, 16)), draw(st.integers(1, 16))
    P = draw(st.integers(1, 7))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    scale = draw(st.sampled_from([1.0, 0.5, 0.125]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = ROI_PALETTES[draw(st.sampled_from(sorted(ROI_PALETTES)))]
    x = rng.choice(palette, size=(C, H, W)).astype(dtype)
    ext = np.array([W, H, W, H]) / scale
    base = rng.uniform(-0.25, 1.25, size=(draw(st.integers(1, 3)), 4)) * ext
    reps = draw(st.integers(2, 40))
    parts = [np.zeros((0, 4))]
    if draw(st.booleans()):
        parts.append(base[rng.integers(0, len(base), reps)])
    if draw(st.booleans()):
        near = base[rng.integers(0, len(base), reps)]
        parts.append(near + rng.uniform(-0.99, 0.99, size=near.shape) / scale)
    if draw(st.booleans()):
        parts.append(np.tile([0.0, 0.0, W / scale, H / scale], (draw(st.integers(1, 3)), 1)))
    rois = rng.permutation(np.concatenate(parts))
    g = rng.normal(size=(len(rois), C, P, P)).astype(dtype)
    return x, rois, scale, P, g


class TestRoiPoolMatchesLoop:
    """The sparse-table pooling against the per-bin loop, bit for bit."""

    @staticmethod
    def check_bytes(x, rois, scale, P, g):
        """Both paths' y against the loop's, and dx against its scatter."""
        y_ref, arg_ref = roi_pool_loop(x, rois, scale, P)
        # without a gradient, forward pools values unless x holds NaN or -0.0
        special = bool(np.isnan(x).any() or (np.signbit(x) & (x == 0)).any())
        with mock.patch.object(T, "_rank_table", wraps=T._rank_table) as ranks:
            y = T.roi_pool(Tensor(x.copy()), rois, scale, P)
        assert ranks.called == special
        assert y.data.dtype == x.dtype and y.data.shape == y_ref.shape
        assert np.array_equal(y.data.view(np.uint8), y_ref.view(np.uint8))
        assert y._backward is None
        xt = Tensor(x.copy(), requires_grad=True)
        y = T.roi_pool(xt, rois, scale, P)
        assert y.data.dtype == x.dtype and y.data.shape == y_ref.shape
        assert np.array_equal(y.data.view(np.uint8), y_ref.view(np.uint8))
        T.tsum(T.mul(y, Tensor(g))).backward()
        C, H, W = x.shape
        dx = np.zeros((C, H * W), dtype=x.dtype)
        c = np.broadcast_to(np.arange(C)[None, :, None, None], arg_ref.shape)
        np.add.at(dx, (c.ravel(), arg_ref.ravel()), g.ravel())
        assert np.array_equal(xt.grad.view(np.uint8),
                              dx.reshape(C, H, W).view(np.uint8))

    @given(roi_pool_cases())
    @settings(max_examples=300, deadline=None)
    def test_forward_and_backward_bytes(self, case):
        self.check_bytes(*case)

    @given(repeated_roi_cases())
    @settings(max_examples=200, deadline=None)
    def test_bytes_where_most_bins_repeat(self, case):
        self.check_bytes(*case)


# The trunk ops' special values: signed zeros, NaN and both infinities.
TRUNK_PALETTE = PALETTE + [np.inf, -np.inf]


def trunk_array(draw, rng, shape, dtype):
    """Normal, ReLU-clipped (ties at +0.0) or palette values of `shape`."""
    x = rng.normal(size=shape)
    kind = draw(st.sampled_from(["normal", "relu", "palette"]))
    if kind == "relu":
        x = np.where(x > 0, x, 0.0)
    elif kind == "palette":
        x = rng.choice(TRUNK_PALETTE, size=shape)
    return x.astype(dtype)


def tape_bytes(op, arrays, needs_grad, seed, **kw):
    """op's output, then each input's gradient (None if it takes none) after
    backward of sum(y * g) for a seeded normal g, all as raw bytes."""
    ts = [Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, needs_grad)]
    with np.errstate(invalid="ignore", over="ignore"):
        y = op(*ts, **kw)
        g = np.random.default_rng(seed).normal(size=y.shape).astype(y.dtype)
        T.tsum(T.mul(y, Tensor(g))).backward()
    return [None if a is None else (a.dtype, a.shape, np.ascontiguousarray(a).tobytes())
            for a in [y.data] + [t.grad for t in ts]]


# (C, O, H, K, pad) of the default config's convolutions: the backbone at
# 128 px, then at 96 px, and the 1x1 RPN and one-stage outputs on each map
DEFAULT_CONVS = [
    (3, 16, 128, 3, 1), (16, 32, 64, 3, 1), (32, 64, 32, 3, 1), (64, 64, 16, 3, 1),
    (3, 16, 96, 3, 1), (16, 32, 48, 3, 1), (32, 64, 24, 3, 1), (64, 64, 12, 3, 1),
    (64, 18, 16, 1, 0), (64, 36, 16, 1, 0), (64, 108, 16, 1, 0),
    (64, 18, 12, 1, 0), (64, 36, 12, 1, 0), (64, 108, 12, 1, 0)]


def package_conv(C, O, H, K, pad):
    """float32 x (ReLU-clipped), w and b of one package-size convolution."""
    rng = np.random.default_rng([C, O, H, K, pad])
    x = np.maximum(rng.normal(size=(C, H, H)), 0).astype(np.float32)
    w = (0.1 * rng.normal(size=(O, C, K, K))).astype(np.float32)
    return x, w, rng.normal(size=O).astype(np.float32)


@st.composite
def conv_cases(draw):
    C, O = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    K, pad = draw(st.sampled_from([1, 3])), draw(st.sampled_from([0, 1]))
    lo = max(1, K - 2 * pad)
    H, W = draw(st.integers(lo, 11)), draw(st.integers(lo, 11))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = trunk_array(draw, rng, (C, H, W), dtype)
    w = trunk_array(draw, rng, (O, C, K, K), dtype)
    b = rng.normal(size=O).astype(dtype)
    return x, w, b, pad, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@st.composite
def pool_cases(draw):
    C, H, W = draw(st.integers(1, 6)), draw(st.integers(1, 13)), draw(st.integers(1, 13))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return trunk_array(draw, rng, (C, H, W), dtype), draw(st.integers(0, 2**32 - 1))


def relu_then_argmax_pool(x: Tensor) -> Tensor:
    """The two ops maxpool2x2 fuses, as separate tape nodes."""
    return maxpool2x2_argmax(relu_where(x))


class TestTrunkOpsMatchOracles:
    """conv2d, maxpool2x2 and relu against the tensordot, np.where then
    argmax, and np.where forms they replaced: output and every gradient,
    byte for byte."""

    @given(conv_cases())
    @settings(max_examples=300, deadline=None)
    def test_conv2d_bytes(self, case):
        x, w, b, pad, x_grad, seed = case
        got, want = (tape_bytes(op, (x, w, b), (x_grad, True, True), seed, pad=pad)
                     for op in (T.conv2d, conv2d_tensordot))
        assert (got[1] is None) == (not x_grad)
        assert got == want

    # (C, O, H, K, pad) of the package's convolutions: the default backbone
    # at 128 px (its last layer has the shape of the 3x3 head trunk) and at
    # 96 px, the 1x1 RPN (18, 36) and one-stage (36, 108) outputs on their
    # 16 and 12 px maps, the CLI tests' TINY backbone and RPN outputs at
    # 50 px (maps 50, 25, 13, 7), and a 1x1 kernel with padding
    @pytest.mark.parametrize("C, O, H, K, pad", [
        *DEFAULT_CONVS,
        (3, 4, 50, 3, 1), (4, 8, 25, 3, 1), (8, 8, 13, 3, 1), (8, 8, 7, 3, 1),
        (8, 8, 7, 1, 0), (8, 16, 7, 1, 0), (64, 18, 16, 1, 1)])
    def test_conv2d_bytes_at_package_sizes(self, C, O, H, K, pad):
        x, w, b = package_conv(C, O, H, K, pad)
        got, want = (tape_bytes(op, (x, w, b), (True, True, True), H, pad=pad)
                     for op in (T.conv2d, conv2d_tensordot))
        assert all(a is not None for a in got)
        assert got == want

    @pytest.mark.parametrize("C, O, H, K, pad", DEFAULT_CONVS)
    def test_conv2d_weight_gradient_keeps_tensordot_bytes(self, C, O, H, K, pad):
        """At the default config's shapes, dW from forward's column matrix
        has the bytes of the tensordot over the window view it replaced, so
        the 128 px acceptance runs keep their values."""
        x, w, b = package_conv(C, O, H, K, pad)
        xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
        win = sliding_window_view(xp, (K, K), axis=(1, 2))
        g = np.random.default_rng(H).normal(size=(O, *win.shape[1:3])).astype(np.float32)
        got = tape_bytes(T.conv2d, (x, w, b), (False, True, True), H, pad=pad)[2]
        want = np.tensordot(g, win, axes=([1, 2], [1, 2]))
        assert got == (want.dtype, want.shape, want.tobytes())

    @given(pool_cases())
    @settings(max_examples=500, deadline=None)
    def test_maxpool2x2_bytes(self, case):
        x, seed = case
        for x_grad in (True, False):
            got, want = (tape_bytes(op, (x,), (x_grad,), seed)
                         for op in (T.maxpool2x2, relu_then_argmax_pool))
            assert (got[1] is None) == (not x_grad)
            assert got == want

    @given(pool_cases())
    @settings(max_examples=300, deadline=None)
    def test_relu_bytes(self, case):
        x, seed = case
        # subnormals of either sign, which x + 0.0 must keep
        tiny = np.finfo(x.dtype).smallest_subnormal
        x = np.concatenate([x.ravel(), np.array([tiny, -tiny, 3 * tiny, -5 * tiny,
                                                 np.finfo(x.dtype).smallest_normal / 2],
                                                dtype=x.dtype)])
        for x_grad in (True, False):
            got, want = (tape_bytes(op, (x,), (x_grad,), seed)
                         for op in (T.relu, relu_where))
            assert (got[1] is None) == (not x_grad)
            assert got == want

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_zero_window_keeps_its_first_zero(self, dtype):
        # all 16 sign patterns of four zeros, one window each, twice: a
        # window of zeros pools to +0.0 and sends g * 0, the sign of g
        # carried, to its first cell, whichever zero that cell holds
        cells = np.array(list(itertools.product([0.0, -0.0], repeat=4)), dtype=dtype)
        x = np.tile(cells.reshape(16, 2, 2).transpose(1, 0, 2).reshape(1, 2, 32), 2)
        g = np.concatenate([np.full(16, 1.5), np.full(16, -1.5)]).astype(dtype)
        for op in (T.maxpool2x2, relu_then_argmax_pool):
            xt = Tensor(x.copy(), requires_grad=True)
            y = op(xt)
            T.tsum(T.mul(y, Tensor(g.reshape(1, 1, 32)))).backward()
            assert y.data.tobytes() == np.zeros((1, 1, 32), dtype).tobytes()
            first = np.zeros((1, 2, 64), dtype)
            first[0, 0, 0::2] = g * 0
            assert xt.grad.tobytes() == first.tobytes()


class TestGradchecks:
    """Central finite differences, >= 20 random micro-instances per op."""

    N = 20
    TOL = 1e-4

    def test_add_mul_sum(self):
        rng = np.random.default_rng(10)
        for _ in range(self.N):
            a = rand64(rng, (3, 4))
            b = rand64(rng, (3, 4))
            err = gradcheck(lambda a, b: T.tsum(T.mul(T.add(a, b), b)), [a, b])
            assert err < self.TOL

    def test_reshape_transpose_take_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(self.N):
            a = rand64(rng, (4, 6))
            idx = rng.integers(0, 4, size=3)

            def fn(a):
                r = T.reshape(T.transpose(T.take_rows(a, idx), (1, 0)), (18,))
                return T.tsum(T.mul(r, r))

            assert gradcheck(fn, [a]) < self.TOL

    def test_select_class(self):
        rng = np.random.default_rng(12)
        for _ in range(self.N):
            a = rand64(rng, (5, 3, 4))
            cls = rng.integers(0, 3, size=5)
            assert gradcheck(
                lambda a: T.tsum(T.mul(T.select_class(a, cls), 2.0)), [a]
            ) < self.TOL

    def test_relu(self):
        rng = np.random.default_rng(13)
        for _ in range(self.N):
            a = away_from(rng, (4, 5), [0.0])
            assert gradcheck(lambda a: T.tsum(T.mul(T.relu(a), a)), [a]) < self.TOL

    def test_smooth_l1(self):
        rng = np.random.default_rng(14)
        for _ in range(self.N):
            a = away_from(rng, (8,), [0.0, 1.0, -1.0])
            assert gradcheck(lambda a: T.tsum(T.smooth_l1(a)), [a]) < self.TOL

    def test_linear(self):
        rng = np.random.default_rng(15)
        for _ in range(self.N):
            x, w, b = rand64(rng, (3, 4)), rand64(rng, (4, 2)), rand64(rng, (2,))
            assert gradcheck(
                lambda x, w, b: T.tsum(T.mul(T.linear(x, w, b), 1.5)), [x, w, b]
            ) < self.TOL

    def test_softmax_logloss(self):
        rng = np.random.default_rng(16)
        for _ in range(self.N):
            logits = rand64(rng, (6, 4), lo=-2, hi=2)
            labels = rng.integers(0, 4, size=6)
            assert gradcheck(
                lambda l: T.tsum(T.softmax_logloss(l, labels)), [logits]) < self.TOL

    def test_conv2d(self):
        rng = np.random.default_rng(17)
        for i in range(self.N):
            pad = i % 3
            x = rand64(rng, (2, 6, 6))
            w = rand64(rng, (3, 2, 3, 3))
            b = rand64(rng, (3,))
            assert gradcheck(
                lambda x, w, b: T.tsum(T.mul(T.conv2d(x, w, b, pad=pad), 0.5)),
                [x, w, b]) < self.TOL

    def test_maxpool2x2(self):
        rng = np.random.default_rng(18)
        for _ in range(self.N):
            # distinct values, none near 0 (the fused ReLU's kink) -> no ties
            # anywhere near the max; half are negative, so some windows are too
            x = (rng.permutation(64) - 31.5).astype(np.float64).reshape(1, 8, 8)
            x = t64(x * 0.1)
            assert gradcheck(
                lambda x: T.tsum(T.mul(T.maxpool2x2(x), 0.3)), [x]) < self.TOL

    def test_roi_pool(self):
        rng = np.random.default_rng(19)
        for _ in range(self.N):
            x = t64(rng.permutation(2 * 64).astype(np.float64).reshape(2, 8, 8)
                    * 0.07)
            rois = np.stack([
                rng.uniform(0, 3, 2), rng.uniform(0, 3, 2),
                rng.uniform(4, 8, 2), rng.uniform(4, 8, 2)], axis=1)
            assert gradcheck(
                lambda x: T.tsum(T.mul(T.roi_pool(x, rois, 1.0, 2), 0.4)),
                [x]) < self.TOL

    def test_composite_network(self):
        # conv -> relu -> pool -> linear -> logloss, all in one graph
        rng = np.random.default_rng(20)
        for _ in range(self.N):
            x = rand64(rng, (1, 6, 6))
            w = rand64(rng, (2, 1, 3, 3))
            b = rand64(rng, (2,))
            fw = rand64(rng, (8, 3))
            fb = rand64(rng, (3,))

            def fn(x, w, b, fw, fb):
                h = T.maxpool2x2(T.relu(T.conv2d(x, w, b)))
                flat = T.reshape(h, (1, 8))
                return T.tsum(T.softmax_logloss(T.linear(flat, fw, fb), np.array([1])))

            assert gradcheck(fn, [x, w, b, fw, fb]) < self.TOL


class TestBackwardMechanics:
    def test_grad_accumulates_over_reuse(self):
        a = t64([2.0])
        T.tsum(T.add(T.mul(a, a), a)).backward()
        np.testing.assert_allclose(a.grad, [5.0])  # d(a^2 + a)/da = 2a + 1

    def test_shared_gradient_survives_a_later_accumulation(self):
        # reshape hands s a view of v's grad and add hands that one array to
        # both a and b; a's second accumulation must not write through it
        a, b = t64([1.0, 2.0]), t64([3.0, 4.0])
        s = T.add(a, b)
        v = T.reshape(s, (2, 1))
        T.add(T.tsum(T.mul(a, a)), T.tsum(T.mul(v, 3.0))).backward()
        np.testing.assert_array_equal(a.grad, [5.0, 7.0])    # 2a + 3
        np.testing.assert_array_equal(b.grad, [3.0, 3.0])

    def test_only_leaves_keep_a_gradient(self):
        """backward frees each gradient an op's output received once it has
        passed it on; the leaves that need one keep theirs."""
        rng = np.random.default_rng(8)
        x = rand64(rng, (2, 6, 6))
        w, b = rand64(rng, (3, 2, 3, 3)), t64(np.zeros(3))
        fw, fb = rand64(rng, (27, 4)), t64(np.zeros(4))
        frozen = Tensor(rng.normal(size=(27, 4)))
        h = T.maxpool2x2(T.conv2d(x, w, b, pad=1))
        flat = T.relu(T.reshape(h, (1, 27)))
        logits = T.add(T.linear(flat, fw, fb), T.linear(flat, frozen, fb))
        loss = T.add(T.tsum(T.softmax_logloss(logits, np.array([2]))),
                     T.tsum(T.smooth_l1(T.take_rows(T.reshape(logits, (4, 1)), [1, 3]))))
        loss.backward()
        tape, stack = [], [loss]
        while stack:
            t = stack.pop()
            if not any(t is u for u in tape):
                tape.append(t)
                stack.extend(t._parents)
        made = [t for t in tape if t._backward is not None]
        assert len(made) >= 10 and all(t.grad is None for t in made)
        leaves = [t for t in tape if t._backward is None]
        assert all((t.grad is not None) == t.requires_grad for t in leaves)
        assert {id(t) for t in leaves if t.requires_grad} == {id(t) for t in (x, w, b, fw, fb)}

    def test_no_grad_tensor_untouched(self):
        a = t64([1.0, 2.0])
        b = Tensor(np.array([3.0, 4.0]), requires_grad=False)
        T.tsum(T.mul(a, b)).backward()
        assert b.grad is None
        np.testing.assert_allclose(a.grad, [3.0, 4.0])

    def test_backward_requires_scalar(self):
        a = t64([[1.0, 2.0]])
        with pytest.raises(ValueError):
            T.mul(a, 2.0).backward()

    def test_deep_chain_beyond_recursion_limit(self):
        a = t64([2.0])
        y = a
        for _ in range(1500):
            y = T.mul(y, 1.0)
        T.tsum(y).backward()
        np.testing.assert_array_equal(a.grad, [1.0])

    @pytest.mark.parametrize("w_grad", [True, False])
    def test_conv2d_keeps_its_column_matrix_only_until_dw(self, w_grad):
        """The tape holds forward's column matrix while w needs a gradient,
        and releases it once backward has taken dW; a frozen w keeps none."""
        made, real = [], T._cols

        def cols(*args):
            c = real(*args)
            made.append(weakref.ref(c))
            return c

        rng = np.random.default_rng(5)
        x, w, b = t64(rng.normal(size=(2, 5, 5))), rand64(rng, (3, 2, 3, 3)), t64(np.zeros(3))
        w.requires_grad = w_grad
        with mock.patch.object(T, "_cols", cols):
            y = T.conv2d(x, w, b, pad=1)
            assert (made[0]() is not None) == w_grad
            T.tsum(y).backward()
        assert made[0]() is None
        assert (w.grad is not None) == w_grad

    def test_tape_freed_without_cycle_collector(self):
        # backward() must not tie the graph into a reference cycle, or every
        # training step's activations live on until the cyclic collector runs
        gc.disable()
        try:
            a = t64(np.ones(8))
            h = T.mul(a, 2.0)
            alive = weakref.ref(h.data)
            loss = T.tsum(h)
            loss.backward()
            del h, loss
            assert alive() is None
        finally:
            gc.enable()
