"""Box geometry: IoU, encode/decode, clip, NMS against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minircnn.boxes import (
    DELTA_CLAMP,
    Box,
    ScoredBox,
    clip_arr,
    decode_arr,
    encode_arr,
    iou_matrix_arr,
    nms_arr,
)

from oracles import brute_iou, brute_nms, random_boxes


class TestTypes:
    def test_box_invariant_rejected(self):
        with pytest.raises(ValueError):
            Box(5, 0, 4, 10)
        with pytest.raises(ValueError):
            Box(0, 5, 10, 4)

    def test_scored_box_invariant(self):
        with pytest.raises(ValueError):
            ScoredBox(Box(0, 0, 1, 1), 1.5, 0)
        with pytest.raises(ValueError):
            ScoredBox(Box(0, 0, 1, 1), 0.5, -1)

    def test_zero_area_box_allowed(self):
        b = Box(3, 3, 3, 3)
        assert b.area == 0


def arr(*boxes) -> np.ndarray:
    """(N, 4) float array from 4-tuples."""
    return np.array(boxes, dtype=np.float64).reshape(-1, 4)


class TestIou:
    def test_identical(self):
        assert iou_matrix_arr(arr((0, 0, 10, 10)), arr((0, 0, 10, 10)))[0, 0] == 1.0

    def test_disjoint(self):
        assert iou_matrix_arr(arr((0, 0, 10, 10)), arr((20, 20, 30, 30)))[0, 0] == 0.0

    def test_quarter_overlap(self):
        got = iou_matrix_arr(arr((0, 0, 10, 10)), arr((5, 5, 15, 15)))[0, 0]
        assert got == pytest.approx(25.0 / 175.0, abs=1e-12)

    def test_degenerate_zero_area(self):
        z = np.array([[3.0, 3.0, 3.0, 3.0]])
        assert iou_matrix_arr(z, z)[0, 0] == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        a = random_boxes(rng, 40)
        b = random_boxes(rng, 30)
        m = iou_matrix_arr(a, b)
        for i in range(40):
            for j in range(30):
                assert m[i, j] == pytest.approx(brute_iou(a[i], b[j]), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = random_boxes(rng, 25)
        b = random_boxes(rng, 25)
        assert np.allclose(iou_matrix_arr(a, b), iou_matrix_arr(b, a).T)
        assert np.allclose(np.diag(iou_matrix_arr(a, a)), 1.0)


class TestEncodeDecode:
    def test_identity(self):
        d = encode_arr(arr((0, 0, 10, 10)), arr((0, 0, 10, 10)))
        assert tuple(d[0]) == (0, 0, 0, 0)

    def test_hand_example(self):
        anchor = arr((0, 0, 16, 16))        # center (8,8), 16x16
        gt = arr((-4, 0, 28, 16))           # center (12,8), 32x16
        tx, ty, tw, th = encode_arr(gt, anchor)[0]
        assert tx == pytest.approx(0.25, abs=1e-12)
        assert ty == pytest.approx(0.0, abs=1e-12)
        assert tw == pytest.approx(math.log(2.0), abs=1e-12)
        assert th == pytest.approx(0.0, abs=1e-12)

    def test_decode_zero_is_anchor(self):
        anchor = arr((3, 7, 20, 31))
        b = decode_arr(np.zeros((1, 4)), anchor)
        assert tuple(b[0]) == pytest.approx(tuple(anchor[0]), abs=1e-12)

    def test_decode_hand_example(self):
        b = decode_arr(arr((0, 0, math.log(2), math.log(2))), arr((0, 0, 16, 16)))
        assert tuple(b[0]) == pytest.approx((-8, -8, 24, 24), abs=1e-9)

    def test_roundtrip_10k(self):
        # size ratios stay below the decode clamp exp(log(1000/16)) = 62.5
        rng = np.random.default_rng(2)
        gt = random_boxes(rng, 10_000, hi=60.0, min_size=1.0)
        anchors = random_boxes(rng, 10_000, hi=60.0, min_size=1.0)
        back = decode_arr(encode_arr(gt, anchors), anchors)
        rel = np.abs(back - gt) / np.maximum(1.0, np.abs(gt))
        assert rel.max() <= 1e-9

    def test_degenerate_gt_rejected(self):
        with pytest.raises(ValueError):
            encode_arr(np.array([[0.0, 0.0, 0.0, 10.0]]),
                       np.array([[0.0, 0.0, 10.0, 10.0]]))
        with pytest.raises(ValueError):
            encode_arr(np.array([[0.0, 0.0, 10.0, 10.0]]),
                       np.array([[0.0, 0.0, 10.0, 0.0]]))

    def test_decode_clamps_extreme_log_sizes(self):
        anchor = np.array([[0.0, 0.0, 16.0, 16.0]])
        wild = np.array([[0.0, 0.0, 50.0, 50.0]])
        out = decode_arr(wild, anchor)
        assert np.all(np.isfinite(out))
        w = out[0, 2] - out[0, 0]
        assert w == pytest.approx(16.0 * math.exp(DELTA_CLAMP), rel=1e-9)

    @given(st.tuples(*[st.floats(0, 50) for _ in range(4)]),
           st.tuples(*[st.floats(0.5, 30) for _ in range(4)]))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, origins, sizes):
        gx, gy, ax, ay = origins
        gw, gh, aw, ah = sizes
        gt = arr((gx, gy, gx + gw, gy + gh))
        anchor = arr((ax, ay, ax + aw, ay + ah))
        back = decode_arr(encode_arr(gt, anchor), anchor)
        for got, want in zip(back[0], gt[0]):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


class TestClip:
    def test_inside_untouched(self):
        b = clip_arr(arr((2, 2, 8, 8)), 100, 100)
        assert tuple(b[0]) == (2, 2, 8, 8)

    def test_clamps(self):
        b = clip_arr(arr((-5, -5, 10, 10)), 100, 100)
        assert tuple(b[0]) == (0, 0, 10, 10)

    def test_fully_outside_collapses(self):
        b = clip_arr(arr((-20, -20, -10, -10)), 100, 100)
        assert tuple(b[0]) == (0, 0, 0, 0)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        boxes = random_boxes(rng, 500, lo=-50, hi=150)
        once = clip_arr(boxes, 100, 80)
        assert np.array_equal(clip_arr(once, 100, 80), once)
        assert np.all(once[:, 2] >= once[:, 0]) and np.all(once[:, 3] >= once[:, 1])


class TestNms:
    def test_single(self):
        assert list(nms_arr(arr((0, 0, 10, 10)), np.array([0.5]), 0.7)) == [0]

    def test_empty(self):
        assert list(nms_arr(arr(), np.zeros(0), 0.7)) == []

    def test_hand_example(self):
        boxes = arr((0, 0, 10, 10), (0, 0, 10, 11), (20, 20, 30, 30))
        assert list(nms_arr(boxes, np.array([0.9, 0.8, 0.7]), 0.7)) == [0, 2]

    def test_disjoint_all_kept_sorted(self):
        boxes = arr(*[(30 * i, 0, 30 * i + 10, 10) for i in range(3)])
        assert list(nms_arr(boxes, np.array([0.2, 0.9, 0.5]), 0.5)) == [1, 2, 0]

    def test_strict_threshold_boundary(self):
        # IoU exactly 0.5: survives at thr=0.5 (strict >), suppressed below.
        a = np.array([[0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 10.0, 30.0]])
        scores = np.array([0.9, 0.8])
        assert brute_iou(a[0], a[1]) == pytest.approx(1.0 / 3.0)
        assert list(nms_arr(a, scores, 1.0 / 3.0)) == [0, 1]
        assert list(nms_arr(a, scores, 1.0 / 3.0 - 1e-9)) == [0]

    def test_tie_break_by_index(self):
        a = np.array([[0.0, 0.0, 10.0, 10.0], [100.0, 0.0, 110.0, 10.0]])
        assert list(nms_arr(a, np.array([0.5, 0.5]), 0.7)) == [0, 1]
        assert list(nms_arr(a[::-1].copy(), np.array([0.5, 0.5]), 0.7)) == [0, 1]

    def test_matches_brute_force_1000_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            boxes = random_boxes(rng, n, hi=60, min_size=1.0)
            scores = rng.uniform(0, 1, n)
            thr = float(rng.uniform(0.1, 0.9))
            got = list(nms_arr(boxes, scores, thr))
            assert got == brute_nms(boxes, scores, thr)

    def test_no_surviving_high_iou_pair(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            boxes = random_boxes(rng, 100, hi=40, min_size=2.0)
            scores = rng.uniform(0, 1, 100)
            keep = nms_arr(boxes, scores, 0.7)
            m = iou_matrix_arr(boxes[keep], boxes[keep])
            np.fill_diagonal(m, 0.0)
            assert m.max() <= 0.7

    def test_max_keep(self):
        rng = np.random.default_rng(6)
        boxes = random_boxes(rng, 50, hi=500, min_size=1.0)
        scores = rng.uniform(0, 1, 50)
        full = list(nms_arr(boxes, scores, 0.7))
        assert list(nms_arr(boxes, scores, 0.7, max_keep=5)) == full[:5]
