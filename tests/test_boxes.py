"""Box geometry: IoU, encode/decode, clip, NMS against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minircnn import boxes as boxes_mod
from minircnn.boxes import (
    DELTA_CLAMP,
    Box,
    clip_arr,
    decode_arr,
    encode_arr,
    iou_matrix_arr,
    nms_arr,
)

from oracles import brute_iou, brute_nms, random_boxes


class TestTypes:
    def test_zero_area_box_allowed(self):
        b = Box(3, 3, 3, 3)
        assert (b.x2 - b.x1) * (b.y2 - b.y1) == 0


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


    @pytest.mark.parametrize("bound", [DELTA_CLAMP, -DELTA_CLAMP])
    def test_roundtrip_at_clamp_bound(self, bound):
        anchor = arr((4, 4, 20, 20))
        deltas = np.array([[0.25, -0.5, bound, -bound]])
        back = encode_arr(decode_arr(deltas, anchor), anchor)
        assert tuple(back[0]) == pytest.approx(tuple(deltas[0]), abs=1e-12)

    @pytest.mark.parametrize("bound", [DELTA_CLAMP, -DELTA_CLAMP])
    def test_beyond_clamp_roundtrips_to_bound(self, bound):
        anchor = arr((4, 4, 20, 20))
        deltas = np.array([[0.25, -0.5, 3 * bound, -3 * bound]])
        back = encode_arr(decode_arr(deltas, anchor), anchor)
        assert tuple(back[0]) == pytest.approx((0.25, -0.5, bound, -bound), abs=1e-12)


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

    @pytest.mark.parametrize("b, thr", [((0, 0, 10, 20), 0.5), ((0, 0, 7, 10), 0.7),
                                        ((0, 0, 10, 10), 1.0)])
    def test_iou_equal_to_threshold_survives(self, b, thr):
        boxes = arr((0, 0, 10, 10), b)
        assert iou_matrix_arr(boxes[:1], boxes[1:])[0, 0] == thr
        assert list(nms_arr(boxes, np.array([0.9, 0.8]), thr)) == [0, 1]
        assert list(nms_arr(boxes, np.array([0.9, 0.8]), math.nextafter(thr, 0))) == [0]

    def test_subnormal_areas(self):
        # areas round to 2 and 1 units of the smallest subnormal, so the
        # computed IoU is 0.5 although the width ratio is 0.25
        tiny = 5e-324
        boxes = arr((0, 0, 2.4, tiny), (0, 0, 0.6, tiny))
        assert brute_iou(boxes[0], boxes[1]) == 0.5
        assert list(nms_arr(boxes, np.array([0.9, 0.8]), 0.45)) == [0]

    def test_max_keep(self):
        rng = np.random.default_rng(6)
        boxes = random_boxes(rng, 50, hi=500, min_size=1.0)
        scores = rng.uniform(0, 1, 50)
        full = list(nms_arr(boxes, scores, 0.7))
        assert list(nms_arr(boxes, scores, 0.7, max_keep=5)) == full[:5]


@st.composite
def nms_cases(draw):
    """Boxes on a coarse lattice (ties, duplicates) or continuous, with
    zero-size, inverted and non-finite rows; repeated or distinct scores."""
    n = draw(st.integers(0, 80))
    if draw(st.booleans()):
        origin, size = st.integers(0, 6).map(float), st.integers(-1, 4).map(float)
    else:
        origin, size = st.floats(0, 50), st.floats(-1, 40)
    rows = draw(st.lists(st.tuples(origin, origin, size, size), min_size=n, max_size=n))
    xy = np.array(rows, dtype=np.float64).reshape(-1, 4)
    boxes = np.concatenate([xy[:, :2], xy[:, :2] + xy[:, 2:]], axis=1)
    for i, j, v in draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                           st.integers(0, 3),
                                           st.sampled_from([np.nan, np.inf, -np.inf])),
                                 max_size=3 if n else 0)):
        boxes[i, j] = v
    boxes *= draw(st.sampled_from([1.0, 1e6]))
    score = st.sampled_from([0.2, 0.5, 0.9]) if draw(st.booleans()) else st.floats(0, 1)
    scores = np.array(draw(st.lists(score, min_size=n, max_size=n)), dtype=np.float64)
    thr = draw(st.one_of(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]), st.floats(0, 1)))
    max_keep = draw(st.one_of(st.none(), st.integers(1, max(n, 1))))
    return boxes, scores, thr, max_keep


class TestNmsMatchesBruteForce:
    @given(nms_cases())
    @settings(max_examples=400, deadline=None)
    def test_keep_equals_brute_prefix(self, case):
        boxes, scores, thr, max_keep = case
        with np.errstate(invalid="ignore", over="ignore"):
            got = list(nms_arr(boxes, scores, thr, max_keep=max_keep))
            want = brute_nms(boxes, scores, thr)[:max_keep]
        assert got == want


def brute_grouped_nms(boxes, scores, thresh, groups) -> list[int]:
    """`brute_nms` of each group on its own, merged by (-score, group, index)."""
    keep = []
    for g in np.unique(groups):
        idx = np.flatnonzero(groups == g)
        keep += idx[brute_nms(boxes[idx], scores[idx], thresh)].tolist()
    return sorted(keep, key=lambda i: (-scores[i], groups[i], i))


class TestGroupedNms:
    """Rows of different groups never suppress each other; given rows in
    group order, as `classwise_detections` passes its classes, the result is
    each group's own NMS merged by score, then group, then row."""

    @given(nms_cases(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_keep_equals_brute_per_group(self, case, data):
        boxes, scores, thr, max_keep = case
        n_groups = data.draw(st.integers(1, 4))
        groups = np.sort(np.array(data.draw(st.lists(
            st.integers(0, n_groups - 1), min_size=len(scores), max_size=len(scores))),
            dtype=np.int64))
        with np.errstate(invalid="ignore", over="ignore"):
            got = list(nms_arr(boxes, scores, thr, max_keep=max_keep, groups=groups))
            want = brute_grouped_nms(boxes, scores, thr, groups)[:max_keep]
        assert got == want

    @pytest.mark.parametrize("max_keep", [None, 3])
    def test_identical_boxes_of_other_groups_survive(self, max_keep):
        boxes = arr(*[(0, 0, 10, 10)] * 6)
        scores = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
        groups = np.array([0, 0, 1, 1, 2, 2])
        assert list(nms_arr(boxes, scores, 0.5, max_keep=max_keep,
                            groups=groups)) == [0, 2, 4][:max_keep]


@st.composite
def capped_cluster_cases(draw):
    """100-700 boxes whose best-scored `n_near` lie in tight clusters, fewer
    clusters than max_keep, above loners spread over the image. Each cluster
    keeps one box, so the first 2 * max_keep rows in score order keep fewer
    than max_keep, and the scan has to go on past them and past row 64."""
    n = draw(st.integers(100, 700))
    max_keep = draw(st.integers(2, 48))
    n_near = draw(st.integers(max(2 * max_keep, 70), n))
    k = draw(st.integers(1, max_keep - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centre = rng.uniform(0, 160, (k, 2))
    size = rng.uniform(5, 40, (k, 2))
    member = rng.integers(0, k, n_near)
    lo = centre[member]
    near = np.concatenate([lo, lo + size[member]], axis=1)
    # each edge moves by at most 3 % of the size, so members overlap by IoU > 0.78
    near += rng.uniform(-0.03, 0.03, (n_near, 4)) * np.tile(size[member], 2)
    xy = rng.uniform(0, 200, (n - n_near, 2))
    loners = np.concatenate([xy, xy + rng.uniform(2, 40, (n - n_near, 2))], axis=1)
    boxes = np.concatenate([near, loners])
    # loners stay below 0.45, so that rounding to 0.1 never ties one with a
    # member at 0.5 and pulls it into the first 2 * max_keep rows
    scores = np.concatenate([rng.uniform(0.5, 1, n_near), rng.uniform(0, 0.45, n - n_near)])
    if draw(st.booleans()):     # ties, kept in index order
        scores = np.round(scores, 1)
    perm = rng.permutation(n)
    thr = draw(st.one_of(st.sampled_from([0.3, 0.5, 0.7]), st.floats(0.05, 0.75)))
    return boxes[perm], scores[perm], thr, max_keep


class TestCappedNmsResumes:
    @given(capped_cluster_cases())
    @settings(max_examples=100, deadline=None)
    def test_keep_equals_brute_prefix(self, case):
        boxes, scores, thr, max_keep = case
        prefix = np.argsort(-scores, kind="stable")[:2 * max_keep]
        assert len(brute_nms(boxes[prefix], scores[prefix], thr)) < max_keep
        got = list(nms_arr(boxes, scores, thr, max_keep=max_keep))
        assert got == brute_nms(boxes, scores, thr)[:max_keep]


def subnormal_row(boxes):
    """The boxes with one more row 5e-324 high, whose area is subnormal."""
    return np.concatenate([boxes, [[3.0, 0.0, 40.0, 5e-324]]])


class TestNmsPrunesByOverlapNearZero:
    """Where tau times a valid row's area, width or height is below _TINY,
    the whole call prunes with tau = 0, by overlap alone."""

    @pytest.mark.parametrize("make, thr", [
        (subnormal_row, 0.3), (subnormal_row, 0.7),
        (lambda b: b, 5e-324), (lambda b: b, 1e-300),
        (lambda b: b * 1e-160, 0.3), (lambda b: b * 1e-160, 0.7),
    ])
    @pytest.mark.parametrize("max_keep", [None, 8])
    def test_keep_equals_brute_prefix(self, monkeypatch, make, thr, max_keep):
        taus = []

        class Recorded(boxes_mod._PairIndex):
            def __init__(self, x1, w, h, rows, t, groups):
                taus.append(t)
                super().__init__(x1, w, h, rows, t, groups)

        monkeypatch.setattr(boxes_mod, "_PairIndex", Recorded)
        rng = np.random.default_rng(21)
        boxes = make(random_boxes(rng, 120, hi=60, min_size=1.0))
        scores = rng.uniform(0, 1, boxes.shape[0])
        got = list(nms_arr(boxes, scores, thr, max_keep=max_keep))
        assert got == brute_nms(boxes, scores, thr)[:max_keep]
        assert taus and set(taus) == {0.0}
