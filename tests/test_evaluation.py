"""Recall curves, VOC-style AP/mAP, and timing reports."""

import time

import numpy as np
import pytest

from minircnn.boxes import Box, ScoredBox
from minircnn.evaluation import (
    DEFAULT_IOU_GRID,
    RecallCurve,
    bench,
    mean_ap,
    recall_curve,
    voc_ap,
)

from defaults import IOU_THRESH
from oracles import brute_iou, random_boxes


def det(x1, y1, x2, y2, score, cls=1):
    return ScoredBox(Box(x1, y1, x2, y2), score, cls)


def brute_ap(detections, gts, iou_thresh=0.5):
    """Independent AP evaluator: explicit PR table + envelope area.

    detections: list per image of (score, box); gts: list per image of (M,4).
    """
    flat = []
    for i, dets in enumerate(detections):
        for score, box in dets:
            flat.append((score, i, np.asarray(box, dtype=np.float64)))
    flat.sort(key=lambda r: -r[0])
    used = [np.zeros(len(g), dtype=bool) for g in gts]
    n_gt = sum(len(g) for g in gts)
    tps = []
    for score, i, box in flat:
        best, bj = 0.0, -1
        for j, g in enumerate(gts[i]):
            if used[i][j]:
                continue
            v = brute_iou(box, g)
            if v > best:
                best, bj = v, j
        if bj >= 0 and best >= iou_thresh:
            used[i][bj] = True
            tps.append(1)
        else:
            tps.append(0)
    if n_gt == 0:
        return None
    tp = np.cumsum(tps)
    rec = tp / n_gt
    prec = tp / np.arange(1, len(tps) + 1)
    # area under the precision envelope
    mrec = np.concatenate([[0.0], rec, [1.0]])
    mpre = np.concatenate([[0.0], prec, [0.0]])
    for k in range(len(mpre) - 2, -1, -1):
        mpre[k] = max(mpre[k], mpre[k + 1])
    idx = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return float(np.sum((mrec[idx] - mrec[idx - 1]) * mpre[idx]))


class TestRecallCurve:
    def test_proposals_equal_gt(self):
        gt = [np.array([[0.0, 0.0, 10.0, 10.0], [20.0, 20.0, 40.0, 45.0]])]
        c = recall_curve([gt[0].copy()], gt, 300)
        assert all(r == 1.0 for r in c.recall)

    def test_zero_proposals(self):
        gt = [np.array([[0.0, 0.0, 10.0, 10.0]])]
        c = recall_curve([np.zeros((0, 4))], gt, 300)
        assert all(r == 0.0 for r in c.recall)

    def test_hand_example_0714(self):
        gt = [np.array([[0.0, 0.0, 10.0, 10.0]])]
        props = [np.array([[0.0, 0.0, 10.0, 14.0]])]
        c = recall_curve(props, gt, 300)
        assert c.at(0.70) == 1.0
        assert c.at(0.75) == 0.0

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            gt = [random_boxes(rng, 5, hi=80, min_size=4)]
            props = [random_boxes(rng, 40, hi=80, min_size=4)]
            c = recall_curve(props, gt, 40)
            assert all(a >= b - 1e-12
                       for a, b in zip(c.recall, c.recall[1:]))

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(1)
        gt = [random_boxes(rng, 6, hi=80, min_size=4)]
        props = [random_boxes(rng, 200, hi=80, min_size=4)]
        prev = None
        for n in (10, 50, 200):
            c = recall_curve(props, gt, n)
            if prev is not None:
                assert all(a >= b - 1e-12 for a, b in zip(c.recall, prev))
            prev = c.recall

    def test_one_proposal_covers_multiple_gt(self):
        gt = [np.array([[0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 10.0, 10.0]])]
        props = [np.array([[0.0, 0.0, 10.0, 10.0]])]
        c = recall_curve(props, gt, 1)
        assert c.at(0.5) == 1.0

    def test_zero_gt_raises(self):
        with pytest.raises(ValueError):
            recall_curve([np.zeros((0, 4))], [np.zeros((0, 4))], 10)

    def test_csv_format(self):
        gt = [np.array([[0.0, 0.0, 10.0, 10.0]])]
        c = recall_curve([gt[0].copy()], gt, 7)
        lines = c.to_csv()
        assert lines[0] == "tau,recall,n_proposals"
        assert len(lines) == 1 + len(DEFAULT_IOU_GRID)
        assert lines[1].endswith(",7")


class TestVocAp:
    GT1 = [np.array([[0.0, 0.0, 10.0, 10.0], [30.0, 30.0, 50.0, 50.0]])]
    CLS1 = [np.array([1, 1])]

    def test_single_perfect(self):
        dets = [[det(0, 0, 10, 10, 0.9)]]
        gt = [self.GT1[0][:1]]
        assert voc_ap(dets, gt, [np.array([1])], 1, IOU_THRESH) == pytest.approx(1.0)

    def test_all_misses(self):
        dets = [[det(60, 60, 70, 70, 0.9)]]
        assert voc_ap(dets, self.GT1, self.CLS1, 1, IOU_THRESH) == pytest.approx(0.0)

    def test_hand_example_08333(self):
        dets = [[det(0, 0, 10, 10, 0.9),          # hit gt 0
                 det(60, 60, 70, 70, 0.8),        # miss
                 det(30, 30, 50, 50, 0.7)]]       # hit gt 1
        ap = voc_ap(dets, self.GT1, self.CLS1, 1, IOU_THRESH)
        assert ap == pytest.approx(0.5 * 1.0 + 0.5 * (2.0 / 3.0), abs=1e-9)

    def test_absent_class_none(self):
        dets = [[det(0, 0, 10, 10, 0.9, cls=2)]]
        assert voc_ap(dets, self.GT1, self.CLS1, 2, IOU_THRESH) is None

    def test_duplicate_detection_counts_as_false_positive(self):
        # Each gt may be matched once; a second hit on the same box is a FP.
        dets = [[det(0, 0, 10, 10, 0.9),
                 det(0, 0, 10, 10, 0.8),          # duplicate of the first
                 det(30, 30, 50, 50, 0.7)]]
        ap = voc_ap(dets, self.GT1, self.CLS1, 1, IOU_THRESH)
        assert ap == pytest.approx(0.5 * 1.0 + 0.5 * (2.0 / 3.0), abs=1e-9)
        no_dup = [[dets[0][0], dets[0][2]]]
        assert voc_ap(no_dup, self.GT1, self.CLS1, 1, IOU_THRESH) == pytest.approx(1.0)

    def test_matches_brute_force_100_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n_img = int(rng.integers(1, 4))
            gts, clss, dets, raw = [], [], [], []
            for _i in range(n_img):
                g = random_boxes(rng, int(rng.integers(0, 4)), hi=60, min_size=5)
                gts.append(g)
                clss.append(np.ones(len(g), dtype=int))
                n_d = int(rng.integers(0, 6))
                boxes = random_boxes(rng, n_d, hi=60, min_size=5)
                scores = rng.uniform(0, 1, n_d)
                dets.append([det(*b, s) for b, s in zip(boxes, scores)])
                raw.append(list(zip(scores, boxes)))
            want = brute_ap(raw, gts)
            got = voc_ap(dets, gts, clss, 1, IOU_THRESH)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12)

    def test_plain_rows_score_as_records(self):
        """A detection is read as a (box, score, class) row, which a
        `ScoredBox` unpacks as: plain rows, as `eval-map` reads them from a
        CSV, give each class the AP of the same rows as records."""
        rng = np.random.default_rng(5)
        gts = [random_boxes(rng, 5, hi=60, min_size=5) for _ in range(3)]
        clss = [rng.integers(1, 4, 5) for _ in gts]
        rows = [[(list(b), float(s), int(c)) for b, s, c in zip(
            random_boxes(rng, 9, hi=60, min_size=5), rng.uniform(0, 1, 9),
            rng.integers(1, 4, 9))] for _ in gts]
        records = [[det(*b, s, cls=c) for b, s, c in dets] for dets in rows]
        for c in (1, 2, 3):
            got = voc_ap(rows, gts, clss, c, IOU_THRESH)
            assert got is not None and got == voc_ap(records, gts, clss, c, IOU_THRESH)

    def test_ap_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            gt = [random_boxes(rng, 4, hi=60, min_size=5)]
            cls = [np.ones(4, dtype=int)]
            boxes = random_boxes(rng, 8, hi=60, min_size=5)
            dets = [[det(*b, s) for b, s in zip(boxes, rng.uniform(0, 1, 8))]]
            ap = voc_ap(dets, gt, cls, 1, IOU_THRESH)
            assert 0.0 <= ap <= 1.0


class TestMeanAp:
    def test_absent_classes_excluded(self):
        gt = [np.array([[0.0, 0.0, 10.0, 10.0]])]
        cls = [np.array([2])]
        dets = [[det(0, 0, 10, 10, 0.9, cls=2)]]
        mp, per = mean_ap(dets, gt, cls, [1, 2, 3], IOU_THRESH)
        assert set(per) == {2}
        assert mp == pytest.approx(per[2]) == pytest.approx(1.0)

    def test_no_evaluable_classes_raises(self):
        with pytest.raises(ValueError):
            mean_ap([[]], [np.zeros((0, 4))], [np.zeros(0, dtype=int)], [1], IOU_THRESH)

    def test_mean_over_classes(self):
        gt = [np.array([[0.0, 0.0, 10.0, 10.0], [30.0, 30.0, 40.0, 40.0]])]
        cls = [np.array([1, 2])]
        dets = [[det(0, 0, 10, 10, 0.9, cls=1),
                 det(90, 90, 99, 99, 0.9, cls=2)]]
        mp, per = mean_ap(dets, gt, cls, [1, 2], IOU_THRESH)
        assert per[1] == pytest.approx(1.0)
        assert per[2] == pytest.approx(0.0)
        assert mp == pytest.approx(0.5)


class TestBench:
    def test_report_structure(self):
        def conv(x):
            time.sleep(0.004)
            return x

        def prop(f):
            time.sleep(0.001)
            return f

        def region(f, p):
            time.sleep(0.002)
            return []

        r = bench(conv, prop, region, [0, 1, 2], n_warmup=1, n_timed=5)
        assert r.proposal_ms < r.conv_ms
        assert r.total_ms >= max(r.conv_ms, r.proposal_ms, r.region_ms)
        assert r.total_ms == pytest.approx(
            r.conv_ms + r.proposal_ms + r.region_ms, rel=0.25)
        assert r.images_per_sec > 0

    def test_csv(self):
        r = bench(lambda x: x, lambda f: f, lambda f, p: [], [0],
                  n_warmup=0, n_timed=3)
        lines = r.to_csv()
        assert lines[0] == "stage,ms"
        stages = [ln.split(",")[0] for ln in lines[1:]]
        assert stages == ["conv", "proposal", "region-wise", "total",
                          "rate_images_per_sec"]

    @pytest.mark.parametrize("n_warmup,n_timed", [(0, 0), (-3, 2)],
                             ids=["no-timed", "negative-warmup"])
    def test_bad_counts_rejected(self, n_warmup, n_timed):
        called = []
        with pytest.raises(ValueError, match="n_timed >= 1 and n_warmup >= 0"):
            bench(called.append, lambda f: f, lambda f, p: [], [0],
                  n_warmup=n_warmup, n_timed=n_timed)
        assert not called
