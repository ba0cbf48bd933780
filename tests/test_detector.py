"""Second-stage head: RoI sampling, forward, loss, class-wise inference."""

from dataclasses import replace

import numpy as np
import pytest

import minircnn.tensor as T
from minircnn.anchors import AnchorConfig, grid_anchors, inside_mask
from minircnn.boxes import decode_arr, iou_matrix_arr
from minircnn.detector import (
    DetectorHead,
    RoiBatch,
    check_classes,
    detect,
    detector_forward,
    detector_loss,
    label_boxes,
    label_windows,
    sample_rois,
)
from minircnn.dataio import Scene
from minircnn.rng import Rng
from minircnn.tensor import Tensor

from defaults import CFG, POST, ROI
from oracles import gradcheck


def make_head(n_classes=3, in_ch=4, seed=0):
    return DetectorHead(Rng(seed).substream("init"), in_ch, n_classes)


def feat(seed=0, ch=4, hw=16):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(ch, hw, hw)).astype(np.float32))


class TestForward:
    def test_output_widths(self):
        head = make_head(n_classes=3)
        assert head.cls.w.value.shape[1] == 4   # C+1 columns
        assert head.reg.w.value.shape[1] == 12  # 4C columns

    def test_probs_sum_to_one(self):
        head = make_head()
        props = np.array([[0.0, 0.0, 64.0, 64.0], [10.0, 10.0, 50.0, 40.0]])
        cls_logits, deltas = detector_forward(feat(), props, head, 1 / 8)
        p = T.softmax(cls_logits.data, axis=1)
        assert p.shape == (2, 4)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)
        assert deltas.shape == (2, 3, 4)

    def test_constant_features_identical_rows(self):
        head = make_head()
        x = Tensor(np.full((4, 16, 16), 0.37, dtype=np.float32))
        props = np.array([[0.0, 0.0, 30.0, 30.0], [40.0, 40.0, 128.0, 100.0]])
        cls_logits, deltas = detector_forward(x, props, head, 1 / 8)
        np.testing.assert_allclose(cls_logits.data[0], cls_logits.data[1],
                                   atol=1e-6)
        np.testing.assert_allclose(deltas.data[0], deltas.data[1], atol=1e-6)

    def test_empty_proposals(self):
        head = make_head()
        cls_logits, deltas = detector_forward(feat(), np.zeros((0, 4)), head,
                                              1 / 8)
        assert cls_logits.data.shape[0] == 0 and deltas.data.shape[0] == 0

    def test_gradcheck_through_roi_pool_64bit(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.permutation(4 * 100).astype(np.float64)
                   .reshape(4, 10, 10) * 0.03, requires_grad=True)
        w = Tensor(rng.normal(size=(4 * 4, 3)) * 0.3, requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        rois = np.array([[0.0, 0.0, 40.0, 40.0], [16.0, 8.0, 72.0, 64.0]])

        def fn(x, w, b):
            pooled = T.roi_pool(x, rois, 1 / 8, 2)
            flat = T.reshape(pooled, (2, 16))
            return T.tsum(T.softmax_logloss(T.linear(flat, w, b),
                                            np.array([0, 2])))

        assert gradcheck(fn, [x, w, b]) < 1e-4


class TestSampleRois:
    GT = np.array([[10.0, 10.0, 40.0, 40.0], [60.0, 60.0, 100.0, 90.0]])
    CLS = np.array([1, 3])

    def test_gt_proposal_is_foreground_zero_deltas(self):
        batch = sample_rois(self.GT[:1].copy(), self.GT, self.CLS,
                            ROI, Rng(0).substream("sampling"))
        i = next(j for j, r in enumerate(batch.rois)
                 if np.allclose(r, self.GT[0]))
        assert batch.labels[i] == 1
        # targets hold one row per foreground row, in row order
        fg = np.flatnonzero(batch.labels > 0)
        assert batch.targets.shape == (fg.size, 4)
        np.testing.assert_allclose(batch.targets[np.searchsorted(fg, i)], 0.0, atol=1e-12)

    def test_low_iou_is_background(self):
        props = np.array([[0.0, 0.0, 12.0, 12.0]])  # IoU < 0.5 with both gt
        batch = sample_rois(props, self.GT, self.CLS, ROI,
                            Rng(0).substream("sampling"))
        bg = [lab for r, lab in zip(batch.rois, batch.labels)
              if np.allclose(r, props[0])]
        assert bg and all(v == 0 for v in bg)

    def test_budget_and_fg_cap(self):
        rng = np.random.default_rng(1)
        x1 = rng.uniform(0, 80, 500)
        y1 = rng.uniform(0, 80, 500)
        props = np.stack([x1, y1, x1 + rng.uniform(10, 48, 500),
                          y1 + rng.uniform(10, 48, 500)], axis=1)
        cfg = ROI
        batch = sample_rois(props, self.GT, self.CLS, cfg, Rng(2).substream("sampling"))
        assert len(batch.labels) <= cfg.rois_per_image
        assert (batch.labels > 0).sum() <= int(cfg.fg_fraction
                                               * cfg.rois_per_image)
        # each foreground row's target decodes back to its best-IoU gt box
        fg = batch.labels > 0
        assert fg.any() and batch.targets.shape == (fg.sum(), 4)
        want = self.GT[iou_matrix_arr(batch.rois[fg], self.GT).argmax(axis=1)]
        np.testing.assert_allclose(decode_arr(batch.targets, batch.rois[fg]), want,
                                   atol=1e-9)

    def test_fg_labels_match_gt_classes(self):
        batch = sample_rois(self.GT.copy(), self.GT, self.CLS,
                            ROI, Rng(3).substream("sampling"))
        for lab in batch.labels:
            assert lab in (0, 1, 3)

    def test_degenerate_scene_all_background(self):
        props = np.array([[0.0, 0.0, 5.0, 5.0]])
        batch = sample_rois(props, np.zeros((0, 4)), np.zeros(0, dtype=int),
                            ROI, Rng(4).substream("sampling"))
        assert np.all(batch.labels == 0)


class TestLabelBoxes:
    GT = np.array([[0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 10.0, 10.0],
                   [20.0, 20.0, 30.0, 30.0]])
    CLS = np.array([2, 1, 3])

    def test_classes_and_best_gt(self):
        boxes = np.array([[0.0, 0.0, 10.0, 10.0],     # IoU 1 with gt 0 and 1
                          [20.0, 20.0, 30.0, 35.0],   # IoU 2/3 with gt 2
                          [20.0, 20.0, 30.0, 40.0],   # IoU 1/2 with gt 2
                          [50.0, 50.0, 60.0, 60.0]])  # no overlap
        labels, targets = label_boxes(boxes, self.GT, self.CLS, 0.6)
        np.testing.assert_array_equal(labels, [2, 3, 0, 0])  # ties: lowest index
        assert labels.dtype == np.int64
        # one target row per foreground label, in row order, encoding its best gt box
        assert targets.shape == ((labels > 0).sum(), 4)
        np.testing.assert_allclose(decode_arr(targets, boxes[:2]),
                                   self.GT[[0, 2]], atol=1e-9)

    def test_fg_iou_is_inclusive(self):
        boxes = np.array([[20.0, 20.0, 30.0, 40.0]])      # IoU exactly 1/2
        assert label_boxes(boxes, self.GT, self.CLS, 0.5)[0][0] == 3

    def test_no_gt_all_background(self):
        labels, targets = label_boxes(np.ones((3, 4)), np.zeros((0, 4)),
                                      np.zeros(0, dtype=np.int64), 0.5)
        np.testing.assert_array_equal(labels, 0)
        assert targets.shape == (0, 4)

    def test_windows_across_the_border_are_ignored(self):
        windows = grid_anchors(AnchorConfig(scales=(8.0, 16.0), ratios=(1.0,), stride=8),
                               4, 4)
        ins = inside_mask(windows, 32, 32)
        gt = np.array([[8.0, 8.0, 16.0, 16.0]])
        labels, targets = label_windows(windows, ins, gt, np.array([2]), 0.5)
        assert 0 < ins.sum() < len(windows)
        np.testing.assert_array_equal(labels[~ins], -1)
        assert labels.dtype == np.int8     # holds -1 and class 2
        want = label_boxes(windows[ins], gt, np.array([2]), 0.5)
        np.testing.assert_array_equal(labels[ins], want[0])
        np.testing.assert_array_equal(targets, want[1])
        assert (labels == 2).any()
        # one target row per foreground window, in row order, decoding to the gt
        assert targets.shape == ((labels > 0).sum(), 4)
        np.testing.assert_allclose(decode_arr(targets, windows[labels > 0]),
                                   np.repeat(gt, (labels > 0).sum(), axis=0), atol=1e-9)

    # the RoI sampler's settings are config keys, checked by `RunConfig`
    @pytest.mark.parametrize("fg_iou", [0.0, -0.5])
    def test_nonpositive_fg_iou_rejected(self, fg_iou):
        with pytest.raises(ValueError, match=f"detector.fg_iou={fg_iou} "):
            replace(CFG, detector_fg_iou=fg_iou)

    @pytest.mark.parametrize("n", [0, -4])
    def test_rois_per_image_below_one_rejected(self, n):
        with pytest.raises(ValueError, match=f"detector.rois_per_image={n} is below 1"):
            replace(CFG, detector_rois_per_image=n)

    @pytest.mark.parametrize("cls", [0, 4])
    def test_check_classes_names_the_image(self, cls):
        ok = Scene(np.zeros((8, 8, 3), np.uint8), self.GT, self.CLS, path="a.ppm")
        bad = Scene(np.zeros((8, 8, 3), np.uint8), self.GT, np.array([1, cls, 2]),
                    path="images/b.ppm")
        check_classes([ok], 3)
        with pytest.raises(ValueError, match=f"images/b.ppm: class {cls}"):
            check_classes([ok, bad], 3)


class TestDetectorLoss:
    def _logits(self, labels, n_classes=3, hot=50.0):
        out = np.zeros((len(labels), n_classes + 1))
        out[np.arange(len(labels)), labels] = hot
        return Tensor(out)

    def test_perfect_is_zero(self):
        labels = np.array([0, 1, 2])
        deltas = Tensor(np.zeros((3, 3, 4)))
        targets = np.zeros((2, 4))      # rows 1 and 2, the foreground
        batch = RoiBatch(np.zeros((3, 4)), labels, targets)
        loss, _, _ = detector_loss(self._logits(labels), deltas, batch)
        assert loss.item() == pytest.approx(0.0, abs=1e-10)

    def test_all_background_reg_term_zero(self):
        labels = np.zeros(4, dtype=int)
        deltas = Tensor(np.random.default_rng(0).normal(size=(4, 3, 4)))
        batch = RoiBatch(np.zeros((4, 4)), labels, np.zeros((0, 4)))
        loss, cls_val, reg_val = detector_loss(self._logits(labels), deltas, batch)
        assert reg_val == 0.0
        assert loss.item() == pytest.approx(0.0, abs=1e-10)

    def test_single_fg_unit_delta_error_contributes_half(self):
        labels = np.array([2])
        deltas = np.zeros((1, 3, 4))
        deltas[0, 1, 0] = 1.0  # class 2's slice, tx error of 1
        batch = RoiBatch(np.zeros((1, 4)), labels, np.zeros((1, 4)))
        loss, _, reg_val = detector_loss(self._logits(labels), Tensor(deltas),
                                         batch)
        assert reg_val == pytest.approx(0.5, abs=1e-9)
        assert loss.item() == pytest.approx(0.5, abs=1e-9)

    def test_only_matched_class_slice_is_read(self):
        labels = np.array([1, 0])
        rng = np.random.default_rng(5)
        deltas = rng.normal(size=(2, 3, 4))
        targets = np.zeros((1, 4))      # row 0, the foreground
        batch = RoiBatch(np.zeros((2, 4)), labels, targets)
        base = detector_loss(self._logits(labels), Tensor(deltas.copy()),
                             batch)[0].item()
        noise = deltas.copy()
        noise[0, 1:] = 99.0       # classes 2,3 slices of the fg row
        noise[1, :] = -99.0       # background row entirely
        perturbed = detector_loss(self._logits(labels), Tensor(noise),
                                  batch)[0].item()
        assert perturbed == pytest.approx(base, rel=1e-12)

    def test_gradcheck_64bit(self):
        rng = np.random.default_rng(6)
        labels = np.array([0, 1, 2, 3])
        targets = (rng.normal(size=(4, 4)) * 0.3)[labels > 0]    # the fg rows'
        logits = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        deltas = Tensor(rng.normal(size=(4, 3, 4)) * 0.4, requires_grad=True)
        batch = RoiBatch(np.zeros((4, 4)), labels, targets)
        # random draws here stay away from smooth-L1 branch boundaries
        assert gradcheck(
            lambda l, d: detector_loss(l, d, batch)[0],
            [logits, deltas]) < 1e-4


class TestDetect:
    def test_returns_positive_classes_only(self):
        head = make_head()
        props = np.array([[0.0, 0.0, 60.0, 60.0], [30.0, 30.0, 100.0, 90.0]])
        out = detect(feat(7), props, head, 1 / 8, 128, 128, *POST)
        assert all(d.class_id >= 1 for d in out)
        assert all(0 <= d.score <= 1 for d in out)
        for d in out:
            assert 0 <= d.box.x1 <= d.box.x2 <= 128
            assert 0 <= d.box.y1 <= d.box.y2 <= 128

    def test_high_threshold_empty(self):
        head = make_head()
        props = np.array([[0.0, 0.0, 60.0, 60.0]])
        out = detect(feat(7), props, head, 1 / 8, 128, 128, 1.01, *POST[1:])
        assert out == []

    def test_duplicate_proposals_collapse(self):
        head = make_head()
        props = np.array([[8.0, 8.0, 72.0, 72.0], [8.0, 8.0, 72.0, 72.0]])
        out = detect(feat(8), props, head, 1 / 8, 128, 128, 0.0, *POST[1:])
        per_class = {}
        for d in out:
            per_class[d.class_id] = per_class.get(d.class_id, 0) + 1
        assert all(v == 1 for v in per_class.values())

    def test_empty_proposals(self):
        head = make_head()
        assert detect(feat(), np.zeros((0, 4)), head, 1 / 8, 128, 128, *POST) == []

    def test_features_with_a_tape_give_the_same_detections(self):
        """roi_pool ranks taped features through its rank keys and untaped ones
        through its value table; `detect` takes either, with the same bytes."""
        head = make_head()
        rng = np.random.default_rng(5)
        x1, y1 = rng.uniform(0, 80, 100), rng.uniform(0, 80, 100)
        props = np.stack([x1, y1, x1 + rng.uniform(4, 48, 100),
                          y1 + rng.uniform(4, 48, 100)], axis=1)
        taped = T.relu(Tensor(feat(11).data, requires_grad=True))
        assert taped._backward is not None
        plain = Tensor(taped.data.copy())
        got, want = (detect(f, props, head, 1 / 8, 128, 128, 0.0, POST[1], 100)
                     for f in (taped, plain))
        assert len(want) > 10 and got == want

    def test_max_per_image(self):
        head = make_head()
        rng = np.random.default_rng(9)
        x1 = rng.uniform(0, 60, 200)
        y1 = rng.uniform(0, 60, 200)
        props = np.stack([x1, y1, x1 + rng.uniform(20, 60, 200),
                          y1 + rng.uniform(20, 60, 200)], axis=1)
        out = detect(feat(9), props, head, 1 / 8, 128, 128, 0.0, POST[1], 7)
        assert len(out) <= 7
