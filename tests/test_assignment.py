"""Anchor label assignment and 256-anchor minibatch sampling."""

import numpy as np
import pytest

from minircnn.anchors import AnchorConfig, grid_anchors, inside_mask
from minircnn.assignment import (
    IGNORE,
    NEGATIVE,
    POSITIVE,
    NoLabeledAnchorsError,
    assign_labels,
    sample_minibatch,
)
from minircnn.boxes import decode_arr, iou_matrix_arr
from minircnn.rng import Rng

from defaults import LABEL_IOUS, MINIBATCH


def small_aset(image=64):
    cfg = AnchorConfig(scales=(8.0, 16.0), ratios=(0.5, 1.0, 2.0), stride=8)
    aset = grid_anchors(cfg, image // 8, image // 8)
    inside_mask(aset, image, image)
    return aset


class TestAssignLabels:
    def test_high_iou_positive(self):
        aset = small_aset()
        # gt exactly equal to an inside anchor -> IoU 1 -> positive
        idx = np.flatnonzero(aset.inside)[10]
        gt = aset.boxes[idx][None]
        t = assign_labels(aset, gt, *LABEL_IOUS)
        assert t.labels[idx] == POSITIVE

    def test_low_iou_negative(self):
        aset = small_aset()
        gt = np.array([[0.0, 0.0, 20.0, 20.0]])
        t = assign_labels(aset, gt, *LABEL_IOUS)
        ious = iou_matrix_arr(aset.boxes, gt).max(axis=1)
        lows = aset.inside & (ious < 0.3)
        # rule (i) may rescue the single best anchor; all other low-IoU
        # inside anchors must be negative
        assert np.all(t.labels[lows] != IGNORE)
        non_argmax_lows = lows & (ious < ious[lows].max())
        assert np.all(t.labels[non_argmax_lows] == NEGATIVE)

    def test_argmax_rescue_below_threshold(self):
        # a gt whose best IoU is < 0.7 still gets its argmax anchor positive
        aset = small_aset()
        gt = np.array([[3.0, 3.0, 17.0, 21.0]])
        ious = iou_matrix_arr(aset.boxes, gt)[:, 0]
        ious[~aset.inside] = -1.0
        assert ious.max() < 0.7
        t = assign_labels(aset, gt, *LABEL_IOUS)
        assert t.labels[np.argmax(ious)] == POSITIVE

    def test_midband_non_argmax_ignored(self):
        aset = small_aset()
        gt = np.array([[8.0, 8.0, 24.0, 24.0]])
        ious = iou_matrix_arr(aset.boxes, gt)[:, 0]
        ious_in = np.where(aset.inside, ious, -1.0)
        mid = aset.inside & (ious >= 0.3) & (ious < 0.7) & (ious < ious_in.max())
        if mid.any():
            t = assign_labels(aset, gt, *LABEL_IOUS)
            assert np.all(t.labels[mid] == IGNORE)

    def test_outside_anchors_ignored(self):
        aset = small_aset()
        gt = np.array([[8.0, 8.0, 24.0, 24.0]])
        t = assign_labels(aset, gt, *LABEL_IOUS)
        assert np.all(t.labels[~aset.inside] == IGNORE)

    def test_empty_gt_all_inside_negative(self):
        aset = small_aset()
        t = assign_labels(aset, np.zeros((0, 4)), *LABEL_IOUS)
        assert np.all(t.labels[aset.inside] == NEGATIVE)
        assert np.all(t.labels[~aset.inside] == IGNORE)

    def test_no_inside_anchor_all_ignore(self):
        # an 8 px image: every anchor crosses the border
        aset = small_aset(8)
        assert not aset.inside.any()
        t = assign_labels(aset, np.array([[1.0, 1.0, 6.0, 6.0]]), *LABEL_IOUS)
        assert np.all(t.labels == IGNORE)
        with pytest.raises(NoLabeledAnchorsError):
            sample_minibatch(t, Rng(0, "sampling"), *MINIBATCH)

    def test_needs_the_inside_mask(self):
        cfg = AnchorConfig(scales=(8.0,), ratios=(1.0,), stride=8)
        with pytest.raises(ValueError, match="inside_mask"):
            assign_labels(grid_anchors(cfg, 2, 2), np.array([[1.0, 1.0, 6.0, 6.0]]),
                          *LABEL_IOUS)

    def test_every_gt_owns_a_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            aset = small_aset()
            n = int(rng.integers(1, 5))
            x1 = rng.uniform(0, 40, n)
            y1 = rng.uniform(0, 40, n)
            gt = np.stack([x1, y1, x1 + rng.uniform(8, 24, n),
                           y1 + rng.uniform(8, 24, n)], axis=1)
            t = assign_labels(aset, gt, *LABEL_IOUS)
            ious = iou_matrix_arr(aset.boxes, gt)
            ious[~aset.inside] = -1.0
            for g in range(n):
                if ious[:, g].max() > 0:
                    # all argmax anchors of this gt are positive (rule i)
                    argmax = ious[:, g] == ious[:, g].max()
                    assert np.all(t.labels[argmax] == POSITIVE)

    def test_positive_targets_decode_to_matched_gt(self):
        rng = np.random.default_rng(12)
        aset = small_aset()
        x1 = rng.uniform(0, 40, 3)
        y1 = rng.uniform(0, 40, 3)
        gt = np.stack([x1, y1, x1 + rng.uniform(8, 24, 3),
                       y1 + rng.uniform(8, 24, 3)], axis=1)
        t = assign_labels(aset, gt, *LABEL_IOUS)
        pos = np.flatnonzero(t.labels == POSITIVE)
        assert pos.size > 0
        back = decode_arr(t.target_deltas[pos], aset.boxes[pos])
        want = gt[t.matched_gt[pos]]
        assert np.abs(back - want).max() <= 1e-9 * max(1.0, np.abs(want).max())

    def test_matched_gt_is_highest_iou(self):
        aset = small_aset()
        gt = np.array([[8.0, 8.0, 24.0, 24.0], [10.0, 8.0, 26.0, 24.0]])
        t = assign_labels(aset, gt, *LABEL_IOUS)
        ious = iou_matrix_arr(aset.boxes, gt)
        for i in np.flatnonzero(t.labels == POSITIVE):
            assert ious[i, t.matched_gt[i]] == ious[i].max()


class TestSampleMinibatch:
    def _targets(self, n_pos, n_neg, n_total=5000):
        aset = small_aset()
        gt = np.array([[8.0, 8.0, 24.0, 24.0]])
        t = assign_labels(aset, gt, *LABEL_IOUS)
        labels = np.full(len(aset), IGNORE, dtype=np.int8)
        labels[:n_pos] = POSITIVE
        labels[n_pos:n_pos + n_neg] = NEGATIVE
        t.labels[:] = labels[:len(aset)]
        return t

    def test_plenty_of_both(self):
        t = self._targets(200, 1500)
        out = sample_minibatch(t, Rng(1, "sampling"), *MINIBATCH)
        pos = out.sample_mask & (out.labels == POSITIVE)
        neg = out.sample_mask & (out.labels == NEGATIVE)
        assert pos.sum() == 128 and neg.sum() == 128

    def test_few_positives_padded(self):
        t = self._targets(30, 1500)
        out = sample_minibatch(t, Rng(1, "sampling"), *MINIBATCH)
        assert (out.sample_mask & (out.labels == POSITIVE)).sum() == 30
        assert (out.sample_mask & (out.labels == NEGATIVE)).sum() == 226

    def test_zero_positives_all_negative(self):
        t = self._targets(0, 1500)
        out = sample_minibatch(t, Rng(1, "sampling"), *MINIBATCH)
        assert (out.sample_mask & (out.labels == NEGATIVE)).sum() == 256

    def test_batch_below_positive_count_caps_the_draw(self):
        t = self._targets(30, 1500)
        out = sample_minibatch(t, Rng(1, "sampling"), 8, MINIBATCH[1])
        assert (out.sample_mask & (out.labels == POSITIVE)).sum() == 8
        assert out.sample_mask.sum() == 8

    def test_undershoot_when_scarce(self):
        t = self._targets(3, 10)
        out = sample_minibatch(t, Rng(1, "sampling"), *MINIBATCH)
        assert out.sample_mask.sum() == 13

    def test_no_ignored_or_outside_sampled(self):
        aset = small_aset()
        t = assign_labels(aset, np.array([[8.0, 8.0, 24.0, 24.0]]), *LABEL_IOUS)
        out = sample_minibatch(t, Rng(2, "sampling"), *MINIBATCH)
        assert np.all(out.labels[out.sample_mask] != IGNORE)
        assert not np.any(out.sample_mask & ~aset.inside)

    def test_zero_labeled_raises(self):
        t = self._targets(0, 0)
        with pytest.raises(NoLabeledAnchorsError):
            sample_minibatch(t, Rng(1, "sampling"), *MINIBATCH)

    def test_seed_reproducible_and_labels_untouched(self):
        t = self._targets(200, 1500)
        a = sample_minibatch(t, Rng(5, "sampling"), *MINIBATCH)
        b = sample_minibatch(t, Rng(5, "sampling"), *MINIBATCH)
        c = sample_minibatch(t, Rng(6, "sampling"), *MINIBATCH)
        assert np.array_equal(a.sample_mask, b.sample_mask)
        assert not np.array_equal(a.sample_mask, c.sample_mask)
        assert np.array_equal(a.labels, c.labels)
