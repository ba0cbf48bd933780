"""Anchor label assignment and 256-anchor minibatch sampling."""

import numpy as np

from minircnn.anchors import AnchorConfig, grid_anchors, inside_mask
from minircnn.assignment import (
    IGNORE,
    NEGATIVE,
    POSITIVE,
    assign_labels,
    sample_fg_bg,
    sample_minibatch,
)
from minircnn.boxes import decode_arr, iou_matrix_arr
from minircnn.rng import Rng

from defaults import LABEL_IOUS, MINIBATCH


def small_anchors(image=64):
    """(boxes, inside mask) of a small anchor grid over an `image` px square."""
    cfg = AnchorConfig(scales=(8.0, 16.0), ratios=(0.5, 1.0, 2.0), stride=8)
    anchors = grid_anchors(cfg, image // 8, image // 8)
    return anchors, inside_mask(anchors, image, image)


class TestAssignLabels:
    def test_high_iou_positive(self):
        anchors, inside = small_anchors()
        # gt exactly equal to an inside anchor -> IoU 1 -> positive
        idx = np.flatnonzero(inside)[10]
        gt = anchors[idx][None]
        labels, _ = assign_labels(anchors, inside, gt, *LABEL_IOUS)
        assert labels[idx] == POSITIVE

    def test_low_iou_negative(self):
        anchors, inside = small_anchors()
        gt = np.array([[0.0, 0.0, 20.0, 20.0]])
        labels, _ = assign_labels(anchors, inside, gt, *LABEL_IOUS)
        ious = iou_matrix_arr(anchors, gt).max(axis=1)
        lows = inside & (ious < 0.3)
        # rule (i) may rescue the single best anchor; all other low-IoU
        # inside anchors must be negative
        assert np.all(labels[lows] != IGNORE)
        non_argmax_lows = lows & (ious < ious[lows].max())
        assert np.all(labels[non_argmax_lows] == NEGATIVE)

    def test_argmax_rescue_below_threshold(self):
        # a gt whose best IoU is < 0.7 still gets its argmax anchor positive
        anchors, inside = small_anchors()
        gt = np.array([[3.0, 3.0, 17.0, 21.0]])
        ious = iou_matrix_arr(anchors, gt)[:, 0]
        ious[~inside] = -1.0
        assert ious.max() < 0.7
        labels, _ = assign_labels(anchors, inside, gt, *LABEL_IOUS)
        assert labels[np.argmax(ious)] == POSITIVE

    def test_midband_non_argmax_ignored(self):
        anchors, inside = small_anchors()
        gt = np.array([[8.0, 8.0, 24.0, 24.0]])
        ious = iou_matrix_arr(anchors, gt)[:, 0]
        ious_in = np.where(inside, ious, -1.0)
        mid = inside & (ious >= 0.3) & (ious < 0.7) & (ious < ious_in.max())
        if mid.any():
            labels, _ = assign_labels(anchors, inside, gt, *LABEL_IOUS)
            assert np.all(labels[mid] == IGNORE)

    def test_outside_anchors_ignored(self):
        anchors, inside = small_anchors()
        gt = np.array([[8.0, 8.0, 24.0, 24.0]])
        labels, _ = assign_labels(anchors, inside, gt, *LABEL_IOUS)
        assert np.all(labels[~inside] == IGNORE)

    def test_empty_gt_all_inside_negative(self):
        anchors, inside = small_anchors()
        labels, targets = assign_labels(anchors, inside, np.zeros((0, 4)), *LABEL_IOUS)
        assert np.all(labels[inside] == NEGATIVE)
        assert np.all(labels[~inside] == IGNORE)
        assert targets.shape == (0, 4)

    def test_no_inside_anchor_all_ignore(self):
        # an 8 px image: every anchor crosses the border
        anchors, inside = small_anchors(8)
        assert not inside.any()
        labels, _ = assign_labels(anchors, inside, np.array([[1.0, 1.0, 6.0, 6.0]]),
                                  *LABEL_IOUS)
        assert np.all(labels == IGNORE)
        assert sample_minibatch(labels, Rng(0).substream("sampling"), *MINIBATCH).size == 0

    def test_every_gt_owns_a_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            anchors, inside = small_anchors()
            n = int(rng.integers(1, 5))
            x1 = rng.uniform(0, 40, n)
            y1 = rng.uniform(0, 40, n)
            gt = np.stack([x1, y1, x1 + rng.uniform(8, 24, n),
                           y1 + rng.uniform(8, 24, n)], axis=1)
            labels, _ = assign_labels(anchors, inside, gt, *LABEL_IOUS)
            ious = iou_matrix_arr(anchors, gt)
            ious[~inside] = -1.0
            for g in range(n):
                if ious[:, g].max() > 0:
                    # all argmax anchors of this gt are positive (rule i)
                    argmax = ious[:, g] == ious[:, g].max()
                    assert np.all(labels[argmax] == POSITIVE)

    def test_positive_targets_decode_to_matched_gt(self):
        rng = np.random.default_rng(12)
        anchors, inside = small_anchors()
        x1 = rng.uniform(0, 40, 3)
        y1 = rng.uniform(0, 40, 3)
        gt = np.stack([x1, y1, x1 + rng.uniform(8, 24, 3),
                       y1 + rng.uniform(8, 24, 3)], axis=1)
        labels, targets = assign_labels(anchors, inside, gt, *LABEL_IOUS)
        pos = np.flatnonzero(labels == POSITIVE)
        assert pos.size > 0
        # one target row per positive label, in row order
        assert targets.shape == ((labels > 0).sum(), 4)
        back = decode_arr(targets, anchors[pos])
        # matched gt: the highest-IoU one, ties to the lowest index
        want = gt[iou_matrix_arr(anchors[pos], gt).argmax(axis=1)]
        assert np.abs(back - want).max() <= 1e-9 * max(1.0, np.abs(want).max())

    def test_matched_gt_is_highest_iou(self):
        anchors, inside = small_anchors()
        gt = np.array([[8.0, 8.0, 24.0, 24.0], [10.0, 8.0, 26.0, 24.0]])
        labels, targets = assign_labels(anchors, inside, gt, *LABEL_IOUS)
        ious = iou_matrix_arr(anchors, gt)
        pos = np.flatnonzero(labels == POSITIVE)
        assert pos.size > 0
        assert targets.shape == ((labels > 0).sum(), 4)
        back = decode_arr(targets, anchors[pos])
        for i, box in zip(pos, back, strict=True):
            matched = np.abs(gt - box).max(axis=1).argmin()   # the box it encodes
            assert np.abs(gt[matched] - box).max() <= 1e-9
            assert ious[i, matched] == ious[i].max()


class TestSampleMinibatch:
    def _labels(self, n_pos, n_neg):
        labels = np.full(len(small_anchors()[0]), IGNORE, dtype=np.int8)
        labels[:n_pos] = POSITIVE
        labels[n_pos:n_pos + n_neg] = NEGATIVE
        return labels

    def _counts(self, labels, rows):
        return (labels[rows] == POSITIVE).sum(), (labels[rows] == NEGATIVE).sum()

    def test_plenty_of_both(self):
        labels = self._labels(200, 1500)
        rows = sample_minibatch(labels, Rng(1).substream("sampling"), *MINIBATCH)
        assert self._counts(labels, rows) == (128, 128)

    def test_few_positives_padded(self):
        labels = self._labels(30, 1500)
        rows = sample_minibatch(labels, Rng(1).substream("sampling"), *MINIBATCH)
        assert self._counts(labels, rows) == (30, 226)

    def test_zero_positives_all_negative(self):
        labels = self._labels(0, 1500)
        rows = sample_minibatch(labels, Rng(1).substream("sampling"), *MINIBATCH)
        assert self._counts(labels, rows) == (0, 256)

    def test_batch_below_positive_count_caps_the_draw(self):
        labels = self._labels(30, 1500)
        rows = sample_minibatch(labels, Rng(1).substream("sampling"), 8, MINIBATCH[1])
        assert self._counts(labels, rows) == (8, 0)
        assert rows.size == 8

    def test_undershoot_when_scarce(self):
        labels = self._labels(3, 10)
        rows = sample_minibatch(labels, Rng(1).substream("sampling"), *MINIBATCH)
        assert rows.size == 13

    def test_no_ignored_or_outside_sampled(self):
        anchors, inside = small_anchors()
        labels, _ = assign_labels(anchors, inside, np.array([[8.0, 8.0, 24.0, 24.0]]),
                                  *LABEL_IOUS)
        rows = sample_minibatch(labels, Rng(2).substream("sampling"), *MINIBATCH)
        assert rows.size
        assert np.all(labels[rows] != IGNORE)
        assert np.all(inside[rows])

    def test_zero_labeled_samples_nothing(self):
        labels = self._labels(0, 0)
        rows = sample_minibatch(labels, Rng(1).substream("sampling"), *MINIBATCH)
        assert rows.size == 0

    def test_rows_ascending_and_unique(self):
        labels = self._labels(200, 1500)
        rows = sample_minibatch(labels, Rng(3).substream("sampling"), *MINIBATCH)
        assert np.all(np.diff(rows) > 0)

    def test_seed_reproducible_and_labels_untouched(self):
        labels = self._labels(200, 1500)
        before = labels.copy()
        a = sample_minibatch(labels, Rng(5).substream("sampling"), *MINIBATCH)
        b = sample_minibatch(labels, Rng(5).substream("sampling"), *MINIBATCH)
        c = sample_minibatch(labels, Rng(6).substream("sampling"), *MINIBATCH)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.array_equal(labels, before)


class TestSampleFgBg:
    """The one sampler: fg rows first, then bg rows, each side sorted."""

    def test_fg_first_then_bg_each_sorted(self):
        labels = np.array([0, 2, -1, 0, 1, 0, 3, 0, 1, 0])
        rows = sample_fg_bg(labels, 2, 5, Rng(4).substream("sampling"))
        fg, bg = rows[:2], rows[2:]
        assert np.all(labels[fg] > 0) and np.all(labels[bg] == 0)
        assert rows.size == 5
        assert np.all(np.diff(fg) > 0) and np.all(np.diff(bg) > 0)

    def test_takes_a_side_whole_when_it_fits(self):
        labels = np.array([0, 2, -1, 0, 1, 0])
        rows = sample_fg_bg(labels, 4, 10, Rng(4).substream("sampling"))
        np.testing.assert_array_equal(rows, [1, 4, 0, 3, 5])

    def test_ignored_rows_never_drawn(self):
        labels = np.full(20, -1)
        assert sample_fg_bg(labels, 4, 10, Rng(4).substream("sampling")).size == 0
