"""Objectness labels, regression targets, and minibatch sampling for anchors."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .anchors import AnchorSet, inside_mask
from .boxes import encode_arr, iou_matrix_arr
from .rng import Rng

POSITIVE = 1
NEGATIVE = 0
IGNORE = -1


class NoLabeledAnchorsError(RuntimeError):
    """Raised when an image yields no labeled anchors to sample from."""


@dataclass
class RpnTargets:
    labels: np.ndarray          # int8 in {POSITIVE, NEGATIVE, IGNORE}
    target_deltas: np.ndarray   # (N, 4), defined where labels == POSITIVE
    matched_gt: np.ndarray      # gt index per anchor, -1 where unmatched
    sample_mask: np.ndarray     # bool, filled by sample_minibatch

    @property
    def positive_idx(self) -> np.ndarray:
        return np.flatnonzero(self.labels == POSITIVE)

    @property
    def sampled_idx(self) -> np.ndarray:
        return np.flatnonzero(self.sample_mask)


def assign_labels(aset: AnchorSet, gt_boxes: np.ndarray, image_w: float,
                  image_h: float, pos_iou: float = 0.7,
                  neg_iou: float = 0.3) -> RpnTargets:
    """Label anchors positive/negative/ignore and compute regression targets.

    Cross-boundary anchors stay IGNORE. An anchor is positive if it is an
    argmax anchor of some gt box (ties: all argmax anchors) or reaches
    pos_iou with any gt; negative if its best IoU is below neg_iou.
    Positives are matched to their single highest-IoU gt, ties to the
    lowest gt index.
    """
    n = len(aset)
    inside = aset.inside if aset.inside is not None else inside_mask(aset, image_w, image_h)
    labels = np.full(n, IGNORE, dtype=np.int8)
    deltas = np.zeros((n, 4), dtype=np.float64)
    matched = np.full(n, -1, dtype=np.int64)
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)

    ins = np.flatnonzero(inside)
    if gt_boxes.shape[0] == 0:
        labels[ins] = NEGATIVE
        return RpnTargets(labels, deltas, matched, np.zeros(n, dtype=bool))

    iou = iou_matrix_arr(aset.boxes[ins], gt_boxes)   # (n_inside, G)
    best = iou.max(axis=1)
    argbest = iou.argmax(axis=1)                      # ties -> lowest gt index

    lab = np.full(ins.shape[0], IGNORE, dtype=np.int8)
    lab[best < neg_iou] = NEGATIVE
    pos = best >= pos_iou
    gt_best = iou.max(axis=0)
    for j in range(gt_boxes.shape[0]):
        if gt_best[j] > 0:
            pos |= iou[:, j] == gt_best[j]            # rule (i), all argmax anchors
    lab[pos] = POSITIVE

    labels[ins] = lab
    pidx = ins[pos]
    matched[pidx] = argbest[pos]
    if pidx.size:
        deltas[pidx] = encode_arr(gt_boxes[matched[pidx]], aset.boxes[pidx])
    return RpnTargets(labels, deltas, matched, np.zeros(n, dtype=bool))


def sample_fg_bg(fg: np.ndarray, bg: np.ndarray, max_fg: int, total: int,
                 rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Up to max_fg of the fg indices, padded to total with bg indices.

    Each side is a sorted random subset when it has more candidates than
    slots (fg drawn first), else taken whole. Returns (take_fg, take_bg).
    """
    n_fg = min(max_fg, fg.size)
    take_fg = fg[np.sort(rng.choice(fg.size, n_fg))] if n_fg < fg.size else fg
    n_bg = min(total - n_fg, bg.size)
    take_bg = bg[np.sort(rng.choice(bg.size, n_bg))] if n_bg < bg.size else bg
    return take_fg, take_bg


def sample_minibatch(targets: RpnTargets, rng: Rng, batch: int = 256,
                     max_pos: int = 128) -> RpnTargets:
    """Fill sample_mask: up to max_pos positives, padded to batch with negatives."""
    pos = np.flatnonzero(targets.labels == POSITIVE)
    neg = np.flatnonzero(targets.labels == NEGATIVE)
    if pos.size + neg.size == 0:
        raise NoLabeledAnchorsError("no labeled anchors in image")
    take_pos, take_neg = sample_fg_bg(pos, neg, max_pos, batch, rng)
    mask = np.zeros_like(targets.sample_mask)
    mask[take_pos] = True
    mask[take_neg] = True
    return replace(targets, sample_mask=mask)
