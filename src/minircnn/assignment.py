"""Objectness labels and regression targets for anchors, and the fg/bg
minibatch sampler every head draws its rows with."""
from __future__ import annotations

import numpy as np

from .boxes import encode_arr, iou_matrix_arr
from .rng import Rng

POSITIVE = 1
NEGATIVE = 0
IGNORE = -1


def assign_labels(anchors: np.ndarray, inside: np.ndarray, gt_boxes: np.ndarray,
                  pos_iou: float, neg_iou: float) -> tuple[np.ndarray, np.ndarray]:
    """Label anchors positive/negative/ignore and compute regression targets.

    Cross-boundary anchors (False in the `inside` mask) stay IGNORE. An
    anchor is positive if it is an argmax anchor of some gt box (ties: all
    argmax anchors) or reaches pos_iou with any gt; negative if its best IoU
    is below neg_iou. Positives are matched to their single highest-IoU gt,
    ties to the lowest gt index. Returns (labels int8 (N,), targets (P, 4)):
    one target row per positive label, in row order.
    """
    labels = np.full(anchors.shape[0], IGNORE, dtype=np.int8)
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)

    ins = np.flatnonzero(inside)
    if gt_boxes.shape[0] == 0:
        labels[ins] = NEGATIVE
        return labels, np.zeros((0, 4))

    iou = iou_matrix_arr(anchors[ins], gt_boxes)      # (n_inside, G)
    best = iou.max(axis=1)
    argbest = iou.argmax(axis=1)                      # ties -> lowest gt index

    lab = np.full(ins.shape[0], IGNORE, dtype=np.int8)
    lab[best < neg_iou] = NEGATIVE
    pos = best >= pos_iou
    gt_best = iou.max(axis=0, initial=0.0)           # 0 when no anchor is inside
    for j in range(gt_boxes.shape[0]):
        if gt_best[j] > 0:
            pos |= iou[:, j] == gt_best[j]            # rule (i), all argmax anchors
    lab[pos] = POSITIVE

    labels[ins] = lab
    return labels, encode_arr(gt_boxes[argbest[pos]], anchors[ins[pos]])


def sample_fg_bg(labels: np.ndarray, max_fg: int, total: int, rng: Rng) -> np.ndarray:
    """Rows of up to max_fg foreground labels (>= 1), padded to total with
    background (0) rows; ignored (-1) rows are never drawn.

    Each side is a sorted random subset when it has more candidates than
    slots (fg drawn first), else taken whole. Returns the fg rows, then the
    bg rows.
    """
    fg, bg = np.flatnonzero(labels > 0), np.flatnonzero(labels == 0)
    n_fg = min(max_fg, total, fg.size)
    take_fg = fg[np.sort(rng.permutation(fg.size, n_fg))] if n_fg < fg.size else fg
    n_bg = min(total - n_fg, bg.size)
    take_bg = bg[np.sort(rng.permutation(bg.size, n_bg))] if n_bg < bg.size else bg
    return np.concatenate([take_fg, take_bg])


def sample_minibatch(labels: np.ndarray, rng: Rng, batch: int,
                     max_pos: int) -> np.ndarray:
    """The anchor rows of one RPN minibatch, ascending: up to max_pos
    positives, padded to batch with negatives; empty when none is drawn."""
    return np.sort(sample_fg_bg(labels, max_pos, batch, rng))
