"""Axis-aligned box geometry: IoU, delta encode/decode, clipping, greedy NMS.

Boxes are continuous half-open rectangles (x1, y1, x2, y2), origin top-left,
area = (x2-x1)*(y2-y1). Every entry point takes (N, 4) float arrays; `Box`
and `ScoredBox` are the plain records single detections leave the pipeline
as. They check nothing: the pipeline makes them from softmax scores and
clipped boxes, and `eval-map` from the rows its reader has checked.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# exp() clamp for decoded sizes; bounds wild regressor outputs early in training
DELTA_CLAMP = math.log(1000.0 / 16.0)


class Box(NamedTuple):
    x1: float
    y1: float
    x2: float
    y2: float


class ScoredBox(NamedTuple):
    box: Box
    score: float
    class_id: int = 0


def iou_matrix_arr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of a:(N,4) vs b:(M,4); zero-union pairs get IoU 0."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    ix1 = np.maximum(a[:, None, 0], b[None, :, 0])
    iy1 = np.maximum(a[:, None, 1], b[None, :, 1])
    ix2 = np.minimum(a[:, None, 2], b[None, :, 2])
    iy2 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.clip(ix2 - ix1, 0, None) * np.clip(iy2 - iy1, 0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def encode_arr(gt: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Box regression offsets (tx, ty, tw, th) of gt:(N,4) vs anchors:(N,4)."""
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 4)
    anchors = np.asarray(anchors, dtype=np.float64).reshape(-1, 4)
    gw, gh = gt[:, 2] - gt[:, 0], gt[:, 3] - gt[:, 1]
    aw, ah = anchors[:, 2] - anchors[:, 0], anchors[:, 3] - anchors[:, 1]
    if np.any(gw <= 0) or np.any(gh <= 0) or np.any(aw <= 0) or np.any(ah <= 0):
        raise ValueError("encode requires positive-size boxes")
    gx, gy = (gt[:, 0] + gt[:, 2]) / 2, (gt[:, 1] + gt[:, 3]) / 2
    ax, ay = (anchors[:, 0] + anchors[:, 2]) / 2, (anchors[:, 1] + anchors[:, 3]) / 2
    return np.stack([(gx - ax) / aw, (gy - ay) / ah,
                     np.log(gw / aw), np.log(gh / ah)], axis=1)


def decode_arr(deltas: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Inverse of encode_arr; tw/th clamped to +-log(1000/16) before exp."""
    deltas = np.asarray(deltas, dtype=np.float64).reshape(-1, 4)
    anchors = np.asarray(anchors, dtype=np.float64).reshape(-1, 4)
    aw, ah = anchors[:, 2] - anchors[:, 0], anchors[:, 3] - anchors[:, 1]
    if np.any(aw <= 0) or np.any(ah <= 0):
        raise ValueError("decode requires positive-size anchors")
    ax, ay = (anchors[:, 0] + anchors[:, 2]) / 2, (anchors[:, 1] + anchors[:, 3]) / 2
    cx = deltas[:, 0] * aw + ax
    cy = deltas[:, 1] * ah + ay
    w = np.exp(np.clip(deltas[:, 2], -DELTA_CLAMP, DELTA_CLAMP)) * aw
    h = np.exp(np.clip(deltas[:, 3], -DELTA_CLAMP, DELTA_CLAMP)) * ah
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)


def clip_arr(boxes: np.ndarray, image_w: float, image_h: float) -> np.ndarray:
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    out = np.empty_like(boxes)
    out[:, 0] = np.clip(boxes[:, 0], 0, image_w)
    out[:, 1] = np.clip(boxes[:, 1], 0, image_h)
    out[:, 2] = np.clip(boxes[:, 2], 0, image_w)
    out[:, 3] = np.clip(boxes[:, 3], 0, image_h)
    return out


# Greedy NMS over candidate pairs. For two boxes whose IoU is computed above
# tau, the width ratio and the height ratio both lie in (tau, 1/tau), and
# |x1_i - x1_j| < (1 - tau) * max(w_i, w_j). Every bound below is loosened by
# _SLACK, far more than rounding moves a computed IoU, so a pair left out
# has a computed IoU <= tau.
_SLACK = 2.0 ** -30
# If tau * area, tau * width or tau * height is below _TINY for any row, products
# round to subnormals and the bounds above need not hold, so the whole call prunes
# by overlap alone (tau = 0). That takes subnormal boxes or a tau below ~1e-260.
_TINY = 2.0 ** -960
# Live boxes per greedy block. The candidate test inside a block runs on all
# its pairs, and each block repeats a fixed set-up: of 32, 64, 96 and 128,
# 64 was fastest on ~200-box class-wise calls and within 10 % of the best
# on 2,304-box proposal calls. The first block has half as many: on
# clustered boxes the top few suppress most of the rest.
_BLOCK = 64
_BLOCK_PAIRS = np.triu_indices(_BLOCK, 1)
_NEAR_W = np.repeat([-1, 0, 1], 3)
_NEAR_H = np.tile([-1, 0, 1], 3)


class _PairIndex:
    """Candidate partners among `rows` at pruning threshold t.

    Widths and heights fall in log classes of width log(1/t), so a partner
    lies in one of the 3 x 3 neighbouring (width, height) classes, and its
    x1 within a row's reach. Rows are sorted by class, then x1, so each
    neighbouring class holds a row's partners in one slice. Per-row arrays
    are indexed by row number; `retain` removes decided rows from the slices
    without moving the others. Rows of different `groups` are never
    partners: each group's width classes lie apart from the others'.
    """

    def __init__(self, x1, w, h, rows, t, groups):
        V = rows.size
        x, wr = x1[rows], w[rows]
        xs = np.sort(x)
        c = np.floor(np.log(np.stack([wr, h[rows]])) / (-math.log(t) if t else math.inf))
        # merging the classes past 4096 keeps every neighbour a neighbour
        c = np.minimum(c - c.min(1, keepdims=True, initial=np.inf), 4096)
        if groups is not None:
            c[0] += groups[rows] * (c[0].max(initial=0) + 2)
        K = c[1].max(initial=0) + 2
        # max(w_i, w_j) <= min(w_i / t, widest row), as the width ratio bounds w_j
        wmax = wr.max(initial=0)
        span = np.divide(wr, t, out=np.full(V, wmax), where=wr <= t * wmax)
        reach = (1 - t) * span * (1 + _SLACK)
        cols = np.stack([c[0], c[1], np.searchsorted(xs, x),
                         np.searchsorted(xs, np.nextafter(x - reach, -np.inf)),
                         np.searchsorted(xs, np.nextafter(x + reach, np.inf), "right"),
                         (c[0] * K + c[1]) * (V + 1)])
        key = cols[5] + cols[2]
        s = np.argsort(key)
        self.rows, self.key = rows[s], key[s]
        table = np.zeros((6, x1.size))
        table[:, rows] = cols
        # classes, x1 rank, x1 rank range of partners, first key of the class
        self.cw, self.ch, self.rank, self.lo, self.hi, self.group = table
        self.near_groups = (_NEAR_W * K + _NEAR_H) * (V + 1)

    def near(self, a, b):
        """Whether row b is a candidate partner of row a, pair by pair."""
        rb = self.rank.take(b)
        return ((np.abs(self.cw.take(a) - self.cw.take(b)) <= 1)
                & (np.abs(self.ch.take(a) - self.ch.take(b)) <= 1)
                & (rb >= self.lo.take(a)) & (rb < self.hi.take(a)))

    def retain(self, live):
        """Drop the rows where `live`, indexed by row number, is False, so
        that they are no one's partner any more."""
        m = live.take(self.rows)
        self.rows, self.key = self.rows[m], self.key[m]

    def partners(self, src):
        """Every (i, j) with j a candidate partner of i, for i in src."""
        q = self.group.take(src)[:, None] + self.near_groups
        start = np.searchsorted(self.key, q + self.lo.take(src)[:, None]).ravel()
        count = np.searchsorted(self.key, q + self.hi.take(src)[:, None]).ravel() - start
        j = np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)
        return np.repeat(np.repeat(src, 9), count), self.rows.take(j)


def _greedy_keep(ranked: np.ndarray, iou_threshold: float, limit: int,
                 groups: np.ndarray | None) -> np.ndarray:
    """Positions of the first `limit` boxes greedy NMS keeps among `ranked`,
    which is in descending score order, with `groups` (or None) beside it."""
    n = ranked.shape[0]
    x1, y1, x2, y2 = ranked.T.copy()
    w = x2 - x1
    h = y2 - y1
    areas = w * h
    t = iou_threshold * (1 - _SLACK)
    # other rows have IoU 0 or NaN with every row: they neither suppress nor
    # get suppressed
    valid = (w > 0) & (h > 0) & (areas > 0) & (areas < np.inf)
    if (t * np.minimum(areas, np.minimum(w, h))[valid] < _TINY).any():
        t = 0.0

    def over(i, j):
        """IoU(i, j) > threshold for pairs of valid rows, i ranked first."""
        ix1 = np.maximum(x1.take(i), x1.take(j))
        iy1 = np.maximum(y1.take(i), y1.take(j))
        ix2 = np.minimum(x2.take(i), x2.take(j))
        iy2 = np.minimum(y2.take(i), y2.take(j))
        inter = np.maximum(ix2 - ix1, 0.0) * np.maximum(iy2 - iy1, 0.0)
        return inter / (areas.take(i) + areas.take(j) - inter) > iou_threshold

    def suppress(keep, first):
        """Suppress each live row from `first` on that a kept row in `keep`
        overlaps."""
        live = ~suppressed
        live[:first] = False
        index.retain(live)
        i, j = index.partners(keep)
        suppressed[j[over(i, j)]] = True

    # Greedy decisions on a score-order prefix do not depend on the rows
    # after it, and a capped call usually fills its cap early. So the pair
    # index covers the rows up to `end`, first 2 * limit of them. When the
    # scan reaches `end` with the cap unfilled, the prefix doubles: the boxes
    # kept so far suppress the new rows, and the scan goes on from there.
    suppressed = np.zeros(n, dtype=bool)
    kept = stop = end = 0
    size = _BLOCK // 2
    while stop < n and kept < limit:
        if stop == end:
            first, end = end, min(n, max(2 * limit, 2 * end))
            keep = np.flatnonzero(valid[:first] & ~suppressed[:first])
            rows = np.concatenate([keep, first + np.flatnonzero(valid[first:end])])
            index = _PairIndex(x1, w, h, rows, t, groups)
            suppress(keep, first)
        # Blocks of up to _BLOCK unsuppressed boxes in score order. Greedy
        # runs inside a block over its candidate pairs; then the boxes it
        # keeps suppress their later candidate partners all at once.
        block = stop + np.flatnonzero(~suppressed[stop:end])[:size]
        size = _BLOCK
        if not block.size:
            stop = end
            continue
        stop = int(block[-1]) + 1
        src = block[valid.take(block)]
        k = src.size
        la, lb = (_BLOCK_PAIRS if k == _BLOCK
                  else (v[_BLOCK_PAIRS[1] < k] for v in _BLOCK_PAIRS))
        a, b = src.take(la), src.take(lb)
        hit = index.near(a, b).nonzero()[0]
        hit = hit[over(a.take(hit), b.take(hit))]
        gone = bytearray(k)
        for p, q in zip(la.take(hit).tolist(), lb.take(hit).tolist()):
            if not gone[p]:
                gone[q] = 1
        gone = np.frombuffer(gone, dtype=bool)
        suppressed[src[gone]] = True
        kept += block.size - int(gone.sum())
        if stop < end:
            suppress(src[~gone], stop)
    return np.flatnonzero(~suppressed[:stop])[:limit]


def nms_arr(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float,
            max_keep: int | None = None, groups: np.ndarray | None = None) -> np.ndarray:
    """Greedy NMS with strict > suppression; score ties keep original order.
    Given integer `groups` (N,), a box suppresses only boxes of its own group.

    Returns the indices of the kept boxes, best first, at most max_keep of
    them. IoU is computed only for the candidate pairs of a `_PairIndex`,
    which holds every pair whose computed IoU can exceed the threshold, so
    the result equals an all-pairs greedy scan. A capped call scans a
    prefix of 2 * max_keep boxes in score order, and extends it, without
    redoing it, while it keeps fewer than max_keep.
    """
    if not 0 <= iou_threshold <= 1:
        raise ValueError("iou_threshold must be in [0, 1]")
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    order = np.argsort(-scores, kind="stable")
    limit = boxes.shape[0] if max_keep is None else max(max_keep, 0)
    ranked_groups = None if groups is None else np.asarray(groups, dtype=np.int64)[order]
    return order[_greedy_keep(boxes[order], iou_threshold, limit, ranked_groups)]
