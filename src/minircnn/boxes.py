"""Axis-aligned box geometry: IoU, delta encode/decode, clipping, greedy NMS.

Boxes are continuous half-open rectangles (x1, y1, x2, y2), origin top-left,
area = (x2-x1)*(y2-y1). Every entry point takes (N, 4) float arrays; `Box`
and `ScoredBox` carry single detections out of the pipeline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# exp() clamp for decoded sizes; bounds wild regressor outputs early in training
DELTA_CLAMP = math.log(1000.0 / 16.0)


@dataclass(frozen=True)
class Box:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(f"invalid box {self}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def to_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)


@dataclass(frozen=True)
class ScoredBox:
    box: Box
    score: float
    class_id: int = 0

    def __post_init__(self):
        if not 0 <= self.score <= 1:
            raise ValueError(f"score {self.score} outside [0, 1]")
        if self.class_id < 0:
            raise ValueError("class_id must be >= 0")


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


def nms_arr(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float,
            max_keep: int | None = None) -> np.ndarray:
    """Greedy NMS with strict > suppression; score ties keep original order."""
    if not 0 <= iou_threshold <= 1:
        raise ValueError("iou_threshold must be in [0, 1]")
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    n = boxes.shape[0]
    order = np.argsort(-scores, kind="stable")
    x1, y1, x2, y2 = (boxes[order, j] for j in range(4))
    areas = (x2 - x1) * (y2 - y1)
    limit = n if max_keep is None else max_keep

    def iou_block(rows, cols):
        """IoU matrix between candidate index ranges (score order)."""
        ix1 = np.maximum(x1[rows, None], x1[None, cols])
        iy1 = np.maximum(y1[rows, None], y1[None, cols])
        ix2 = np.minimum(x2[rows, None], x2[None, cols])
        iy2 = np.minimum(y2[rows, None], y2[None, cols])
        inter = np.maximum(ix2 - ix1, 0.0) * np.maximum(iy2 - iy1, 0.0)
        union = areas[rows, None] + areas[None, cols] - inter
        iou = np.zeros_like(inter)
        np.divide(inter, union, out=iou, where=union > 0)
        return iou

    # Windowed greedy scan. Work scales with how far the scan actually gets,
    # not with n: suppression masks stay inside the current window, and a new
    # window is batch-suppressed by everything kept so far on entry.
    suppressed = np.zeros(n, dtype=bool)
    keep: list[int] = []       # original indices, output order
    keep_pos: list[int] = []   # score-order positions of kept boxes
    B, W = 64, 1024
    for win_start in range(0, n, W):
        if len(keep) >= limit:
            break
        win_stop = min(win_start + W, n)
        window = slice(win_start, win_stop)
        if keep_pos:
            m = iou_block(np.asarray(keep_pos), window)
            suppressed[window] |= (m > iou_threshold).any(axis=0)
        for start in range(win_start, win_stop, B):
            if len(keep) >= limit:
                break
            stop = min(start + B, win_stop)
            iou = iou_block(slice(start, stop), slice(start, win_stop))
            for bi in range(stop - start):
                if suppressed[start + bi]:
                    continue
                keep.append(int(order[start + bi]))
                keep_pos.append(start + bi)
                if len(keep) >= limit:
                    break
                suppressed[start:win_stop] |= iou[bi] > iou_threshold
    return np.asarray(keep, dtype=np.int64)

