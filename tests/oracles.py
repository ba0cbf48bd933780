"""Independent reference implementations the geometry tests compare against."""

from __future__ import annotations

import numpy as np


def random_boxes(rng: np.random.Generator, n: int, lo: float = 0.0,
                 hi: float = 100.0, min_size: float = 1e-3) -> np.ndarray:
    """(n, 4) array of valid boxes with positive width and height."""
    x1 = rng.uniform(lo, hi, size=n)
    y1 = rng.uniform(lo, hi, size=n)
    w = rng.uniform(min_size, hi - lo, size=n)
    h = rng.uniform(min_size, hi - lo, size=n)
    return np.stack([x1, y1, x1 + w, y1 + h], axis=1)


def brute_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Scalar IoU of two (4,) boxes, computed independently of the library."""
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    union = ((a[2] - a[0]) * (a[3] - a[1])
             + (b[2] - b[0]) * (b[3] - b[1]) - inter)
    return inter / union if union > 0 else 0.0


def brute_nms(boxes: np.ndarray, scores: np.ndarray, thresh: float) -> list[int]:
    """Quadratic greedy NMS reference: stable sort, strict > suppression."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    keep: list[int] = []
    alive = set(order)
    for i in order:
        if i not in alive:
            continue
        keep.append(i)
        alive.discard(i)
        for j in list(alive):
            if brute_iou(boxes[i], boxes[j]) > thresh:
                alive.discard(j)
    return keep
