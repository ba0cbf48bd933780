"""Translation-invariant anchor pyramid over a feature grid."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AnchorConfig:
    scales: tuple[float, ...]   # side lengths, px
    ratios: tuple[float, ...]   # width : height
    stride: int = 8

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(float(s) for s in self.scales))
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        if self.stride < 1:
            raise ValueError("stride must be >= 1")

    @property
    def k(self) -> int:
        return len(self.scales) * len(self.ratios)


def base_anchors(cfg: AnchorConfig) -> np.ndarray:
    """k boxes centered at the origin; scales outer, ratios inner.

    Scale s and ratio r give width s*sqrt(r), height s/sqrt(r), so area
    stays s^2 for every ratio.
    """
    out = np.empty((cfg.k, 4), dtype=np.float64)
    i = 0
    for s in cfg.scales:
        for r in cfg.ratios:
            w = s * np.sqrt(r)
            h = s / np.sqrt(r)
            out[i] = (-w / 2, -h / 2, w / 2, h / 2)
            i += 1
    return out


def grid_anchors(cfg: AnchorConfig, feature_w: int, feature_h: int) -> np.ndarray:
    """Replicate base anchors at every cell center ((j+0.5)*stride, (i+0.5)*stride):
    (W*H*k, 4) boxes, grid row-major, anchor fastest."""
    if feature_w < 1 or feature_h < 1:
        raise ValueError("feature grid must be at least 1x1")
    base = base_anchors(cfg)
    cx = (np.arange(feature_w) + 0.5) * cfg.stride
    cy = (np.arange(feature_h) + 0.5) * cfg.stride
    shift = np.zeros((feature_h, feature_w, 4), dtype=np.float64)
    shift[:, :, 0] = shift[:, :, 2] = cx[None, :]
    shift[:, :, 1] = shift[:, :, 3] = cy[:, None]
    return (shift[:, :, None, :] + base[None, None, :, :]).reshape(-1, 4)


def inside_mask(boxes: np.ndarray, image_w: float, image_h: float) -> np.ndarray:
    """True iff the anchor lies entirely within the half-open [0, w) x [0, h).

    The image domain is half-open like the box convention itself: an anchor
    whose right/bottom edge coincides with the image edge crosses out of it.
    """
    if image_w <= 0 or image_h <= 0:
        raise ValueError("image dimensions must be positive")
    x1, y1, x2, y2 = boxes.T
    return (x1 >= 0) & (y1 >= 0) & (x2 < image_w) & (y2 < image_h)
