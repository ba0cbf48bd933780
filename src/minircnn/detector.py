"""Miniature Fast R-CNN second stage: RoI pooling + small FC head,
RoI sampling, loss, and class-wise inference."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .assignment import sample_fg_bg
from .boxes import Box, ScoredBox, clip_arr, decode_arr, encode_arr, iou_matrix_arr, nms_arr
from .nn import Param, gaussian_init, multitask_loss
from .rng import Rng
from .tensor import Tensor

ROI_POOL_SIZE = 6
FC_DIM = 256


@dataclass
class RoiSampleConfig:
    rois_per_image: int
    fg_fraction: float
    fg_iou: float     # foreground: max IoU at least fg_iou, else background


@dataclass
class RoiBatch:
    rois: np.ndarray       # (N, 4)
    labels: np.ndarray     # (N,) int64, 0 = background
    targets: np.ndarray    # (F, 4), one row per foreground label, in row order


class LinearLayer:
    def __init__(self, name: str, in_dim: int, out_dim: int, rng: Rng):
        self.w = Param(f"{name}.w", gaussian_init((in_dim, out_dim), 0.01, rng))
        self.b = Param(f"{name}.b", np.zeros(out_dim, dtype=np.float32))

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w.value, self.b.value)

    @property
    def params(self) -> list[Param]:
        return [self.w, self.b]


class DetectorHead:
    """pooled features -> fc1/ReLU -> fc2/ReLU -> sibling cls (C+1) / reg (4C)."""

    def __init__(self, rng: Rng, backbone_dim: int, n_classes: int):
        self.n_classes = n_classes
        in_dim = backbone_dim * ROI_POOL_SIZE * ROI_POOL_SIZE
        self.fc1 = LinearLayer("det.fc1", in_dim, FC_DIM, rng)
        self.fc2 = LinearLayer("det.fc2", FC_DIM, FC_DIM, rng)
        self.cls = LinearLayer("det.cls", FC_DIM, n_classes + 1, rng)
        self.reg = LinearLayer("det.reg", FC_DIM, 4 * n_classes, rng)

    @property
    def params(self) -> list[Param]:
        return self.fc1.params + self.fc2.params + self.cls.params + self.reg.params


def detector_forward(features: Tensor, proposals: np.ndarray, head: DetectorHead,
                     spatial_scale: float) -> tuple[Tensor, Tensor]:
    """Run the head on each proposal; returns (cls_logits (N,C+1), deltas (N,C,4))."""
    pooled = T.roi_pool(features, proposals, spatial_scale, ROI_POOL_SIZE)
    flat = pooled.reshape(-1, features.shape[0] * ROI_POOL_SIZE ** 2)
    h = T.relu(head.fc1(flat))
    h = T.relu(head.fc2(h))
    return head.cls(h), head.reg(h).reshape(-1, head.n_classes, 4)


def label_boxes(boxes: np.ndarray, gt_boxes: np.ndarray, gt_classes: np.ndarray,
                fg_iou: float) -> tuple[np.ndarray, np.ndarray]:
    """Fast R-CNN labels of boxes (N, 4) against gt boxes (G, 4): the class of
    the best-IoU gt box (ties to the lowest index) where that IoU reaches
    fg_iou, else 0 (background); and the regression targets (F, 4) toward
    that gt box, one row per foreground label, in row order."""
    labels = np.zeros(boxes.shape[0], dtype=np.int64)
    if gt_boxes.shape[0] == 0:
        return labels, np.zeros((0, 4))
    iou = iou_matrix_arr(boxes, gt_boxes)
    arg = iou.argmax(axis=1)
    fg = iou.max(axis=1) >= fg_iou
    labels[fg] = gt_classes[arg[fg]]
    return labels, encode_arr(gt_boxes[arg[fg]], boxes[fg])


def label_windows(windows: np.ndarray, inside: np.ndarray, gt_boxes: np.ndarray,
                  gt_classes: np.ndarray, fg_iou: float) -> tuple[np.ndarray, np.ndarray]:
    """`label_boxes` of the windows inside the image (the `inside` mask), -1
    (ignore) for the windows that cross its border; the labels in the
    smallest integer type that holds -1 and every class. The targets are
    `label_boxes`' own: one row per foreground label, in row order."""
    labels = np.full(windows.shape[0], -1,
                     dtype=np.min_scalar_type(-1 - gt_classes.max(initial=0)))
    ins = np.flatnonzero(inside)
    labels[ins], targets = label_boxes(windows[ins], gt_boxes, gt_classes, fg_iou)
    return labels, targets


def check_classes(scenes, n_classes: int):
    """Reject a scene whose gt classes fall outside a head's 1..n_classes."""
    for i, s in enumerate(scenes):
        bad = s.classes[(s.classes < 1) | (s.classes > n_classes)]
        if bad.size:
            raise ValueError(f"image {s.path or i}: class {bad[0]} is outside the "
                             f"head's classes 1..{n_classes}")


def sample_fast_rcnn(labels: np.ndarray, targets: np.ndarray, cfg: RoiSampleConfig,
                     rng: Rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fast R-CNN's minibatch of labelled rows, `targets` one per foreground label:
    up to fg_fraction of rois_per_image foreground rows, then background. Returns
    (the rows, foreground first; the foreground rows; their targets)."""
    rows = sample_fg_bg(labels, int(cfg.fg_fraction * cfg.rois_per_image),
                        cfg.rois_per_image, rng)
    fg = rows[labels[rows] > 0]
    return rows, fg, targets[np.searchsorted(np.flatnonzero(labels > 0), fg)]


def sample_rois(proposals: np.ndarray, gt_boxes: np.ndarray, gt_classes: np.ndarray,
                cfg: RoiSampleConfig, rng: Rng) -> RoiBatch:
    """Detector-stage sampling: gt boxes (G, 4) appended to the proposals (N, 4),
    fg/bg split by IoU at `cfg.fg_iou`, then `sample_fast_rcnn`."""
    cand = np.concatenate([proposals, gt_boxes])
    labels, targets = label_boxes(cand, gt_boxes, gt_classes, cfg.fg_iou)
    rows, _, fg_targets = sample_fast_rcnn(labels, targets, cfg, rng)
    return RoiBatch(cand[rows], labels[rows], fg_targets)


def detector_loss(cls_logits: Tensor, deltas: Tensor,
                  rois: RoiBatch) -> tuple[Tensor, float, float]:
    """Mean class log-loss + mean per-row smooth-L1 over foreground rows'
    matched-class delta slice, weighted 1:1."""
    n = rois.labels.shape[0]
    if n == 0:
        raise ValueError("detector_loss requires a nonempty RoI batch")
    fg = np.flatnonzero(rois.labels > 0)
    return multitask_loss(cls_logits, deltas, rois.labels, np.arange(n), fg,
                          rois.targets, 1.0 / n, 1.0 / max(fg.size, 1))


def detect(features: Tensor, proposals: np.ndarray, head: DetectorHead,
           spatial_scale: float, image_w: float, image_h: float,
           score_thresh: float, nms_iou: float,
           max_per_image: int) -> list[ScoredBox]:
    """Class-wise decode + NMS over proposals; returns detections, class_id >= 1."""
    proposals = np.asarray(proposals, dtype=np.float64).reshape(-1, 4)
    cls_logits, deltas = detector_forward(features, proposals, head, spatial_scale)
    return classwise_detections(cls_logits.data, deltas.data, proposals, image_w,
                                image_h, score_thresh, nms_iou, max_per_image)


def classwise_detections(logits: np.ndarray, per_class: np.ndarray,
                         ref_boxes: np.ndarray, image_w: float, image_h: float,
                         score_thresh: float, nms_iou: float,
                         max_per_image: int) -> list[ScoredBox]:
    """Class-wise post-process shared by both detectors.

    logits (N, C+1) holds raw class scores with background in column 0;
    per_class (N, C, 4) the class-specific deltas against ref_boxes (N, 4).
    Each (row, class c >= 1) scoring at least score_thresh is decoded and
    clipped; one NMS call, in which boxes of different classes never suppress
    each other, returns the top max_per_image over all classes, best first
    (ties by class, then row).
    """
    probs = T.softmax(logits, axis=1)
    cls, rows = np.nonzero(probs[:, 1:].T >= score_thresh)     # class-major
    scores = probs[rows, cls + 1]
    boxes = decode_arr(per_class[rows, cls].astype(np.float64), ref_boxes[rows])
    boxes = clip_arr(boxes, image_w, image_h)
    return [ScoredBox(Box(*boxes[i]), float(scores[i]), int(cls[i]) + 1)
            for i in nms_arr(boxes, scores, nms_iou, max_keep=max_per_image, groups=cls)]
