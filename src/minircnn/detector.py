"""Miniature Fast R-CNN second stage: RoI pooling + small FC head,
RoI sampling, loss, and class-wise inference."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .assignment import sample_fg_bg
from .boxes import Box, ScoredBox, clip_arr, decode_arr, encode_arr, iou_matrix_arr, nms_arr
from .nn import Param, gaussian_init
from .rng import Rng
from .tensor import Tensor

ROI_POOL_SIZE = 6
FC_DIM = 256


@dataclass
class RoiSampleConfig:
    rois_per_image: int = 64
    fg_fraction: float = 0.25
    fg_iou: float = 0.5
    bg_iou_lo: float = 0.0  # background: max IoU in [bg_iou_lo, fg_iou)

    def __post_init__(self):
        if not 0 < self.fg_fraction < 1:
            raise ValueError("fg_fraction must be in (0, 1)")
        if self.bg_iou_lo >= self.fg_iou:
            raise ValueError("background range must lie below fg_iou")


@dataclass
class RoiBatch:
    rois: np.ndarray       # (N, 4)
    labels: np.ndarray     # (N,) int64, 0 = background
    targets: np.ndarray    # (N, 4), defined where labels > 0


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

    def __init__(self, rng: Rng, backbone_dim: int, n_classes: int,
                 pool_size: int = ROI_POOL_SIZE, fc_dim: int = FC_DIM):
        self.n_classes = n_classes
        self.pool_size = pool_size
        in_dim = backbone_dim * pool_size * pool_size
        self.fc1 = LinearLayer("det.fc1", in_dim, fc_dim, rng)
        self.fc2 = LinearLayer("det.fc2", fc_dim, fc_dim, rng)
        self.cls = LinearLayer("det.cls", fc_dim, n_classes + 1, rng)
        self.reg = LinearLayer("det.reg", fc_dim, 4 * n_classes, rng)
        assert self.cls.w.value.shape[1] == n_classes + 1
        assert self.reg.w.value.shape[1] == 4 * n_classes

    @property
    def params(self) -> list[Param]:
        return self.fc1.params + self.fc2.params + self.cls.params + self.reg.params


def detector_forward(features: Tensor, proposals: np.ndarray, head: DetectorHead,
                     spatial_scale: float) -> tuple[Tensor, Tensor]:
    """Run the head on each proposal; returns (cls_logits (N,C+1), deltas (N,4C))."""
    proposals = np.asarray(proposals, dtype=np.float64).reshape(-1, 4)
    if proposals.shape[0] == 0:
        dt = features.dtype
        return Tensor(np.zeros((0, head.n_classes + 1), dtype=dt)), \
            Tensor(np.zeros((0, 4 * head.n_classes), dtype=dt))
    pooled = T.roi_pool(features, proposals, spatial_scale, head.pool_size)
    flat = pooled.reshape(proposals.shape[0], -1)
    h = T.relu(head.fc1(flat))
    h = T.relu(head.fc2(h))
    return head.cls(h), head.reg(h)


def class_probs(cls_logits: Tensor) -> np.ndarray:
    return T.softmax(cls_logits.data, axis=1)


def sample_rois(proposals: np.ndarray, gt_boxes: np.ndarray, gt_classes: np.ndarray,
                cfg: RoiSampleConfig, rng: Rng) -> RoiBatch:
    """Detector-stage sampling: gt boxes appended, fg/bg split by IoU at 0.5."""
    proposals = np.asarray(proposals, dtype=np.float64).reshape(-1, 4)
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    gt_classes = np.asarray(gt_classes, dtype=np.int64)
    cand = np.concatenate([proposals, gt_boxes]) if gt_boxes.size else proposals
    if cand.shape[0] == 0:
        return RoiBatch(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), np.zeros((0, 4)))
    if gt_boxes.shape[0]:
        iou = iou_matrix_arr(cand, gt_boxes)
        best = iou.max(axis=1)
        arg = iou.argmax(axis=1)
    else:
        best = np.zeros(cand.shape[0])
        arg = np.zeros(cand.shape[0], dtype=np.int64)
    fg = np.flatnonzero(best >= cfg.fg_iou)
    bg = np.flatnonzero((best >= cfg.bg_iou_lo) & (best < cfg.fg_iou))
    take_fg, take_bg = sample_fg_bg(fg, bg, int(cfg.fg_fraction * cfg.rois_per_image),
                                    cfg.rois_per_image, rng)
    idx = np.concatenate([take_fg, take_bg])
    rois = cand[idx]
    labels = np.zeros(idx.size, dtype=np.int64)
    labels[:take_fg.size] = gt_classes[arg[take_fg]]
    targets = np.zeros((idx.size, 4))
    if take_fg.size:
        targets[:take_fg.size] = encode_arr(gt_boxes[arg[take_fg]], rois[:take_fg.size])
    return RoiBatch(rois, labels, targets)


def detector_loss(cls_logits: Tensor, deltas: Tensor,
                  batch: RoiBatch) -> tuple[Tensor, float, float]:
    """Mean class log-loss + mean per-row smooth-L1 over foreground rows'
    matched-class delta slice, weighted 1:1."""
    n = batch.labels.shape[0]
    if n == 0:
        raise ValueError("detector_loss requires a nonempty RoI batch")
    cls_term = T.mul(T.tsum(T.softmax_logloss(cls_logits, batch.labels)), 1.0 / n)
    fg = np.flatnonzero(batch.labels > 0)
    if fg.size:
        per_class = deltas.reshape(n, -1, 4)
        pred = T.select_class(T.take_rows(per_class, fg), batch.labels[fg] - 1)
        tgt = Tensor(batch.targets[fg].astype(deltas.dtype))
        reg_term = T.mul(T.tsum(T.smooth_l1(pred - tgt)), 1.0 / fg.size)
        loss = cls_term + reg_term
        reg_val = reg_term.item()
    else:
        loss = cls_term
        reg_val = 0.0
    return loss, cls_term.item(), reg_val


def detect(features: Tensor, proposals: np.ndarray, head: DetectorHead,
           spatial_scale: float, image_w: float, image_h: float,
           score_thresh: float = 0.05, nms_iou: float = 0.3,
           max_per_image: int = 100) -> list[ScoredBox]:
    """Class-wise decode + NMS over proposals; returns detections, class_id >= 1."""
    proposals = np.asarray(proposals, dtype=np.float64).reshape(-1, 4)
    if proposals.shape[0] == 0:
        return []
    cls_logits, deltas = detector_forward(features, proposals, head, spatial_scale)
    per_class = deltas.data.reshape(proposals.shape[0], head.n_classes, 4)
    return classwise_detections(class_probs(cls_logits), per_class, proposals,
                                image_w, image_h, score_thresh, nms_iou,
                                max_per_image)


def classwise_detections(probs: np.ndarray, per_class: np.ndarray,
                         ref_boxes: np.ndarray, image_w: float, image_h: float,
                         score_thresh: float, nms_iou: float,
                         max_per_image: int) -> list[ScoredBox]:
    """Class-wise post-process shared by both detectors.

    probs (N, C+1) holds class probabilities with background in column 0;
    per_class (N, C, 4) the class-specific deltas against ref_boxes (N, 4).
    For each class c >= 1, rows scoring at least score_thresh are decoded,
    clipped and NMS-filtered; the top max_per_image over all classes are
    returned, best first.
    """
    out = []
    for c in range(1, probs.shape[1]):
        scores = probs[:, c]
        keep = scores >= score_thresh
        if not np.any(keep):
            continue
        boxes = decode_arr(per_class[keep, c - 1].astype(np.float64), ref_boxes[keep])
        boxes = clip_arr(boxes, image_w, image_h)
        sel = nms_arr(boxes, scores[keep], nms_iou)
        for i in sel:
            out.append(ScoredBox(Box(*boxes[i]), float(scores[keep][i]), c))
    out.sort(key=lambda s: -s.score)
    return out[:max_per_image]
