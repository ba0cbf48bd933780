"""OverFeat-style one-stage baseline: class-specific scores and boxes
regressed directly from dense sliding windows, no proposal stage."""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .anchors import AnchorConfig, AnchorSet, inside_mask
from .assignment import sample_fg_bg
from .boxes import ScoredBox, encode_arr, iou_matrix_arr
from .dataio import Scene, image_to_input
from .detector import RoiSampleConfig, classwise_detections
from .nn import SgdConfig, sgd_step
from .rng import Rng
from .rpn import Backbone, ConvLayer
from .tensor import Tensor
from .training import TrainSchedule, TrainState, _Feeder

import logging

log = logging.getLogger(__name__)


class OneStageHead:
    """Same trunk shape as the RPN head, but class-specific siblings:
    cls emits (C+1)*k channels, reg 4*C*k (per-class boxes per window)."""

    def __init__(self, rng: Rng, backbone_dim: int, k: int, n_classes: int,
                 head_dim: int = 64):
        self.k = k
        self.n_classes = n_classes
        self.trunk = ConvLayer("onestage.trunk", backbone_dim, head_dim, 3, 1, rng)
        self.cls = ConvLayer("onestage.cls", head_dim, (n_classes + 1) * k, 1, 0, rng)
        self.reg = ConvLayer("onestage.reg", head_dim, 4 * n_classes * k, 1, 0, rng)
        assert self.cls.w.value.shape[0] == (n_classes + 1) * k
        assert self.reg.w.value.shape[0] == 4 * n_classes * k

    def forward(self, features: Tensor) -> tuple[Tensor, Tensor]:
        t = T.relu(self.trunk(features))
        return self.cls(t), self.reg(t)

    @property
    def params(self):
        return self.trunk.params + self.cls.params + self.reg.params


def _flatten_cls(cls: Tensor, k: int, n_classes: int) -> Tensor:
    _, h, w = cls.shape
    return cls.reshape(k, n_classes + 1, h, w).transpose(2, 3, 0, 1) \
              .reshape(h * w * k, n_classes + 1)


def _flatten_reg(reg: Tensor, k: int, n_classes: int) -> Tensor:
    _, h, w = reg.shape
    return reg.reshape(k, n_classes, 4, h, w).transpose(3, 4, 0, 1, 2) \
              .reshape(h * w * k, n_classes, 4)


def _assign_windows(aset: AnchorSet, scene: Scene, cfg: RoiSampleConfig):
    """Detector-style fg/bg split applied to dense windows (inside only)."""
    inside = aset.inside if aset.inside is not None else \
        inside_mask(aset, scene.width, scene.height)
    labels = np.full(len(aset), -1, dtype=np.int64)   # -1 = not a candidate
    targets = np.zeros((len(aset), 4))
    ins = np.flatnonzero(inside)
    if scene.boxes.shape[0] == 0:
        labels[ins] = 0
        return labels, targets
    iou = iou_matrix_arr(aset.boxes[ins], scene.boxes)
    best = iou.max(axis=1)
    arg = iou.argmax(axis=1)
    labels[ins] = 0
    fg = best >= cfg.fg_iou
    labels[ins[fg]] = scene.classes[arg[fg]]
    if np.any(fg):
        targets[ins[fg]] = encode_arr(scene.boxes[arg[fg]], aset.boxes[ins[fg]])
    return labels, targets


def train_onestage(scenes: list[Scene], sched: TrainSchedule,
                   anchor_cfg: AnchorConfig, roi_cfg: RoiSampleConfig,
                   n_classes: int, head_dim: int = 64,
                   backbone: Backbone | None = None,
                   channels=(16, 32, 64, 64)) -> TrainState:
    """SGD on detector-style sampling over dense windows."""
    if not scenes:
        raise ValueError("empty dataset")
    init = Rng(sched.seed).substream("init")
    if backbone is None:
        backbone = Backbone(init, channels=channels)
    head = OneStageHead(init, backbone.out_dim, anchor_cfg.k, n_classes, head_dim)
    state = TrainState(backbone=backbone, onestage_head=head, anchor_cfg=anchor_cfg)

    rng = Rng(sched.seed)
    feeder = _Feeder(len(scenes), rng.substream("data"))
    sample_rng = rng.substream("sampling")
    inputs = [image_to_input(s.image) for s in scenes]
    assigned = [_assign_windows(state.anchors(s.width, s.height), s, roi_cfg)
                for s in scenes]
    params = state.params

    for it in range(sched.total_iters):
        i = feeder.next()
        labels, targets = assigned[i]
        take_fg, take_bg = sample_fg_bg(
            np.flatnonzero(labels > 0), np.flatnonzero(labels == 0),
            int(roi_cfg.fg_fraction * roi_cfg.rois_per_image), roi_cfg.rois_per_image,
            sample_rng)
        idx = np.concatenate([take_fg, take_bg])
        if idx.size == 0:
            log.warning("skipping image %d: no labelable windows", i)
            continue
        cls, reg = head.forward(state.features(inputs[i]))
        logits = T.take_rows(_flatten_cls(cls, head.k, n_classes), idx)
        loss = T.mul(T.tsum(T.softmax_logloss(logits, labels[idx])), 1.0 / idx.size)
        cv = loss.item()
        rv = 0.0
        if take_fg.size:
            per_class = T.take_rows(_flatten_reg(reg, head.k, n_classes), take_fg)
            pred = T.select_class(per_class, labels[take_fg] - 1)
            tgt = Tensor(targets[take_fg].astype(cls.dtype))
            reg_term = T.mul(T.tsum(T.smooth_l1(pred - tgt)), 1.0 / take_fg.size)
            rv = reg_term.item()
            loss = loss + reg_term
        loss.backward()
        lr = sched.lr_at(it)
        sgd_step(params, SgdConfig(lr, sched.momentum, sched.weight_decay))
        state.loss_log.append({"iteration": state.iteration, "lr": lr,
                               "loss_det_cls": cv, "loss_det_reg": rv})
        state.iteration += 1
    return state


def one_stage_detect(features: Tensor, head: OneStageHead, aset: AnchorSet,
                     image_w: float, image_h: float, score_thresh: float = 0.05,
                     nms_iou: float = 0.3, max_per_image: int = 100) -> list[ScoredBox]:
    """Class-wise decode + NMS straight from the dense windows."""
    cls, reg = head.forward(features)
    probs = T.softmax(_flatten_cls(cls, head.k, head.n_classes).data, axis=1)
    per_class = _flatten_reg(reg, head.k, head.n_classes).data
    return classwise_detections(probs, per_class, aset.boxes, image_w, image_h,
                                score_thresh, nms_iou, max_per_image)
