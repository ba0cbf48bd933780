"""OverFeat-style one-stage baseline: class-specific scores and boxes
regressed directly from dense sliding windows, no proposal stage."""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .anchors import AnchorConfig, AnchorSet
from .assignment import sample_fg_bg
from .boxes import encode_arr
from .dataio import Scene, image_to_input
from .detector import RoiSampleConfig, check_classes, label_boxes
from .nn import SgdConfig, multitask_loss, sgd_step
from .rng import Rng
from .rpn import OneStageHead, anchor_rows  # noqa: F401  (OneStageHead re-exported)
from .training import TrainSchedule, TrainState, _Feeder, require_steps

import logging

log = logging.getLogger(__name__)


def _assign_windows(aset: AnchorSet, scene: Scene, cfg: RoiSampleConfig):
    """Detector-style fg/bg labels of the windows inside the image, -1 for
    the rest, and the regression targets of the foreground windows."""
    labels = np.full(len(aset), -1, dtype=np.int64)   # -1 = not a candidate
    targets = np.zeros((len(aset), 4))
    ins = np.flatnonzero(aset.inside)
    labels[ins], arg = label_boxes(aset.boxes[ins], scene.boxes, scene.classes,
                                   cfg.fg_iou)
    fg = labels[ins] > 0
    if np.any(fg):
        targets[ins[fg]] = encode_arr(scene.boxes[arg[fg]], aset.boxes[ins[fg]])
    return labels, targets


def train_onestage(scenes: list[Scene], sched: TrainSchedule,
                   anchor_cfg: AnchorConfig, roi_cfg: RoiSampleConfig,
                   n_classes: int, head_dim: int, channels) -> TrainState:
    """SGD on detector-style sampling over dense windows."""
    if not scenes:
        raise ValueError("empty dataset")
    check_classes(scenes, n_classes)
    state = TrainState.build(sched.seed, anchor_cfg, channels, head_dim, n_classes,
                             ("onestage",))
    head = state.onestage_head

    rng = Rng(sched.seed)
    feeder = _Feeder(len(scenes), rng.substream("data"))
    sample_rng = rng.substream("sampling")
    inputs = [image_to_input(s.image) for s in scenes]
    assigned = [_assign_windows(state.anchors(s.width, s.height), s, roi_cfg)
                for s in scenes]
    params = state.params
    skip = None

    for it in range(sched.total_iters):
        i = feeder.next()
        labels, targets = assigned[i]
        take_fg, take_bg = sample_fg_bg(
            np.flatnonzero(labels > 0), np.flatnonzero(labels == 0),
            int(roi_cfg.fg_fraction * roi_cfg.rois_per_image), roi_cfg.rois_per_image,
            sample_rng)
        idx = np.concatenate([take_fg, take_bg])
        if idx.size == 0:
            skip = "no labelable windows"
            log.warning("skipping image %d: %s", i, skip)
            continue
        cls, reg = head.forward(state.features(inputs[i]))
        logits = T.take_rows(anchor_rows(cls, head.k, n_classes + 1), idx)
        pred = T.select_class(
            T.take_rows(anchor_rows(reg, head.k, n_classes, 4), take_fg),
            labels[take_fg] - 1) if take_fg.size else None
        loss, cv, rv = multitask_loss(logits, labels[idx], 1.0 / idx.size, pred,
                                      targets[take_fg], 1.0 / max(take_fg.size, 1))
        loss.backward()
        lr = sched.lr_at(it)
        sgd_step(params, SgdConfig(lr, sched.momentum, sched.weight_decay))
        state.loss_log.append({"iteration": state.iteration, "lr": lr,
                               "loss_det_cls": cv, "loss_det_reg": rv})
        state.iteration += 1
    return require_steps(state, 0, sched, skip)

