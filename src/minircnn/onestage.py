"""OverFeat-style one-stage baseline: class-specific scores and boxes
regressed directly from dense sliding windows, no proposal stage."""
from __future__ import annotations

from . import tensor as T
from .anchors import AnchorConfig
from .assignment import sample_fg_bg
from .dataio import Scene
from .detector import RoiSampleConfig, check_classes, label_windows
from .nn import SgdConfig, multitask_loss, sgd_step
from .rng import Rng
from .rpn import OneStageHead, anchor_rows  # noqa: F401  (OneStageHead re-exported)
from .training import TrainSchedule, TrainState, require_steps, scene_order

import logging

log = logging.getLogger(__name__)


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
    order = scene_order(len(scenes), rng.substream("data"))
    sample_rng = rng.substream("sampling")
    labelled = [label_windows(state.anchors(s.width, s.height), s.boxes, s.classes,
                              roi_cfg.fg_iou) for s in scenes]
    params = state.params
    skip = None

    for it in range(sched.total_iters):
        i = next(order)
        labels, targets = labelled[i]
        idx = sample_fg_bg(labels, int(roi_cfg.fg_fraction * roi_cfg.rois_per_image),
                           roi_cfg.rois_per_image, sample_rng)
        if idx.size == 0:
            skip = "no labelable windows"
            log.warning("skipping image %d: %s", i, skip)
            continue
        fg = idx[labels[idx] > 0]
        _, cls, reg = state.forward(scenes[i], head)
        logits = T.take_rows(anchor_rows(cls, head.k, n_classes + 1), idx)
        pred = T.select_class(T.take_rows(anchor_rows(reg, head.k, n_classes, 4), fg),
                              labels[fg] - 1) if fg.size else None
        loss, cv, rv = multitask_loss(logits, labels[idx], 1.0 / idx.size, pred,
                                      targets[fg], 1.0 / max(fg.size, 1))
        loss.backward()
        lr = sched.lr_at(it)
        sgd_step(params, SgdConfig(lr, sched.momentum, sched.weight_decay))
        state.loss_log.append({"iteration": state.iteration, "lr": lr,
                               "loss_det_cls": cv, "loss_det_reg": rv})
        state.iteration += 1
    return require_steps(state, 0, sched, skip)

