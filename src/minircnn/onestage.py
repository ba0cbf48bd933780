"""OverFeat-style one-stage baseline: class-specific scores and boxes
regressed directly from dense sliding windows, no proposal stage."""
from __future__ import annotations

from .anchors import AnchorConfig
from .dataio import Scene
from .detector import RoiSampleConfig
from .nn import sgd_step
from .rpn import OneStageHead  # noqa: F401  (re-exported)
from .training import TrainSchedule, TrainState, steps


def train_onestage(scenes: list[Scene], sched: TrainSchedule,
                   anchor_cfg: AnchorConfig, roi_cfg: RoiSampleConfig,
                   n_classes: int, head_dim: int, channels) -> TrainState:
    """SGD on detector-style sampling over dense windows: a fresh backbone
    and one-stage head trained by `training.steps`."""
    state = TrainState.build(sched.seed, anchor_cfg, channels, head_dim, n_classes,
                             ("onestage",))
    for params, cfg in steps(scenes, state, sched, None, roi_cfg, None):
        sgd_step(params, cfg)   # perfbench times a step between returns of this call
    return state
