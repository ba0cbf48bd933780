"""The run values the tests pass to the library, each read from `RunConfig()`,
the one place the package keeps its defaults."""

from __future__ import annotations

from dataclasses import replace

from minircnn.config import RunConfig
from minircnn.training import TrainSchedule

CFG = RunConfig()
ANCHORS = CFG.anchor_config()          # scales 16/32/64, ratios 0.5/1/2, stride 8
CHANNELS = CFG.backbone_channels
HEAD_DIM = CFG.rpn_head_dim
WEIGHTS = CFG.loss_weights()
LABEL_IOUS = (WEIGHTS.pos_iou, WEIGHTS.neg_iou)     # of assign_labels
MINIBATCH = (WEIGHTS.batch, WEIGHTS.max_pos)       # of sample_minibatch
ROI = CFG.roi_sample_config()
TRAIN_PROPOSALS = CFG.proposal_params(train=True)
TEST_PROPOSALS = CFG.proposal_params(train=False)
# score threshold, class-wise NMS IoU and detections per image of `detect`
POST = (CFG.detector_score_thresh, CFG.detector_nms_iou, CFG.detector_max_per_image)
IOU_THRESH = CFG.eval_iou_thresh


def schedule(iters: int, seed: int, det: bool = False) -> TrainSchedule:
    """The config's schedule of `iters` iterations drawn from `seed`, at the
    detector-style rate if `det`."""
    cfg = replace(CFG, seed=seed)
    return cfg.schedule_det(iters) if det else cfg.schedule(iters)
