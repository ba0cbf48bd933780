"""Training loops: RPN alone, the 4-step alternating scheme, and
approximate joint training over a shared backbone."""
from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .anchors import AnchorConfig, AnchorSet, grid_anchors, inside_mask
from .assignment import NoLabeledAnchorsError, assign_labels, sample_minibatch
from .dataio import Scene, image_to_input
from .detector import (DetectorHead, RoiSampleConfig, detector_forward,
                       detector_loss, sample_rois)
from .nn import (Param, SgdConfig, load_checkpoint, restore_params,
                 save_checkpoint, sgd_step)
from .rng import Rng
from .rpn import (Backbone, LossWeights, ProposalParams, RpnHead, propose_arrays,
                  rpn_loss)
from .tensor import Tensor

log = logging.getLogger(__name__)


@dataclass
class TrainSchedule:
    total_iters: int
    lr: float = 0.06
    lr_drop_at: int | None = None   # default: 75% of total_iters
    momentum: float = 0.9
    weight_decay: float = 0.0005
    seed: int = 0

    def __post_init__(self):
        if self.lr_drop_at is None:
            self.lr_drop_at = (3 * self.total_iters) // 4
        if self.lr_drop_at > self.total_iters:
            raise ValueError("lr_drop_at must not exceed total_iters")

    def lr_at(self, iteration: int) -> float:
        return self.lr if iteration < self.lr_drop_at else self.lr * 0.1


@dataclass
class TrainState:
    """The model: one backbone whose features the optional heads share, the
    anchor configuration the RPN and one-stage heads predict against, and
    the training record."""
    backbone: Backbone
    rpn_head: RpnHead | None = None
    det_head: DetectorHead | None = None
    onestage_head: object | None = None
    anchor_cfg: AnchorConfig = field(default_factory=AnchorConfig)
    shared_frozen: bool = False
    iteration: int = 0
    loss_log: list[dict] = field(default_factory=list)
    _anchor_sets: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    @property
    def params(self) -> list[Param]:
        """Backbone parameters, then each present head's, in checkpoint order."""
        heads = (self.rpn_head, self.det_head, self.onestage_head)
        return self.backbone.params + [p for h in heads if h is not None
                                       for p in h.params]

    def load(self, path) -> "TrainState":
        restore_params(self.params, load_checkpoint(path))
        return self

    def anchors(self, image_w: int, image_h: int) -> AnchorSet:
        """Anchors over the backbone's feature grid for this image size, with
        the inside mask set; built once per size and anchor configuration."""
        key = (self.anchor_cfg, image_w, image_h)
        if key not in self._anchor_sets:
            cfg = replace(self.anchor_cfg, stride=self.backbone.stride)
            aset = grid_anchors(cfg, *self.backbone.grid_size(image_w, image_h))
            inside_mask(aset, image_w, image_h)
            self._anchor_sets[key] = aset
        return self._anchor_sets[key]

    def features(self, x: np.ndarray) -> Tensor:
        """Shared conv features of one (3, H, W) network input."""
        return self.backbone.forward(Tensor(x))

    def rpn_forward(self, x: np.ndarray) -> tuple[Tensor, Tensor, Tensor]:
        """Shared features, then the RPN head's raw scores and deltas."""
        feats = self.features(x)
        return (feats, *self.rpn_head.forward(feats))

    def propose(self, cls_data: np.ndarray, reg_data: np.ndarray, image_w: int,
                image_h: int, p: ProposalParams) -> tuple[np.ndarray, np.ndarray]:
        """Proposals (boxes, scores) from raw RPN head outputs for one image."""
        return propose_arrays(cls_data, reg_data, self.anchors(image_w, image_h),
                              image_w, image_h, p)

    def propose_scene(self, scene: Scene,
                      p: ProposalParams) -> tuple[Tensor, np.ndarray, np.ndarray]:
        """One scene through backbone, RPN head and proposal layer:
        (features, boxes, scores)."""
        feats, cls, reg = self.rpn_forward(image_to_input(scene.image))
        return (feats, *self.propose(cls.data, reg.data, scene.width, scene.height, p))


def backbone_checksum(backbone: Backbone) -> str:
    h = hashlib.sha256()
    for p in backbone.params:
        h.update(p.value.data.tobytes())
    return h.hexdigest()


def _log_csv(rows: list[dict], path):
    if not rows:
        Path(path).write_text("")
        return
    keys = []
    for r in rows:
        for k in r:
            if k not in keys:
                keys.append(k)
    lines = [",".join(keys)]
    for r in rows:
        lines.append(",".join(
            "" if k not in r else
            (f"{r[k]:.6g}" if isinstance(r[k], float) else str(r[k]))
            for k in keys))
    Path(path).write_text("\n".join(lines) + "\n")


class _Feeder:
    """Deterministic epoch-shuffled scene order from the 'data' stream."""

    def __init__(self, n: int, rng: Rng):
        self.n = n
        self.rng = rng
        self.order = rng.permutation(n)
        self.pos = 0

    def next(self) -> int:
        if self.pos >= self.n:
            self.order = self.rng.permutation(self.n)
            self.pos = 0
        i = int(self.order[self.pos])
        self.pos += 1
        return i


def _precompute(scenes: list[Scene], state: TrainState, pos_iou: float,
                neg_iou: float):
    """Per-scene network inputs, anchor sets and assigned labels."""
    inputs = [image_to_input(s.image) for s in scenes]
    asets = [state.anchors(s.width, s.height) for s in scenes]
    targets = [assign_labels(a, s.boxes, s.width, s.height, pos_iou, neg_iou)
               for a, s in zip(asets, scenes)]
    return inputs, asets, targets


def train_rpn(scenes: list[Scene], state: TrainState, sched: TrainSchedule,
              anchor_cfg: AnchorConfig, weights: LossWeights,
              batch: int = 256, max_pos: int = 128, pos_iou: float = 0.7,
              neg_iou: float = 0.3) -> TrainState:
    """Image-centric SGD on the RPN loss; one image per minibatch. `state`
    takes `anchor_cfg` as its anchor configuration. Anchors are labelled
    with the pos_iou/neg_iou thresholds of `assign_labels`."""
    if not scenes:
        raise ValueError("empty dataset")
    state.anchor_cfg = anchor_cfg
    rng = Rng(sched.seed)
    feeder = _Feeder(len(scenes), rng.substream("data"))
    sample_rng = rng.substream("sampling")
    inputs, asets, targets = _precompute(scenes, state, pos_iou, neg_iou)
    params = state.rpn_head.params
    if not state.shared_frozen:
        params = state.backbone.params + params
    state.backbone.set_trainable(not state.shared_frozen)

    for it in range(sched.total_iters):
        i = feeder.next()
        try:
            t = sample_minibatch(targets[i], sample_rng, batch=batch, max_pos=max_pos)
        except NoLabeledAnchorsError:
            log.warning("skipping image %d: no labelable anchors", i)
            continue
        _, cls, reg = state.rpn_forward(inputs[i])
        w = LossWeights(weights.lam, weights.n_cls,
                        float(asets[i].feature_w * asets[i].feature_h))
        loss, cv, rv = rpn_loss(cls, reg, t, anchor_cfg.k, w)
        loss.backward()
        lr = sched.lr_at(it)
        sgd_step(params, SgdConfig(lr, sched.momentum, sched.weight_decay))
        state.loss_log.append({"iteration": state.iteration, "lr": lr,
                               "loss_cls": cv, "loss_reg": rv})
        state.iteration += 1
    return state


def proposals_for_scenes(scenes: list[Scene], backbone: Backbone, head: RpnHead,
                         anchor_cfg: AnchorConfig,
                         p: ProposalParams) -> list[np.ndarray]:
    model = TrainState(backbone=backbone, rpn_head=head, anchor_cfg=anchor_cfg)
    return [model.propose_scene(s, p)[1] for s in scenes]


def train_detector(scenes: list[Scene], proposals: list[np.ndarray],
                   state: TrainState, sched: TrainSchedule,
                   roi_cfg: RoiSampleConfig) -> TrainState:
    """SGD on the detector loss over sampled RoIs from fixed proposals."""
    if not scenes:
        raise ValueError("empty dataset")
    rng = Rng(sched.seed)
    feeder = _Feeder(len(scenes), rng.substream("data"))
    sample_rng = rng.substream("sampling")
    inputs = [image_to_input(s.image) for s in scenes]
    params = state.det_head.params
    if not state.shared_frozen:
        params = state.backbone.params + params
    state.backbone.set_trainable(not state.shared_frozen)
    scale = 1.0 / state.backbone.stride

    for it in range(sched.total_iters):
        i = feeder.next()
        batch = sample_rois(proposals[i], scenes[i].boxes, scenes[i].classes,
                            roi_cfg, sample_rng)
        if batch.labels.shape[0] == 0:
            log.warning("skipping image %d: no RoI candidates", i)
            continue
        cls, reg = detector_forward(state.features(inputs[i]), batch.rois,
                                    state.det_head, scale)
        loss, cv, rv = detector_loss(cls, reg, batch)
        loss.backward()
        lr = sched.lr_at(it)
        sgd_step(params, SgdConfig(lr, sched.momentum, sched.weight_decay))
        state.loss_log.append({"iteration": state.iteration, "lr": lr,
                               "loss_det_cls": cv, "loss_det_reg": rv})
        state.iteration += 1
    return state


def alternate_4step(scenes: list[Scene], sched_rpn: TrainSchedule,
                    sched_det: TrainSchedule, anchor_cfg: AnchorConfig,
                    weights: LossWeights, roi_cfg: RoiSampleConfig,
                    n_classes: int, head_dim: int = 64,
                    train_proposals: ProposalParams | None = None,
                    out_dir=None,
                    channels=(16, 32, 64, 64),
                    batch: int = 256, max_pos: int = 128, pos_iou: float = 0.7,
                    neg_iou: float = 0.3) -> TrainState:
    """The pragmatic 4-step alternating scheme; ends with one shared backbone.
    Both RPN steps label anchors with pos_iou/neg_iou and sample `batch`
    anchors per image, at most `max_pos` positive."""
    if train_proposals is None:
        train_proposals = ProposalParams(post_nms_top=2000, pre_nms_top=6000)
    seed = sched_rpn.seed
    init = Rng(seed).substream("init")

    # step 1: train RPN end to end from scratch
    bb1 = Backbone(init, channels=channels)
    rpn1 = RpnHead(init, bb1.out_dim, anchor_cfg.k, head_dim)
    s1 = TrainState(backbone=bb1, rpn_head=rpn1)
    train_rpn(scenes, s1, sched_rpn, anchor_cfg, weights, batch, max_pos,
              pos_iou, neg_iou)
    props = proposals_for_scenes(scenes, bb1, rpn1, anchor_cfg, train_proposals)

    # step 2: separate detector network on step-1 proposals (fresh backbone,
    # random init standing in for the paper's ImageNet initialization)
    bb2 = Backbone(init, channels=channels)
    det = DetectorHead(init, bb2.out_dim, n_classes)
    s2 = TrainState(backbone=bb2, det_head=det)
    train_detector(scenes, props, s2, sched_det, roi_cfg)

    # step 3: re-init the RPN head on step-2's backbone, conv layers frozen
    rpn3 = RpnHead(init, bb2.out_dim, anchor_cfg.k, head_dim)
    s3 = TrainState(backbone=bb2, rpn_head=rpn3, shared_frozen=True)
    pre = backbone_checksum(bb2)
    train_rpn(scenes, s3, sched_rpn, anchor_cfg, weights, batch, max_pos,
              pos_iou, neg_iou)
    assert backbone_checksum(bb2) == pre, "frozen backbone changed in step 3"

    # step 4: fine-tune the detector head, shared conv layers still frozen
    props = proposals_for_scenes(scenes, bb2, rpn3, anchor_cfg, train_proposals)
    s4 = TrainState(backbone=bb2, det_head=det, shared_frozen=True)
    train_detector(scenes, props, s4, sched_det, roi_cfg)
    assert backbone_checksum(bb2) == pre, "frozen backbone changed in step 4"

    final = TrainState(backbone=bb2, rpn_head=rpn3, det_head=det,
                       anchor_cfg=anchor_cfg,
                       loss_log=s1.loss_log + s2.loss_log + s3.loss_log + s4.loss_log)
    if out_dir is not None:
        out_dir = Path(out_dir)
        for name, st in (("step1", s1), ("step2", s2), ("step3", s3), ("step4", s4)):
            save_checkpoint(st.params, out_dir / f"{name}.frpn")
    return final


def joint_train(scenes: list[Scene], sched: TrainSchedule, anchor_cfg: AnchorConfig,
                weights: LossWeights, roi_cfg: RoiSampleConfig, n_classes: int,
                head_dim: int = 64,
                train_proposals: ProposalParams | None = None,
                channels=(16, 32, 64, 64),
                batch: int = 256, max_pos: int = 128, pos_iou: float = 0.7,
                neg_iou: float = 0.3) -> TrainState:
    """Approximate joint training: both losses share one backbone; proposals
    are generated from detached head outputs, so no gradient flows through
    box coordinates. The RPN labels anchors with pos_iou/neg_iou and samples
    `batch` anchors per image, at most `max_pos` positive."""
    if not scenes:
        raise ValueError("empty dataset")
    if train_proposals is None:
        train_proposals = ProposalParams(post_nms_top=2000, pre_nms_top=6000)
    init = Rng(sched.seed).substream("init")
    backbone = Backbone(init, channels=channels)
    rpn_head = RpnHead(init, backbone.out_dim, anchor_cfg.k, head_dim)
    det_head = DetectorHead(init, backbone.out_dim, n_classes)
    state = TrainState(backbone=backbone, rpn_head=rpn_head, det_head=det_head,
                       anchor_cfg=anchor_cfg)

    rng = Rng(sched.seed)
    feeder = _Feeder(len(scenes), rng.substream("data"))
    sample_rng = rng.substream("sampling")
    inputs, asets, targets = _precompute(scenes, state, pos_iou, neg_iou)
    params = state.params
    scale = 1.0 / backbone.stride

    for it in range(sched.total_iters):
        i = feeder.next()
        s = scenes[i]
        try:
            t = sample_minibatch(targets[i], sample_rng, batch=batch, max_pos=max_pos)
        except NoLabeledAnchorsError:
            log.warning("skipping image %d: no labelable anchors", i)
            continue
        feats, cls, reg = state.rpn_forward(inputs[i])
        w = LossWeights(weights.lam, weights.n_cls,
                        float(asets[i].feature_w * asets[i].feature_h))
        rloss, rcv, rrv = rpn_loss(cls, reg, t, anchor_cfg.k, w)
        # detached proposal coordinates: raw arrays only, no tape
        boxes, _ = state.propose(cls.data, reg.data, s.width, s.height,
                                 train_proposals)
        roi_batch = sample_rois(boxes, s.boxes, s.classes, roi_cfg, sample_rng)
        lr = sched.lr_at(it)
        row = {"iteration": state.iteration, "lr": lr, "loss_cls": rcv,
               "loss_reg": rrv, "loss_det_cls": 0.0, "loss_det_reg": 0.0}
        if roi_batch.labels.shape[0]:
            dcls, dreg = detector_forward(feats, roi_batch.rois, det_head, scale)
            dloss, dcv, drv = detector_loss(dcls, dreg, roi_batch)
            total = rloss + dloss
            row["loss_det_cls"], row["loss_det_reg"] = dcv, drv
        else:
            total = rloss
        total.backward()
        sgd_step(params, SgdConfig(lr, sched.momentum, sched.weight_decay))
        state.loss_log.append(row)
        state.iteration += 1
    return state


def save_state(state: TrainState, path):
    save_checkpoint(state.params, path)


def write_loss_log(state: TrainState, path):
    _log_csv(state.loss_log, path)
