"""One SGD loop over the heads a model holds; the 4-step alternating
scheme and approximate joint training over a shared backbone are built on it."""
from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .anchors import AnchorConfig, grid_anchors, inside_mask
from .assignment import assign_labels, sample_minibatch
from .dataio import Scene, image_to_input, write_lines
from .detector import (DetectorHead, RoiSampleConfig, check_classes,
                       classwise_detections, detect, detector_forward,
                       detector_loss, label_windows, sample_fast_rcnn, sample_rois)
from .nn import (Param, SgdConfig, load_checkpoint, multitask_loss, restore_params,
                 save_checkpoint, sgd_step)
from .rng import Rng
from .rpn import (Backbone, ConvHead, LossWeights, OneStageHead, ProposalParams,
                  RpnHead, propose_arrays, rpn_loss)
from .tensor import Tensor

log = logging.getLogger(__name__)

# the heads a model may hold, in checkpoint order; each owns the entries `<head>.*`
HEADS = ("rpn", "det", "onestage")
# the config keys that shape a checkpoint entry, by the first part its name holds
SHAPE_KEYS = {"backbone.": "backbone.channels", ".trunk.": "rpn.head_dim",
              "rpn.": "anchors.scales and anchors.ratios", "det.": "detector.n_classes",
              "onestage.": "anchors.scales, anchors.ratios and detector.n_classes"}


@dataclass
class TrainSchedule:
    total_iters: int
    lr: float
    lr_drop_at: int
    momentum: float
    weight_decay: float
    seed: int

    def lr_at(self, iteration: int) -> float:
        return self.lr if iteration < self.lr_drop_at else self.lr * 0.1


# the init stream of a model whose every parameter is restored next: zeros
# in place of normals, so nothing is drawn
_RESTORED = SimpleNamespace(normal=np.zeros)


@dataclass
class TrainState:
    """The model: one backbone whose features the optional heads share, the
    anchor configuration the RPN and one-stage heads predict against, and
    the training record."""
    backbone: Backbone
    anchor_cfg: AnchorConfig
    rpn_head: RpnHead | None = None
    det_head: DetectorHead | None = None
    onestage_head: OneStageHead | None = None
    loss_log: list[dict] = field(default_factory=list)
    _anchors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, seed: int, anchor_cfg: AnchorConfig, channels, head_dim: int,
              n_classes: int, heads) -> "TrainState":
        """A backbone and the named `heads`, drawn from the seed's "init"
        stream in the order named."""
        return cls._assemble(Rng(seed).substream("init"), anchor_cfg, channels,
                             head_dim, n_classes, heads)

    @classmethod
    def _assemble(cls, init, anchor_cfg: AnchorConfig, channels, head_dim: int,
                  n_classes: int, heads) -> "TrainState":
        """The backbone, then the named `heads` in the order named, each
        drawing its weights from `init`'s normals."""
        bb = Backbone(init, channels)
        make = {"rpn": lambda: RpnHead(init, bb.out_dim, anchor_cfg.k, head_dim),
                "det": lambda: DetectorHead(init, bb.out_dim, n_classes),
                "onestage": lambda: OneStageHead(init, bb.out_dim, anchor_cfg.k,
                                                 n_classes, head_dim)}
        return cls(bb, anchor_cfg, **{f"{h}_head": make[h]() for h in heads})

    @classmethod
    def open(cls, path, anchor_cfg: AnchorConfig, channels, head_dim: int,
             n_classes: int) -> "TrainState":
        """The backbone and each head that owns an entry of checkpoint `path`,
        restored for inference: no parameter needs a gradient, so a forward
        pass builds no tape. Any entry left over, missing or misshapen is an
        error."""
        saved = load_checkpoint(path)
        state = cls._assemble(_RESTORED, anchor_cfg, channels, head_dim, n_classes,
                              {name.split(".")[0] for name in saved} & set(HEADS))
        for p in state.params:      # backbone first: its shape fixes the heads'
            if p.name not in saved:
                raise ValueError(f"{path}: checkpoint missing parameter '{p.name}'")
            got, want = saved[p.name].shape, p.value.data.shape
            if got != want:
                key = next(k for part, k in SHAPE_KEYS.items() if part in p.name)
                raise ValueError(f"{path}: shape mismatch for '{p.name}': {got} in the "
                                 f"file, {want} from this run's {key}")
        restore_params(state.params, saved)
        stray = saved.keys() - {p.name for p in state.params}
        if stray:
            raise ValueError(f"{path}: entry '{min(stray)}' belongs to no head")
        return state

    def require(self, *heads: str) -> "TrainState":
        """This state, or an error naming the first of `heads` it lacks."""
        held = [h for h in HEADS if getattr(self, f"{h}_head") is not None]
        missing = [h for h in heads if h not in held]
        if missing:
            raise ValueError(f"the model has no '{missing[0]}' head; it holds "
                             f"{', '.join(['backbone', *held])}")
        return self

    @property
    def params(self) -> list[Param]:
        """Backbone parameters, then each present head's, in checkpoint order."""
        heads = (getattr(self, f"{h}_head") for h in HEADS)
        return self.backbone.params + [p for h in heads if h is not None
                                       for p in h.params]

    def anchors(self, image_w: int, image_h: int) -> tuple[np.ndarray, np.ndarray]:
        """(boxes (N, 4), inside mask (N,)) of the anchors over the backbone's
        feature grid for this image size; built once per size."""
        if (image_w, image_h) not in self._anchors:
            cfg = replace(self.anchor_cfg, stride=self.backbone.stride)
            boxes = grid_anchors(cfg, *self.backbone.grid_size(image_w, image_h))
            self._anchors[image_w, image_h] = boxes, inside_mask(boxes, image_w, image_h)
        return self._anchors[image_w, image_h]

    def forward(self, scene: Scene, head: ConvHead | None = None):
        """One scene's image through the shared backbone, then `head`'s rows
        of raw scores and deltas on those features: (features, cls, reg), with
        cls and reg None when no head is named."""
        feats = self.backbone.forward(Tensor(image_to_input(scene.image)))
        return (feats, *(head.forward(feats) if head is not None else (None, None)))

    def propose(self, cls_data: np.ndarray, reg_data: np.ndarray, image_w: int,
                image_h: int, p: ProposalParams) -> tuple[np.ndarray, np.ndarray]:
        """Proposals (boxes, scores) from the RPN head's rows for one image."""
        return propose_arrays(cls_data, reg_data, self.anchors(image_w, image_h)[0],
                              image_w, image_h, p)

    def propose_scene(self, scene: Scene,
                      p: ProposalParams) -> tuple[np.ndarray, np.ndarray]:
        """One scene through backbone, RPN head and proposal layer: (boxes, scores)."""
        _, cls, reg = self.forward(scene, self.require("rpn").rpn_head)
        return self.propose(cls.data, reg.data, scene.width, scene.height, p)

    def stages(self, p: ProposalParams, score_thresh: float, nms_iou: float,
               max_per_image: int):
        """The detector the model holds as the stages `evaluation.bench` times:
        conv(scene) -> c, proposal(c) -> boxes, region(c, boxes) -> detections.
        Two-stage: the RPN's `p` proposals, then Fast R-CNN on them; one-stage:
        the head's dense windows, then the class-wise post-process of its output."""
        one = self.det_head is None and self.onestage_head is not None
        head = self.onestage_head if one else self.require("det", "rpn").rpn_head

        def conv(scene: Scene):
            return (scene, *self.forward(scene, head))

        def proposal(c) -> np.ndarray:
            scene, _, cls, reg = c
            if one:
                return self.anchors(scene.width, scene.height)[0]
            return self.propose(cls.data, reg.data, scene.width, scene.height, p)[0]

        def region(c, boxes: np.ndarray) -> list[tuple]:
            scene, feats, cls, reg = c
            post = (scene.width, scene.height, score_thresh, nms_iou, max_per_image)
            if not one:
                return detect(feats, boxes, self.det_head, 1 / self.backbone.stride, *post)
            return classwise_detections(cls.data, reg.data, boxes, *post)

        return conv, proposal, region

    def detect(self, scene: Scene, p: ProposalParams, score_thresh: float,
               nms_iou: float, max_per_image: int) -> list[tuple]:
        """One scene's detections by the detector the model holds (`stages`)."""
        conv, proposal, region = self.stages(p, score_thresh, nms_iou, max_per_image)
        c = conv(scene)
        return region(c, proposal(c))


def backbone_checksum(backbone: Backbone) -> str:
    h = hashlib.sha256()
    for p in backbone.params:
        h.update(p.value.data.tobytes())
    return h.hexdigest()


def scene_order(n: int, rng: Rng):
    """Scene indices without end: each epoch a fresh shuffle of range(n) from `rng`."""
    while True:
        yield from rng.permutation(n).tolist()


def steps(scenes: list[Scene], state: TrainState, sched: TrainSchedule,
          weights: LossWeights | None, roi_cfg: RoiSampleConfig,
          train_proposals: ProposalParams | None,
          proposals: list[np.ndarray] | None = None):
    """Image-centric SGD, one image per minibatch, on the summed losses of the
    heads `state` holds, training each parameter whose `requires_grad` is on.
    Yields (params, SgdConfig) after each backward pass for the caller to apply.

    The RPN loss runs on anchors labelled and sampled as `weights` says. The
    detector loss runs on RoIs sampled from the fixed per-scene `proposals`,
    or, when none are given, from the RPN's own detached `train_proposals`
    (approximate joint training: no gradient flows through box coordinates).
    A one-stage head trains alone, on dense windows sampled at `roi_cfg`'s
    sizes. A step whose anchor or window sample is empty, or a detector-only
    step with no RoI candidates, is skipped; a run that skips every step raises.
    """
    if not scenes:
        raise ValueError("empty dataset")
    rpn, det, one = state.rpn_head, state.det_head, state.onestage_head
    two_stage = rpn is not None or (det is not None and proposals is not None)
    if two_stage == (one is not None) or (one is not None and det is not None):
        raise ValueError("training needs an RPN head, a detector head and proposals, "
                         "or a one-stage head alone")
    if det is not None or one is not None:
        check_classes(scenes, (det or one).n_classes)
    rng = Rng(sched.seed)
    order = scene_order(len(scenes), rng.substream("data"))
    sample_rng = rng.substream("sampling")
    if rpn is not None:
        labelled = [assign_labels(*state.anchors(s.width, s.height), s.boxes,
                                  weights.pos_iou, weights.neg_iou) for s in scenes]
    if one is not None:
        windows = [label_windows(*state.anchors(s.width, s.height), s.boxes, s.classes,
                                 roi_cfg.fg_iou) for s in scenes]
    params = [p for p in state.params if p.value.requires_grad]
    start, skip = len(state.loss_log), None

    for it in range(sched.total_iters):
        i = next(order)
        s = scenes[i]
        row = {"iteration": len(state.loss_log), "lr": sched.lr_at(it)}
        feats = loss = None
        if rpn is not None:
            labels, targets = labelled[i]
            rows = sample_minibatch(labels, sample_rng, weights.batch, weights.max_pos)
            if rows.size == 0:
                skip = "no labelable anchors" if np.all(labels < 0) else \
                    f"no anchor sampled at rpn.max_pos={weights.max_pos}"
                log.warning("skipping image %d: %s", i, skip)
                continue
            feats, cls, reg = state.forward(s, rpn)
            loss, row["loss_cls"], row["loss_reg"] = rpn_loss(
                cls, reg, labels, targets, rows, state.anchor_cfg.k, weights)
        if det is not None:
            # proposal coordinates are raw arrays, off the tape
            boxes = proposals[i] if proposals is not None else \
                state.propose(cls.data, reg.data, s.width, s.height, train_proposals)[0]
            roi_batch = sample_rois(boxes, s.boxes, s.classes, roi_cfg, sample_rng)
            row["loss_det_cls"] = row["loss_det_reg"] = 0.0
            if roi_batch.labels.shape[0]:
                if feats is None:
                    feats = state.forward(s)[0]
                dcls, dreg = detector_forward(feats, roi_batch.rois, det,
                                              1.0 / state.backbone.stride)
                dloss, row["loss_det_cls"], row["loss_det_reg"] = detector_loss(
                    dcls, dreg, roi_batch)
                loss = dloss if loss is None else loss + dloss
            elif loss is None:
                skip = "no RoI candidates"
                log.warning("skipping image %d: %s", i, skip)
                continue
        if one is not None:
            labels, targets = windows[i]
            rows, fg, fg_targets = sample_fast_rcnn(labels, targets, roi_cfg, sample_rng)
            if rows.size == 0:
                skip = "no labelable windows"
                log.warning("skipping image %d: %s", i, skip)
                continue
            _, cls, reg = state.forward(s, one)
            loss, row["loss_det_cls"], row["loss_det_reg"] = multitask_loss(
                cls, reg, labels, rows, fg, fg_targets, 1.0 / rows.size,
                1.0 / max(fg.size, 1))
        loss.backward()
        yield params, SgdConfig(row["lr"], sched.momentum, sched.weight_decay)
        state.loss_log.append(row)
    if sched.total_iters and len(state.loss_log) == start:
        raise RuntimeError(f"no training step taken: all {sched.total_iters} "
                           f"iterations skipped their image ({skip})")


def train(scenes: list[Scene], state: TrainState, sched: TrainSchedule,
          weights: LossWeights, roi_cfg: RoiSampleConfig,
          train_proposals: ProposalParams,
          proposals: list[np.ndarray] | None = None) -> TrainState:
    """`state` trained by `steps`, each step applied here by `sgd_step`."""
    for params, cfg in steps(scenes, state, sched, weights, roi_cfg, train_proposals,
                             proposals):
        sgd_step(params, cfg)   # perfbench times a step between returns of this call
    return state


def alternate_4step(scenes: list[Scene], sched_rpn: TrainSchedule,
                    sched_det: TrainSchedule, anchor_cfg: AnchorConfig,
                    weights: LossWeights, roi_cfg: RoiSampleConfig,
                    n_classes: int, head_dim: int, train_proposals: ProposalParams,
                    channels, out_dir=None) -> TrainState:
    """The pragmatic 4-step alternating scheme. Steps 2-4 train head subsets
    of the returned model, whose RPN and detector heads share one backbone."""
    check_classes(scenes, n_classes)
    init = Rng(sched_rpn.seed).substream("init")
    dims = (anchor_cfg, channels, head_dim, n_classes)
    objectives = (weights, roi_cfg, train_proposals)
    # one stream draws both models: bb1, rpn1, then bb2, det, rpn3
    s1 = TrainState._assemble(init, *dims, ("rpn",))
    final = TrainState._assemble(init, *dims, ("det", "rpn"))

    def step(name: str, state: TrainState, sched: TrainSchedule, **kw) -> TrainState:
        """Train `state`, then checkpoint it as it stands at the step's end
        (a later step trains some of the same parameters)."""
        train(scenes, state, sched, *objectives, **kw)
        if out_dir is not None:
            save_checkpoint(state.params, Path(out_dir) / f"{name}.frpn")
        return state

    # step 1: train RPN end to end from scratch
    step("step1", s1, sched_rpn)

    # step 2: separate detector network on step-1 proposals (fresh backbone,
    # random init standing in for the paper's ImageNet initialization)
    s2 = step("step2", replace(final, rpn_head=None, loss_log=[]), sched_det,
              proposals=[s1.propose_scene(s, train_proposals)[0] for s in scenes])

    # step 3: train the RPN head on step-2's backbone, conv layers frozen
    final.backbone.set_trainable(False)
    pre = backbone_checksum(final.backbone)
    s3 = step("step3", replace(final, det_head=None, loss_log=[]), sched_rpn)
    assert backbone_checksum(final.backbone) == pre, "frozen backbone changed in step 3"

    # step 4: fine-tune the detector head, shared conv layers still frozen
    props = [final.propose_scene(s, train_proposals)[0] for s in scenes]
    s4 = step("step4", replace(final, rpn_head=None, loss_log=[]), sched_det,
              proposals=props)
    assert backbone_checksum(final.backbone) == pre, "frozen backbone changed in step 4"

    final.loss_log = s1.loss_log + s2.loss_log + s3.loss_log + s4.loss_log
    return final


def joint_train(scenes: list[Scene], sched: TrainSchedule, anchor_cfg: AnchorConfig,
                weights: LossWeights, roi_cfg: RoiSampleConfig, n_classes: int,
                head_dim: int, train_proposals: ProposalParams,
                channels) -> TrainState:
    """Approximate joint training: a fresh backbone, RPN head and detector
    head, trained together by `train` on the RPN's own proposals."""
    state = TrainState.build(sched.seed, anchor_cfg, channels, head_dim, n_classes,
                             ("rpn", "det"))
    return train(scenes, state, sched, weights, roi_cfg, train_proposals)


def save_state(state: TrainState, path):
    save_checkpoint(state.params, path)


def write_loss_log(state: TrainState, path):
    rows = state.loss_log
    keys = list(dict.fromkeys(k for r in rows for k in r))   # first-seen order
    table = [keys] + [["" if k not in r else
                       (f"{r[k]:.6g}" if isinstance(r[k], float) else str(r[k]))
                       for k in keys] for r in rows]
    write_lines(path, (",".join(c) for c in table if c))   # no rows: an empty file
