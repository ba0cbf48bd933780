"""The detect path as `minircnn detect` and `minircnn propose` run it.

Every call goes through a module attribute (`rpn.propose_arrays`, not a
name imported at load time), so the tracer's wrappers see it. When the
package grows one model object, this is the file that changes.
"""
from __future__ import annotations

from dataclasses import dataclass

from minircnn import anchors, dataio, detector, nn, rpn
from minircnn.rng import Rng
from minircnn.tensor import Tensor


@dataclass
class Model:
    backbone: rpn.Backbone
    rpn_head: rpn.RpnHead
    det_head: detector.DetectorHead | None


def restore(cfg, ckpt_path, want_det: bool = True) -> Model:
    """Build the heads in the CLI's order and load a checkpoint into them."""
    init = Rng(cfg.seed).substream("init")
    bb = rpn.Backbone(init, channels=cfg.backbone_channels)
    head = rpn.RpnHead(init, bb.out_dim, cfg.anchor_config().k, cfg.rpn_head_dim)
    det = detector.DetectorHead(init, bb.out_dim, cfg.detector_n_classes) \
        if want_det else None
    params = bb.params + head.params + (det.params if det else [])
    nn.restore_params(params, nn.load_checkpoint(ckpt_path))
    return Model(bb, head, det)


def propose(model: Model, cfg, scene, p: rpn.ProposalParams):
    """Features and (boxes, scores) proposals for one scene."""
    aset = anchors.grid_anchors(cfg.anchor_config(),
                                scene.width // model.backbone.stride,
                                scene.height // model.backbone.stride)
    feats = model.backbone.forward(Tensor(dataio.image_to_input(scene.image)))
    cls, reg = model.rpn_head.forward(feats)
    boxes, scores = rpn.propose_arrays(cls.data, reg.data, aset, scene.width,
                                       scene.height, p)
    return feats, boxes, scores


def detect_image(model: Model, cfg, scene):
    """One image through the two-stage detector; returns (proposals, detections)."""
    feats, boxes, _ = propose(model, cfg, scene, cfg.proposal_params(train=False))
    dets = detector.detect(feats, boxes, model.det_head,
                           1.0 / model.backbone.stride, scene.width, scene.height,
                           cfg.detector_score_thresh, cfg.detector_nms_iou,
                           cfg.detector_max_per_image)
    return boxes, dets


def detection_rows(scene, dets) -> list[str]:
    """Rows of `detections.csv` for one scene, formatted as the CLI writes them."""
    return [f"{scene.path},{d.class_id},{d.score:.9g},{d.box.x1:.9g},"
            f"{d.box.y1:.9g},{d.box.x2:.9g},{d.box.y2:.9g}" for d in dets]


def proposal_rows(scene, boxes, scores) -> list[str]:
    """Rows of `proposals.csv` for one scene, formatted as the CLI writes them."""
    return [f"{scene.path},{r},{sc:.9g},{b[0]:.9g},{b[1]:.9g},{b[2]:.9g},{b[3]:.9g}"
            for r, (b, sc) in enumerate(zip(boxes, scores))]
