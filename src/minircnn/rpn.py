"""Shared backbone trunk, the sliding-window heads (RPN and one-stage), the
RPN's two-term training loss, and proposal generation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .anchors import AnchorSet
from .boxes import clip_arr, decode_arr, nms_arr
from .nn import Param, gaussian_init, multitask_loss
from .rng import Rng
from .tensor import Tensor

INIT_STDDEV = 0.01


@dataclass
class LossWeights:
    """The RPN objective: lam weighs the box term; `batch` anchors are sampled
    per image (at most `max_pos` positive) from labels set by the IoU
    thresholds pos_iou/neg_iou, and the log-loss is divided by `batch`."""
    lam: float
    batch: int
    max_pos: int
    pos_iou: float
    neg_iou: float


@dataclass
class ProposalParams:
    nms_iou: float
    pre_nms_top: int
    post_nms_top: int
    min_size: float


class ConvLayer:
    def __init__(self, name: str, in_ch: int, out_ch: int, ksize: int, pad: int,
                 rng: Rng, stddev: float | None = INIT_STDDEV):
        self.pad = pad
        if stddev is None:  # He scaling for from-scratch trunk layers
            stddev = float(np.sqrt(2.0 / (in_ch * ksize * ksize)))
        self.w = Param(f"{name}.w",
                       gaussian_init((out_ch, in_ch, ksize, ksize), stddev, rng))
        self.b = Param(f"{name}.b", np.zeros(out_ch, dtype=np.float32))

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.w.value, self.b.value, pad=self.pad)

    @property
    def params(self) -> list[Param]:
        return [self.w, self.b]


class Backbone:
    """Toy fully convolutional trunk, total stride 8.

    conv3x3x16/ReLU/pool2 -> conv3x3x32/ReLU/pool2 -> conv3x3x64/ReLU/pool2
    -> conv3x3x64/ReLU, each ReLU/pool2 one `maxpool2x2`.
    """

    def __init__(self, rng: Rng, channels):
        chans = (3, *channels)
        self.out_dim = chans[-1]
        self.stride = 8
        self.convs = [ConvLayer(f"backbone.conv{i + 1}", chans[i], chans[i + 1], 3, 1,
                                rng, stddev=None)
                      for i in range(4)]

    def grid_size(self, image_w: int, image_h: int) -> tuple[int, int]:
        """Feature map (width, height) for an image; each padded pool rounds up."""
        return -(-image_w // self.stride), -(-image_h // self.stride)

    def forward(self, x: Tensor) -> Tensor:
        for conv in self.convs[:3]:
            x = T.maxpool2x2(conv(x))
        return T.relu(self.convs[3](x))

    @property
    def params(self) -> list[Param]:
        return [p for c in self.convs for p in c.params]

    def set_trainable(self, trainable: bool):
        for p in self.params:
            p.value.requires_grad = trainable


class ConvHead:
    """Sliding-window head: 3x3 trunk conv + ReLU, then sibling 1x1 convs with
    (C+1)k class scores (class 0 = background) and 4Ck deltas for C classes
    and k anchors per window, anchor-major as `anchor_rows` reads them."""

    def __init__(self, name: str, rng: Rng, backbone_dim: int, k: int,
                 n_classes: int, head_dim: int):
        self.k = k
        self.n_classes = n_classes
        self.trunk = ConvLayer(f"{name}.trunk", backbone_dim, head_dim, 3, 1, rng)
        self.cls = ConvLayer(f"{name}.cls", head_dim, (n_classes + 1) * k, 1, 0, rng)
        self.reg = ConvLayer(f"{name}.reg", head_dim, 4 * n_classes * k, 1, 0, rng)

    def forward(self, features: Tensor) -> tuple[Tensor, Tensor]:
        t = T.relu(self.trunk(features))
        return self.cls(t), self.reg(t)

    @property
    def params(self) -> list[Param]:
        return self.trunk.params + self.cls.params + self.reg.params


class RpnHead(ConvHead):
    """The class-agnostic head (C = 1); cls channel 2a+1 is anchor a's object score."""

    def __init__(self, rng: Rng, backbone_dim: int, k: int, head_dim: int):
        super().__init__("rpn", rng, backbone_dim, k, 1, head_dim)


class OneStageHead(ConvHead):
    """The sliding-window head with C object classes: per-class boxes per window."""

    def __init__(self, rng: Rng, backbone_dim: int, k: int, n_classes: int,
                 head_dim: int):
        super().__init__("onestage", rng, backbone_dim, k, n_classes, head_dim)


def anchor_rows(head_map, k: int, *per):
    """(k*prod(per), H, W) head map -> (H*W*k, *per) rows in anchor order
    (grid row-major, anchor fastest), for a Tensor or a raw array alike.

    Channel layout is anchor-major: anchor a owns channels
    [a*prod(per), (a+1)*prod(per)), read as a `per`-shaped block.
    """
    _, h, w = head_map.shape
    n = len(per)
    return head_map.reshape(k, *per, h, w).transpose(n + 1, n + 2, *range(n + 1)) \
                   .reshape(h * w * k, *per)


def rpn_loss(cls_scores: Tensor, reg_deltas: Tensor, labels: np.ndarray,
             targets: np.ndarray, rows: np.ndarray, k: int,
             weights: LossWeights) -> tuple[Tensor, float, float]:
    """Two-term objectness + box loss on `assign_labels`' labels and targets.

    cls: log-loss summed over the sampled anchor `rows`, divided by `batch`.
    reg: smooth-L1 over ALL positive-labeled anchors, summed over the four
    delta components, scaled by lam / N_reg, N_reg = H*W anchor locations.
    Returns (loss, cls_term_value, reg_term_value).
    """
    if rows.size == 0:
        raise ValueError("rpn_loss requires a sampled minibatch")
    logits = anchor_rows(cls_scores, k, 2)
    if logits.shape[0] != labels.shape[0]:
        raise ValueError(f"rpn_loss: head outputs give {logits.shape[0]} anchor rows, "
                         f"the targets label {labels.shape[0]} anchors")
    pos = np.flatnonzero(labels > 0)
    pred = T.take_rows(anchor_rows(reg_deltas, k, 4), pos) if pos.size else None
    n_reg = reg_deltas.shape[1] * reg_deltas.shape[2]
    return multitask_loss(T.take_rows(logits, rows), labels[rows].astype(np.int64),
                          1.0 / weights.batch, pred, targets[pos], weights.lam / n_reg)


def objectness_probs(cls_data: np.ndarray, k: int) -> np.ndarray:
    """(2k,H,W) raw scores -> per-anchor object probability, anchor order."""
    return T.softmax(anchor_rows(cls_data, k, 2), axis=1)[:, 1]


def propose_arrays(cls_data: np.ndarray, reg_data: np.ndarray, aset: AnchorSet,
                   image_w: float, image_h: float,
                   p: ProposalParams) -> tuple[np.ndarray, np.ndarray]:
    """Proposal pipeline on raw head outputs; returns (boxes (N,4), scores (N,)).

    All anchors participate (cross-boundary included); decoded boxes are
    clipped, those with a side of 0 or under min_size dropped, the top
    pre_nms_top by score kept, NMS applied, and post_nms_top returned by score.
    """
    k = aset.k
    scores = objectness_probs(cls_data, k)
    if scores.shape[0] != len(aset):
        raise ValueError(f"propose_arrays: head outputs give {scores.shape[0]} anchor "
                         f"rows, the anchor set has {len(aset)} anchors")
    deltas = anchor_rows(reg_data, k, 4)
    boxes = clip_arr(decode_arr(deltas, aset.boxes), image_w, image_h)
    side = np.minimum(boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1])
    big = (side > 0) & (side >= p.min_size)
    boxes, scores = boxes[big], scores[big]
    order = np.argsort(-scores, kind="stable")[:p.pre_nms_top]
    boxes, scores = boxes[order], scores[order]
    keep = nms_arr(boxes, scores, p.nms_iou, max_keep=p.post_nms_top)
    return boxes[keep], scores[keep]

