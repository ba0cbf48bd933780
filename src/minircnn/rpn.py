"""Shared backbone trunk, the sliding-window heads (RPN and one-stage), the
RPN's two-term training loss, and proposal generation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
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
    (C+1)k class-score channels (class 0 = background) and 4Ck delta channels
    for C classes and k anchors per window, anchor-major: anchor a owns a
    contiguous block of each. `forward` emits one row per anchor."""

    def __init__(self, name: str, rng: Rng, backbone_dim: int, k: int,
                 n_classes: int, head_dim: int):
        self.k = k
        self.n_classes = n_classes
        self.trunk = ConvLayer(f"{name}.trunk", backbone_dim, head_dim, 3, 1, rng)
        self.cls = ConvLayer(f"{name}.cls", head_dim, (n_classes + 1) * k, 1, 0, rng)
        self.reg = ConvLayer(f"{name}.reg", head_dim, 4 * n_classes * k, 1, 0, rng)

    def forward(self, features: Tensor) -> tuple[Tensor, Tensor]:
        """Raw scores (H*W*k, C+1) and deltas (H*W*k, C, 4), one row per
        anchor in `grid_anchors` order (grid row-major, anchor fastest)."""
        t = T.relu(self.trunk(features))
        return self._rows(self.cls(t), self.n_classes + 1), \
            self._rows(self.reg(t), self.n_classes, 4)

    def _rows(self, head_map: Tensor, *per) -> Tensor:
        """(k*prod(per), H, W) map -> (H*W*k, *per) rows; anchor a's channels
        [a*prod(per), (a+1)*prod(per)) are read as a `per`-shaped block."""
        _, h, w = head_map.shape
        n = len(per)
        return head_map.reshape(self.k, *per, h, w) \
                       .transpose(n + 1, n + 2, *range(n + 1)).reshape(h * w * self.k, *per)

    @property
    def params(self) -> list[Param]:
        return self.trunk.params + self.cls.params + self.reg.params


class RpnHead(ConvHead):
    """The class-agnostic head (C = 1); score column 1 is the object score."""

    def __init__(self, rng: Rng, backbone_dim: int, k: int, head_dim: int):
        super().__init__("rpn", rng, backbone_dim, k, 1, head_dim)


class OneStageHead(ConvHead):
    """The sliding-window head with C object classes: per-class boxes per window."""

    def __init__(self, rng: Rng, backbone_dim: int, k: int, n_classes: int,
                 head_dim: int):
        super().__init__("onestage", rng, backbone_dim, k, n_classes, head_dim)


def rpn_loss(cls_scores: Tensor, reg_deltas: Tensor, labels: np.ndarray,
             targets: np.ndarray, rows: np.ndarray, k: int,
             weights: LossWeights) -> tuple[Tensor, float, float]:
    """Two-term objectness + box loss of the head's anchor rows on
    `assign_labels`' labels and targets (one row per positive label).

    cls: log-loss summed over the sampled anchor `rows`, divided by `batch`.
    reg: smooth-L1 over ALL positive-labeled anchors, summed over the four
    delta components, scaled by lam / N_reg, N_reg = H*W anchor locations.
    Returns (loss, cls_term_value, reg_term_value).
    """
    if rows.size == 0:
        raise ValueError("rpn_loss requires a sampled minibatch")
    if cls_scores.shape[0] != labels.shape[0]:
        raise ValueError(f"rpn_loss: head outputs give {cls_scores.shape[0]} anchor "
                         f"rows, the targets label {labels.shape[0]} anchors")
    return multitask_loss(cls_scores, reg_deltas, labels, rows,
                          np.flatnonzero(labels > 0), targets, 1.0 / weights.batch,
                          weights.lam / (labels.shape[0] // k))


def propose_arrays(cls_data: np.ndarray, reg_data: np.ndarray, anchors: np.ndarray,
                   image_w: float, image_h: float,
                   p: ProposalParams) -> tuple[np.ndarray, np.ndarray]:
    """Proposal pipeline on the RPN head's rows; returns (boxes (N,4), scores (N,)).

    All anchors participate (cross-boundary included); decoded boxes are
    clipped, those with a side of 0 or under min_size dropped, the top
    pre_nms_top by score kept, NMS applied, and post_nms_top returned by score.
    """
    scores = T.softmax(cls_data, axis=1)[:, 1]
    if scores.shape[0] != anchors.shape[0]:
        raise ValueError(f"propose_arrays: head outputs give {scores.shape[0]} anchor "
                         f"rows, the anchor set has {anchors.shape[0]} anchors")
    boxes = clip_arr(decode_arr(reg_data, anchors), image_w, image_h)
    side = np.minimum(boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1])
    big = (side > 0) & (side >= p.min_size)
    boxes, scores = boxes[big], scores[big]
    order = np.argsort(-scores, kind="stable")[:p.pre_nms_top]
    boxes, scores = boxes[order], scores[order]
    keep = nms_arr(boxes, scores, p.nms_iou, max_keep=p.post_nms_top)
    return boxes[keep], scores[keep]

