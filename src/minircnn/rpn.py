"""Region proposal head: shared backbone trunk, objectness/regression
siblings, the two-term training loss, and proposal generation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .anchors import AnchorSet
from .assignment import RpnTargets
from .boxes import clip_arr, decode_arr
from .nn import Param, gaussian_init
from .rng import Rng
from .tensor import Tensor

INIT_STDDEV = 0.01


@dataclass
class LossWeights:
    lam: float = 10.0
    n_cls: float = 256.0
    n_reg: float = 256.0  # number of anchor locations, recomputed per image

    def __post_init__(self):
        if self.lam <= 0 or self.n_cls <= 0 or self.n_reg <= 0:
            raise ValueError("loss weights must be positive")


@dataclass
class ProposalParams:
    nms_iou: float = 0.7
    pre_nms_top: int = 6000
    post_nms_top: int = 300   # 2000 at train time
    min_size: float = 2.0

    def __post_init__(self):
        if not 0 <= self.nms_iou <= 1:
            raise ValueError("nms_iou must be in [0, 1]")
        if self.post_nms_top > self.pre_nms_top:
            raise ValueError("post_nms_top must not exceed pre_nms_top")


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
        return T.conv2d(x, self.w.value, self.b.value, stride=1, pad=self.pad)

    @property
    def params(self) -> list[Param]:
        return [self.w, self.b]


class Backbone:
    """Toy fully convolutional trunk, total stride 8.

    conv3x3x16/ReLU/pool2 -> conv3x3x32/ReLU/pool2 -> conv3x3x64/ReLU/pool2
    -> conv3x3x64/ReLU.
    """

    def __init__(self, rng: Rng, in_ch: int = 3, channels=(16, 32, 64, 64)):
        self.channels = tuple(channels)
        if len(self.channels) != 4:
            raise ValueError("backbone takes exactly 4 channel widths")
        self.out_dim = self.channels[-1]
        self.stride = 8
        chans = (in_ch,) + self.channels
        self.convs = [ConvLayer(f"backbone.conv{i + 1}", chans[i], chans[i + 1], 3, 1,
                                rng, stddev=None)
                      for i in range(4)]

    def grid_size(self, image_w: int, image_h: int) -> tuple[int, int]:
        """Feature map (width, height) for an image; each padded pool rounds up."""
        return -(-image_w // self.stride), -(-image_h // self.stride)

    def forward(self, x: Tensor) -> Tensor:
        for i, conv in enumerate(self.convs):
            x = T.relu(conv(x))
            if i < 3:
                x = T.maxpool2x2(x)
        return x

    @property
    def params(self) -> list[Param]:
        return [p for c in self.convs for p in c.params]

    def set_trainable(self, trainable: bool):
        for p in self.params:
            p.value.requires_grad = trainable


class RpnHead:
    """3x3 trunk conv + ReLU, then sibling 1x1 convs: 2k scores, 4k deltas.

    Channel layout is anchor-major: cls channels [2a, 2a+1] and reg channels
    [4a..4a+3] belong to anchor a; cls channel 2a+1 is the object score.
    """

    def __init__(self, rng: Rng, backbone_dim: int, k: int, head_dim: int = 64):
        self.k = k
        self.head_dim = head_dim
        self.trunk = ConvLayer("rpn.trunk", backbone_dim, head_dim, 3, 1, rng)
        self.cls = ConvLayer("rpn.cls", head_dim, 2 * k, 1, 0, rng)
        self.reg = ConvLayer("rpn.reg", head_dim, 4 * k, 1, 0, rng)
        assert self.cls.w.value.shape[0] == 2 * k
        assert self.reg.w.value.shape[0] == 4 * k

    def forward(self, features: Tensor) -> tuple[Tensor, Tensor]:
        t = T.relu(self.trunk(features))
        return self.cls(t), self.reg(t)

    @property
    def params(self) -> list[Param]:
        return self.trunk.params + self.cls.params + self.reg.params


def flatten_scores(cls_scores: Tensor, k: int) -> Tensor:
    """(2k,H,W) -> (H*W*k, 2) logits in anchor order (grid row-major, anchor fastest)."""
    _, h, w = cls_scores.shape
    return cls_scores.reshape(k, 2, h, w).transpose(2, 3, 0, 1).reshape(h * w * k, 2)


def flatten_deltas(reg_deltas: Tensor, k: int) -> Tensor:
    """(4k,H,W) -> (H*W*k, 4) in anchor order."""
    _, h, w = reg_deltas.shape
    return reg_deltas.reshape(k, 4, h, w).transpose(2, 3, 0, 1).reshape(h * w * k, 4)


def rpn_loss(cls_scores: Tensor, reg_deltas: Tensor, targets: RpnTargets,
             k: int, weights: LossWeights) -> tuple[Tensor, float, float]:
    """Two-term objectness + box loss.

    cls: mean log-loss over the sampled minibatch (normalized by n_cls).
    reg: smooth-L1 over ALL positive-labeled anchors, summed over the four
    delta components, scaled by lam / n_reg.
    Returns (loss, cls_term_value, reg_term_value).
    """
    sampled = targets.sampled_idx
    if sampled.size == 0:
        raise ValueError("rpn_loss requires a sampled minibatch")
    logits = flatten_scores(cls_scores, k)
    lab = targets.labels[sampled].astype(np.int64)   # 0 = background, 1 = object
    cls_term = T.mul(T.tsum(T.softmax_logloss(T.take_rows(logits, sampled), lab)),
                     1.0 / weights.n_cls)

    pos = targets.positive_idx
    if pos.size > 0:
        pred = T.take_rows(flatten_deltas(reg_deltas, k), pos)
        tgt = Tensor(targets.target_deltas[pos].astype(cls_scores.dtype))
        reg_term = T.mul(T.tsum(T.smooth_l1(pred - tgt)), weights.lam / weights.n_reg)
        loss = cls_term + reg_term
        reg_val = reg_term.item()
    else:
        loss = cls_term
        reg_val = 0.0
    return loss, cls_term.item(), reg_val


def objectness_probs(cls_data: np.ndarray, k: int) -> np.ndarray:
    """(2k,H,W) raw scores -> per-anchor object probability, anchor order."""
    _, h, w = cls_data.shape
    logits = cls_data.reshape(k, 2, h, w).transpose(2, 3, 0, 1).reshape(-1, 2)
    return T.softmax(logits, axis=1)[:, 1]


def propose_arrays(cls_data: np.ndarray, reg_data: np.ndarray, aset: AnchorSet,
                   image_w: float, image_h: float,
                   p: ProposalParams) -> tuple[np.ndarray, np.ndarray]:
    """Proposal pipeline on raw head outputs; returns (boxes (N,4), scores (N,)).

    All anchors participate (cross-boundary included); decoded boxes are
    clipped, sub-min_size boxes dropped, top pre_nms_top scored boxes kept,
    NMS applied, then truncated to post_nms_top, descending score.
    """
    k = aset.k
    scores = objectness_probs(cls_data, k)
    deltas = flatten_deltas(Tensor(reg_data), k).data
    boxes = clip_arr(decode_arr(deltas, aset.boxes), image_w, image_h)
    big = ((boxes[:, 2] - boxes[:, 0]) >= p.min_size) & \
          ((boxes[:, 3] - boxes[:, 1]) >= p.min_size)
    boxes, scores = boxes[big], scores[big]
    order = np.argsort(-scores, kind="stable")[:p.pre_nms_top]
    boxes, scores = boxes[order], scores[order]
    keep = np.asarray([], dtype=np.int64)
    if boxes.shape[0]:
        from .boxes import nms_arr
        keep = nms_arr(boxes, scores, p.nms_iou, max_keep=p.post_nms_top)
    return boxes[keep], scores[keep]

