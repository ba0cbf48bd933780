"""Parameters, SGD with momentum + weight decay, and checkpoint IO."""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .rng import Rng
from .tensor import Tensor

CHECKPOINT_MAGIC = b"FRPN"
CHECKPOINT_VERSION = 1


@dataclass
class SgdConfig:
    lr: float
    momentum: float
    weight_decay: float


class Param:
    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = Tensor(np.ascontiguousarray(value, dtype=np.float32),
                            requires_grad=True)
        self.velocity = np.zeros_like(self.value.data)


class GradientError(RuntimeError):
    pass


def sgd_step(params: list[Param], cfg: SgdConfig):
    """v <- m*v + g + wd*value; value <- value - lr*v; grads zeroed."""
    for p in params:
        g = p.value.grad
        if g is None:
            g = np.zeros_like(p.value.data)
        if not np.all(np.isfinite(g)):
            raise GradientError(f"non-finite gradient in parameter '{p.name}'")
        p.velocity *= cfg.momentum
        p.velocity += g + cfg.weight_decay * p.value.data
        p.value.data -= cfg.lr * p.velocity
        p.value.grad = None


def multitask_loss(scores: Tensor, deltas: Tensor, labels: np.ndarray, rows: np.ndarray,
                   fg: np.ndarray, targets: np.ndarray, cls_scale: float,
                   reg_scale: float) -> tuple[Tensor, float, float]:
    """Fast R-CNN's two-term loss on a head's rows, scores (N, C+1) and deltas
    (N, C, 4): cls_scale times the log-loss summed over `rows`, plus reg_scale
    times the smooth-L1 summed over each `fg` row's class delta slice minus its
    `targets` row. Returns (loss, cls value, reg value)."""
    cls = T.mul(T.tsum(T.softmax_logloss(T.take_rows(scores, rows), labels[rows])),
                cls_scale)
    if fg.size == 0:
        return cls, cls.item(), 0.0
    pred = T.select_class(T.take_rows(deltas, fg), labels[fg] - 1)
    reg = T.mul(T.tsum(T.smooth_l1(pred - Tensor(targets.astype(pred.dtype)))), reg_scale)
    return cls + reg, cls.item(), reg.item()


def gaussian_init(shape, stddev: float, rng: Rng) -> np.ndarray:
    x = rng.normal(int(np.prod(shape)))
    x *= stddev
    return x.astype(np.float32).reshape(shape)


def save_checkpoint(params: list[Param], path):
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(params)))
        for p in params:
            name = p.name.encode("utf-8")
            data = np.ascontiguousarray(p.value.data, dtype="<f4")
            f.write(struct.pack("<H", len(name)))
            f.write(name)
            f.write(struct.pack("<B", data.ndim))
            f.write(struct.pack(f"<{data.ndim}I", *data.shape))
            f.write(data.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """name -> array of a checkpoint; a size beyond the bytes left, trailing
    bytes, a repeated name and a non-finite value are rejected."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def read(n: int, what: str = "the next field") -> bytes:
            if n > size - f.tell():     # checked first: n may be far beyond memory
                raise ValueError(f"{path}: truncated after {size} bytes: {what} needs "
                                 f"{n} bytes, {size - f.tell()} are left")
            return f.read(n)

        if f.read(4) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        version, count = struct.unpack("<II", read(8, "the header"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        out = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", read(2))
            try:
                name = read(nlen).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: entry name is not UTF-8 at byte "
                                 f"{f.tell() - nlen + exc.start}") from None
            if name in out:
                raise ValueError(f"{path}: entry '{name}' appears twice")
            (rank,) = struct.unpack("<B", read(1))
            shape = struct.unpack(f"<{rank}I", read(4 * rank))
            data = np.frombuffer(read(4 * math.prod(shape), f"entry '{name}'"),
                                 dtype="<f4").reshape(shape)
            if not np.isfinite(data).all():
                raise ValueError(f"{path}: entry '{name}' holds a non-finite value")
            out[name] = data.astype(np.float32)
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after its {count} entries")
        return out


def restore_params(params: list[Param], state: dict[str, np.ndarray]):
    """Each parameter's value from `state`, for inference: it needs no gradient."""
    for p in params:
        if p.name not in state:
            raise KeyError(f"checkpoint missing parameter '{p.name}'")
        if state[p.name].shape != p.value.data.shape:
            raise ValueError(f"shape mismatch for '{p.name}'")
        p.value.data[...] = state[p.name]
        p.value.requires_grad = False
