"""Flat key=value run configuration; every tunable in one place.

File format: one `section.key=value` per line, `#` comments, blank lines
ignored. Unknown keys are rejected. Lists are comma-separated.

The library takes each run value as an argument, so the defaults below are
the package's. The CLI applies `--config`, each `--set`, then the flags whose
dest is a key, and writes the result as `config.txt`, which reproduces the run.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path


def _floats(s: str) -> tuple[float, ...]:
    return tuple(float(x) for x in str(s).split(",") if x != "")


def _ints(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in str(s).split(",") if x != "")


def _float_text(x: float) -> str:
    """`{:g}` where it reads back as x, else the shortest text that does."""
    g = f"{x:g}"
    return g if float(g) == x else repr(x)


@dataclass
class RunConfig:
    seed: int = 7

    data_n_images: int = 500
    data_image_size: int = 128
    data_max_objects: int = 5

    anchors_scales: tuple[float, ...] = (16.0, 32.0, 64.0)
    anchors_ratios: tuple[float, ...] = (0.5, 1.0, 2.0)

    backbone_channels: tuple[int, ...] = (16, 32, 64, 64)

    rpn_head_dim: int = 64
    rpn_lambda: float = 10.0
    rpn_batch: int = 256
    rpn_max_pos: int = 128
    rpn_pos_iou: float = 0.7
    rpn_neg_iou: float = 0.3

    proposals_nms_iou: float = 0.7
    proposals_pre_nms_top: int = 6000
    proposals_post_nms_top_train: int = 2000
    proposals_post_nms_top_test: int = 300
    proposals_min_size: float = 2.0

    detector_n_classes: int = 3
    detector_rois_per_image: int = 64
    detector_fg_fraction: float = 0.25
    detector_fg_iou: float = 0.5
    detector_score_thresh: float = 0.05
    detector_nms_iou: float = 0.3
    detector_max_per_image: int = 100

    train_iters: int = 5000
    train_lr: float = 0.06
    train_det_lr: float = 0.01    # detector-style losses need a gentler rate
    train_lr_drop_frac: float = 0.75
    train_momentum: float = 0.9
    train_weight_decay: float = 0.0005
    train_joint_iters: int = 8000

    eval_iou_thresh: float = 0.5

    # IoU thresholds, each in [0, 1]
    _IOU_FIELDS = ("rpn_pos_iou", "rpn_neg_iou", "proposals_nms_iou",
                   "detector_fg_iou", "detector_nms_iou", "eval_iou_thresh")

    # least values of counts and sizes
    _LEAST = {"data_n_images": 1, "proposals_min_size": 0, "train_iters": 0,
              "train_joint_iters": 0}

    _PARSERS = {
        "anchors_scales": _floats,
        "anchors_ratios": _floats,
        "backbone_channels": _ints,
    }

    @classmethod
    def keys(cls) -> dict[str, str]:
        """Each key, spelled as `to_text` writes it, and the field it names."""
        return {f.name.replace("_", ".", 1): f.name for f in fields(cls)}

    def set_key(self, key: str, value: str):
        """Set the field that `key` names, rejecting a value out of its range."""
        name = self.keys().get(key)
        if name is None:
            raise KeyError(f"unknown config key: {key}")
        value = self._PARSERS.get(name, type(getattr(self, name)))(value)
        if name in self._IOU_FIELDS and not 0 <= value <= 1:
            raise ValueError(f"{key}={value} is outside [0, 1]")
        if name in self._LEAST and value < self._LEAST[name]:
            raise ValueError(f"{key}={value} is below {self._LEAST[name]}")
        setattr(self, name, value)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        cfg = cls()
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (s.strip() for s in line.split("=", 1))
            try:
                cfg.set_key(key, value)
            except (KeyError, ValueError) as exc:
                raise type(exc)(f"{path}:{lineno}: {exc.args[0]}") from None
        return cfg

    def to_text(self) -> str:
        lines = []
        for key, name in self.keys().items():
            v = getattr(self, name)
            if isinstance(v, tuple):
                v = ",".join(_float_text(x) if isinstance(x, float) else str(x)
                             for x in v)
            lines.append(f"{key}={v}")
        return "\n".join(lines) + "\n"

    def write(self, path):
        Path(path).write_text(self.to_text())

    # typed views over the flat fields ---------------------------------
    def anchor_config(self):
        from .anchors import AnchorConfig
        return AnchorConfig(self.anchors_scales, self.anchors_ratios)

    def loss_weights(self):
        from .rpn import LossWeights
        return LossWeights(self.rpn_lambda, self.rpn_batch, self.rpn_max_pos,
                           self.rpn_pos_iou, self.rpn_neg_iou)

    def proposal_params(self, train: bool):
        from .rpn import ProposalParams
        return ProposalParams(self.proposals_nms_iou, self.proposals_pre_nms_top,
                              self.proposals_post_nms_top_train if train
                              else self.proposals_post_nms_top_test,
                              self.proposals_min_size)

    def roi_sample_config(self):
        from .detector import RoiSampleConfig
        return RoiSampleConfig(self.detector_rois_per_image,
                               self.detector_fg_fraction, self.detector_fg_iou)

    def schedule(self, iters: int | None = None, lr: float | None = None):
        from .training import TrainSchedule
        n = self.train_iters if iters is None else iters
        return TrainSchedule(n, self.train_lr if lr is None else lr,
                             int(self.train_lr_drop_frac * n), self.train_momentum,
                             self.train_weight_decay, self.seed)

    def schedule_det(self, iters: int | None = None):
        return self.schedule(iters, lr=self.train_det_lr)
