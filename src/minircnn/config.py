"""Flat key=value run configuration; every tunable in one place.

File format: one `section.key=value` per line, `#` comments, blank lines
ignored. Unknown keys are rejected. Lists are comma-separated.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path


def _floats(s: str) -> tuple[float, ...]:
    return tuple(float(x) for x in str(s).split(",") if x != "")


def _ints(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in str(s).split(",") if x != "")


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

    _PARSERS = {
        "anchors_scales": _floats,
        "anchors_ratios": _floats,
        "backbone_channels": _ints,
    }

    @staticmethod
    def _key_to_field(key: str) -> str:
        return key.replace(".", "_").replace("-", "_")

    @staticmethod
    def _field_to_key(name: str) -> str:
        return name.replace("_", ".", 1) if "_" in name else name

    def set_key(self, key: str, value: str):
        name = self._key_to_field(key)
        valid = {f.name for f in fields(self)}
        if name not in valid:
            raise KeyError(f"unknown config key: {key}")
        if name in self._PARSERS:
            setattr(self, name, self._PARSERS[name](value))
        else:
            setattr(self, name, type(getattr(self, name))(value))

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
            except KeyError as exc:
                raise KeyError(f"{path}:{lineno}: {exc.args[0]}") from None
        return cfg

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(f"{x:g}" if isinstance(x, float) else str(x) for x in v)
            lines.append(f"{self._field_to_key(f.name)}={v}")
        return "\n".join(lines) + "\n"

    def write(self, path):
        Path(path).write_text(self.to_text())

    # typed views over the flat fields ---------------------------------
    def anchor_config(self):
        from .anchors import AnchorConfig
        return AnchorConfig(self.anchors_scales, self.anchors_ratios)

    def loss_weights(self):
        from .rpn import LossWeights
        return LossWeights(self.rpn_lambda, float(self.rpn_batch))

    def proposal_params(self, train: bool):
        from .rpn import ProposalParams
        return ProposalParams(
            nms_iou=self.proposals_nms_iou,
            pre_nms_top=self.proposals_pre_nms_top,
            post_nms_top=self.proposals_post_nms_top_train if train
            else self.proposals_post_nms_top_test,
            min_size=self.proposals_min_size)

    def roi_sample_config(self):
        from .detector import RoiSampleConfig
        return RoiSampleConfig(self.detector_rois_per_image,
                               self.detector_fg_fraction, self.detector_fg_iou)

    def schedule(self, iters: int | None = None, seed: int | None = None,
                 lr: float | None = None):
        from .training import TrainSchedule
        n = self.train_iters if iters is None else iters
        return TrainSchedule(total_iters=n,
                             lr=self.train_lr if lr is None else lr,
                             lr_drop_at=int(self.train_lr_drop_frac * n),
                             momentum=self.train_momentum,
                             weight_decay=self.train_weight_decay,
                             seed=self.seed if seed is None else seed)

    def schedule_det(self, iters: int | None = None, seed: int | None = None):
        return self.schedule(iters, seed, lr=self.train_det_lr)
