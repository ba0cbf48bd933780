"""Flat key=value run configuration; every tunable in one place.

File format: one `section.key=value` per line, `#` comments, blank lines
ignored. Lists are comma-separated. Unknown keys, a key set twice and an empty
list entry are rejected.

The library takes each run value as an argument, so the defaults below are
the package's, and `RunConfig._RANGES` is the one table of the values each
key accepts. The CLI applies `--config`, each `--set`, then the flags whose
dest is a key, checks the result, and once the run succeeds writes it as
`config.txt`, which reproduces the run.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

from .dataio import read_lines, write_lines


def _parse(text: str, like):
    """`text` as a value of the type of `like`, a tuple's entries comma-separated."""
    if isinstance(like, tuple):
        entries = str(text).split(",")
        if "" in entries:
            raise ValueError(f"entry {entries.index('') + 1} of {len(entries)} is empty")
        return tuple(type(like[0])(x) for x in entries)
    return type(like)(text)


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

    # `ablate`: the training budget of its sweep modes, n-sweep's N, lambda-sweep's λ
    ablate_iters: int = 500
    ablate_budgets: tuple[int, ...] = (50, 300, 1000)
    ablate_lambdas: tuple[float, ...] = (0.1, 1.0, 10.0, 100.0)

    bench_n_warmup: int = 2
    bench_n_timed: int = 10

    # the values each key accepts; for a list key, those of each entry, and
    # the list may not be empty. `seed` takes the 2**64 seeds `Rng` tells apart,
    # and model sizes stop at the paper's widest (VGG-16, 512) and COCO's 80 classes.
    _RANGES = {key: interval for interval, keys in {
        "[0, 18446744073709551616)": "seed",
        "[1, inf)": "data.n_images rpn.batch proposals.pre_nms_top "
                    "proposals.post_nms_top_train proposals.post_nms_top_test "
                    "detector.rois_per_image detector.max_per_image ablate.iters "
                    "ablate.budgets bench.n_timed",
        "[5, 1024]": "data.image_size",
        "[1, 100]": "data.max_objects",
        "[1, 512]": "backbone.channels rpn.head_dim",
        "[1, 80]": "detector.n_classes",
        "(0, inf)": "anchors.scales anchors.ratios rpn.lambda train.lr train.det_lr "
                    "ablate.lambdas",
        "[0, inf)": "rpn.max_pos proposals.min_size train.iters train.joint_iters "
                    "train.weight_decay bench.n_warmup",
        "[0, 1]": "rpn.pos_iou rpn.neg_iou proposals.nms_iou detector.nms_iou "
                  "detector.score_thresh eval.iou_thresh train.lr_drop_frac",
        "(0, 1]": "detector.fg_iou",
        "(0, 1)": "detector.fg_fraction",
        "[0, 1)": "train.momentum",
    }.items() for key in keys.split()}

    _LENGTHS = {"backbone.channels": 4}     # list keys of a fixed length

    # (a, b): key a may not exceed key b
    _ORDERED = (("rpn.neg_iou", "rpn.pos_iou"),
                ("proposals.post_nms_top_train", "proposals.pre_nms_top"),
                ("proposals.post_nms_top_test", "proposals.pre_nms_top"))

    @classmethod
    def keys(cls) -> dict[str, str]:
        """Each key, spelled as `write` writes it, and the field it names."""
        return {f.name.replace("_", ".", 1): f.name for f in fields(cls)}

    def check(self, *unread: str):
        """Reject a key outside its range, or a pair of keys out of order
        unless the run does not read one of the two (`unread`)."""
        value = {key: getattr(self, name) for key, name in self.keys().items()}
        for key in self._RANGES:
            self._check_range(key, value[key])
        for a, b in self._ORDERED:
            if value[a] > value[b] and not {a, b} & set(unread):
                raise ValueError(f"{a}={value[a]} exceeds {b}={value[b]}")

    __post_init__ = check

    @classmethod
    def _check_range(cls, key: str, value):
        interval, n = cls._RANGES[key], cls._LENGTHS.get(key)
        is_list = isinstance(value, (tuple, list))
        if is_list and (n and len(value) != n or not value):
            raise ValueError(f"{key} takes {n or 'one or more'} entries, not {len(value)}")
        lo, hi = (float(x) for x in interval[1:-1].split(","))
        for v in value if is_list else (value,):
            # written as "v is inside", so that NaN is outside
            if not ((lo < v if interval[0] == "(" else lo <= v) and
                    (v < hi if interval[-1] == ")" else v <= hi)):
                what = f"{key} entry {v}" if is_list else f"{key}={v}"
                raise ValueError(f"{what} is below {lo:g}" if v < lo
                                 else f"{what} is outside {interval}")

    def set_key(self, key: str, value: str):
        """Set the field that `key` names, rejecting a value outside its range;
        `check` tests the pairs of keys."""
        name = self.keys().get(key)
        if name is None:
            raise KeyError(f"unknown config key: {key}")
        try:
            value = _parse(value, getattr(RunConfig, name))     # the field's default
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
        self._check_range(key, value)
        setattr(self, name, value)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        cfg, seen = cls(), {}
        for lineno, raw in read_lines(path):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (s.strip() for s in line.split("=", 1))
            if seen.setdefault(key, lineno) != lineno:
                raise ValueError(f"{path}:{lineno}: {key} is set again; "
                                 f"line {seen[key]} sets it first")
            try:
                cfg.set_key(key, value)
            except (KeyError, ValueError) as exc:
                raise type(exc)(f"{path}:{lineno}: {exc.args[0]}") from None
        return cfg

    def write(self, path):
        lines = []
        for key, name in self.keys().items():
            v = getattr(self, name)
            if isinstance(v, tuple):
                v = ",".join(_float_text(x) if isinstance(x, float) else str(x)
                             for x in v)
            lines.append(f"{key}={v}")
        write_lines(path, lines)

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
