"""Command-line entry point wiring datasets, training, inference, and reports."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig
from .dataio import gen_synthetic, load_manifest, read_lines, write_lines
from .detector import check_classes
from .evaluation import bench, mean_ap, recall_curve
from .onestage import train_onestage
from .rng import Rng
from .training import (TrainState, alternate_4step, joint_train, save_state, train,
                       write_loss_log)

# ablate modes that read a trained RPN checkpoint
CKPT_MODES = ("no-reg", "no-cls", "n-sweep")
# the one layout of a proposals CSV ("rank") and a detections CSV ("class")
SCENE_HEADER = "image,{},score,x1,y1,x2,y2"


def _load_config(args) -> RunConfig:
    """`--config`, then each `--set`, then each flag whose dest is a key."""
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    for key, value in args.set or []:
        cfg.set_key(key, value)
    for key in RunConfig.keys():
        values = getattr(args, key, None)
        if values is not None:    # a flag's text, a list flag's comma-separated
            cfg.set_key(key, ",".join(values))
    cfg.check(*getattr(args, "unread", ()))
    return cfg


def _load_scenes(data):
    path = Path(data)
    manifest = path if path.is_file() else path / "manifest.jsonl"
    m = load_manifest(manifest)
    return [m.load_scene(i) for i in range(len(m))]


def _dims(cfg: RunConfig) -> tuple:
    """The model shape `TrainState.build` and `TrainState.open` take."""
    return (cfg.anchor_config(), cfg.backbone_channels, cfg.rpn_head_dim,
            cfg.detector_n_classes)


def _detect_args(cfg: RunConfig) -> tuple:
    """The proposals and post-process `TrainState.detect` and `.stages` take."""
    return (cfg.proposal_params(train=False), cfg.detector_score_thresh,
            cfg.detector_nms_iou, cfg.detector_max_per_image)


def _read_scene_rows(path, scenes, n_classes=None) -> list[list[tuple]]:
    """Each scene's (box, score, key) rows of `_write_scene_rows`' CSV, by image
    path; the key is a rank, or a class if `n_classes` is given. Another header,
    or a row the pipeline could not have written, is rejected naming file:line."""
    groups = {s.path: [] for s in scenes}
    header = SCENE_HEADER.format("class" if n_classes else "rank")
    lines = read_lines(path)
    if next(lines, (1, ""))[1] != header:
        raise ValueError(f"{path}:1: the header is not {header}")
    for lineno, line in lines:
        where, fields = f"{path}:{lineno}", line.split(",")
        if len(fields) != 7:
            raise ValueError(f"{where}: {len(fields)} fields, not the header's 7")
        image, key, *values = fields
        try:
            key, (score, *box) = int(key), [float(v) for v in values]
        except ValueError:
            raise ValueError(f"{where}: a field does not parse: {line}") from None
        if image not in groups:
            raise ValueError(f"{where}: image {image} is not in the manifest")
        if not 0 <= score <= 1:
            raise ValueError(f"{where}: score {score} is outside [0, 1]")
        if not (np.isfinite(box).all() and box[0] <= box[2] and box[1] <= box[3]):
            raise ValueError(f"{where}: box {box} is non-finite or inverted")
        if any(float(f"{v:.9g}") != v for v in (score, *box)):
            raise ValueError(f"{where}: a value has over 9 significant digits: {line}")
        if n_classes and not 1 <= key <= n_classes:
            raise ValueError(f"{where}: class {key} is outside 1..{n_classes}")
        groups[image].append((box, score, key))
    return [groups[s.path] for s in scenes]


def _write_scene_rows(path, column: str, scenes, rows):
    """The CSV `_read_scene_rows` reads: under `SCENE_HEADER` with its key
    `column`, a line for each (box, score, key) of each scene's list in `rows`."""
    write_lines(path, [SCENE_HEADER.format(column)] + [
        ",".join([s.path, str(key), *(f"{v:.9g}" for v in (score, *box))])
        for s, scene_rows in zip(scenes, rows) for box, score, key in scene_rows])


def _report(path: Path, rows: list[str]):
    """Write a CSV report and echo it to stdout."""
    write_lines(path, rows)
    print(*rows, sep="\n")


# subcommand handlers ---------------------------------------------------

def cmd_gen_data(args, cfg: RunConfig, out: Path):
    gen_synthetic(out, cfg.data_n_images, image_size=cfg.data_image_size,
                  seed=cfg.seed, max_objects=cfg.data_max_objects)
    print(f"wrote {cfg.data_n_images} images + manifest under {out}")


def _two_stage(cfg: RunConfig) -> tuple:
    """What `alternate_4step` and `joint_train` take after their schedules."""
    return (cfg.anchor_config(), cfg.loss_weights(), cfg.roi_sample_config(),
            cfg.detector_n_classes, cfg.rpn_head_dim, cfg.proposal_params(train=True),
            cfg.backbone_channels)


# each train-* command: its help, the key `--iters` sets, the checkpoint it
# writes, its closing line and its trainer, (cfg, scenes, out dir) -> TrainState
TRAINERS = {
    "train-rpn": ("train the RPN alone", "train.iters", "rpn.frpn",
                  "trained RPN for {cfg.train_iters} iters; checkpoint {ckpt}",
                  lambda cfg, scenes, out: train(
                      scenes, TrainState.build(cfg.seed, *_dims(cfg), ("rpn",)),
                      cfg.schedule(), cfg.loss_weights(), cfg.roi_sample_config(),
                      cfg.proposal_params(train=True))),
    "train-alt": ("4-step alternating training", "train.iters", "final.frpn",
                  "4-step training done; unified checkpoint {ckpt}",
                  lambda cfg, scenes, out: alternate_4step(
                      scenes, cfg.schedule(), cfg.schedule_det(), *_two_stage(cfg), out)),
    "train-joint": ("approximate joint training", "train.joint_iters", "joint.frpn",
                    "joint training done; checkpoint {ckpt}",
                    lambda cfg, scenes, out: joint_train(
                        scenes, cfg.schedule_det(iters=cfg.train_joint_iters),
                        *_two_stage(cfg))),
    "train-onestage": ("train the one-stage baseline", "train.iters", "onestage.frpn",
                       "one-stage training done; checkpoint {ckpt}",
                       lambda cfg, scenes, out: train_onestage(
                           scenes, cfg.schedule_det(), cfg.anchor_config(),
                           cfg.roi_sample_config(), cfg.detector_n_classes,
                           cfg.rpn_head_dim, cfg.backbone_channels)),
}


def cmd_train(args, cfg: RunConfig, out: Path):
    *_, ckpt, done, trainer = TRAINERS[args.command]
    state = trainer(cfg, _load_scenes(args.data), out)
    save_state(state, out / ckpt)
    write_loss_log(state, out / "loss.csv")
    print(done.format(cfg=cfg, ckpt=out / ckpt))


def cmd_propose(args, cfg: RunConfig, out: Path):
    scenes = _load_scenes(args.data)
    state = TrainState.open(args.ckpt, *_dims(cfg)).require("rpn")
    p = cfg.proposal_params(train=False)
    _write_scene_rows(out / "proposals.csv", "rank", scenes, (
        [(box, score, r) for r, (box, score) in enumerate(zip(*state.propose_scene(s, p)))]
        for s in scenes))
    print(f"wrote proposals for {len(scenes)} images to {out / 'proposals.csv'}")


def cmd_detect(args, cfg: RunConfig, out: Path):
    scenes = _load_scenes(args.data)
    state = TrainState.open(args.ckpt, *_dims(cfg))
    _write_scene_rows(out / "detections.csv", "class", scenes,
                      (state.detect(s, *_detect_args(cfg)) for s in scenes))
    print(f"wrote detections for {len(scenes)} images to {out / 'detections.csv'}")


def cmd_eval_recall(args, cfg: RunConfig, out: Path):
    scenes = _load_scenes(args.manifest)
    props = [np.array([box for box, _, _ in sorted(rows, key=lambda r: -r[1])])
             .reshape(-1, 4) for rows in _read_scene_rows(args.proposals, scenes)]
    _report(out / "recall.csv", recall_curve(props, [s.boxes for s in scenes],
                                             cfg.proposals_post_nms_top_test).to_csv())


def cmd_eval_map(args, cfg: RunConfig, out: Path):
    scenes = _load_scenes(args.manifest)
    check_classes(scenes, cfg.detector_n_classes)
    dets = _read_scene_rows(args.detections, scenes, cfg.detector_n_classes)
    mp, per_class = mean_ap(dets, [s.boxes for s in scenes],
                            [s.classes for s in scenes],
                            range(1, cfg.detector_n_classes + 1), cfg.eval_iou_thresh)
    rows = ["class,ap"] + [f"{c},{ap:.6g}" for c, ap in sorted(per_class.items())]
    write_lines(out / "map.csv", rows + [f"mAP,{mp:.6g}"])
    print(f"mAP@{cfg.eval_iou_thresh:g} = {mp:.4f}")


def cmd_bench(args, cfg: RunConfig, out: Path):
    scenes = _load_scenes(args.data)[:cfg.bench_n_timed]
    if not scenes:
        raise ValueError(f"{args.data} holds no images to time")
    state = TrainState.open(args.ckpt, *_dims(cfg))
    report = bench(*state.stages(*_detect_args(cfg)), scenes,
                   n_warmup=cfg.bench_n_warmup, n_timed=cfg.bench_n_timed)
    _report(out / "timing.csv", report.to_csv())


def cmd_ablate(args, cfg: RunConfig, out: Path):
    scenes = _load_scenes(args.data)
    gt_boxes = [s.boxes for s in scenes]
    p = cfg.proposal_params(train=False)    # its post_nms_top is the N of recall@N

    if args.mode in CKPT_MODES:
        state = TrainState.open(args.ckpt, *_dims(cfg)).require("rpn")

    if args.mode == "no-reg":
        # proposals become the clipped raw anchors, ranked by objectness
        props = []
        for s in scenes:
            _, cls, reg = state.forward(s, state.rpn_head)
            boxes, _ = state.propose(cls.data, np.zeros_like(reg.data), s.width,
                                     s.height, p)
            props.append(boxes)
    elif args.mode == "no-cls":
        # unscored: every decoded box (no IoU exceeds 1), in seeded random order
        rng = Rng(cfg.seed).substream("sampling")
        props = []
        for s in scenes:
            n_all = len(state.anchors(s.width, s.height)[0])
            boxes, _ = state.propose_scene(
                s, replace(p, nms_iou=1.0, pre_nms_top=n_all, post_nms_top=n_all))
            n = boxes.shape[0]
            props.append(boxes[rng.permutation(n, min(p.post_nms_top, n))])
    elif args.mode == "n-sweep":
        budgets = sorted(cfg.ablate_budgets)
        if budgets[-1] > p.pre_nms_top:
            raise ValueError(f"ablate.budgets entry {budgets[-1]} exceeds "
                             f"proposals.pre_nms_top={p.pre_nms_top}")
        full = replace(p, post_nms_top=budgets[-1])
        props = [state.propose_scene(s, full)[0] for s in scenes]
        rows = ["n,tau,recall"]
        for n in budgets:
            c = recall_curve(props, gt_boxes, n)
            rows += [f"{n},{t:.6g},{r:.6g}" for t, r in zip(c.iou_grid, c.recall)]
        _report(out / "recall_n_sweep.csv", rows)
    elif args.mode == "anchor-settings":
        mid = (cfg.anchors_scales[len(cfg.anchors_scales) // 2],)
        settings = [("3s3r", cfg.anchors_scales, cfg.anchors_ratios),
                    ("3s1r", cfg.anchors_scales, (1.0,)),
                    ("1s3r", mid, cfg.anchors_ratios), ("1s1r", mid, (1.0,))]
        rows = ["setting,recall_at_0.5,recall_at_0.7"]
        for name, scales, ratios in settings:
            _, c = _retrain_recall(cfg, scenes, gt_boxes, p,
                                   anchors_scales=scales, anchors_ratios=ratios)
            rows.append(f"{name},{c.at(0.5):.6g},{c.at(0.7):.6g}")
        _report(out / "anchor_settings.csv", rows)
    elif args.mode == "lambda-sweep":
        rows = ["lambda,recall_at_0.5,recall_at_0.7,final_loss_cls,final_loss_reg"]
        for lam in cfg.ablate_lambdas:
            state, c = _retrain_recall(cfg, scenes, gt_boxes, p, rpn_lambda=lam)
            last = state.loss_log[-1]
            rows.append(f"{lam:g},{c.at(0.5):.6g},{c.at(0.7):.6g},"
                        f"{last['loss_cls']:.6g},{last['loss_reg']:.6g}")
        _report(out / "lambda_sweep.csv", rows)
    if args.mode in ("no-reg", "no-cls"):
        _report(out / f"recall_{args.mode.replace('-', '_')}.csv",
                recall_curve(props, gt_boxes, p.post_nms_top).to_csv())


def _retrain_recall(cfg: RunConfig, scenes, gt_boxes, p, **overrides):
    """A fresh RPN trained for `ablate.iters` under `cfg` with the field
    `overrides`, and the recall curve of its top `p.post_nms_top` proposals."""
    state = TRAINERS["train-rpn"][-1](
        replace(cfg, train_iters=cfg.ablate_iters, **overrides), scenes, None)
    props = [state.propose_scene(s, p)[0] for s in scenes]
    return state, recall_curve(props, gt_boxes, p.post_nms_top)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="minircnn",
                                 description="desk-scale two-stage detector")
    sub = ap.add_subparsers(dest="command", required=True)

    def key_flag(p, flag, key, nargs=1):    # `_load_config` applies its text
        p.add_argument(flag, nargs=nargs, dest=key, help=f"sets {key}",
                       metavar=flag[2:].upper().replace("-", "_"))

    def common(p):
        p.add_argument("--config", help="run-config file (key=value lines)")
        key_flag(p, "--seed", "seed")
        p.add_argument("--set", nargs=2, action="append", metavar=("KEY", "VALUE"),
                       help="override a single config key")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen-data", help="generate the synthetic shapes dataset")
    common(p)
    key_flag(p, "--n", "data.n_images")
    key_flag(p, "--image-size", "data.image_size")
    p.set_defaults(fn=cmd_gen_data)

    for name, (hlp, iters_key, *_) in TRAINERS.items():
        p = sub.add_parser(name, help=hlp)
        common(p)
        p.add_argument("--data", required=True, help="dataset dir or manifest")
        key_flag(p, "--iters", iters_key)
        p.set_defaults(fn=cmd_train)

    p = sub.add_parser("propose", help="write top-N proposals per image")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    key_flag(p, "--n", "proposals.post_nms_top_test")
    p.set_defaults(fn=cmd_propose)

    p = sub.add_parser("detect", help="run the detector a checkpoint holds")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("eval-recall", help="recall-to-IoU curve from proposals CSV")
    common(p)
    p.add_argument("--proposals", required=True)
    p.add_argument("--manifest", required=True)
    key_flag(p, "--n", "proposals.post_nms_top_test")
    # it ranks a CSV's rows and proposes nothing, so its N is no proposal count
    p.set_defaults(fn=cmd_eval_recall, unread=("proposals.pre_nms_top",))

    p = sub.add_parser("eval-map", help="VOC-style mAP from detections CSV")
    common(p)
    p.add_argument("--detections", required=True)
    p.add_argument("--manifest", required=True)
    p.set_defaults(fn=cmd_eval_map)

    p = sub.add_parser("bench", help="per-stage timing report")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    key_flag(p, "--n-warmup", "bench.n_warmup")
    key_flag(p, "--n-timed", "bench.n_timed")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("ablate", help="ablation pipelines")
    common(p)
    p.add_argument("--mode", required=True,
                   choices=[*CKPT_MODES, "anchor-settings", "lambda-sweep"])
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", help="trained RPN checkpoint (no-reg/no-cls/n-sweep)")
    key_flag(p, "--n", "proposals.post_nms_top_test")
    key_flag(p, "--iters", "ablate.iters")
    key_flag(p, "--budgets", "ablate.budgets", nargs="+")
    key_flag(p, "--lambdas", "ablate.lambdas", nargs="+")
    p.set_defaults(fn=cmd_ablate)
    return ap


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "mode", None) in CKPT_MODES and args.ckpt is None:
            parser.error(f"ablate --mode {args.mode} requires --ckpt")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_config(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        args.fn(args, cfg, out)
        cfg.write(out / "config.txt")    # only a run that succeeds leaves its record
        return 0
    except (KeyboardInterrupt,):
        return 1
    except Exception as exc:  # runtime failure -> exit 1
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
