"""Command-line entry point wiring datasets, training, inference, and reports."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig
from .dataio import gen_synthetic, image_to_input, load_manifest
from .detector import DetectorHead, detect
from .evaluation import bench, mean_ap, recall_curve
from .onestage import train_onestage
from .rng import Rng
from .rpn import Backbone, RpnHead
from .training import (TrainState, alternate_4step, joint_train, save_state,
                       train_rpn, write_loss_log)

# ablate modes that read a trained RPN checkpoint
CKPT_MODES = ("no-reg", "no-cls", "n-sweep")


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    for key, value in getattr(args, "set", None) or []:
        cfg.set_key(key, value)
    return cfg


def _load_scenes(data):
    path = Path(data)
    manifest = path if path.is_file() else path / "manifest.jsonl"
    m = load_manifest(manifest)
    return [m.load_scene(i) for i in range(len(m))]


def _out_dir(args, cfg: RunConfig) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg.write(out / "config.txt")
    return out


def _build_models(cfg: RunConfig, want_det=False) -> TrainState:
    """Backbone and RPN head, plus the detector head if asked, in checkpoint order."""
    init = Rng(cfg.seed).substream("init")
    bb = Backbone(init, channels=cfg.backbone_channels)
    acfg = cfg.anchor_config()
    state = TrainState(backbone=bb, anchor_cfg=acfg,
                       rpn_head=RpnHead(init, bb.out_dim, acfg.k, cfg.rpn_head_dim))
    if want_det:
        state.det_head = DetectorHead(init, bb.out_dim, cfg.detector_n_classes)
    return state


def _rpn_proposals_csv(scenes, state, cfg: RunConfig, n: int) -> str:
    p = replace(cfg.proposal_params(train=False), post_nms_top=n)
    rows = ["image,rank,score,x1,y1,x2,y2"]
    for s in scenes:
        _, boxes, scores = state.propose_scene(s, p)
        for r, (b, sc) in enumerate(zip(boxes, scores)):
            rows.append(f"{s.path},{r},{sc:.9g},{b[0]:.9g},{b[1]:.9g},"
                        f"{b[2]:.9g},{b[3]:.9g}")
    return "\n".join(rows) + "\n"


def _read_grouped_csv(path, score_col, box_cols, extra_cols=()):
    groups: dict[str, list] = {}
    with open(path) as f:
        header = f.readline().strip().split(",")
        idx = {c: header.index(c) for c in ("image", score_col, *box_cols, *extra_cols)}
        for line in f:
            parts = line.strip().split(",")
            if not parts or parts == [""]:
                continue
            rec = {c: parts[i] for c, i in idx.items()}
            groups.setdefault(rec["image"], []).append(rec)
    return groups


# subcommand handlers ---------------------------------------------------

def cmd_gen_data(args):
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    n = args.n if args.n is not None else cfg.data_n_images
    size = args.image_size if args.image_size is not None else cfg.data_image_size
    gen_synthetic(out, n, image_size=size, seed=cfg.seed,
                  max_objects=cfg.data_max_objects)
    print(f"wrote {n} images + manifest under {out}")


def cmd_train_rpn(args):
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    scenes = _load_scenes(args.data)
    state = _build_models(cfg)
    sched = cfg.schedule(iters=args.iters)
    train_rpn(scenes, state, sched, cfg.anchor_config(), cfg.loss_weights(),
              batch=cfg.rpn_batch, max_pos=cfg.rpn_max_pos)
    save_state(state, out / "rpn.frpn")
    write_loss_log(state, out / "loss.csv")
    print(f"trained RPN for {sched.total_iters} iters; checkpoint {out / 'rpn.frpn'}")


def cmd_train_alt(args):
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    scenes = _load_scenes(args.data)
    iters = args.iters if args.iters is not None else cfg.train_iters
    state = alternate_4step(scenes, cfg.schedule(iters=iters),
                            cfg.schedule_det(iters=iters), cfg.anchor_config(),
                            cfg.loss_weights(), cfg.roi_sample_config(),
                            cfg.detector_n_classes, cfg.rpn_head_dim,
                            cfg.proposal_params(train=True), out_dir=out,
                            channels=cfg.backbone_channels)
    save_state(state, out / "final.frpn")
    write_loss_log(state, out / "loss.csv")
    print(f"4-step training done; unified checkpoint {out / 'final.frpn'}")


def cmd_train_joint(args):
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    scenes = _load_scenes(args.data)
    iters = args.iters if args.iters is not None else cfg.train_joint_iters
    state = joint_train(scenes, cfg.schedule_det(iters=iters), cfg.anchor_config(),
                        cfg.loss_weights(), cfg.roi_sample_config(),
                        cfg.detector_n_classes, cfg.rpn_head_dim,
                        cfg.proposal_params(train=True),
                        channels=cfg.backbone_channels)
    save_state(state, out / "joint.frpn")
    write_loss_log(state, out / "loss.csv")
    print(f"joint training done; checkpoint {out / 'joint.frpn'}")


def cmd_train_onestage(args):
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    scenes = _load_scenes(args.data)
    iters = args.iters if args.iters is not None else cfg.train_iters
    state = train_onestage(scenes, cfg.schedule_det(iters=iters), cfg.anchor_config(),
                           cfg.roi_sample_config(), cfg.detector_n_classes,
                           cfg.rpn_head_dim, channels=cfg.backbone_channels)
    save_state(state, out / "onestage.frpn")
    write_loss_log(state, out / "loss.csv")
    print(f"one-stage training done; checkpoint {out / 'onestage.frpn'}")


def cmd_propose(args):
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    scenes = _load_scenes(args.data)
    state = _build_models(cfg).load(args.ckpt)
    csv = _rpn_proposals_csv(scenes, state, cfg, args.n)
    (out / "proposals.csv").write_text(csv)
    print(f"wrote proposals for {len(scenes)} images to {out / 'proposals.csv'}")


def cmd_detect(args):
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    scenes = _load_scenes(args.data)
    state = _build_models(cfg, want_det=True).load(args.ckpt)
    p = cfg.proposal_params(train=False)
    rows = ["image,class,score,x1,y1,x2,y2"]
    for s in scenes:
        feats, boxes, _ = state.propose_scene(s, p)
        dets = detect(feats, boxes, state.det_head, 1.0 / state.backbone.stride,
                      s.width, s.height, cfg.detector_score_thresh,
                      cfg.detector_nms_iou, cfg.detector_max_per_image)
        for d in dets:
            b = d.box
            rows.append(f"{s.path},{d.class_id},{d.score:.9g},{b.x1:.9g},"
                        f"{b.y1:.9g},{b.x2:.9g},{b.y2:.9g}")
    (out / "detections.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote detections for {len(scenes)} images to {out / 'detections.csv'}")


def _scenes_gt(scenes):
    return [s.boxes for s in scenes], [s.classes for s in scenes]


def cmd_eval_recall(args):
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    m = load_manifest(args.manifest)
    scenes = [m.load_scene(i) for i in range(len(m))]
    groups = _read_grouped_csv(args.proposals, "score", ("x1", "y1", "x2", "y2"))
    props = []
    for s in scenes:
        recs = sorted(groups.get(s.path, []), key=lambda r: -float(r["score"]))
        props.append(np.array([[float(r["x1"]), float(r["y1"]), float(r["x2"]),
                                float(r["y2"])] for r in recs]).reshape(-1, 4))
    gt_boxes, _ = _scenes_gt(scenes)
    curve = recall_curve(props, gt_boxes, args.n)
    (out / "recall.csv").write_text(curve.to_csv())
    print(curve.to_csv(), end="")


def cmd_eval_map(args):
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    m = load_manifest(args.manifest)
    scenes = [m.load_scene(i) for i in range(len(m))]
    groups = _read_grouped_csv(args.detections, "score", ("x1", "y1", "x2", "y2"),
                               extra_cols=("class",))
    from .boxes import Box, ScoredBox
    dets = []
    for s in scenes:
        dets.append([ScoredBox(Box(float(r["x1"]), float(r["y1"]), float(r["x2"]),
                                   float(r["y2"])), float(r["score"]), int(r["class"]))
                     for r in groups.get(s.path, [])])
    gt_boxes, gt_classes = _scenes_gt(scenes)
    mp, per_class = mean_ap(dets, gt_boxes, gt_classes,
                            range(1, cfg.detector_n_classes + 1),
                            cfg.eval_iou_thresh)
    rows = ["class,ap"] + [f"{c},{ap:.6g}" for c, ap in sorted(per_class.items())]
    rows.append(f"mAP,{mp:.6g}")
    (out / "map.csv").write_text("\n".join(rows) + "\n")
    print(f"mAP@{cfg.eval_iou_thresh:g} = {mp:.4f}")


def cmd_bench(args):
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    scenes = _load_scenes(args.data)[:max(args.n_timed, 1)]
    state = _build_models(cfg, want_det=True).load(args.ckpt)
    p = cfg.proposal_params(train=False)

    def conv_fn(scene):
        # all dense convolution: shared trunk + RPN-specific conv layers
        return (scene, *state.rpn_forward(image_to_input(scene.image)))

    def proposal_fn(triple):
        scene, feats, cls, reg = triple
        boxes, _ = state.propose(cls.data, reg.data, scene.width, scene.height, p)
        return scene, boxes

    def region_fn(triple, props):
        scene, feats = triple[0], triple[1]
        _, boxes = props
        return detect(feats, boxes, state.det_head, 1.0 / state.backbone.stride,
                      scene.width, scene.height, cfg.detector_score_thresh,
                      cfg.detector_nms_iou, cfg.detector_max_per_image)

    report = bench(conv_fn, proposal_fn, region_fn, scenes,
                   n_warmup=args.n_warmup, n_timed=args.n_timed)
    (out / "timing.csv").write_text(report.to_csv())
    print(report.to_csv(), end="")


def cmd_ablate(args):
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    scenes = _load_scenes(args.data)
    gt_boxes, _ = _scenes_gt(scenes)
    p = cfg.proposal_params(train=False)

    if args.mode in CKPT_MODES:
        state = _build_models(cfg).load(args.ckpt)

    if args.mode == "no-reg":
        # proposals become the clipped raw anchors, ranked by objectness
        props = []
        for s in scenes:
            _, cls, reg = state.rpn_forward(image_to_input(s.image))
            boxes, _ = state.propose(cls.data, np.zeros_like(reg.data), s.width,
                                     s.height, p)
            props.append(boxes)
        curve = recall_curve(props, gt_boxes, args.n)
        (out / "recall_no_reg.csv").write_text(curve.to_csv())
        print(curve.to_csv(), end="")
    elif args.mode == "no-cls":
        # unscored: decoded boxes in seeded random order
        rng = Rng(cfg.seed, "sampling")
        props = []
        for s in scenes:
            n_all = len(state.anchors(s.width, s.height))
            _, boxes, _ = state.propose_scene(
                s, replace(p, pre_nms_top=n_all, post_nms_top=n_all))
            props.append(boxes[rng.permutation(boxes.shape[0])][:args.n])
        curve = recall_curve(props, gt_boxes, args.n)
        (out / "recall_no_cls.csv").write_text(curve.to_csv())
        print(curve.to_csv(), end="")
    elif args.mode == "n-sweep":
        budgets = sorted(args.budgets)
        full = replace(p, post_nms_top=max(budgets))
        props = [state.propose_scene(s, full)[1] for s in scenes]
        rows = ["n,tau,recall"]
        for n in budgets:
            c = recall_curve(props, gt_boxes, n)
            rows += [f"{n},{t:.6g},{r:.6g}" for t, r in zip(c.iou_grid, c.recall)]
        (out / "recall_n_sweep.csv").write_text("\n".join(rows) + "\n")
        print("\n".join(rows))
    elif args.mode == "anchor-settings":
        settings = [
            ("3s3r", cfg.anchors_scales, cfg.anchors_ratios),
            ("3s1r", cfg.anchors_scales, (1.0,)),
            ("1s3r", (cfg.anchors_scales[len(cfg.anchors_scales) // 2],),
             cfg.anchors_ratios),
            ("1s1r", (cfg.anchors_scales[len(cfg.anchors_scales) // 2],), (1.0,)),
        ]
        rows = ["setting,recall_at_0.5,recall_at_0.7"]
        for name, scales, ratios in settings:
            sub = RunConfig.from_file(out / "config.txt")
            sub.anchors_scales, sub.anchors_ratios = scales, ratios
            state = _build_models(sub)
            train_rpn(scenes, state, sub.schedule(iters=args.iters),
                      sub.anchor_config(), sub.loss_weights())
            props = [state.propose_scene(s, p)[1] for s in scenes]
            c = recall_curve(props, gt_boxes, args.n)
            rows.append(f"{name},{c.at(0.5):.6g},{c.at(0.7):.6g}")
        (out / "anchor_settings.csv").write_text("\n".join(rows) + "\n")
        print("\n".join(rows))
    elif args.mode == "lambda-sweep":
        rows = ["lambda,recall_at_0.5,recall_at_0.7,final_loss_cls,final_loss_reg"]
        for lam in args.lambdas:
            sub = RunConfig.from_file(out / "config.txt")
            sub.rpn_lambda = lam
            state = _build_models(sub)
            train_rpn(scenes, state, sub.schedule(iters=args.iters),
                      sub.anchor_config(), sub.loss_weights())
            props = [state.propose_scene(s, p)[1] for s in scenes]
            c = recall_curve(props, gt_boxes, args.n)
            last = state.loss_log[-1]
            rows.append(f"{lam:g},{c.at(0.5):.6g},{c.at(0.7):.6g},"
                        f"{last['loss_cls']:.6g},{last['loss_reg']:.6g}")
        (out / "lambda_sweep.csv").write_text("\n".join(rows) + "\n")
        print("\n".join(rows))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="minircnn",
                                 description="desk-scale two-stage detector")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--config", help="run-config file (key=value lines)")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--set", nargs=2, action="append", metavar=("KEY", "VALUE"),
                       help="override a single config key")
        if out:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen-data", help="generate the synthetic shapes dataset")
    common(p)
    p.add_argument("--n", type=int, help="number of images")
    p.add_argument("--image-size", type=int, help="square image side, px")
    p.set_defaults(fn=cmd_gen_data)

    for name, fn, hlp in (("train-rpn", cmd_train_rpn, "train the RPN alone"),
                          ("train-alt", cmd_train_alt, "4-step alternating training"),
                          ("train-joint", cmd_train_joint, "approximate joint training"),
                          ("train-onestage", cmd_train_onestage,
                           "train the one-stage baseline")):
        p = sub.add_parser(name, help=hlp)
        common(p)
        p.add_argument("--data", required=True, help="dataset dir or manifest")
        p.add_argument("--iters", type=int, help="iterations (per step)")
        p.set_defaults(fn=fn)

    p = sub.add_parser("propose", help="write top-N proposals per image")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--n", type=int, default=300)
    p.set_defaults(fn=cmd_propose)

    p = sub.add_parser("detect", help="run the full two-stage detector")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("eval-recall", help="recall-to-IoU curve from proposals CSV")
    common(p)
    p.add_argument("--proposals", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--n", type=int, default=300)
    p.set_defaults(fn=cmd_eval_recall)

    p = sub.add_parser("eval-map", help="VOC-style mAP from detections CSV")
    common(p)
    p.add_argument("--detections", required=True)
    p.add_argument("--manifest", required=True)
    p.set_defaults(fn=cmd_eval_map)

    p = sub.add_parser("bench", help="per-stage timing report")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--n-warmup", type=int, default=2)
    p.add_argument("--n-timed", type=int, default=10)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("ablate", help="ablation pipelines")
    common(p)
    p.add_argument("--mode", required=True,
                   choices=[*CKPT_MODES, "anchor-settings", "lambda-sweep"])
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", help="trained RPN checkpoint (no-reg/no-cls/n-sweep)")
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--iters", type=int, default=500,
                   help="training budget for sweep modes")
    p.add_argument("--budgets", type=int, nargs="+", default=[50, 300, 1000])
    p.add_argument("--lambdas", type=float, nargs="+", default=[0.1, 1.0, 10.0, 100.0])
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
        args.fn(args)
        return 0
    except (KeyboardInterrupt,):
        return 1
    except Exception as exc:  # runtime failure -> exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())
