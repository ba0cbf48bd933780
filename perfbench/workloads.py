"""The benchmark's three closed-loop, single-client workloads.

Each workload builds its inputs from the workload seed, runs a fixed number
of items sized from `--seconds`, and returns a `Run` holding its set-up
time, per-item wall times and reference-kernel times, failures, quality
figures and an output digest.

- detect-300: two-stage inference, one image per item, 300 proposals. A
  short seeded joint training in set-up gives the checkpoint, because an
  untrained model fills the 100-detection cap on every image.
- train-joint: approximate joint training, one image per iteration, 2000
  training proposals, so train-time NMS and sampling run every item.
- train-onestage: dense one-stage training; no proposals, RoI pooling or
  NMS. The bypass workload for changes to those layers.
"""
from __future__ import annotations

import contextlib
import hashlib
import logging
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import adapter
from minircnn import dataio, evaluation, onestage, training
from minircnn.config import RunConfig
from spans import Patches, Tracer, clock

WORKLOADS = ("detect-300", "train-joint", "train-onestage")
# items per second of --seconds on a 2-core x86 box with BLAS pinned to one
# thread; the item count is fixed from it so every output is a function of
# the seed alone
RATES = {"detect-300": 5.25, "train-joint": 8.0, "train-onestage": 25.0}
MIN_ITEMS = 100          # p90 then has 10 samples above it
# set-ups per timed run, spread over the run; setup_s is their median
SETUP_REPS = {"detect-300": 3, "train-joint": 7, "train-onestage": 7}
N_TRAIN = 64             # training scenes
CKPT_ITERS = 80          # joint iterations behind the detect-300 checkpoint
TEST_SEED_OFFSET = 1_000_000
FINAL_LOSS_ROWS = 20
REF_MS = 2.0             # the reference kernel's nominal time; see reference_s


# The shared host runs the same code up to 2x slower for seconds to minutes at
# a time. A fixed reference kernel, run between timed items, measures the
# machine's speed at that moment; an item's normalized time is its wall time
# times REF_MS over the reference time around it, its time on a machine whose
# speed holds the kernel at REF_MS. The kernel mixes what the workloads spend
# their time on: small numpy calls from Python loops (roi_pool, NMS) and BLAS
# products (conv2d, linear). It uses no package code, so a change to the
# package cannot move it.
_REF = np.random.default_rng(0)
_REF_X = _REF.standard_normal((16, 32, 32))
_REF_A = _REF.standard_normal((64, 144))
_REF_B = _REF.standard_normal((144, 256))
_REF_C = np.arange(16)


def reference_s() -> float:
    """Wall time of one pass of the reference kernel, in seconds."""
    t0 = clock()
    for i in range(200):
        r, c = i % 24, (i * 7) % 24
        sub = _REF_X[:, r:r + 5, c:c + 5].reshape(16, -1)
        sub[_REF_C, sub.argmax(axis=1)].sum()
    for _ in range(4):
        _REF_A @ _REF_B
    return clock() - t0


def normalized_ms(run: Run) -> np.ndarray:
    """The run's item times in ms at the reference speed."""
    return np.array(run.item_s) * REF_MS / np.array(run.ref_s)


def n_items(workload: str, seconds: float) -> int:
    return max(MIN_ITEMS, round(seconds * RATES[workload]))


@dataclass
class Run:
    setup_s: list[float] = field(default_factory=list)
    item_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)   # per item, see reference_s
    attempted: int = 0
    failed: int = 0
    quality: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    bounds: dict[int, tuple[float, float]] = field(default_factory=dict)
    minibatch_skipped: int = 0   # iterations skipped for want of labeled anchors


class SkipCounter(logging.Handler):
    """Counts the training loops' `skipping image` warnings."""

    def __init__(self):
        super().__init__()
        self.skipped = 0
        self.no_anchors = 0

    def emit(self, record):
        msg = record.getMessage()
        if msg.startswith("skipping image"):
            self.skipped += 1
            self.no_anchors += "no labelable anchors" in msg


def config(seed: int) -> RunConfig:
    cfg = RunConfig()
    cfg.seed = seed
    return cfg


def make_scenes(out: Path, n: int, seed: int):
    """Generate and read back a synthetic split, as `gen-data` + the CLI do."""
    dataio.gen_synthetic(out, n, seed=seed)
    m = dataio.load_manifest(out / "manifest.jsonl")
    return [m.load_scene(i) for i in range(len(m))]


def sha256_files(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# detect-300 -----------------------------------------------------------

def check_detections(dets, scene, cfg) -> list[str]:
    """Reasons one image's detections are invalid; empty when valid."""
    bad = []
    if len(dets) > cfg.detector_max_per_image:
        bad.append(f"{len(dets)} detections > max_per_image")
    scores = [d.score for d in dets]
    if any(a < b for a, b in zip(scores, scores[1:])):
        bad.append("scores not in descending order")
    for d in dets:
        b = np.array([d.box.x1, d.box.y1, d.box.x2, d.box.y2])
        if not (np.all(np.isfinite(b)) and np.isfinite(d.score)):
            bad.append("non-finite detection")
        elif not (0 <= b[0] <= b[2] <= scene.width and 0 <= b[1] <= b[3] <= scene.height):
            bad.append(f"box {b.tolist()} outside the image")
        if not 0 <= d.score <= 1:
            bad.append(f"score {d.score} outside [0, 1]")
        if not 1 <= d.class_id <= cfg.detector_n_classes:
            bad.append(f"class id {d.class_id} outside 1..C")
    return bad


def check_proposals(boxes, cfg) -> list[str]:
    bad = []
    if boxes.shape[0] > cfg.proposals_post_nms_top_test:
        bad.append(f"{boxes.shape[0]} proposals > post_nms_top")
    if not np.all(np.isfinite(boxes)):
        bad.append("non-finite proposal")
    return bad


def _detect_setup(cfg, work: Path, n_test: int):
    scenes = make_scenes(work / "train", N_TRAIN, cfg.seed)
    state = training.joint_train(
        scenes, cfg.schedule_det(iters=CKPT_ITERS), cfg.anchor_config(),
        cfg.loss_weights(), cfg.roi_sample_config(), cfg.detector_n_classes,
        cfg.rpn_head_dim, cfg.proposal_params(train=True),
        channels=cfg.backbone_channels)
    ckpt = work / "joint.frpn"
    training.save_state(state, ckpt)
    test = make_scenes(work / "test", n_test, cfg.seed + TEST_SEED_OFFSET)
    model = adapter.restore(cfg, ckpt)
    adapter.detect_image(model, cfg, test[0])   # warm-up
    return model, test, sha256_files(ckpt)


def detect_300(cfg, work: Path, items: int, setups: int,
               tracer: Tracer | None = None) -> Run:
    """Set-ups alternate with equal shares of the timed images, so the timed
    items are spread over the whole run rather than bunched at its end."""
    run = Run()
    ckpts = set()
    outputs = []
    for rep in range(setups):
        if tracer:
            tracer.item = "setup"
        t0 = clock()
        model, test, ckpt = _detect_setup(cfg, work / f"setup{rep}", items)
        run.setup_s.append(clock() - t0)
        ckpts.add(ckpt)
        ref = reference_s()
        for scene in test[rep * items // setups:(rep + 1) * items // setups]:
            i = len(outputs) + 1
            if tracer:
                tracer.item = i
            t0 = clock()
            try:
                out = adapter.detect_image(model, cfg, scene)
            except Exception as exc:  # a failed item; the closed loop goes on
                out = exc
            t1 = clock()
            run.item_s.append(t1 - t0)
            run.bounds[i] = (t0, t1)
            outputs.append(out)
            after = reference_s()
            run.ref_s.append((ref + after) / 2)
            ref = after
    if tracer:
        tracer.item = "post"
    if len(ckpts) != 1:
        run.problems.append("repeated set-ups trained different checkpoints")

    run.attempted = len(test)
    rows, props, dets_all = [], [], []
    for scene, out in zip(test, outputs):
        bad = [repr(out)] if isinstance(out, Exception) else \
            check_proposals(out[0], cfg) + check_detections(out[1], scene, cfg)
        if bad:
            run.failed += 1
            run.problems.append(f"{scene.path}: {bad[0]}")
            props.append(np.zeros((0, 4)))
            dets_all.append([])
            continue
        props.append(out[0])
        dets_all.append(out[1])
        rows += adapter.detection_rows(scene, out[1])
    gt_boxes = [s.boxes for s in test]
    run.quality["map_0.5"] = evaluation.mean_ap(
        dets_all, gt_boxes, [s.classes for s in test],
        range(1, cfg.detector_n_classes + 1), cfg.eval_iou_thresh)[0]
    run.quality["recall_0.7"] = evaluation.recall_curve(
        props, gt_boxes, cfg.proposals_post_nms_top_test).at(0.7)
    run.digest = hashlib.sha256(("\n".join(rows) + "\n").encode()).hexdigest()
    return run


# training workloads ---------------------------------------------------

class _SetupDone(Exception):
    """Ends a set-up-only repetition at the first return of sgd_step."""


def _train_once(workload, cfg, work: Path, iters: int, setup_only: bool,
                tracer: Tracer | None, run: Run):
    loop_module = training if workload == "train-joint" else onestage
    marks: list[float] = []      # returns of sgd_step
    starts: list[float] = []     # the next iteration's start, after the reference
    refs: list[float] = []
    inner = loop_module.sgd_step

    def clocked(params, sgd_cfg):
        inner(params, sgd_cfg)
        marks.append(clock())
        if tracer:
            tracer.item = len(marks)
        if setup_only:
            raise _SetupDone
        refs.append(reference_s())
        starts.append(clock())

    t0 = clock()
    scenes = make_scenes(work / "train", N_TRAIN, cfg.seed)
    patches = Patches()
    patches.set(loop_module, "sgd_step", clocked)
    try:
        if workload == "train-joint":
            state = training.joint_train(
                scenes, cfg.schedule_det(iters=iters), cfg.anchor_config(),
                cfg.loss_weights(), cfg.roi_sample_config(), cfg.detector_n_classes,
                cfg.rpn_head_dim, cfg.proposal_params(train=True),
                channels=cfg.backbone_channels)
        else:
            state = onestage.train_onestage(
                scenes, cfg.schedule_det(iters=iters), cfg.anchor_config(),
                cfg.roi_sample_config(), cfg.detector_n_classes, cfg.rpn_head_dim,
                channels=cfg.backbone_channels)
    except _SetupDone:
        run.setup_s.append(marks[0] - t0)
        return None
    finally:
        patches.undo()
    if tracer:
        tracer.item = "post"
    run.setup_s.append(marks[0] - t0)
    run.bounds = {k: (starts[k - 1], marks[k]) for k in range(1, len(marks))}
    run.item_s = [b - a for a, b in run.bounds.values()]
    run.ref_s = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    return state


def train(workload: str, cfg, work: Path, items: int, setups: int,
          tracer: Tracer | None = None) -> Run:
    run = Run()
    iters = items + 1        # iteration 0 is the warm-up, part of set-up
    skips = SkipCounter()
    log = logging.getLogger("minircnn")
    log.addHandler(skips)
    before = (setups - 1) // 2   # the other set-up-only passes follow the timed one
    try:
        for rep in range(before):
            _train_once(workload, cfg, work / f"setup{rep}", iters, True, None, run)
        state = _train_once(workload, cfg, work / "run", iters, False, tracer, run)
        for rep in range(before, setups - 1):
            _train_once(workload, cfg, work / f"setup{rep}", iters, True, None, run)
    finally:
        log.removeHandler(skips)

    rows = state.loss_log
    totals = np.array([sum(v for k, v in r.items() if k.startswith("loss_"))
                       for r in rows])
    nonfinite = int(np.sum(~np.isfinite(totals)))
    run.attempted = iters
    run.minibatch_skipped = skips.no_anchors
    run.failed = skips.skipped + nonfinite
    if run.failed:
        run.problems.append(f"{skips.skipped} skipped and {nonfinite} non-finite "
                            "iterations")
    run.quality["final_loss"] = float(np.mean(totals[-FINAL_LOSS_ROWS:]))
    if not run.quality["final_loss"] < np.mean(totals[:FINAL_LOSS_ROWS]):
        run.problems.append("loss did not fall over the run")
    loss_csv, ckpt = work / "loss.csv", work / "final.frpn"
    training.write_loss_log(state, loss_csv)
    training.save_state(state, ckpt)
    run.digest = sha256_files(loss_csv, ckpt)
    return run


def run_workload(workload: str, seed: int, items: int, root: Path, setups: int,
                 tracer: Tracer | None = None) -> Run:
    """One pass of a workload in a scratch directory under `root`."""
    root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=root))
    try:
        if workload == "detect-300":
            return detect_300(config(seed), work, items, setups, tracer)
        return train(workload, config(seed), work, items, setups, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by another run
            root.rmdir()
