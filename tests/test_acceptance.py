"""Acceptance gate: the ten system-level criteria, one test each.

Each test prints one `ACCEPTANCE <n> <name>: PASS|FAIL` line to the live
terminal (via the terminal reporter, so it survives output capture).
Expensive artifacts — the trained RPN and the matched two-stage/one-stage
pair — are built once per session and shared across criteria.
"""

import time

import numpy as np
import pytest

import minircnn.tensor as T
from minircnn.anchors import AnchorConfig, grid_anchors, inside_mask
from minircnn.assignment import assign_labels, sample_minibatch
from minircnn.boxes import decode_arr, encode_arr, iou_matrix_arr, nms_arr
from minircnn.cli import run as cli_run
from minircnn.dataio import image_to_input, make_scene
from minircnn.detector import RoiBatch, RoiSampleConfig, detect, detector_loss
from minircnn.evaluation import bench, mean_ap, recall_curve
from minircnn.nn import load_checkpoint
from minircnn.onestage import one_stage_detect, train_onestage
from minircnn.rng import Rng
from minircnn.rpn import (Backbone, LossWeights, ProposalParams, RpnHead,
                          propose_arrays, rpn_loss)
from minircnn.tensor import Tensor, gradcheck
from minircnn.training import (TrainSchedule, TrainState, alternate_4step,
                               proposals_for_scenes, train_rpn)

from oracles import brute_iou, brute_nms, random_boxes


@pytest.fixture
def announce(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _report(num, name, ok, detail=""):
        verdict = "PASS" if ok else "FAIL"
        line = f"ACCEPTANCE {num} {name}: {verdict}"
        if detail:
            line += f"  ({detail})"
        if reporter is not None:
            reporter.write_line("")
            reporter.write_line(line)
        assert ok, line

    return _report


# shared expensive artifacts -------------------------------------------------

N_TRAIN, N_TEST = 500, 100
IMAGE_SIZE = 128
ACFG = AnchorConfig()          # scales 16/32/64, ratios 0.5/1/2, stride 8


@pytest.fixture(scope="session")
def shapes_data():
    rng = Rng(11, "data")
    train = [make_scene(rng, IMAGE_SIZE) for _ in range(N_TRAIN)]
    test = [make_scene(rng, IMAGE_SIZE) for _ in range(N_TEST)]
    return train, test


@pytest.fixture(scope="session")
def trained_rpn(shapes_data):
    """The criterion-5 model: 5k iterations on the full 500-scene set."""
    train, test = shapes_data
    init = Rng(7, "init")
    bb = Backbone(init)
    state = TrainState(backbone=bb,
                       rpn_head=RpnHead(init, bb.out_dim, ACFG.k))
    t0 = time.perf_counter()
    train_rpn(train, state, TrainSchedule(total_iters=5000, seed=7),
              ACFG, LossWeights())
    elapsed = time.perf_counter() - t0
    # one 1000-deep proposal list serves budgets 50/300/1000 (score-ordered)
    props = proposals_for_scenes(
        test, state.backbone, state.rpn_head, ACFG,
        ProposalParams(pre_nms_top=6000, post_nms_top=1000))
    return {"state": state, "test": test, "props": props, "elapsed": elapsed}


@pytest.fixture(scope="session")
def matched_pair(shapes_data, tmp_path_factory):
    """Two-stage vs one-stage at matched backbone and iteration budget."""
    train, test = shapes_data
    train, test = train[:150], test[:40]
    roi_cfg = RoiSampleConfig()
    ckpt_dir = tmp_path_factory.mktemp("alt_steps")
    two = alternate_4step(train, TrainSchedule(total_iters=1000, seed=7),
                          TrainSchedule(total_iters=1000, lr=0.01, seed=7),
                          ACFG, LossWeights(), roi_cfg, n_classes=3,
                          out_dir=ckpt_dir)
    one = train_onestage(train, TrainSchedule(total_iters=4000, lr=0.01,
                                              seed=7),
                         ACFG, roi_cfg, n_classes=3)

    gt_boxes = [s.boxes for s in test]
    gt_classes = [s.classes for s in test]
    test_props = ProposalParams(pre_nms_top=6000, post_nms_top=300)
    aset = grid_anchors(ACFG, IMAGE_SIZE // 8, IMAGE_SIZE // 8)

    dets_two, dets_one = [], []
    for s in test:
        feats2 = two.backbone.forward(Tensor(image_to_input(s.image)))
        cls, reg = two.rpn_head.forward(feats2)
        boxes, _ = propose_arrays(cls.data, reg.data, aset, s.width, s.height,
                                  test_props)
        dets_two.append(detect(feats2, boxes, two.det_head, 1 / 8,
                               s.width, s.height))
        feats1 = one.backbone.forward(Tensor(image_to_input(s.image)))
        dets_one.append(one_stage_detect(feats1, one.onestage_head, aset,
                                         s.width, s.height))
    map_two, _ = mean_ap(dets_two, gt_boxes, gt_classes, [1, 2, 3])
    map_one, _ = mean_ap(dets_one, gt_boxes, gt_classes, [1, 2, 3])
    return {"two": two, "one": one, "map_two": map_two, "map_one": map_one,
            "ckpt_dir": ckpt_dir, "test": test, "aset": aset,
            "test_props": test_props}


# the ten criteria -----------------------------------------------------------

class TestCriterion1GeometryOracles:
    def test_geometry_matches_brute_force(self, announce):
        t0 = time.perf_counter()
        rng = np.random.default_rng(100)
        n_bad = 0

        for _ in range(1000):                       # IoU vs scalar oracle
            a = random_boxes(rng, 1, hi=50, min_size=0.5)
            b = random_boxes(rng, 1, hi=50, min_size=0.5)
            if abs(iou_matrix_arr(a, b)[0, 0] - brute_iou(a[0], b[0])) > 1e-12:
                n_bad += 1

        for _ in range(1000):                       # encode/decode roundtrip
            anchors = random_boxes(rng, 8, hi=60, min_size=1.0)
            gt = random_boxes(rng, 8, hi=60, min_size=1.0)
            back = decode_arr(encode_arr(gt, anchors), anchors)
            if np.abs(back - gt).max() > 1e-9:
                n_bad += 1

        for _ in range(1000):                       # NMS vs quadratic oracle
            n = int(rng.integers(1, 25))
            boxes = random_boxes(rng, n, hi=40, min_size=2.0)
            scores = rng.uniform(0, 1, n)
            if list(nms_arr(boxes, scores, 0.5)) != brute_nms(boxes, scores, 0.5):
                n_bad += 1

        dt = time.perf_counter() - t0
        announce(1, "geometry-oracles", n_bad == 0 and dt < 10.0,
                 f"mismatches={n_bad}, {dt:.1f}s")


class TestCriterion2GradientSuite:
    def test_all_ops_and_losses(self, announce):
        t0 = time.perf_counter()
        rng = np.random.default_rng(200)
        worst = {}

        def t64(a, grad=True):
            return Tensor(np.asarray(a, dtype=np.float64), requires_grad=grad)

        def away(shape, boundaries, lo=-2.0, hi=2.0):
            x = rng.uniform(lo, hi, size=shape)
            for _ in range(100):
                bad = np.zeros(x.shape, dtype=bool)
                for b in boundaries:
                    bad |= np.abs(x - b) < 2e-3
                if not bad.any():
                    break
                x[bad] = rng.uniform(lo, hi, size=int(bad.sum()))
            return t64(x)

        def check(name, fn, tensors):
            worst[name] = max(worst.get(name, 0.0), gradcheck(fn, tensors))

        for _ in range(20):
            a, b = t64(rng.uniform(-1, 1, (3, 4))), t64(rng.uniform(-1, 1, (3, 4)))
            check("add", lambda a, b: T.tsum(T.add(a, b)), [a, b])
            check("mul", lambda a, b: T.tsum(T.mul(a, b)), [a, b])
            check("sum", lambda a: T.tsum(a), [a])
            check("reshape", lambda a: T.tsum(T.mul(T.reshape(a, (12,)),
                                                    T.reshape(a, (12,)))), [a])
            check("transpose", lambda a: T.tsum(T.mul(T.transpose(a, (1, 0)),
                                                      0.7)), [a])
            idx = rng.integers(0, 3, size=4)
            check("take_rows",
                  lambda a: T.tsum(T.mul(T.take_rows(a, idx), 0.5)), [a])
            s = t64(rng.uniform(-1, 1, (4, 3, 2)))
            cls = rng.integers(0, 3, size=4)
            check("select_class", lambda s: T.tsum(T.mul(T.select_class(s, cls),
                                                         0.9)), [s])
            r = away((3, 4), [0.0])
            check("relu", lambda r: T.tsum(T.relu(r)), [r])
            sl = away((3, 4), [0.0, 1.0, -1.0])
            check("smooth_l1", lambda sl: T.tsum(T.smooth_l1(sl)), [sl])
            x, w, bb = (t64(rng.uniform(-1, 1, (4, 3))),
                        t64(rng.uniform(-1, 1, (3, 5))),
                        t64(rng.uniform(-1, 1, 5)))
            check("linear", lambda x, w, bb: T.tsum(T.linear(x, w, bb)),
                  [x, w, bb])
            lo = t64(rng.uniform(-2, 2, (4, 3)))
            lab = rng.integers(0, 3, size=4)
            check("softmax_logloss",
                  lambda lo: T.tsum(T.softmax_logloss(lo, lab)), [lo])
            cx = t64(rng.uniform(-1, 1, (2, 5, 5)))
            cw = t64(rng.uniform(-1, 1, (2, 2, 3, 3)))
            cb = t64(rng.uniform(-1, 1, 2))
            check("conv2d", lambda cx, cw, cb: T.tsum(T.conv2d(cx, cw, cb,
                                                               pad=1)),
                  [cx, cw, cb])
            mp = t64(rng.permutation(32).astype(np.float64).reshape(2, 4, 4)
                     * 0.11)
            check("maxpool2x2", lambda mp: T.tsum(T.maxpool2x2(mp)), [mp])
            rp = t64(rng.permutation(64).astype(np.float64).reshape(1, 8, 8)
                     * 0.07)
            rois = np.stack([rng.uniform(0, 3, 2), rng.uniform(0, 3, 2),
                             rng.uniform(4, 8, 2), rng.uniform(4, 8, 2)],
                            axis=1)
            check("roi_pool",
                  lambda rp: T.tsum(T.mul(T.roi_pool(rp, rois, 1.0, 2), 0.4)),
                  [rp])

        # both losses on labeled micro-instances
        mini = AnchorConfig(scales=(8.0, 16.0), ratios=(1.0, 2.0), stride=8)
        aset = grid_anchors(mini, 4, 4)
        inside_mask(aset, 32, 32)
        gt = np.array([[4.0, 4.0, 14.0, 14.0], [16.0, 10.0, 30.0, 26.0]])
        tgt = assign_labels(aset, gt, 32, 32)
        for i in range(20):
            tgt_i = sample_minibatch(tgt, Rng(i, "sampling"), batch=16,
                                     max_pos=8)
            cls = t64(rng.normal(size=(2 * mini.k, 4, 4)))
            reg = t64(rng.normal(size=(4 * mini.k, 4, 4)) * 0.1)
            check("rpn_loss",
                  lambda cls, reg: rpn_loss(cls, reg, tgt_i, mini.k,
                                            LossWeights())[0], [cls, reg])
            n, C = 6, 3
            labels = rng.integers(0, C + 1, size=n)
            labels[0] = 1 + (i % C)                 # guarantee a foreground row
            batch = RoiBatch(rois=np.zeros((n, 4)), labels=labels,
                             targets=rng.uniform(-0.5, 0.5, (n, 4)))
            logits = t64(rng.normal(size=(n, C + 1)))
            deltas = t64(rng.normal(size=(n, 4 * C)) * 0.3)
            check("detector_loss",
                  lambda logits, deltas: detector_loss(logits, deltas,
                                                       batch)[0],
                  [logits, deltas])

        dt = time.perf_counter() - t0
        bad = {k: v for k, v in worst.items() if v >= 1e-4}
        announce(2, "gradient-suite", not bad and dt < 60.0,
                 f"ops={len(worst)}, worst={max(worst.values()):.2e}, "
                 f"{dt:.1f}s" + (f", failing={bad}" if bad else ""))


class TestCriterion3AnchorCount:
    def test_paper_configuration(self, announce):
        cfg = AnchorConfig(scales=(128.0, 256.0, 512.0),
                           ratios=(0.5, 1.0, 2.0), stride=16)
        aset = grid_anchors(cfg, 1000 // 16, 600 // 16)
        total = len(aset)
        inside = int(inside_mask(aset, 1000, 600).sum())
        ok = abs(total - 20000) <= 2000 and 5000 <= inside <= 8000
        announce(3, "anchor-count", ok, f"total={total}, inside={inside}")


class TestCriterion4LossStructure:
    def _micro(self, seed=0):
        cfg = AnchorConfig(scales=(8.0, 16.0), ratios=(1.0, 2.0), stride=8)
        aset = grid_anchors(cfg, 4, 4)
        inside_mask(aset, 32, 32)
        gt = np.array([[4.0, 4.0, 14.0, 14.0], [16.0, 10.0, 30.0, 26.0]])
        t = assign_labels(aset, gt, 32, 32)
        t = sample_minibatch(t, Rng(seed, "sampling"), batch=16, max_pos=8)
        rng = np.random.default_rng(seed)
        cls = Tensor(rng.normal(size=(2 * cfg.k, 4, 4)), requires_grad=True)
        reg = Tensor(rng.normal(size=(4 * cfg.k, 4, 4)) * 0.1,
                     requires_grad=True)
        return cfg, aset, t, cls, reg

    def test_zero_positives_and_lambda_scaling(self, announce):
        cfg, aset, t, cls, reg = self._micro()
        # (a) no positives in the batch -> regression term exactly zero
        t.labels[t.labels == 1] = -1
        t0 = sample_minibatch(t, Rng(0, "sampling"), batch=16)
        loss, cls_val, reg_val = rpn_loss(cls, reg, t0, cfg.k, LossWeights())
        loss.backward()
        zero_ok = reg_val == 0.0 and (reg.grad is None
                                      or np.all(reg.grad == 0.0))

        # (b) lambda -> c * lambda multiplies the reg gradient by exactly c
        cfg, aset, t, cls, reg = self._micro(1)
        c = 3.0
        grads = []
        for lam in (10.0, 10.0 * c):
            cls.zero_grad(), reg.zero_grad()
            loss, _, _ = rpn_loss(cls, reg, t, cfg.k,
                                  LossWeights(lam=lam))
            loss.backward()
            grads.append((cls.grad.copy(), reg.grad.copy()))
        lam_ok = (np.allclose(grads[1][1], c * grads[0][1], rtol=1e-12,
                              atol=0.0)
                  and np.array_equal(grads[1][0], grads[0][0]))
        announce(4, "loss-structure", zero_ok and lam_ok,
                 f"zero-positive reg={reg_val}, lambda-scale exact={lam_ok}")


class TestCriterion5RpnRecall:
    def test_recall_after_5k_iters(self, announce, trained_rpn):
        gts = [s.boxes for s in trained_rpn["test"]]
        c = recall_curve(trained_rpn["props"], gts, 300)
        r50, r70 = c.at(0.5), c.at(0.7)
        ok = r50 >= 0.95 and r70 >= 0.80 and trained_rpn["elapsed"] < 1800
        announce(5, "rpn-recall", ok,
                 f"recall@0.5={r50:.3f}, recall@0.7={r70:.3f}, "
                 f"train={trained_rpn['elapsed']:.0f}s")


class TestCriterion6Ablations:
    def test_three_ablations(self, announce, trained_rpn):
        state, test = trained_rpn["state"], trained_rpn["test"]
        gts = [s.boxes for s in test]
        props = trained_rpn["props"]
        full70 = recall_curve(props, gts, 300).at(0.7)

        # (a) no regression: proposals are clipped anchors ranked by score
        p = ProposalParams(pre_nms_top=6000, post_nms_top=300)
        aset = grid_anchors(ACFG, IMAGE_SIZE // 8, IMAGE_SIZE // 8)
        noreg = []
        for s in test:
            feats = state.backbone.forward(Tensor(image_to_input(s.image)))
            cls, reg = state.rpn_head.forward(feats)
            boxes, _ = propose_arrays(cls.data, np.zeros_like(reg.data), aset,
                                      s.width, s.height, p)
            noreg.append(boxes)
        noreg70 = recall_curve(noreg, gts, 300).at(0.7)
        a_ok = full70 - noreg70 >= 0.10

        # (b) score-ranked top-50 beats a random 50
        rng = Rng(3, "sampling")
        rand50 = [b[rng.permutation(b.shape[0])][:50] for b in props]
        top50 = recall_curve(props, gts, 50).at(0.5)
        rnd50 = recall_curve(rand50, gts, 50).at(0.5)
        b_ok = top50 > rnd50

        # (c) recall monotone in the proposal budget
        r = [recall_curve(props, gts, n).recall for n in (50, 300, 1000)]
        c_ok = all(np.all(np.asarray(hi) >= np.asarray(lo) - 1e-12)
                   for lo, hi in zip(r, r[1:]))
        announce(6, "ablations", a_ok and b_ok and c_ok,
                 f"no-reg@0.7 {full70:.3f}->{noreg70:.3f}, "
                 f"top50@0.5={top50:.3f} vs rand50={rnd50:.3f}, "
                 f"monotone={c_ok}")


class TestCriterion7TwoStageVsOneStage:
    def test_map_ordering(self, announce, matched_pair):
        m2, m1 = matched_pair["map_two"], matched_pair["map_one"]
        announce(7, "two-stage-vs-one-stage", m2 >= m1,
                 f"two-stage mAP@0.5={m2:.3f}, one-stage mAP@0.5={m1:.3f}")


class TestCriterion8SharedBackbone:
    def test_backbone_frozen_and_shared(self, announce, matched_pair):
        d = matched_pair["ckpt_dir"]
        steps = {n: load_checkpoint(d / f"{n}.frpn")
                 for n in ("step2", "step3", "step4")}
        names = sorted(k for k in steps["step2"] if k.startswith("backbone."))

        def bb_bytes(s):
            return b"".join(steps[s][n].tobytes() for n in names)

        frozen = bb_bytes("step2") == bb_bytes("step3") == bb_bytes("step4")
        shared = matched_pair["two"].rpn_head is not None and \
            matched_pair["two"].det_head is not None
        announce(8, "shared-backbone", frozen and shared,
                 f"backbone params={len(names)}, steps 2..4 bit-identical="
                 f"{frozen}")


class TestCriterion9Determinism:
    def test_cli_double_runs_byte_identical(self, announce, tmp_path):
        tiny = ["--set", "data.image_size", "48",
                "--set", "backbone.channels", "4,8,8,8",
                "--set", "anchors.scales", "8,16",
                "--set", "anchors.ratios", "1,2",
                "--set", "rpn.head_dim", "8",
                "--set", "proposals.pre_nms_top", "100",
                "--set", "proposals.post_nms_top_train", "50",
                "--set", "proposals.post_nms_top_test", "20",
                "--seed", "13"]
        outs = {}
        for tag in ("a", "b"):
            data = tmp_path / f"data_{tag}"
            rpn = tmp_path / f"rpn_{tag}"
            prop = tmp_path / f"prop_{tag}"
            assert cli_run(["gen-data", "--out", str(data), "--n", "4",
                            *tiny]) == 0
            assert cli_run(["train-rpn", "--out", str(rpn), "--data",
                            str(data), "--iters", "5", *tiny]) == 0
            assert cli_run(["propose", "--out", str(prop), "--ckpt",
                            str(rpn / "rpn.frpn"), "--data", str(data),
                            "--n", "10", *tiny]) == 0
            outs[tag] = {
                "images": b"".join(p.read_bytes() for p in
                                   sorted(data.glob("images/*.ppm"))),
                "manifest": (data / "manifest.jsonl").read_bytes(),
                "ckpt": (rpn / "rpn.frpn").read_bytes(),
                "loss": (rpn / "loss.csv").read_bytes(),
                "props": (prop / "proposals.csv").read_bytes(),
            }
        same = {k: outs["a"][k] == outs["b"][k] for k in outs["a"]}
        announce(9, "determinism", all(same.values()),
                 ", ".join(f"{k}={'=' if v else '!='}"
                           for k, v in same.items()))


class TestCriterion10Timing:
    def test_proposal_faster_than_conv(self, announce, matched_pair):
        two = matched_pair["two"]
        aset = matched_pair["aset"]
        p = matched_pair["test_props"]

        def conv_fn(scene):
            # all dense convolution: shared trunk + RPN-specific convs
            feats = two.backbone.forward(Tensor(image_to_input(scene.image)))
            cls, reg = two.rpn_head.forward(feats)
            return scene, feats, cls, reg

        def proposal_fn(triple):
            scene, _, cls, reg = triple
            boxes, _s = propose_arrays(cls.data, reg.data, aset, scene.width,
                                       scene.height, p)
            return boxes

        def region_fn(triple, boxes):
            scene, feats = triple[0], triple[1]
            return detect(feats, boxes, two.det_head, 1 / 8, scene.width,
                          scene.height)

        r = bench(conv_fn, proposal_fn, region_fn, matched_pair["test"][:10],
                  n_warmup=2, n_timed=10)
        announce(10, "timing", r.proposal_ms < r.conv_ms,
                 f"conv={r.conv_ms:.1f}ms, proposal={r.proposal_ms:.1f}ms, "
                 f"region-wise={r.region_ms:.1f}ms, total={r.total_ms:.1f}ms")
