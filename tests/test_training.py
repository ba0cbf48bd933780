"""Training loops: schedules, determinism, freezing, and the 4-step scheme."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from minircnn import training
from minircnn.anchors import AnchorConfig
from minircnn.dataio import make_scene
from minircnn.detector import DetectorHead
from minircnn.nn import Param, load_checkpoint, save_checkpoint
from minircnn.rng import Rng
from minircnn.rpn import Backbone, RpnHead
from minircnn.training import (
    TrainState,
    alternate_4step,
    backbone_checksum,
    joint_train,
    train,
    write_loss_log,
)

import defaults
from defaults import CHANNELS, TEST_PROPOSALS, WEIGHTS, schedule

ACFG = AnchorConfig(scales=(8.0, 16.0), ratios=(1.0, 2.0), stride=8)
ROI = replace(defaults.ROI, rois_per_image=16)
PROPS = replace(TEST_PROPOSALS, pre_nms_top=200, post_nms_top=50)
OBJECTIVES = (WEIGHTS, ROI, PROPS)     # what `train` samples and proposes with


def scenes(n=3, seed=9):
    rng = Rng(seed).substream("data")
    return [make_scene(rng, image_size=64) for _ in range(n)]


def fresh_rpn_state(seed=1):
    init = Rng(seed).substream("init")
    bb = Backbone(init, CHANNELS)
    return TrainState(bb, ACFG, rpn_head=RpnHead(init, bb.out_dim, ACFG.k, 8))


def params_of(state):
    out = list(state.backbone.params)
    for head in (state.rpn_head, state.det_head, state.onestage_head):
        if head is not None:
            out += head.params
    return out


def assert_states_equal(a, b):
    pa, pb = params_of(a), params_of(b)
    assert [p.name for p in pa] == [p.name for p in pb]
    for x, y in zip(pa, pb):
        np.testing.assert_array_equal(x.value.data, y.value.data)


class TestSchedule:
    def test_lr_drop(self):
        s = replace(schedule(1000, seed=0), lr=0.1, lr_drop_at=600)
        assert s.lr_at(0) == 0.1
        assert s.lr_at(599) == 0.1
        assert s.lr_at(600) == pytest.approx(0.01)
        assert s.lr_at(999) == pytest.approx(0.01)

    def test_default_drop_is_three_quarters(self):
        assert schedule(1000, seed=0).lr_drop_at == 750

    def test_drop_past_end_rejected(self):
        # the drop point is the config key train.lr_drop_frac, checked by `RunConfig`
        with pytest.raises(ValueError, match=r"train\.lr_drop_frac=1\.5 is outside"):
            replace(defaults.CFG, train_lr_drop_frac=1.5)


class TestTrainRpn:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], fresh_rpn_state(), schedule(1, seed=0), *OBJECTIVES)

    def test_zero_iters_leaves_params_unchanged(self):
        data = scenes()
        st = fresh_rpn_state()
        before = [p.value.data.copy() for p in params_of(st)]
        train(data, st, schedule(0, seed=0), *OBJECTIVES)
        for p, b in zip(params_of(st), before):
            np.testing.assert_array_equal(p.value.data, b)
        assert st.loss_log == []

    def test_loss_log_and_iteration_counter(self):
        st = fresh_rpn_state()
        train(scenes(), st, schedule(6, seed=3), *OBJECTIVES)
        assert len(st.loss_log) == 6
        assert [r["iteration"] for r in st.loss_log] == list(range(6))
        assert list(st.loss_log[0]) == ["iteration", "lr", "loss_cls", "loss_reg"]

    def test_deterministic_given_seed(self):
        data = scenes()
        a, b = fresh_rpn_state(7), fresh_rpn_state(7)
        for st in (a, b):
            train(data, st, schedule(5, seed=4), *OBJECTIVES)
        assert_states_equal(a, b)
        assert a.loss_log == b.loss_log

    def test_loss_decreases_over_short_run(self):
        st = fresh_rpn_state(2)
        train(scenes(4), st, schedule(100, seed=2), *OBJECTIVES)
        first = np.mean([r["loss_cls"] for r in st.loss_log[:10]])
        last = np.mean([r["loss_cls"] for r in st.loss_log[-10:]])
        assert last < first

    def test_frozen_backbone_untouched(self):
        st = fresh_rpn_state(5)
        st.backbone.set_trainable(False)
        pre = backbone_checksum(st.backbone)
        head_pre = [p.value.data.copy() for p in st.rpn_head.params]
        train(scenes(), st, schedule(4, seed=5), *OBJECTIVES)
        assert backbone_checksum(st.backbone) == pre
        changed = any(not np.array_equal(p.value.data, b)
                      for p, b in zip(st.rpn_head.params, head_pre))
        assert changed


class TestTrainDetector:
    def test_runs_and_logs(self):
        data = scenes()
        st = fresh_rpn_state(6)
        train(data, st, schedule(20, seed=6), *OBJECTIVES)
        props = [st.propose_scene(s, PROPS)[0] for s in data]
        det = TrainState(st.backbone, ACFG,
                         det_head=DetectorHead(Rng(1).substream("init"),
                                               st.backbone.out_dim, 3))
        train(data, det, schedule(4, seed=6), *OBJECTIVES, proposals=props)
        assert len(det.loss_log) == 4
        assert list(det.loss_log[0]) == ["iteration", "lr", "loss_det_cls",
                                         "loss_det_reg"]

    def test_needs_proposals_without_an_rpn_head(self):
        bb = Backbone(Rng(1).substream("init"), CHANNELS)
        det = TrainState(bb, ACFG, det_head=DetectorHead(Rng(1).substream("init"),
                                                         bb.out_dim, 3))
        with pytest.raises(ValueError, match="proposals"):
            train(scenes(), det, schedule(1, seed=0), *OBJECTIVES)


class TestAlternate4Step:
    def run(self, seed=0, out_dir=None):
        return alternate_4step(
            scenes(4), schedule(15, seed),
            schedule(10, seed), ACFG, WEIGHTS, ROI, n_classes=3, head_dim=8,
            train_proposals=PROPS, channels=CHANNELS, out_dir=out_dir)

    def test_final_state_shares_one_backbone(self):
        st = self.run()
        assert st.rpn_head is not None and st.det_head is not None
        assert st.backbone is not None
        # log covers all four steps: both loss vocabularies appear
        keys = set().union(*(set(r) for r in st.loss_log))
        assert {"loss_cls", "loss_reg", "loss_det_cls", "loss_det_reg"} <= keys

    def test_deterministic(self):
        assert_states_equal(self.run(3), self.run(3))

    def test_checkpoints_written(self, tmp_path):
        self.run(out_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["step1.frpn", "step2.frpn", "step3.frpn", "step4.frpn"]
        for p in tmp_path.iterdir():
            assert p.read_bytes()[:4] == b"FRPN"

    def test_each_checkpoint_holds_its_step_end(self, tmp_path):
        """Step 4 fine-tunes the detector head step 2 trained, on the frozen
        backbone: step2.frpn keeps step 2's head, not step 4's."""
        self.run(out_dir=tmp_path)
        step2, step4 = (load_checkpoint(tmp_path / f"{n}.frpn") for n in ("step2", "step4"))
        assert step2.keys() == step4.keys()
        for name in step2:
            same = np.array_equal(step2[name], step4[name])
            assert same == name.startswith("backbone."), name


class TestJointTrain:
    def test_log_contains_both_losses_each_row(self):
        st = joint_train(scenes(3), schedule(6, seed=1),
                         ACFG, WEIGHTS, ROI, n_classes=3, head_dim=8,
                         train_proposals=PROPS, channels=CHANNELS)
        assert len(st.loss_log) == 6
        for r in st.loss_log:
            assert {"loss_cls", "loss_reg", "loss_det_cls",
                    "loss_det_reg"} <= set(r)
        assert st.rpn_head is not None and st.det_head is not None

    def test_deterministic(self):
        runs = [joint_train(scenes(3), schedule(4, seed=2),
                            ACFG, WEIGHTS, ROI, n_classes=3, head_dim=8,
                            train_proposals=PROPS, channels=CHANNELS)
                for _ in range(2)]
        assert_states_equal(*runs)


CH = (4, 8, 8, 8)


class TestBuildAndOpen:
    """`TrainState.build` draws a model, `TrainState.open` reads one back."""

    def test_build_draws_heads_in_the_order_named(self):
        """The 4-step scheme's final model draws det before rpn; its
        parameters, the checkpoint order, are still backbone, rpn, det."""
        init = Rng(3).substream("init")
        bb = Backbone(init, channels=CH)
        det = DetectorHead(init, bb.out_dim, 3)
        rpn = RpnHead(init, bb.out_dim, ACFG.k, 8)
        built = TrainState.build(3, ACFG, CH, 8, 3, ("det", "rpn"))
        assert_states_equal(built, TrainState(bb, ACFG, rpn_head=rpn, det_head=det))
        parts = [p.name.split(".")[0] for p in built.params]
        assert list(dict.fromkeys(parts)) == ["backbone", "rpn", "det"]
        other = TrainState.build(3, ACFG, CH, 8, 3, ("rpn", "det"))
        assert [p.name for p in other.params] == [p.name for p in built.params]
        assert not np.array_equal(other.det_head.params[0].value.data,
                                  det.params[0].value.data)

    def test_build_holds_little_beyond_the_model(self):
        """Drawing the init normals adds small temporaries: building the
        default rpn+det model peaks at no more than 1.5x the bytes the model
        keeps, its parameters and their velocities."""
        tracemalloc.start()
        try:
            state = TrainState.build(1, defaults.ANCHORS, CHANNELS, defaults.HEAD_DIM,
                                     defaults.CFG.detector_n_classes, ("rpn", "det"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(p.value.data.nbytes + p.velocity.nbytes for p in state.params)
        assert peak <= 1.5 * kept, (peak, kept)

    @pytest.mark.parametrize("heads", [("rpn",), ("det",), ("rpn", "det"),
                                       ("onestage",)])
    def test_open_holds_the_heads_saved(self, tmp_path, heads):
        built = TrainState.build(4, ACFG, CH, 8, 3, heads)
        save_checkpoint(built.params, tmp_path / "m.frpn")
        opened = TrainState.open(tmp_path / "m.frpn", ACFG, CH, 8, 3)
        assert_states_equal(opened, built)
        assert opened.anchor_cfg == ACFG

    def test_open_draws_nothing(self, tmp_path, monkeypatch):
        built = TrainState.build(4, ACFG, CH, 8, 3, ("rpn", "det", "onestage"))
        save_checkpoint(built.params, tmp_path / "m.frpn")

        def no_draws(self, n=1):
            raise AssertionError("TrainState.open drew from an Rng")

        monkeypatch.setattr(Rng, "next_u64", no_draws)
        opened = TrainState.open(tmp_path / "m.frpn", ACFG, CH, 8, 3)
        assert [(p.name, p.value.data.tobytes()) for p in opened.params] == \
               [(p.name, p.value.data.tobytes()) for p in built.params]

    def test_open_gives_an_inference_model(self, tmp_path):
        """No opened parameter needs a gradient, so `forward` builds no tape;
        proposals and detections keep the bytes of the trainable model."""
        built = TrainState.build(4, ACFG, CH, 8, 3, ("rpn", "det", "onestage"))
        save_checkpoint(built.params, tmp_path / "m.frpn")
        opened = TrainState.open(tmp_path / "m.frpn", ACFG, CH, 8, 3)
        assert not any(p.value.requires_grad for p in opened.params)
        scene = scenes(1)[0]
        for head in (opened.rpn_head, opened.onestage_head):
            assert all(t._backward is None for t in opened.forward(scene, head))
        got, want = (s.propose_scene(scene, PROPS) for s in (opened, built))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert opened.detect(scene, PROPS, *defaults.POST) == \
               built.detect(scene, PROPS, *defaults.POST)

    def test_open_rejects_an_entry_no_head_owns(self, tmp_path):
        params = TrainState.build(4, ACFG, CH, 8, 3, ("rpn",)).params
        path = tmp_path / "m.frpn"
        save_checkpoint(params + [Param("rpn.extra.w", np.zeros(2))], path)
        with pytest.raises(ValueError, match=re.escape(f"{path}: entry 'rpn.extra.w' "
                                                  "belongs to no head")):
            TrainState.open(path, ACFG, CH, 8, 3)

    def test_open_names_the_file_of_a_missing_or_misshapen_parameter(self, tmp_path):
        params = TrainState.build(4, ACFG, CH, 8, 3, ("rpn", "det")).params
        path = tmp_path / "m.frpn"
        save_checkpoint([p for p in params if p.name != "det.reg.b"], path)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*'det.reg.b'"):
            TrainState.open(path, ACFG, CH, 8, 3)
        save_checkpoint(params, path)
        with pytest.raises(ValueError, match=re.escape(f"{path}: shape mismatch")):
            TrainState.open(path, ACFG, CH, 8, 5)

    def test_require_names_the_missing_head(self):
        state = TrainState.build(4, ACFG, CH, 8, 3, ("det",))
        assert state.require("det") is state
        with pytest.raises(ValueError, match="no 'rpn' head; it holds backbone, det"):
            state.require("det", "rpn")

    @pytest.mark.parametrize("heads,missing", [(("rpn",), "det"), (("det",), "rpn")])
    def test_two_stage_detect_needs_both_heads(self, heads, missing):
        state = TrainState.build(4, ACFG, CH, 8, 3, heads)
        with pytest.raises(ValueError, match=f"no '{missing}' head"):
            state.detect(scenes(1)[0], PROPS, *defaults.POST)

    def test_propose_scene_names_the_missing_rpn(self):
        state = TrainState.build(4, ACFG, CH, 8, 3, ("onestage",))
        with pytest.raises(ValueError, match="no 'rpn' head; it holds backbone, onestage"):
            state.propose_scene(scenes(1)[0], PROPS)

    def test_forward_runs_the_head_it_is_given(self):
        """`forward` runs the backbone, then only the head named; `detect` on
        a model with an RPN and a one-stage head but no detector names the
        one-stage head."""
        state = TrainState.build(4, ACFG, CH, 8, 3, ("rpn", "onestage"))
        scene = scenes(1)[0]
        feats, cls, reg = state.forward(scene)
        assert cls is None and reg is None and feats.data.shape == (CH[-1], 8, 8)
        for head in (state.rpn_head, state.onestage_head):
            f, cls, reg = state.forward(scene, head)
            assert f.data.tobytes() == feats.data.tobytes()
            want = head.forward(feats)
            assert (cls.data.tobytes(), reg.data.tobytes()) == \
                   (want[0].data.tobytes(), want[1].data.tobytes())
        alone = TrainState(state.backbone, ACFG, onestage_head=state.onestage_head)
        assert state.detect(scene, PROPS, *defaults.POST) == \
               alone.detect(scene, PROPS, *defaults.POST)


class TestLossLogCsv:
    def test_written_file(self, tmp_path):
        st = fresh_rpn_state(8)
        train(scenes(2), st, schedule(3, seed=8), *OBJECTIVES)
        path = tmp_path / "log.csv"
        write_loss_log(st, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].split(",")[0] == "iteration"
        assert len(lines) == 1 + 3


class TestSkips:
    """Steps with nothing to learn from: skipped, or logged as zero."""

    def empty_scene(self, image_size=64):
        s = make_scene(Rng(3).substream("data"), image_size=image_size, max_objects=1)
        s.boxes, s.classes = np.zeros((0, 4)), np.zeros(0, dtype=np.int64)
        return s

    def count_steps(self, monkeypatch):
        steps = []
        real = training.sgd_step
        monkeypatch.setattr(training, "sgd_step",
                            lambda params, cfg: steps.append(1) or real(params, cfg))
        return steps

    def test_rpn_step_without_labelable_anchors(self, monkeypatch, caplog):
        steps = self.count_steps(monkeypatch)
        st = fresh_rpn_state()
        # at 8 px every anchor crosses the border, so none is labelable
        with pytest.raises(RuntimeError, match=r"no training step taken: all 1 "
                           r"iterations skipped their image \(no labelable anchors\)"):
            train([self.empty_scene(8)], st, schedule(1, seed=0), *OBJECTIVES)
        assert [r.getMessage() for r in caplog.records] == \
            ["skipping image 0: no labelable anchors"]
        assert st.loss_log == [] and steps == []

    def test_detector_step_without_roi_candidates(self, monkeypatch, caplog):
        steps = self.count_steps(monkeypatch)
        bb = Backbone(Rng(1).substream("init"), CHANNELS)
        st = TrainState(bb, ACFG, det_head=DetectorHead(Rng(1).substream("init"),
                                                        bb.out_dim, 3))
        with pytest.raises(RuntimeError, match=r"\(no RoI candidates\)"):
            train([self.empty_scene()], st, schedule(1, seed=0), *OBJECTIVES,
                  proposals=[np.zeros((0, 4))])
        assert [r.getMessage() for r in caplog.records] == \
            ["skipping image 0: no RoI candidates"]
        assert st.loss_log == [] and steps == []

    def test_zero_iterations_take_no_step_and_pass(self):
        st = fresh_rpn_state()
        assert train([self.empty_scene(8)], st, schedule(0, seed=0),
                     *OBJECTIVES) is st and st.loss_log == []

    def test_one_step_is_enough(self):
        # one epoch: the 8 px scene is skipped, the 64 px one trains
        st = fresh_rpn_state()
        train([self.empty_scene(8), self.empty_scene()], st,
              schedule(2, seed=0), *OBJECTIVES)
        assert len(st.loss_log) == 1

    def test_detector_class_outside_the_head_rejected(self, monkeypatch):
        steps = self.count_steps(monkeypatch)
        data = scenes(2)
        data[0].classes[-1] = 4
        with pytest.raises(ValueError, match="image 0: class 4 is outside the "
                           r"head's classes 1\.\.3"):
            joint_train(data, schedule(2, seed=0), ACFG, WEIGHTS, ROI,
                        n_classes=3, head_dim=8, train_proposals=PROPS,
                        channels=CHANNELS)
        assert steps == []

    def test_joint_step_with_empty_roi_batch_still_steps(self, monkeypatch, caplog):
        steps = self.count_steps(monkeypatch)
        # no gt boxes and no proposal above min_size: no RoI candidates
        st = joint_train([self.empty_scene()], schedule(1, seed=0), ACFG,
                         WEIGHTS, ROI, n_classes=3, head_dim=8,
                         train_proposals=replace(TEST_PROPOSALS, min_size=1e9),
                         channels=CHANNELS)
        assert caplog.records == [] and steps == [1] and len(st.loss_log) == 1
        (row,) = st.loss_log
        assert list(row) == ["iteration", "lr", "loss_cls", "loss_reg",
                             "loss_det_cls", "loss_det_reg"]
        assert row["loss_det_cls"] == row["loss_det_reg"] == 0.0
