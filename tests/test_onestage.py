"""One-stage dense-window baseline."""

import numpy as np
import pytest

from minircnn import onestage
from minircnn import tensor as T
from minircnn.anchors import AnchorConfig, base_anchors, grid_anchors
from minircnn.dataio import make_scene
from minircnn.detector import classwise_detections
from minircnn.onestage import OneStageHead, train_onestage
from minircnn.rng import Rng
from minircnn.rpn import ConvHead
from minircnn.tensor import Tensor
from minircnn.training import TrainState

from defaults import CHANNELS, HEAD_DIM, POST, ROI, TEST_PROPOSALS, schedule

K = 4        # 2 scales x 2 ratios in the micro config below
C = 3

ACFG = AnchorConfig(scales=(8.0, 16.0), ratios=(1.0, 2.0), stride=8)


def make_head(seed=0, dim=16):
    return OneStageHead(Rng(seed).substream("init"), dim, K, C, head_dim=8), dim


class TestHeadShapes:
    def test_channel_laws(self):
        head, dim = make_head()
        feats = Tensor(np.random.default_rng(0).normal(size=(dim, 5, 6))
                       .astype(np.float32))
        cls, reg = head.forward(feats)
        assert cls.shape == (5 * 6 * K, C + 1)
        assert reg.shape == (5 * 6 * K, C, 4)
        t = T.relu(head.trunk(feats))
        assert head.cls(t).shape == ((C + 1) * K, 5, 6)
        assert head.reg(t).shape == (4 * C * K, 5, 6)

    def test_window_probs_sum_to_one(self):
        head, dim = make_head(1)
        feats = Tensor(np.random.default_rng(1).normal(size=(dim, 4, 4))
                       .astype(np.float32))
        cls, _ = head.forward(feats)
        probs = T.softmax(cls.data, axis=1)
        assert probs.shape == (4 * 4 * K, C + 1)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_flatten_layouts_agree(self):
        # Window (y, x, anchor a) must land on the same row in both outputs,
        # the row of grid_anchors' anchor a at that cell.
        head, dim = make_head(2)
        h, w = 3, 5
        feats = Tensor(np.random.default_rng(2).normal(size=(dim, h, w))
                       .astype(np.float32))
        fc, fr = (out.data for out in head.forward(feats))
        t = T.relu(head.trunk(feats))
        cmap, rmap = head.cls(t).data, head.reg(t).data
        boxes, base = grid_anchors(ACFG, w, h), base_anchors(ACFG)
        for y, x, a in [(0, 0, 0), (0, 1, 2), (2, 4, 3), (1, 3, 1)]:
            row = (y * w + x) * K + a
            np.testing.assert_array_equal(
                fc[row], cmap.reshape(K, C + 1, h, w)[a, :, y, x])
            np.testing.assert_array_equal(
                fr[row], rmap.reshape(K, C, 4, h, w)[a, :, :, y, x])
            centre = ((x + 0.5) * ACFG.stride, (y + 0.5) * ACFG.stride)
            np.testing.assert_array_equal(boxes[row], base[a] + centre * 2)

    def test_is_a_class_specific_conv_head(self):
        head, dim = make_head(4)
        conv = ConvHead("onestage", Rng(4).substream("init"), dim, K, C, 8)
        for a, b in zip(head.params, conv.params, strict=True):
            assert a.name == b.name
            np.testing.assert_array_equal(a.value.data, b.value.data)

    def test_param_names_unique(self):
        head, _ = make_head()
        names = [p.name for p in head.params]
        assert len(names) == len(set(names))
        assert all(n.startswith("onestage.") for n in names)


def dense_candidate_count(w: int, h: int) -> int:
    """Class-specific boxes the head emits over a w x h grid, one per window
    and class, as `TrainState.detect` scores them before NMS."""
    head, dim = make_head()
    _, per_class = head.forward(Tensor(np.zeros((dim, h, w), dtype=np.float32)))
    assert per_class.shape[0] == len(grid_anchors(ACFG, w, h))
    return per_class.shape[0] * per_class.shape[1]


class TestDenseCount:
    def test_formula(self):
        assert dense_candidate_count(8, 8) == 8 * 8 * K * C

    def test_dwarfs_a_proposal_budget(self):
        # 128x128 at stride 8: the dense stage scores far more candidates
        # than a 300-proposal region stage ever considers.
        assert dense_candidate_count(16, 16) >= 10 * 300


class TestDetect:
    """`TrainState.detect` on a model that holds the one-stage head only."""

    def setup_method(self):
        self.state = TrainState.build(5, ACFG, CHANNELS, 8, C, ("onestage",))
        self.scene = make_scene(Rng(3).substream("data"), image_size=64)

    def detect(self, score_thresh, max_per_image=POST[2]):
        return self.state.detect(self.scene, TEST_PROPOSALS, score_thresh, POST[1],
                                 max_per_image)

    def test_output_invariants(self):
        dets = self.detect(score_thresh=0.0, max_per_image=50)
        assert 0 < len(dets) <= 50
        scores = [d.score for d in dets]
        assert scores == sorted(scores, reverse=True)
        for d in dets:
            assert 1 <= d.class_id <= C
            assert 0 <= d.box.x1 <= d.box.x2 <= 64
            assert 0 <= d.box.y1 <= d.box.y2 <= 64

    def test_impossible_threshold_empty(self):
        assert self.detect(score_thresh=1.01) == []

    def test_deterministic(self):
        assert self.detect(score_thresh=0.0) == self.detect(score_thresh=0.0)

    def test_scores_the_dense_windows(self):
        # every window of the anchor grid is a candidate, as no proposal
        # stage runs: the class-wise post-process of the head's own outputs
        head = self.state.onestage_head
        _, cls, reg = self.state.forward(self.scene, head)
        want = classwise_detections(cls.data, reg.data, self.state.anchors(64, 64)[0],
                                    64, 64, 0.0, 0.3, 100)
        assert self.detect(score_thresh=0.0) == want


class TestTraining:
    def make_scenes(self, n=3):
        rng = Rng(9).substream("data")
        return [make_scene(rng, image_size=64) for _ in range(n)]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_onestage([], schedule(1, seed=0), ACFG, ROI, C, HEAD_DIM, CHANNELS)

    def test_smoke_and_state(self):
        scenes = self.make_scenes()
        sched = schedule(8, seed=2)
        st = train_onestage(scenes, sched, ACFG, ROI, C,
                            head_dim=8, channels=CHANNELS)
        assert len(st.loss_log) == 8
        assert {"loss_det_cls", "loss_det_reg"} <= set(st.loss_log[0])
        assert st.onestage_head is not None and st.rpn_head is None

    def test_deterministic_given_seed(self):
        scenes = self.make_scenes()
        sched = schedule(5, seed=3)
        a = train_onestage(scenes, sched, ACFG, ROI, C,
                           head_dim=8, channels=CHANNELS)
        b = train_onestage(scenes, sched, ACFG, ROI, C,
                           head_dim=8, channels=CHANNELS)
        for pa, pb in zip(a.backbone.params + a.onestage_head.params,
                          b.backbone.params + b.onestage_head.params):
            np.testing.assert_array_equal(pa.value.data, pb.value.data)

    def test_every_step_skipped_raises(self, caplog):
        # at 8 px every window crosses the border, so none is labelable
        scene = make_scene(Rng(9).substream("data"), image_size=64)
        scene.image = scene.image[:8, :8]
        scene.boxes = np.zeros((0, 4))
        scene.classes = np.zeros(0, dtype=np.int64)
        with pytest.raises(RuntimeError, match=r"all 2 iterations skipped their "
                           r"image \(no labelable windows\)"):
            train_onestage([scene], schedule(2, seed=0), ACFG,
                           ROI, C, head_dim=8, channels=CHANNELS)
        assert [r.getMessage() for r in caplog.records] == \
            ["skipping image 0: no labelable windows"] * 2

    @pytest.mark.parametrize("cls", [0, C + 1])
    def test_class_outside_the_head_rejected(self, monkeypatch, cls):
        scenes = self.make_scenes(2)
        scenes[1].classes[0] = cls
        scenes[1].path = "images/000001.ppm"
        monkeypatch.setattr(onestage, "sgd_step", None)   # no step may run
        with pytest.raises(ValueError, match=f"images/000001.ppm: class {cls}"):
            train_onestage(scenes, schedule(2, seed=0), ACFG,
                           ROI, C, head_dim=8, channels=CHANNELS)

    def test_loss_moves(self):
        scenes = self.make_scenes(2)
        st = train_onestage(scenes, schedule(30, seed=6),
                            ACFG, ROI, C, head_dim=8, channels=CHANNELS)
        first = np.mean([r["loss_det_cls"] for r in st.loss_log[:5]])
        last = np.mean([r["loss_det_cls"] for r in st.loss_log[-5:]])
        assert last < first
