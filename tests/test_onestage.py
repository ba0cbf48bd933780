"""One-stage dense-window baseline."""

import numpy as np
import pytest

from minircnn import tensor as T
from minircnn.anchors import AnchorConfig, grid_anchors, inside_mask
from minircnn.dataio import make_scene
from minircnn.detector import RoiSampleConfig
from minircnn.onestage import (
    OneStageHead,
    _flatten_cls,
    _flatten_reg,
    one_stage_detect,
    train_onestage,
)
from minircnn.rng import Rng
from minircnn.rpn import Backbone
from minircnn.tensor import Tensor
from minircnn.training import TrainSchedule

K = 4        # 2 scales x 2 ratios in the micro config below
C = 3

ACFG = AnchorConfig(scales=(8.0, 16.0), ratios=(1.0, 2.0), stride=8)


def make_head(seed=0, dim=16):
    return OneStageHead(Rng(seed, "init"), dim, K, C, head_dim=8), dim


class TestHeadShapes:
    def test_channel_laws(self):
        head, dim = make_head()
        feats = Tensor(np.random.default_rng(0).normal(size=(dim, 5, 6))
                       .astype(np.float32))
        cls, reg = head.forward(feats)
        assert cls.shape == ((C + 1) * K, 5, 6)
        assert reg.shape == (4 * C * K, 5, 6)

    def test_window_probs_sum_to_one(self):
        head, dim = make_head(1)
        feats = Tensor(np.random.default_rng(1).normal(size=(dim, 4, 4))
                       .astype(np.float32))
        cls, _ = head.forward(feats)
        probs = T.softmax(_flatten_cls(cls, K, C).data, axis=1)
        assert probs.shape == (4 * 4 * K, C + 1)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_flatten_layouts_agree(self):
        # Window (y, x, anchor a) must land on the same flat row in both maps.
        rng = np.random.default_rng(2)
        h, w = 3, 5
        cls = Tensor(rng.normal(size=((C + 1) * K, h, w)).astype(np.float32))
        reg = Tensor(rng.normal(size=(4 * C * K, h, w)).astype(np.float32))
        fc = _flatten_cls(cls, K, C).data
        fr = _flatten_reg(reg, K, C).data
        y, x, a = 2, 4, 3
        row = (y * w + x) * K + a
        np.testing.assert_array_equal(
            fc[row], cls.data.reshape(K, C + 1, h, w)[a, :, y, x])
        np.testing.assert_array_equal(
            fr[row], reg.data.reshape(K, C, 4, h, w)[a, :, :, y, x])

    def test_param_names_unique(self):
        head, _ = make_head()
        names = [p.name for p in head.params]
        assert len(names) == len(set(names))
        assert all(n.startswith("onestage.") for n in names)


def dense_candidate_count(aset) -> int:
    """Class-specific boxes the head emits over the anchor set's grid, one
    per window and class, as `one_stage_detect` scores them before NMS."""
    head, dim = make_head()
    _, reg = head.forward(Tensor(np.zeros((dim, aset.feature_h, aset.feature_w),
                                          dtype=np.float32)))
    per_class = _flatten_reg(reg, K, C)
    assert per_class.shape[0] == len(aset)
    return per_class.shape[0] * per_class.shape[1]


class TestDenseCount:
    def test_formula(self):
        aset = grid_anchors(ACFG, 8, 8)
        assert dense_candidate_count(aset) == 8 * 8 * K * C

    def test_dwarfs_a_proposal_budget(self):
        # 128x128 at stride 8: the dense stage scores far more candidates
        # than a 300-proposal region stage ever considers.
        aset = grid_anchors(ACFG, 16, 16)
        assert dense_candidate_count(aset) >= 10 * 300


class TestDetect:
    def setup_method(self):
        self.rng = Rng(5, "init")
        self.backbone = Backbone(self.rng)
        self.head = OneStageHead(self.rng, self.backbone.out_dim, K, C,
                                 head_dim=8)
        self.aset = grid_anchors(ACFG, 8, 8)
        inside_mask(self.aset, 64, 64)
        feats = np.random.default_rng(3).normal(size=(self.backbone.out_dim, 8, 8))
        self.feats = Tensor(feats.astype(np.float32))

    def test_output_invariants(self):
        dets = one_stage_detect(self.feats, self.head, self.aset, 64, 64,
                                score_thresh=0.0, max_per_image=50)
        assert 0 < len(dets) <= 50
        scores = [d.score for d in dets]
        assert scores == sorted(scores, reverse=True)
        for d in dets:
            assert 1 <= d.class_id <= C
            assert 0 <= d.box.x1 <= d.box.x2 <= 64
            assert 0 <= d.box.y1 <= d.box.y2 <= 64

    def test_impossible_threshold_empty(self):
        assert one_stage_detect(self.feats, self.head, self.aset, 64, 64,
                                score_thresh=1.01) == []

    def test_deterministic(self):
        a = one_stage_detect(self.feats, self.head, self.aset, 64, 64,
                             score_thresh=0.0)
        b = one_stage_detect(self.feats, self.head, self.aset, 64, 64,
                             score_thresh=0.0)
        assert a == b


class TestTraining:
    def make_scenes(self, n=3):
        rng = Rng(9, "data")
        return [make_scene(rng, image_size=64) for _ in range(n)]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_onestage([], TrainSchedule(total_iters=1, seed=0), ACFG,
                           RoiSampleConfig(), C)

    def test_smoke_and_state(self):
        scenes = self.make_scenes()
        sched = TrainSchedule(total_iters=8, seed=2)
        st = train_onestage(scenes, sched, ACFG, RoiSampleConfig(), C,
                            head_dim=8)
        assert st.iteration == 8
        assert len(st.loss_log) == 8
        assert {"loss_det_cls", "loss_det_reg"} <= set(st.loss_log[0])
        assert st.onestage_head is not None and st.rpn_head is None

    def test_shared_backbone_is_used_not_copied(self):
        scenes = self.make_scenes()
        bb = Backbone(Rng(4, "init"))
        st = train_onestage(scenes, TrainSchedule(total_iters=2, seed=2),
                            ACFG, RoiSampleConfig(), C, head_dim=8,
                            backbone=bb)
        assert st.backbone is bb

    def test_deterministic_given_seed(self):
        scenes = self.make_scenes()
        sched = TrainSchedule(total_iters=5, seed=3)
        a = train_onestage(scenes, sched, ACFG, RoiSampleConfig(), C,
                           head_dim=8)
        b = train_onestage(scenes, sched, ACFG, RoiSampleConfig(), C,
                           head_dim=8)
        for pa, pb in zip(a.backbone.params + a.onestage_head.params,
                          b.backbone.params + b.onestage_head.params):
            np.testing.assert_array_equal(pa.value.data, pb.value.data)

    def test_loss_moves(self):
        scenes = self.make_scenes(2)
        st = train_onestage(scenes, TrainSchedule(total_iters=30, seed=6),
                            ACFG, RoiSampleConfig(), C, head_dim=8)
        first = np.mean([r["loss_det_cls"] for r in st.loss_log[:5]])
        last = np.mean([r["loss_det_cls"] for r in st.loss_log[-5:]])
        assert last < first
