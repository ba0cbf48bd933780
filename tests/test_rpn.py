"""RPN head structure, Eq.-style two-term loss, and the proposal pipeline."""

from dataclasses import replace

import numpy as np
import pytest

import minircnn.tensor as T
from minircnn.anchors import AnchorConfig, grid_anchors, inside_mask
from minircnn.assignment import assign_labels, sample_minibatch
from minircnn.boxes import iou_matrix_arr
from minircnn.rng import Rng
from minircnn.rpn import (
    Backbone,
    ConvHead,
    RpnHead,
    anchor_rows,
    objectness_probs,
    propose_arrays,
    rpn_loss,
)
from minircnn.tensor import Tensor

from defaults import (CFG, CHANNELS, HEAD_DIM, LABEL_IOUS, MINIBATCH,
                      TEST_PROPOSALS, TRAIN_PROPOSALS, WEIGHTS)
from oracles import gradcheck


def micro_setup(seed=0, image=32):
    """Tiny grid + (labels, targets, sampled rows) for loss tests."""
    cfg = AnchorConfig(scales=(8.0, 16.0), ratios=(1.0, 2.0), stride=8)
    aset = grid_anchors(cfg, image // 8, image // 8)
    inside_mask(aset, image, image)
    gt = np.array([[4.0, 4.0, 14.0, 14.0], [16.0, 10.0, 30.0, 26.0]])
    labels, targets = assign_labels(aset, gt, *LABEL_IOUS)
    rows = sample_minibatch(labels, Rng(seed).substream("sampling"), batch=16, max_pos=8)
    return cfg, aset, (labels, targets, rows)


class TestHeadStructure:
    def test_channel_law(self):
        rng = Rng(0).substream("init")
        for k in (1, 5, 9):
            head = RpnHead(rng, 16, k, HEAD_DIM)
            assert head.cls.w.value.shape[0] == 2 * k
            assert head.reg.w.value.shape[0] == 4 * k

    def test_is_the_one_class_conv_head(self):
        # same parameter names, shapes and init draws as ConvHead with C = 1
        rpn, conv = RpnHead(Rng(3).substream("init"), 8, 5, 16), \
            ConvHead("rpn", Rng(3).substream("init"), 8, 5, 1, 16)
        assert [p.name for p in rpn.params] == \
            ["rpn.trunk.w", "rpn.trunk.b", "rpn.cls.w", "rpn.cls.b", "rpn.reg.w",
             "rpn.reg.b"]
        for a, b in zip(rpn.params, conv.params, strict=True):
            assert a.name == b.name
            np.testing.assert_array_equal(a.value.data, b.value.data)

    def test_spatial_dims_preserved(self):
        rng = Rng(1).substream("init")
        head = RpnHead(rng, 8, 9, head_dim=16)
        x = Tensor(np.random.default_rng(0).normal(
            size=(8, 10, 7)).astype(np.float32))
        cls, reg = head.forward(x)
        assert cls.shape == (18, 10, 7)
        assert reg.shape == (36, 10, 7)

    def test_objectness_pairs_softmax_to_one(self):
        probs = objectness_probs(
            np.random.default_rng(1).normal(size=(6, 4, 4)), k=3)
        assert probs.shape == (48,)
        assert probs.min() > 0 and probs.max() < 1

    def test_shift_invariance(self):
        # shifting the feature map one cell shifts outputs one cell (interior)
        rng = Rng(2).substream("init")
        head = RpnHead(rng, 4, 2, head_dim=8)
        x = np.random.default_rng(2).normal(size=(4, 9, 9)).astype(np.float32)
        shifted = np.roll(x, 1, axis=2)
        cls_a, _ = head.forward(Tensor(x))
        cls_b, _ = head.forward(Tensor(shifted))
        np.testing.assert_allclose(cls_a.data[:, 2:-2, 2:-2],
                                   cls_b.data[:, 2:-2, 3:-1], atol=1e-5)

    def test_flatten_layout(self):
        # anchor-major channels: cls channels [2a, 2a+1] belong to anchor a
        k, h, w = 3, 2, 2
        data = np.arange(2 * k * h * w, dtype=np.float64).reshape(2 * k, h, w)
        flat = anchor_rows(Tensor(data), k, 2).data
        assert flat.shape == (h * w * k, 2)
        # first grid cell (0,0), anchor 0 -> channels 0 and 1 at (0,0)
        np.testing.assert_array_equal(flat[0], [data[0, 0, 0], data[1, 0, 0]])
        # first grid cell, anchor 2 -> channels 4 and 5
        np.testing.assert_array_equal(flat[2], [data[4, 0, 0], data[5, 0, 0]])
        # second grid cell (0,1), anchor 0
        np.testing.assert_array_equal(flat[k], [data[0, 0, 1], data[1, 0, 1]])


class TestLossWeights:
    def test_defaults_are_the_papers(self):
        w = WEIGHTS
        assert (w.lam, w.batch, w.max_pos, w.pos_iou, w.neg_iou) == \
            (10.0, 256, 128, 0.7, 0.3)

    # the RPN objective's settings are config keys, checked by `RunConfig`
    def test_neg_iou_above_pos_iou_names_both(self):
        with pytest.raises(ValueError, match=r"rpn\.neg_iou=0\.5 .*rpn\.pos_iou=0\.3"):
            replace(CFG, rpn_pos_iou=0.3, rpn_neg_iou=0.5)
        replace(CFG, rpn_pos_iou=0.5, rpn_neg_iou=0.5)

    @pytest.mark.parametrize("kw", [dict(rpn_lambda=0.0), dict(rpn_batch=0),
                                    dict(rpn_max_pos=-1)])
    def test_non_positive_rejected(self, kw):
        [(name, value)] = kw.items()
        with pytest.raises(ValueError, match=f"{name.replace('_', '.', 1)}={value} "):
            replace(CFG, **kw)


class TestRpnLoss:
    def _outputs(self, aset, rng_seed=3, dtype=np.float64):
        k = aset.k
        rng = np.random.default_rng(rng_seed)
        cls = Tensor(rng.normal(size=(2 * k, aset.feature_h, aset.feature_w))
                     .astype(dtype), requires_grad=True)
        reg = Tensor(rng.normal(size=(4 * k, aset.feature_h, aset.feature_w))
                     .astype(dtype) * 0.1, requires_grad=True)
        return cls, reg

    def test_zero_positives_reg_term_zero(self):
        cfg, aset, (labels, targets, _) = micro_setup()
        labels[labels == 1] = -1  # demote all positives to ignore
        rows = sample_minibatch(labels, Rng(0).substream("sampling"), batch=16,
                                max_pos=MINIBATCH[1])
        cls, reg = self._outputs(aset)
        loss, cls_val, reg_val = rpn_loss(cls, reg, labels, targets, rows, aset.k,
                                          WEIGHTS)
        assert reg_val == 0.0
        assert loss.item() == pytest.approx(cls_val)
        loss.backward()
        assert reg.grad is None or not np.any(reg.grad)

    def test_perfect_predictions_near_zero(self):
        cfg, aset, t = micro_setup()
        labels, targets, _ = t
        k = aset.k
        h, w = aset.feature_h, aset.feature_w
        logits = np.zeros((h * w * k, 2))
        logits[np.arange(len(aset)), labels.clip(0)] = 50.0
        cls = Tensor(logits.reshape(h, w, k, 2).transpose(2, 3, 0, 1)
                     .reshape(2 * k, h, w))
        deltas = np.zeros((len(aset), 4))
        pos = np.flatnonzero(labels == 1)
        deltas[pos] = targets[pos]
        reg = Tensor(deltas.reshape(h, w, k, 4).transpose(2, 3, 0, 1)
                     .reshape(4 * k, h, w))
        loss, _, _ = rpn_loss(cls, reg, *t, k, WEIGHTS)
        assert loss.item() == pytest.approx(0.0, abs=1e-10)

    def test_normalizers_enter_exactly(self):
        # cls is divided by batch; reg is scaled by lam / (H*W) of the head map
        for image in (32, 56):
            cfg, aset, t = micro_setup(image=image)
            cls, reg = self._outputs(aset)
            _, c1, r1 = rpn_loss(cls, reg, *t, aset.k, WEIGHTS)
            _, c2, r2 = rpn_loss(cls, reg, *t, aset.k,
                                 replace(WEIGHTS, lam=10.0, batch=512))
            assert c2 == pytest.approx(c1 / 2.0, rel=1e-12)
            assert r2 == pytest.approx(r1, rel=1e-12)
            labels, targets, _ = t
            pos = np.flatnonzero(labels == 1)
            assert pos.size
            x = anchor_rows(reg.data, aset.k, 4)[pos] - targets[pos]
            smooth = np.where(np.abs(x) < 1, 0.5 * x * x, np.abs(x) - 0.5).sum()
            n_reg = aset.feature_w * aset.feature_h
            assert n_reg == (image // 8) ** 2
            assert r1 == pytest.approx(10.0 / n_reg * smooth, rel=1e-12)

    def test_lambda_scales_reg_gradient_exactly(self):
        cfg, aset, t = micro_setup()
        grads = {}
        for c, lam in ((1.0, 10.0), (3.0, 30.0)):
            cls, reg = self._outputs(aset)
            loss, _, _ = rpn_loss(cls, reg, *t, aset.k, replace(WEIGHTS, lam=lam))
            loss.backward()
            grads[c] = (reg.grad.copy(), cls.grad.copy())
        np.testing.assert_allclose(grads[3.0][0], 3.0 * grads[1.0][0], rtol=1e-12)
        np.testing.assert_array_equal(grads[3.0][1], grads[1.0][1])

    def test_reg_runs_over_all_positives_not_only_sampled(self):
        cfg, aset, (labels, targets, rows) = micro_setup()
        cls, reg = self._outputs(aset)
        _, _, r_full = rpn_loss(cls, reg, labels, targets, rows, aset.k, WEIGHTS)
        # recompute with a different sampled minibatch: reg term unchanged
        rows2 = sample_minibatch(labels, Rng(99).substream("sampling"), batch=8, max_pos=0)
        assert not np.any(labels[rows2] == 1)
        _, _, r_resampled = rpn_loss(cls, reg, labels, targets, rows2, aset.k, WEIGHTS)
        assert r_resampled == pytest.approx(r_full, rel=1e-12)

    def test_no_sampled_anchors_raises(self):
        cfg, aset, (labels, targets, _) = micro_setup()
        cls, reg = self._outputs(aset)
        with pytest.raises(ValueError, match="sampled minibatch"):
            rpn_loss(cls, reg, labels, targets, np.zeros(0, dtype=np.int64), aset.k,
                     WEIGHTS)

    def test_anchor_count_mismatch_names_both_counts(self):
        cfg, aset, t = micro_setup(image=32)      # 4x4 grid, 64 anchors
        _, big, _ = micro_setup(image=40)          # 5x5 grid, 100 anchors
        cls, reg = self._outputs(big)
        with pytest.raises(ValueError, match=r"rpn_loss: .*100 .*64"):
            rpn_loss(cls, reg, *t, aset.k, WEIGHTS)

    def test_gradcheck_64bit_micro_instance(self):
        cfg, aset, t = micro_setup()
        cls, reg = self._outputs(aset)

        def fn(cls, reg):
            return rpn_loss(cls, reg, *t, aset.k, WEIGHTS)[0]

        assert gradcheck(fn, [cls, reg]) < 1e-4

    def test_gradcheck_through_head_convs(self):
        # full chain in float64: trunk conv + sibling 1x1 convs -> loss
        cfg, aset, t = micro_setup()
        k = aset.k
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(3, aset.feature_h, aset.feature_w)))
        wt = Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.3, requires_grad=True)
        bt = Tensor(np.zeros(4), requires_grad=True)
        wc = Tensor(rng.normal(size=(2 * k, 4, 1, 1)) * 0.3, requires_grad=True)
        bc = Tensor(np.zeros(2 * k), requires_grad=True)
        wr = Tensor(rng.normal(size=(4 * k, 4, 1, 1)) * 0.3, requires_grad=True)
        br = Tensor(np.zeros(4 * k), requires_grad=True)

        def fn(wt, bt, wc, bc, wr, br):
            h = T.relu(T.conv2d(x, wt, bt, pad=1))
            return rpn_loss(T.conv2d(h, wc, bc), T.conv2d(h, wr, br),
                            *t, k, WEIGHTS)[0]

        assert gradcheck(fn, [wt, bt, wc, bc, wr, br]) < 1e-4


class TestProposals:
    def _setup(self, seed=5, image=64):
        cfg = AnchorConfig(scales=(8.0, 16.0, 32.0), ratios=(0.5, 1.0, 2.0),
                           stride=8)
        aset = grid_anchors(cfg, image // 8, image // 8)
        rng = np.random.default_rng(seed)
        cls = rng.normal(size=(2 * cfg.k, image // 8, image // 8))
        reg = rng.normal(size=(4 * cfg.k, image // 8, image // 8)) * 0.2
        return cfg, aset, cls, reg, image

    def test_zero_deltas_yield_clipped_anchors(self):
        cfg, aset, cls, reg, image = self._setup()
        boxes, scores = propose_arrays(cls, np.zeros_like(reg), aset, image,
                                       image, TRAIN_PROPOSALS)
        clipped = np.clip(aset.boxes, 0, image)
        probs = objectness_probs(cls, cfg.k)
        big = ((clipped[:, 2] - clipped[:, 0]) >= 2.0) & \
              ((clipped[:, 3] - clipped[:, 1]) >= 2.0)
        # every proposal is one of the clipped anchors
        for b in boxes:
            assert np.any(np.all(np.isclose(clipped[big], b, atol=1e-6), axis=1))
        assert np.all(np.diff(scores) <= 1e-12)
        assert probs[big].max() == pytest.approx(scores[0], rel=1e-6)

    def test_count_and_order_invariants(self):
        cfg, aset, cls, reg, image = self._setup()
        p = replace(TEST_PROPOSALS, post_nms_top=50, pre_nms_top=300)
        boxes, scores = propose_arrays(cls, reg, aset, image, image, p)
        assert boxes.shape[0] <= 50
        assert np.all(np.diff(scores) <= 1e-12)  # descending
        assert np.all(boxes[:, 0] >= 0) and np.all(boxes[:, 1] >= 0)
        assert np.all(boxes[:, 2] <= image) and np.all(boxes[:, 3] <= image)
        assert np.all(boxes[:, 2] - boxes[:, 0] >= p.min_size)
        assert np.all(boxes[:, 3] - boxes[:, 1] >= p.min_size)

    def test_no_surviving_pair_above_nms_iou(self):
        cfg, aset, cls, reg, image = self._setup()
        boxes, _ = propose_arrays(cls, reg, aset, image, image,
                                  TRAIN_PROPOSALS)
        m = iou_matrix_arr(boxes, boxes)
        np.fill_diagonal(m, 0.0)
        assert m.max() <= 0.7

    def test_deterministic(self):
        cfg, aset, cls, reg, image = self._setup()
        p = TEST_PROPOSALS
        a, sa = propose_arrays(cls, reg, aset, image, image, p)
        b, sb = propose_arrays(cls, reg, aset, image, image, p)
        assert np.array_equal(a, b) and np.array_equal(sa, sb)

    def test_generate_proposals_scored_boxes(self):
        cfg, aset, cls, reg, image = self._setup()
        boxes, scores = propose_arrays(cls, reg, aset, image, image,
                                       replace(TEST_PROPOSALS, post_nms_top=20,
                                               pre_nms_top=100))
        assert boxes.shape == (scores.size, 4) and scores.size <= 20
        assert np.all((scores >= 0) & (scores <= 1))
        assert np.all(boxes[:, 2:] >= boxes[:, :2])

    def test_anchor_count_mismatch_names_both_counts(self):
        # head outputs on an 8x8 grid against anchors built for a 7x7 grid
        cfg, _, cls, reg, image = self._setup()
        aset = grid_anchors(cfg, 7, 7)
        with pytest.raises(ValueError, match=r"propose_arrays: .*576 .*441"):
            propose_arrays(cls, reg, aset, image, image, TEST_PROPOSALS)

    def test_zero_size_boxes_dropped_at_min_size_zero(self):
        # anchor 0 of every cell decodes wholly right of the image and clips
        # to zero width; min_size 0 must still drop it
        cfg, aset, cls, _, image = self._setup()
        reg = np.zeros((cfg.k, 4, *cls.shape[1:]))
        reg[0, 0] = 100.0
        boxes, _ = propose_arrays(cls, reg.reshape(-1, *cls.shape[1:]), aset, image,
                                  image, replace(TRAIN_PROPOSALS, min_size=0.0))
        assert boxes.shape[0] > 0
        assert np.all(boxes[:, 2] > boxes[:, 0]) and np.all(boxes[:, 3] > boxes[:, 1])

    def test_params_validation(self):
        # the proposal settings are config keys, checked by `RunConfig`
        with pytest.raises(ValueError, match=r"proposals\.nms_iou=1\.5 "):
            replace(CFG, proposals_nms_iou=1.5)
        with pytest.raises(ValueError, match="proposals.post_nms_top_test=20 exceeds "
                                             "proposals.pre_nms_top=10"):
            replace(CFG, proposals_pre_nms_top=10, proposals_post_nms_top_train=5,
                    proposals_post_nms_top_test=20)


class TestBackbone:
    def test_stride_and_channels(self):
        bb = Backbone(Rng(0).substream("init"), CHANNELS)
        assert bb.stride == 8
        x = Tensor(np.zeros((3, 128, 128), dtype=np.float32))
        feats = bb.forward(x)
        assert feats.shape == (bb.out_dim, 16, 16)

    def test_each_pooled_stage_is_one_tape_op(self):
        """Stages 1-3 each leave conv2d and one maxpool2x2 (ReLU and pool
        fused) on the tape, stage 4 conv2d and relu: no full-size ReLU
        output is kept for a pool to read."""
        bb = Backbone(Rng(0).substream("init"), CHANNELS)
        bb.set_trainable(True)
        ops, stack = [], [bb.forward(Tensor(np.ones((3, 32, 32), dtype=np.float32)))]
        while stack:
            t = stack.pop()
            if t._backward is not None:
                ops.append(t._backward.__qualname__.split(".")[0])
            stack.extend(t._parents)
        assert sorted(ops) == ["conv2d"] * 4 + ["maxpool2x2"] * 3 + ["relu"]

    def test_deterministic_init(self):
        a = Backbone(Rng(4).substream("init"), CHANNELS)
        b = Backbone(Rng(4).substream("init"), CHANNELS)
        for pa, pb in zip(a.params, b.params):
            assert np.array_equal(pa.value.data, pb.value.data)
