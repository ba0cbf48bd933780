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
    anchors = grid_anchors(cfg, image // 8, image // 8)
    gt = np.array([[4.0, 4.0, 14.0, 14.0], [16.0, 10.0, 30.0, 26.0]])
    labels, targets = assign_labels(anchors, inside_mask(anchors, image, image), gt,
                                    *LABEL_IOUS)
    rows = sample_minibatch(labels, Rng(seed).substream("sampling"), batch=16, max_pos=8)
    return cfg, anchors, (labels, targets, rows)


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
        # one row per anchor of the 10 x 7 grid: 2 scores and 1 x 4 deltas each
        rng = Rng(1).substream("init")
        head = RpnHead(rng, 8, 9, head_dim=16)
        x = Tensor(np.random.default_rng(0).normal(
            size=(8, 10, 7)).astype(np.float32))
        cls, reg = head.forward(x)
        assert cls.shape == (10 * 7 * 9, 2)
        assert reg.shape == (10 * 7 * 9, 1, 4)

    def test_objectness_pairs_softmax_to_one(self):
        head = RpnHead(Rng(1).substream("init"), 6, 3, head_dim=8)
        cls, _ = head.forward(Tensor(np.random.default_rng(1).normal(size=(6, 4, 4))))
        probs = T.softmax(cls.data, axis=1)
        assert probs.shape == (48, 2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert probs[:, 1].min() > 0 and probs[:, 1].max() < 1

    def test_shift_invariance(self):
        # shifting the feature map one cell shifts outputs one cell (interior)
        rng = Rng(2).substream("init")
        k = 2
        head = RpnHead(rng, 4, k, head_dim=8)
        x = np.random.default_rng(2).normal(size=(4, 9, 9)).astype(np.float32)
        shifted = np.roll(x, 1, axis=2)
        cls_a = head.forward(Tensor(x))[0].data.reshape(9, 9, k, 2)
        cls_b = head.forward(Tensor(shifted))[0].data.reshape(9, 9, k, 2)
        np.testing.assert_allclose(cls_a[2:-2, 2:-2], cls_b[2:-2, 3:-1], atol=1e-5)

    def test_flatten_layout(self):
        # anchor-major channels: cls channels [2a, 2a+1] and reg channels
        # [4a, 4a+4] at cell (y, x) are the row of grid_anchors' anchor a there
        cfg = AnchorConfig(scales=(8.0, 16.0, 32.0), ratios=(1.0,), stride=8)
        k, h, w = cfg.k, 2, 3
        head = RpnHead(Rng(6).substream("init"), 4, k, head_dim=8)
        x = Tensor(np.random.default_rng(6).normal(size=(4, h, w)))
        cls, reg = head.forward(x)
        t = T.relu(head.trunk(x))
        cmap, rmap = head.cls(t).data, head.reg(t).data
        assert cls.shape == (h * w * k, 2) and reg.shape == (h * w * k, 1, 4)
        anchors = grid_anchors(cfg, w, h)
        for y in range(h):
            for xx in range(w):
                for a in range(k):
                    row = (y * w + xx) * k + a
                    np.testing.assert_array_equal(cls.data[row], cmap[2 * a:2 * a + 2, y, xx])
                    np.testing.assert_array_equal(reg.data[row, 0], rmap[4 * a:4 * a + 4, y, xx])
                    box = anchors[row]
                    assert (box[0] + box[2]) / 2 == (xx + 0.5) * cfg.stride
                    assert (box[1] + box[3]) / 2 == (y + 0.5) * cfg.stride
                    assert box[2] - box[0] == cfg.scales[a]


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
    def _outputs(self, anchors, rng_seed=3, dtype=np.float64):
        """Head rows for every anchor of `anchors`: scores (N, 2), deltas (N, 1, 4)."""
        rng = np.random.default_rng(rng_seed)
        cls = Tensor(rng.normal(size=(len(anchors), 2)).astype(dtype), requires_grad=True)
        reg = Tensor(rng.normal(size=(len(anchors), 1, 4)).astype(dtype) * 0.1,
                     requires_grad=True)
        return cls, reg

    def test_zero_positives_reg_term_zero(self):
        cfg, anchors, (labels, targets, _) = micro_setup()
        labels[labels == 1] = -1  # demote all positives to ignore
        rows = sample_minibatch(labels, Rng(0).substream("sampling"), batch=16,
                                max_pos=MINIBATCH[1])
        cls, reg = self._outputs(anchors)
        loss, cls_val, reg_val = rpn_loss(cls, reg, labels, targets, rows, cfg.k,
                                          WEIGHTS)
        assert reg_val == 0.0
        assert loss.item() == pytest.approx(cls_val)
        loss.backward()
        assert reg.grad is None or not np.any(reg.grad)

    def test_perfect_predictions_near_zero(self):
        cfg, anchors, t = micro_setup()
        labels, targets, _ = t
        logits = np.zeros((len(anchors), 2))
        logits[np.arange(len(anchors)), labels.clip(0)] = 50.0
        deltas = np.zeros((len(anchors), 1, 4))
        pos = np.flatnonzero(labels == 1)
        deltas[pos, 0] = targets     # one target row per positive, in row order
        loss, _, _ = rpn_loss(Tensor(logits), Tensor(deltas), *t, cfg.k, WEIGHTS)
        assert loss.item() == pytest.approx(0.0, abs=1e-10)

    def test_normalizers_enter_exactly(self):
        # cls is divided by batch; reg is scaled by lam / (H*W) of the head map
        for image in (32, 56):
            cfg, anchors, t = micro_setup(image=image)
            cls, reg = self._outputs(anchors)
            _, c1, r1 = rpn_loss(cls, reg, *t, cfg.k, WEIGHTS)
            _, c2, r2 = rpn_loss(cls, reg, *t, cfg.k,
                                 replace(WEIGHTS, lam=10.0, batch=512))
            assert c2 == pytest.approx(c1 / 2.0, rel=1e-12)
            assert r2 == pytest.approx(r1, rel=1e-12)
            labels, targets, _ = t
            pos = np.flatnonzero(labels == 1)
            assert pos.size
            x = reg.data[pos, 0] - targets
            smooth = np.where(np.abs(x) < 1, 0.5 * x * x, np.abs(x) - 0.5).sum()
            n_reg = len(anchors) // cfg.k
            assert n_reg == (image // 8) ** 2
            assert r1 == pytest.approx(10.0 / n_reg * smooth, rel=1e-12)

    def test_lambda_scales_reg_gradient_exactly(self):
        cfg, anchors, t = micro_setup()
        grads = {}
        for c, lam in ((1.0, 10.0), (3.0, 30.0)):
            cls, reg = self._outputs(anchors)
            loss, _, _ = rpn_loss(cls, reg, *t, cfg.k, replace(WEIGHTS, lam=lam))
            loss.backward()
            grads[c] = (reg.grad.copy(), cls.grad.copy())
        np.testing.assert_allclose(grads[3.0][0], 3.0 * grads[1.0][0], rtol=1e-12)
        np.testing.assert_array_equal(grads[3.0][1], grads[1.0][1])

    def test_reg_runs_over_all_positives_not_only_sampled(self):
        cfg, anchors, (labels, targets, rows) = micro_setup()
        cls, reg = self._outputs(anchors)
        _, _, r_full = rpn_loss(cls, reg, labels, targets, rows, cfg.k, WEIGHTS)
        # recompute with a different sampled minibatch: reg term unchanged
        rows2 = sample_minibatch(labels, Rng(99).substream("sampling"), batch=8, max_pos=0)
        assert not np.any(labels[rows2] == 1)
        _, _, r_resampled = rpn_loss(cls, reg, labels, targets, rows2, cfg.k, WEIGHTS)
        assert r_resampled == pytest.approx(r_full, rel=1e-12)

    def test_no_sampled_anchors_raises(self):
        cfg, anchors, (labels, targets, _) = micro_setup()
        cls, reg = self._outputs(anchors)
        with pytest.raises(ValueError, match="sampled minibatch"):
            rpn_loss(cls, reg, labels, targets, np.zeros(0, dtype=np.int64), cfg.k,
                     WEIGHTS)

    def test_anchor_count_mismatch_names_both_counts(self):
        cfg, anchors, t = micro_setup(image=32)      # 4x4 grid, 64 anchors
        _, big, _ = micro_setup(image=40)          # 5x5 grid, 100 anchors
        cls, reg = self._outputs(big)
        with pytest.raises(ValueError, match=r"rpn_loss: .*100 .*64"):
            rpn_loss(cls, reg, *t, cfg.k, WEIGHTS)

    def test_gradcheck_64bit_micro_instance(self):
        cfg, anchors, t = micro_setup()
        cls, reg = self._outputs(anchors)

        def fn(cls, reg):
            return rpn_loss(cls, reg, *t, cfg.k, WEIGHTS)[0]

        assert gradcheck(fn, [cls, reg]) < 1e-4

    def test_gradcheck_through_head_convs(self):
        # full chain in float64: trunk conv + sibling 1x1 convs + the head's
        # map-to-rows layout -> loss
        cfg, anchors, t = micro_setup()
        k = cfg.k
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(3, 4, 4)))
        head = RpnHead(Rng(7).substream("init"), 3, k, head_dim=4)
        wt = Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.3, requires_grad=True)
        bt = Tensor(np.zeros(4), requires_grad=True)
        wc = Tensor(rng.normal(size=(2 * k, 4, 1, 1)) * 0.3, requires_grad=True)
        bc = Tensor(np.zeros(2 * k), requires_grad=True)
        wr = Tensor(rng.normal(size=(4 * k, 4, 1, 1)) * 0.3, requires_grad=True)
        br = Tensor(np.zeros(4 * k), requires_grad=True)
        for p, v in zip(head.params, (wt, bt, wc, bc, wr, br), strict=True):
            p.value = v

        def fn(*_):
            return rpn_loss(*head.forward(x), *t, k, WEIGHTS)[0]

        assert gradcheck(fn, [wt, bt, wc, bc, wr, br]) < 1e-4


class TestProposals:
    def _setup(self, seed=5, image=64):
        cfg = AnchorConfig(scales=(8.0, 16.0, 32.0), ratios=(0.5, 1.0, 2.0),
                           stride=8)
        anchors = grid_anchors(cfg, image // 8, image // 8)
        rng = np.random.default_rng(seed)
        cls = rng.normal(size=(len(anchors), 2))
        reg = rng.normal(size=(len(anchors), 1, 4)) * 0.2
        return cfg, anchors, cls, reg, image

    def test_zero_deltas_yield_clipped_anchors(self):
        cfg, anchors, cls, reg, image = self._setup()
        boxes, scores = propose_arrays(cls, np.zeros_like(reg), anchors, image,
                                       image, TRAIN_PROPOSALS)
        clipped = np.clip(anchors, 0, image)
        probs = T.softmax(cls, axis=1)[:, 1]
        big = ((clipped[:, 2] - clipped[:, 0]) >= 2.0) & \
              ((clipped[:, 3] - clipped[:, 1]) >= 2.0)
        # every proposal is one of the clipped anchors
        for b in boxes:
            assert np.any(np.all(np.isclose(clipped[big], b, atol=1e-6), axis=1))
        assert np.all(np.diff(scores) <= 1e-12)
        assert probs[big].max() == pytest.approx(scores[0], rel=1e-6)

    def test_count_and_order_invariants(self):
        cfg, anchors, cls, reg, image = self._setup()
        p = replace(TEST_PROPOSALS, post_nms_top=50, pre_nms_top=300)
        boxes, scores = propose_arrays(cls, reg, anchors, image, image, p)
        assert boxes.shape[0] <= 50
        assert np.all(np.diff(scores) <= 1e-12)  # descending
        assert np.all(boxes[:, 0] >= 0) and np.all(boxes[:, 1] >= 0)
        assert np.all(boxes[:, 2] <= image) and np.all(boxes[:, 3] <= image)
        assert np.all(boxes[:, 2] - boxes[:, 0] >= p.min_size)
        assert np.all(boxes[:, 3] - boxes[:, 1] >= p.min_size)

    def test_no_surviving_pair_above_nms_iou(self):
        cfg, anchors, cls, reg, image = self._setup()
        boxes, _ = propose_arrays(cls, reg, anchors, image, image,
                                  TRAIN_PROPOSALS)
        m = iou_matrix_arr(boxes, boxes)
        np.fill_diagonal(m, 0.0)
        assert m.max() <= 0.7

    def test_deterministic(self):
        cfg, anchors, cls, reg, image = self._setup()
        p = TEST_PROPOSALS
        a, sa = propose_arrays(cls, reg, anchors, image, image, p)
        b, sb = propose_arrays(cls, reg, anchors, image, image, p)
        assert np.array_equal(a, b) and np.array_equal(sa, sb)

    def test_generate_proposals_scored_boxes(self):
        cfg, anchors, cls, reg, image = self._setup()
        boxes, scores = propose_arrays(cls, reg, anchors, image, image,
                                       replace(TEST_PROPOSALS, post_nms_top=20,
                                               pre_nms_top=100))
        assert boxes.shape == (scores.size, 4) and scores.size <= 20
        assert np.all((scores >= 0) & (scores <= 1))
        assert np.all(boxes[:, 2:] >= boxes[:, :2])

    def test_anchor_count_mismatch_names_both_counts(self):
        # head outputs on an 8x8 grid against anchors built for a 7x7 grid
        cfg, _, cls, reg, image = self._setup()
        anchors = grid_anchors(cfg, 7, 7)
        with pytest.raises(ValueError, match=r"propose_arrays: .*576 .*441"):
            propose_arrays(cls, reg, anchors, image, image, TEST_PROPOSALS)

    def test_zero_size_boxes_dropped_at_min_size_zero(self):
        # anchor 0 of every cell decodes wholly right of the image and clips
        # to zero width; min_size 0 must still drop it
        cfg, anchors, cls, reg, image = self._setup()
        reg = np.zeros_like(reg)
        reg[::cfg.k, 0, 0] = 100.0
        boxes, _ = propose_arrays(cls, reg, anchors, image, image,
                                  replace(TRAIN_PROPOSALS, min_size=0.0))
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
