"""Anchor pyramid generation and inside-image classification."""

import math
from dataclasses import replace

import numpy as np
import pytest

from minircnn.anchors import AnchorConfig, base_anchors, grid_anchors, inside_mask

from defaults import ANCHORS, CFG

# the paper's anchors: 3 scales x 3 ratios at a stride of 16 px
PAPER_CONFIG = AnchorConfig(scales=(128.0, 256.0, 512.0), ratios=(0.5, 1.0, 2.0),
                            stride=16)


class TestConfig:
    def test_k(self):
        assert ANCHORS.k == 9
        assert AnchorConfig(scales=(16.0,), ratios=(1.0, 2.0), stride=8).k == 2

    def test_invalid_rejected(self):
        # scales and ratios are config keys, checked by `RunConfig`
        with pytest.raises(ValueError, match="anchors.scales entry 0.0 "):
            replace(CFG, anchors_scales=(0.0,), anchors_ratios=(1.0,))
        with pytest.raises(ValueError, match="anchors.ratios entry -1.0 "):
            replace(CFG, anchors_scales=(16.0,), anchors_ratios=(-1.0,))
        with pytest.raises(ValueError):
            AnchorConfig(scales=(16.0,), ratios=(1.0,), stride=0)


class TestBaseAnchors:
    def test_square_128(self):
        base = base_anchors(AnchorConfig(scales=(128.0,), ratios=(1.0,), stride=16))
        np.testing.assert_allclose(base[0], [-64, -64, 64, 64], atol=1e-9)

    def test_two_to_one_wider_than_tall(self):
        base = base_anchors(AnchorConfig(scales=(128.0,), ratios=(2.0,), stride=16))
        w = base[0, 2] - base[0, 0]
        h = base[0, 3] - base[0, 1]
        assert w == pytest.approx(128 * math.sqrt(2), rel=1e-12)  # 181.019...
        assert h == pytest.approx(128 / math.sqrt(2), rel=1e-12)  # 90.509...
        assert w > h

    def test_count_and_order(self):
        cfg = ANCHORS
        base = base_anchors(cfg)
        assert base.shape == (9, 4)
        # scales outer, ratios inner: first three share scale 16
        widths = base[:, 2] - base[:, 0]
        heights = base[:, 3] - base[:, 1]
        areas = widths * heights
        expect = np.repeat(np.array(cfg.scales) ** 2, 3)
        np.testing.assert_allclose(areas, expect, rtol=1e-6)
        np.testing.assert_allclose(widths[:3], [16 * math.sqrt(0.5), 16.0,
                                                16 * math.sqrt(2)], rtol=1e-12)

    def test_centered_at_origin(self):
        base = base_anchors(ANCHORS)
        np.testing.assert_allclose(base[:, 0] + base[:, 2], 0, atol=1e-9)
        np.testing.assert_allclose(base[:, 1] + base[:, 3], 0, atol=1e-9)


class TestGridAnchors:
    def test_single_cell(self):
        boxes = grid_anchors(ANCHORS, 1, 1)
        assert len(boxes) == 9
        cx = (boxes[:, 0] + boxes[:, 2]) / 2
        cy = (boxes[:, 1] + boxes[:, 3]) / 2
        np.testing.assert_allclose(cx, 4.0, atol=1e-9)  # (0+0.5)*stride 8
        np.testing.assert_allclose(cy, 4.0, atol=1e-9)

    def test_count_law(self):
        for w, h, cfg in [(60, 40, PAPER_CONFIG), (16, 16, ANCHORS),
                          (3, 7, AnchorConfig(scales=(8.0, 16.0), ratios=(1.0,),
                                              stride=4))]:
            boxes = grid_anchors(cfg, w, h)
            assert len(boxes) == w * h * cfg.k
            # the last k rows are the anchors of the last cell (x, y) = (w-1, h-1)
            centres = (boxes[-cfg.k:, :2] + boxes[-cfg.k:, 2:]) / 2
            np.testing.assert_allclose(centres, [[(w - 0.5) * cfg.stride,
                                                  (h - 0.5) * cfg.stride]] * cfg.k)

    def test_paper_count_21600(self):
        assert len(grid_anchors(PAPER_CONFIG, 60, 40)) == 21600

    def test_translation_invariance(self):
        cfg = ANCHORS
        boxes = grid_anchors(cfg, 10, 8)
        k = cfg.k
        grid = boxes.reshape(8, 10, k, 4)
        shift_j = grid[:, 1:] - grid[:, :-1]
        np.testing.assert_allclose(shift_j[..., [0, 2]], cfg.stride, atol=1e-9)
        np.testing.assert_allclose(shift_j[..., [1, 3]], 0, atol=1e-9)
        shift_i = grid[1:] - grid[:-1]
        np.testing.assert_allclose(shift_i[..., [1, 3]], cfg.stride, atol=1e-9)
        np.testing.assert_allclose(shift_i[..., [0, 2]], 0, atol=1e-9)

    def test_positive_extent(self):
        boxes = grid_anchors(ANCHORS, 5, 5)
        assert np.all(boxes[:, 2] > boxes[:, 0])
        assert np.all(boxes[:, 3] > boxes[:, 1])


class TestInsideMask:
    def test_simple(self):
        # anchor j,i spans [8j, 8j+8) x [8i, 8i+8); the image domain is
        # half-open, so edge-touching anchors in the last row/column are out
        boxes = grid_anchors(AnchorConfig(scales=(8.0,), ratios=(1.0,), stride=8),
                             4, 4)
        mask = inside_mask(boxes, 33, 33)
        assert mask.shape == (16,)
        assert mask.all()
        assert inside_mask(boxes, 32, 32).sum() == 9
        assert inside_mask(boxes, 31, 33).sum() == 12

    def test_cross_boundary_false(self):
        boxes = grid_anchors(AnchorConfig(scales=(64.0,), ratios=(1.0,), stride=8),
                             4, 4)
        assert not inside_mask(boxes, 32, 32).any()

    def test_paper_inside_band(self):
        # 1000x600 at stride 16 -> 62x37 grid of 9 anchors
        boxes = grid_anchors(PAPER_CONFIG, 1000 // 16, 600 // 16)
        n_inside = int(inside_mask(boxes, 1000, 600).sum())
        assert 5000 <= n_inside <= 8000

    def test_monotone_in_image_size(self):
        boxes = grid_anchors(ANCHORS, 8, 8)
        small = inside_mask(boxes, 50, 50)
        big = inside_mask(boxes, 64, 64)
        assert np.all(big[small])
