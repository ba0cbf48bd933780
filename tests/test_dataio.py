"""Synthetic dataset generation and PPM/manifest IO."""

import json

import numpy as np
import pytest

from minircnn.boxes import iou_matrix_arr
from minircnn.dataio import (
    NUM_CLASSES,
    ManifestError,
    Scene,
    _raster_shape,
    gen_synthetic,
    image_to_input,
    load_manifest,
    make_scene,
    read_ppm,
    write_ppm,
)
from minircnn.rng import Rng


class TestPpm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(13, 17, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path), img)

    def test_header(self, tmp_path):
        img = np.zeros((4, 6, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        raw = path.read_bytes()
        assert raw.startswith(b"P6")
        assert b"6 4" in raw.split(b"\n", 2)[1]

    def test_byte_deterministic(self, tmp_path):
        img = np.random.default_rng(1).integers(0, 256, (8, 8, 3), dtype=np.uint8)
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_ppm(a, img)
        write_ppm(b, img)
        assert a.read_bytes() == b.read_bytes()


class TestMakeScene:
    def test_deterministic(self):
        a = make_scene(Rng(5, "data"))
        b = make_scene(Rng(5, "data"))
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.boxes, b.boxes)
        assert np.array_equal(a.classes, b.classes)

    def test_invariants(self):
        rng = Rng(6, "data")
        for _ in range(30):
            s = make_scene(rng)
            assert s.image.shape == (128, 128, 3) and s.image.dtype == np.uint8
            assert 1 <= len(s.classes) <= 5
            assert np.all((s.classes >= 1) & (s.classes <= NUM_CLASSES))
            assert np.all(s.boxes[:, 0] >= 0) and np.all(s.boxes[:, 1] >= 0)
            assert np.all(s.boxes[:, 2] <= 128) and np.all(s.boxes[:, 3] <= 128)
            assert np.all(s.boxes[:, 2] > s.boxes[:, 0])
            assert np.all(s.boxes[:, 3] > s.boxes[:, 1])

    def test_boxes_tight_around_shapes(self):
        # oracle: re-rasterize each shape from its box extents and compare
        rng = Rng(7, "data")
        for _ in range(20):
            s = make_scene(rng)
            gray = s.image[:, :, 0]
            for box in s.boxes:
                x1, y1, x2, y2 = (int(round(v)) for v in box)
                # every boundary row/column of a tight box contains shape
                # pixels (bright gray fill, >= 160) unless occluded
                region = gray[y1:y2, x1:x2]
                assert (region >= 160).any()

    def test_limited_overlap(self):
        rng = Rng(8, "data")
        for _ in range(20):
            s = make_scene(rng)
            if len(s.boxes) > 1:
                m = iou_matrix_arr(s.boxes, s.boxes)
                np.fill_diagonal(m, 0.0)
                # placement rejects candidate cells above IoU 0.25; rasterized
                # boxes can shrink slightly, so allow a loose bound
                assert m.max() <= 0.6

    def test_grayscale_fill(self):
        # shape fill is equal-RGB gray >= 160; background noise is rarely
        # both bright and exactly gray, so the fill dominates the box
        s = make_scene(Rng(9, "data"))
        for box in s.boxes:
            x1, y1, x2, y2 = (int(round(v)) for v in box)
            region = s.image[y1:y2, x1:x2].astype(np.int64)
            gray = ((region[:, :, 0] == region[:, :, 1])
                    & (region[:, :, 0] == region[:, :, 2])
                    & (region[:, :, 0] >= 160))
            assert gray.mean() >= 0.3


class TestRasterOracle:
    def test_rect_mask_extents(self):
        m = _raster_shape(1, 3, 4, 10, 6, 32, 32)
        rows = np.flatnonzero(m.any(axis=1))
        cols = np.flatnonzero(m.any(axis=0))
        assert (cols[0], rows[0], cols[-1] + 1, rows[-1] + 1) == (3, 4, 13, 10)

    def test_ellipse_inside_cell(self):
        m = _raster_shape(2, 2, 2, 12, 8, 32, 32)
        assert m.any()
        assert not m[:2].any() and not m[10:].any()
        assert not m[:, :2].any() and not m[:, 14:].any()

    def test_triangle_nondegenerate(self):
        m = _raster_shape(3, 5, 5, 9, 9, 32, 32)
        assert m.sum() >= 9

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            _raster_shape(4, 0, 0, 4, 4, 16, 16)


class TestGenSynthetic:
    def test_layout_and_determinism(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        gen_synthetic(d1, 4, seed=3)
        gen_synthetic(d2, 4, seed=3)
        assert (d1 / "manifest.jsonl").exists()
        ppms = sorted((d1 / "images").glob("*.ppm"))
        assert len(ppms) == 4
        for p in ppms:
            q = d2 / "images" / p.name
            assert p.read_bytes() == q.read_bytes()
        assert (d1 / "manifest.jsonl").read_bytes() == \
            (d2 / "manifest.jsonl").read_bytes()

    def test_different_seed_differs(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        gen_synthetic(d1, 2, seed=3)
        gen_synthetic(d2, 2, seed=4)
        assert (d1 / "manifest.jsonl").read_bytes() != \
            (d2 / "manifest.jsonl").read_bytes()

    def test_zero_images_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            gen_synthetic(tmp_path / "z", 0, seed=1)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        d = tmp_path / "ds"
        gen_synthetic(d, 3, seed=5)
        man = load_manifest(d / "manifest.jsonl")
        assert len(man) == 3
        for i in range(3):
            s = man.load_scene(i)
            assert s.image.shape == (128, 128, 3)
            assert s.boxes.shape[0] == len(s.classes) >= 1

    def test_malformed_line_reports_number(self, tmp_path):
        d = tmp_path / "ds"
        gen_synthetic(d, 2, seed=5)
        path = d / "manifest.jsonl"
        lines = path.read_text().splitlines()
        lines.insert(1, "{not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError, match=":2:"):
            load_manifest(path)

    def test_missing_image_reported(self, tmp_path):
        d = tmp_path / "ds"
        gen_synthetic(d, 2, seed=5)
        target = d / "images" / "000001.ppm"
        target.unlink()
        with pytest.raises(ManifestError, match="000001.ppm"):
            load_manifest(d / "manifest.jsonl")

    def test_box_outside_image_rejected(self, tmp_path):
        d = tmp_path / "ds"
        gen_synthetic(d, 1, seed=5)
        path = d / "manifest.jsonl"
        entry = json.loads(path.read_text().splitlines()[0])
        entry["objects"][0]["x2"] = 10_000.0
        path.write_text(json.dumps(entry) + "\n")
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_empty_manifest_valid(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert len(load_manifest(path)) == 0


class TestImageToInput:
    def test_range_and_layout(self):
        img = np.zeros((4, 6, 3), dtype=np.uint8)
        img[0, 0] = [0, 128, 255]
        x = image_to_input(img)
        assert x.shape == (3, 4, 6) and x.dtype == np.float32
        assert x[0, 0, 0] == pytest.approx(-0.5)
        assert x[2, 0, 0] == pytest.approx(0.5)
        assert abs(x[1, 0, 0]) < 0.005
