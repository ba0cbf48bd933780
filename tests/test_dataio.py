"""Synthetic dataset generation and PPM/manifest IO."""

import json
import re

import numpy as np
import pytest

from minircnn.boxes import iou_matrix_arr
from minircnn.config import RunConfig
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
    write_manifest,
    write_ppm,
)
from minircnn.rng import Rng

from oracles import raster_in_image


class TestPpm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(13, 17, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path), img)
        # and back: an image gen_synthetic wrote is rewritten byte for byte
        gen_synthetic(tmp_path / "ds", 1, image_size=48, seed=5)
        made = tmp_path / "ds" / "images" / "000000.ppm"
        write_ppm(path, read_ppm(made))
        assert path.read_bytes() == made.read_bytes()

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

    def test_short_raster_names_the_file_and_counts(self, tmp_path):
        path = tmp_path / "x.ppm"
        write_ppm(path, np.zeros((4, 6, 3), dtype=np.uint8))
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ValueError, match=r"x\.ppm: .*6x4.* 72 bytes.* 62"):
            read_ppm(path)

    @pytest.mark.parametrize("header", [b"P6\n48 4x\n255\n", b"P6\n48\n",
                                        b"P5\n4 4\n255\n", b"P6 -4 4 255\n"])
    def test_malformed_header_names_the_file(self, tmp_path, header):
        path = tmp_path / "x.ppm"
        path.write_bytes(header + bytes(48 * 4 * 3))
        with pytest.raises(ValueError, match=r"x\.ppm: .*PPM header"):
            read_ppm(path)

    def test_header_comments_skipped(self, tmp_path):
        img = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P6\n# made by hand\n3 # width\n2\n255\n" + img.tobytes())
        assert np.array_equal(read_ppm(path), img)


class TestMakeScene:
    def test_deterministic(self):
        a = make_scene(Rng(5).substream("data"))
        b = make_scene(Rng(5).substream("data"))
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.boxes, b.boxes)
        assert np.array_equal(a.classes, b.classes)

    def test_invariants(self):
        rng = Rng(6).substream("data")
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
        rng = Rng(7).substream("data")
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
        rng = Rng(8).substream("data")
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
        s = make_scene(Rng(9).substream("data"))
        for box in s.boxes:
            x1, y1, x2, y2 = (int(round(v)) for v in box)
            region = s.image[y1:y2, x1:x2].astype(np.int64)
            gray = ((region[:, :, 0] == region[:, :, 1])
                    & (region[:, :, 0] == region[:, :, 2])
                    & (region[:, :, 0] >= 160))
            assert gray.mean() >= 0.3


def placed(cls, x0, y0, w, h, hh, ww):
    """`_raster_shape`'s w×h window written into an empty (hh, ww) mask."""
    mask = np.zeros((hh, ww), dtype=bool)
    mask[y0:y0 + h, x0:x0 + w] = _raster_shape(cls, w, h)
    return mask


class TestRasterOracle:
    def test_rect_mask_extents(self):
        m = placed(1, 3, 4, 10, 6, 32, 32)
        rows = np.flatnonzero(m.any(axis=1))
        cols = np.flatnonzero(m.any(axis=0))
        assert (cols[0], rows[0], cols[-1] + 1, rows[-1] + 1) == (3, 4, 13, 10)

    def test_ellipse_inside_cell(self):
        m = placed(2, 2, 2, 12, 8, 32, 32)
        assert m.any()
        assert not m[:2].any() and not m[10:].any()
        assert not m[:, :2].any() and not m[:, 14:].any()

    def test_triangle_nondegenerate(self):
        m = placed(3, 5, 5, 9, 9, 32, 32)
        assert m.sum() >= 9

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            _raster_shape(4, 4, 4)

    @pytest.mark.parametrize("cls", [1, 2, 3])
    def test_window_is_the_image_coordinate_raster(self, cls):
        """A shape rasterised in its own window, then placed, has the bytes of
        the same shape rasterised in image coordinates."""
        rng = np.random.default_rng(cls)
        for _ in range(200):
            w, h = (int(v) for v in rng.integers(1, 73, size=2))
            x0, y0 = (int(v) for v in rng.integers(0, 128 - 72, size=2))
            want = raster_in_image(cls, x0, y0, w, h, 128, 128)
            assert placed(cls, x0, y0, w, h, 128, 128).tobytes() == want.tobytes()


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
        # data.n_images is a config key, checked by `RunConfig`
        with pytest.raises(ValueError, match="data.n_images=0 is below 1"):
            RunConfig(data_n_images=0, seed=1)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        d = tmp_path / "ds"
        gen_synthetic(d, 3, seed=5)
        man = load_manifest(d / "manifest.jsonl")
        assert len(man) == 3
        made = Rng(5).substream("data")     # the stream gen_synthetic draws from
        for i in range(3):
            s, want = man.load_scene(i), make_scene(made)
            assert s.image.shape == (128, 128, 3)
            assert s.boxes.shape[0] == len(s.classes) >= 1
            assert s.path == f"images/{i:06d}.ppm"
            assert s.image.tobytes() == want.image.tobytes()
            assert s.boxes.tolist() == want.boxes.tolist()
            assert s.classes.tolist() == want.classes.tolist()

    def test_rewrite_is_byte_identical(self, tmp_path):
        """write(read(f)) == f for a manifest `gen_synthetic` wrote."""
        path = gen_synthetic(tmp_path / "ds", 3, seed=5)
        man = load_manifest(path)
        again = tmp_path / "ds" / "again.jsonl"
        write_manifest(again, (man.load_scene(i) for i in range(len(man))))
        assert again.read_bytes() == path.read_bytes()

    def test_malformed_line_reports_number(self, tmp_path):
        d = tmp_path / "ds"
        gen_synthetic(d, 2, seed=5)
        path = d / "manifest.jsonl"
        lines = path.read_text().splitlines()
        lines.insert(1, "{not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError, match=":2:"):
            load_manifest(path)

    @pytest.mark.parametrize("char", [",", "\r", "\n"], ids=["comma", "cr", "lf"])
    def test_image_name_a_csv_row_cannot_carry_rejected(self, tmp_path, char):
        """The proposals and detections CSVs name each image in a row, so a
        name holding a comma or line break would not read back."""
        d = tmp_path / "ds"
        gen_synthetic(d, 1, image_size=48, seed=5)
        path = d / "manifest.jsonl"
        entry = json.loads(path.read_text().splitlines()[0])
        name = f"images/a{char}b.ppm"
        (d / entry["image"]).rename(d / name)
        entry["image"] = name
        path.write_text(json.dumps(entry) + "\n")
        with pytest.raises(ManifestError,
                           match=re.escape(f"manifest.jsonl:1: image name {name!r} ")):
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

    @pytest.mark.parametrize("box, reason", [
        ((10, 10, 10, 30), "is empty"), ((10.5, 10.5, 30, 10.5), "is empty"),
        ((True, 10, 30, 30), "not a number"), ((10, 10, 30, "30"), "not a number")])
    def test_empty_or_non_numeric_box_rejected(self, tmp_path, box, reason):
        d = tmp_path / "ds"
        gen_synthetic(d, 2, seed=5)
        path = d / "manifest.jsonl"
        lines = path.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["objects"][0].update(zip(("x1", "y1", "x2", "y2"), box))
        lines[1] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError, match=f"manifest.jsonl:2: object box .* {reason}"):
            load_manifest(path)

    def test_image_size_disagreeing_with_its_entry_rejected(self, tmp_path):
        d = tmp_path / "ds"
        gen_synthetic(d, 1, image_size=48, seed=5)
        path = d / "manifest.jsonl"
        entry = json.loads(path.read_text().splitlines()[0])
        entry.update(width=400, height=400)
        entry["objects"] = [{"class": 1, "x1": 100.0, "y1": 100.0, "x2": 300.0,
                             "y2": 300.0}]
        path.write_text(json.dumps(entry) + "\n")
        man = load_manifest(path)        # the entry is in its own bounds
        with pytest.raises(ManifestError, match=r"000000\.ppm: .*48x48.* 400x400"):
            man.load_scene(0)

    @pytest.mark.parametrize("cls", [0, 7, "1", 1.0, True])
    def test_unknown_class_rejected(self, tmp_path, cls):
        d = tmp_path / "ds"
        gen_synthetic(d, 2, seed=5)
        path = d / "manifest.jsonl"
        lines = path.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["objects"][-1]["class"] = cls
        lines[1] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError,
                           match=f"manifest.jsonl:2: unknown class {cls!r}"):
            load_manifest(path)

    @pytest.mark.parametrize("key,value", [("width", 0), ("height", 0), ("width", -48),
                                           ("width", 48.7), ("height", 48.0),
                                           ("width", "48"), ("height", True),
                                           ("width", None)])
    def test_size_not_a_positive_integer_rejected(self, tmp_path, key, value):
        d = tmp_path / "ds"
        gen_synthetic(d, 2, image_size=48, seed=5)
        path = d / "manifest.jsonl"
        lines = path.read_text().splitlines()
        entry = json.loads(lines[1])
        entry[key] = value
        lines[1] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError, match=re.escape(
                f"manifest.jsonl:2: {key} {value!r} is not an integer of at least 1")):
            load_manifest(path)

    @pytest.mark.parametrize("image, reason", [
        (5, "image 5 is not a file name"), ("", "image '' is not a file name"),
        (None, "image None is not a file name"), ("images", "images is not a file")])
    def test_image_that_is_not_a_file_rejected(self, tmp_path, image, reason):
        d = tmp_path / "ds"
        gen_synthetic(d, 2, seed=5)
        path = d / "manifest.jsonl"
        lines = path.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["image"] = image
        lines[1] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError,
                           match=f"manifest.jsonl:2: .*{re.escape(reason)}$"):
            load_manifest(path)

    @pytest.mark.parametrize("spelling", ["images/000000.ppm", "./images/000000.ppm"])
    def test_repeated_image_names_both_lines(self, tmp_path, spelling):
        """A second entry for one image would score its detections twice."""
        d = tmp_path / "ds"
        gen_synthetic(d, 3, seed=5)
        path = d / "manifest.jsonl"
        lines = path.read_text().splitlines()
        entry = json.loads(lines[0])
        entry["image"] = spelling
        lines[2] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError, match=re.escape(
                f"manifest.jsonl:3: image {spelling} is already listed on line 1")):
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
