"""Synthetic shapes dataset, PPM/JSONL IO, and the one UTF-8 text line pair.

Images are binary PPM (P6, 8-bit RGB); annotations live in a JSON Lines
manifest, one object per line:
  {"image": str, "width": int, "height": int,
   "objects": [{"class": int, "x1": ..., "y1": ..., "x2": ..., "y2": ...}]}
Classes: 1 = rectangle, 2 = ellipse, 3 = triangle.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .boxes import iou_matrix_arr
from .rng import Rng

CLASS_NAMES = {1: "rect", 2: "ellipse", 3: "triangle"}
NUM_CLASSES = 3
# magic, width, height and maxval, each field after whitespace or `#` comment
# lines, then the single whitespace byte before the raster
_PPM_HEADER = re.compile(rb"P6" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


@dataclass
class Scene:
    image: np.ndarray           # (H, W, 3) uint8
    boxes: np.ndarray           # (M, 4) float64
    classes: np.ndarray         # (M,) int64, values in 1..NUM_CLASSES
    path: str = ""

    @property
    def width(self) -> int:
        return self.image.shape[1]

    @property
    def height(self) -> int:
        return self.image.shape[0]


@dataclass
class DatasetManifest:
    root: Path
    entries: list[dict] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def load_scene(self, i: int) -> Scene:
        e = self.entries[i]
        img = read_ppm(self.root / e["image"])
        if img.shape[:2] != (e["height"], e["width"]):
            raise ManifestError(f"{self.root / e['image']}: image is {img.shape[1]}x"
                                f"{img.shape[0]} px, the manifest says "
                                f"{e['width']}x{e['height']}")
        boxes = np.array([[o["x1"], o["y1"], o["x2"], o["y2"]] for o in e["objects"]],
                         dtype=np.float64).reshape(-1, 4)
        classes = np.array([o["class"] for o in e["objects"]], dtype=np.int64)
        return Scene(img, boxes, classes, path=e["image"])


def write_ppm(path, image: np.ndarray):
    image = np.ascontiguousarray(image, dtype=np.uint8)
    h, w, c = image.shape
    assert c == 3
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(image.tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    header = _PPM_HEADER.match(data)
    if header is None:
        raise ValueError(f"{path}: not a 'P6 <width> <height> <maxval>' PPM header")
    w, h, maxval = map(int, header.groups())
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    if len(data) - header.end() < w * h * 3:
        raise ValueError(f"{path}: a {w}x{h} raster needs {w * h * 3} bytes, "
                         f"{len(data) - header.end()} follow the header")
    raster = np.frombuffer(data, dtype=np.uint8, count=w * h * 3, offset=header.end())
    return raster.reshape(h, w, 3).copy()


def _raster_shape(cls: int, w: int, h: int) -> np.ndarray:
    """Boolean mask (h, w) of a filled shape of class `cls` in a w×h cell."""
    if cls == 1:  # rectangle
        return np.ones((h, w), dtype=bool)
    if cls == 2:  # ellipse, pixel-center inclusion test
        dx = (np.arange(w) + 0.5 - w / 2.0) / (w / 2.0)
        dy = (np.arange(h) + 0.5 - h / 2.0) / (h / 2.0)
        return (dy[:, None] ** 2 + dx[None, :] ** 2) <= 1.0
    if cls == 3:  # triangle: apex top-center, base at the bottom (integer tests)
        (ax, ay), (bx, by), (cx2, cy2) = (w // 2, 0), (0, h - 1), (w - 1, h - 1)
        px, py = np.arange(w)[None, :], np.arange(h)[:, None]
        d1 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        d2 = (cx2 - bx) * (py - by) - (cy2 - by) * (px - bx)
        d3 = (ax - cx2) * (py - cy2) - (ay - cy2) * (px - cx2)
        return ((d1 >= 0) & (d2 >= 0) & (d3 >= 0)) | ((d1 <= 0) & (d2 <= 0) & (d3 <= 0))
    raise ValueError(f"unknown shape class {cls}")


def make_scene(rng: Rng, image_size: int = 128, max_objects: int = 5) -> Scene:
    """One synthetic scene: noise background + 1..max_objects filled shapes."""
    hh = ww = image_size
    # Background noise is kept below the 160..255 shape-fill band so figure
    # and ground remain separable by intensity alone.
    image = rng.next_u64(hh * ww * 3).astype(np.uint8).reshape(hh, ww, 3)
    image &= 0x7F

    n_obj = rng.randint(1, max_objects + 1)
    boxes, classes = [], []
    placed = np.zeros((0, 4))
    for _ in range(n_obj):
        for _attempt in range(20):
            cls = rng.randint(1, NUM_CLASSES + 1)
            size = 14 + rng.random() * (72 - 14)
            aspect = np.exp(np.log(0.5) + rng.random() * (np.log(2) - np.log(0.5)))
            w = int(round(size * np.sqrt(aspect)))
            h = int(round(size / np.sqrt(aspect)))
            w = min(max(w, 8), ww - 4)
            h = min(max(h, 8), hh - 4)
            x0 = rng.randint(2, ww - w - 1)
            y0 = rng.randint(2, hh - h - 1)
            cand = np.array([[x0, y0, x0 + w, y0 + h]], dtype=np.float64)
            if placed.shape[0] and iou_matrix_arr(cand, placed).max() > 0.25:
                continue
            # bright gray fill: intensity varies, carries no class information
            v = 160 + (rng.word() & 0xFF) * 96 // 256
            mask = _raster_shape(cls, w, h)
            image[y0:y0 + h, x0:x0 + w][mask] = v
            rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
            boxes.append([float(x0 + cols[0]), float(y0 + rows[0]),
                          float(x0 + cols[-1] + 1), float(y0 + rows[-1] + 1)])
            classes.append(cls)
            placed = np.concatenate([placed, cand])
            break
    return Scene(image, np.asarray(boxes, dtype=np.float64).reshape(-1, 4),
                 np.asarray(classes, dtype=np.int64))


def gen_synthetic(out_dir, n_images: int, image_size: int = 128, seed: int = 0,
                  max_objects: int = 5) -> Path:
    """Write n_images scenes + manifest.jsonl under out_dir; returns manifest path."""
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    rng = Rng(seed).substream("data")

    def written(i: int) -> Scene:
        scene = make_scene(rng, image_size=image_size, max_objects=max_objects)
        scene.path = f"images/{i:06d}.ppm"
        write_ppm(out_dir / scene.path, scene.image)
        return scene

    manifest = out_dir / "manifest.jsonl"
    write_manifest(manifest, (written(i) for i in range(n_images)))
    return manifest


def write_lines(path, lines):
    """Write each of `lines` and a newline after it as UTF-8; no lines, an
    empty file. The package writes every text file through here."""
    Path(path).write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def read_lines(path):
    """Yield (line number, text) of each line of the UTF-8 file `path`, split
    at LF, CR LF or CR only. A byte that is not UTF-8 names file:line. The
    package reads every text file through here."""
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            yield lineno, raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: byte {exc.start + 1} "
                             f"({raw[exc.start]:#04x}) is not UTF-8") from None


class ManifestError(ValueError):
    pass


def write_manifest(path, scenes):
    """Write the manifest of `scenes`, one line each, naming its image by the
    scene's `path`; `load_manifest` reads it back."""
    write_lines(path, (json.dumps({
        "image": s.path, "width": s.width, "height": s.height,
        "objects": [{"class": int(c), "x1": float(b[0]), "y1": float(b[1]),
                     "x2": float(b[2]), "y2": float(b[3])}
                    for c, b in zip(s.classes, s.boxes)]}) for s in scenes))


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    root = path.parent
    entries, first_line = [], {}
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            e = json.loads(line)
            if type(e["image"]) is not str or not e["image"]:
                raise ManifestError(f"{path}:{lineno}: image {e['image']!r} is not "
                                    "a file name")
            if any(c in e["image"] for c in ",\r\n"):
                raise ManifestError(f"{path}:{lineno}: image name {e['image']!r} holds a "
                                    "comma or line break, which no CSV row can carry")
            w, h = e["width"], e["height"]
            for key, v in (("width", w), ("height", h)):
                if type(v) is not int or v < 1:
                    raise ManifestError(f"{path}:{lineno}: {key} {v!r} is not "
                                        "an integer of at least 1")
            for o in e["objects"]:
                if type(o["class"]) is not int or o["class"] not in CLASS_NAMES:
                    raise ManifestError(f"{path}:{lineno}: unknown class {o['class']!r}")
                x1, y1, x2, y2 = box = tuple(o[k] for k in ("x1", "y1", "x2", "y2"))
                if any(type(v) not in (int, float) for v in box):
                    raise ManifestError(f"{path}:{lineno}: object box {box} holds a "
                                        "value that is not a number")
                if not (0 <= x1 < x2 <= w and 0 <= y1 < y2 <= h):
                    raise ManifestError(f"{path}:{lineno}: object box {box} is empty "
                                        f"or outside the {w}x{h} image")
        except ManifestError:
            raise
        except (KeyError, ValueError, TypeError) as exc:
            raise ManifestError(f"{path}:{lineno}: malformed entry: {exc}") from exc
        img = root / e["image"]
        if not img.exists():
            raise ManifestError(f"{path}:{lineno}: missing image file {img}")
        if not img.is_file():
            raise ManifestError(f"{path}:{lineno}: image {img} is not a file")
        if img in first_line:
            raise ManifestError(f"{path}:{lineno}: image {e['image']} is already "
                                f"listed on line {first_line[img]}")
        first_line[img] = lineno
        entries.append(e)
    return DatasetManifest(root=root, entries=entries)


def image_to_input(image: np.ndarray) -> np.ndarray:
    """uint8 (H,W,3) -> float32 (3,H,W) in [-0.5, 0.5]."""
    return (image.astype(np.float32) / 255.0 - 0.5).transpose(2, 0, 1)
