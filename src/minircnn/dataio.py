"""Synthetic shapes dataset and PPM/JSONL IO.

Images are binary PPM (P6, 8-bit RGB); annotations live in a JSON Lines
manifest, one object per line:
  {"image": str, "width": int, "height": int,
   "objects": [{"class": int, "x1": ..., "y1": ..., "x2": ..., "y2": ...}]}
Classes: 1 = rectangle, 2 = ellipse, 3 = triangle.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .rng import Rng

CLASS_NAMES = {1: "rect", 2: "ellipse", 3: "triangle"}
NUM_CLASSES = 3


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
    if not data.startswith(b"P6"):
        raise ValueError(f"{path}: not a P6 PPM file")
    fields, pos = [], 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while data[pos:pos + 1] not in (b"\n", b""):
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    raster = np.frombuffer(data, dtype=np.uint8, count=w * h * 3, offset=pos)
    return raster.reshape(h, w, 3).copy()


def _raster_shape(cls: int, x0: int, y0: int, w: int, h: int,
                  hh: int, ww: int) -> np.ndarray:
    """Boolean mask (hh, ww) of a filled shape inside cell [x0,x0+w)x[y0,y0+h)."""
    mask = np.zeros((hh, ww), dtype=bool)
    ys = np.arange(y0, y0 + h)
    xs = np.arange(x0, x0 + w)
    if cls == 1:  # rectangle
        mask[y0:y0 + h, x0:x0 + w] = True
    elif cls == 2:  # ellipse, pixel-center inclusion test
        cx, cy = x0 + w / 2.0, y0 + h / 2.0
        dx = (xs + 0.5 - cx) / (w / 2.0)
        dy = (ys + 0.5 - cy) / (h / 2.0)
        mask[y0:y0 + h, x0:x0 + w] = (dy[:, None] ** 2 + dx[None, :] ** 2) <= 1.0
    elif cls == 3:  # triangle: apex top-center, base at the bottom (integer tests)
        ax, ay = x0 + w // 2, y0
        bx, by = x0, y0 + h - 1
        cx2, cy2 = x0 + w - 1, y0 + h - 1
        px = xs[None, :]
        py = ys[:, None]
        d1 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        d2 = (cx2 - bx) * (py - by) - (cy2 - by) * (px - bx)
        d3 = (ax - cx2) * (py - cy2) - (ay - cy2) * (px - cx2)
        inside = ((d1 >= 0) & (d2 >= 0) & (d3 >= 0)) | ((d1 <= 0) & (d2 <= 0) & (d3 <= 0))
        mask[y0:y0 + h, x0:x0 + w] = inside
    else:
        raise ValueError(f"unknown shape class {cls}")
    return mask


def make_scene(rng: Rng, image_size: int = 128, max_objects: int = 5) -> Scene:
    """One synthetic scene: noise background + 1..max_objects filled shapes."""
    hh = ww = image_size
    # Background noise is kept below the 160..255 shape-fill band so figure
    # and ground remain separable by intensity alone.
    noise = rng.next_u64(hh * ww * 3)
    image = (noise & np.uint64(0x7F)).astype(np.uint8).reshape(hh, ww, 3)

    n_obj = int(rng.randint(1, max_objects + 1)[0])
    boxes, classes = [], []
    placed = np.zeros((0, 4))
    for _ in range(n_obj):
        for _attempt in range(20):
            cls = int(rng.randint(1, NUM_CLASSES + 1)[0])
            size = 14 + rng.uniform(1)[0] * (72 - 14)
            aspect = np.exp(np.log(0.5) + rng.uniform(1)[0] * (np.log(2) - np.log(0.5)))
            w = int(round(size * np.sqrt(aspect)))
            h = int(round(size / np.sqrt(aspect)))
            w = min(max(w, 8), ww - 4)
            h = min(max(h, 8), hh - 4)
            x0 = int(rng.randint(2, ww - w - 1)[0])
            y0 = int(rng.randint(2, hh - h - 1)[0])
            cand = np.array([[x0, y0, x0 + w, y0 + h]], dtype=np.float64)
            if placed.shape[0]:
                from .boxes import iou_matrix_arr
                if iou_matrix_arr(cand, placed).max() > 0.25:
                    continue
            # bright gray fill: intensity varies, carries no class information
            v = np.uint8(160 + int(rng.next_u64(1)[0] & np.uint64(0xFF)) * 96 // 256)
            color = np.array([v, v, v], dtype=np.uint8)
            mask = _raster_shape(cls, x0, y0, w, h, hh, ww)
            image[mask] = color
            rows = np.flatnonzero(mask.any(axis=1))
            cols = np.flatnonzero(mask.any(axis=0))
            boxes.append([float(cols[0]), float(rows[0]),
                          float(cols[-1] + 1), float(rows[-1] + 1)])
            classes.append(cls)
            placed = np.concatenate([placed, cand])
            break
    return Scene(image, np.asarray(boxes, dtype=np.float64).reshape(-1, 4),
                 np.asarray(classes, dtype=np.int64))


def gen_synthetic(out_dir, n_images: int, image_size: int = 128, seed: int = 0,
                  max_objects: int = 5) -> Path:
    """Write n_images scenes + manifest.jsonl under out_dir; returns manifest path."""
    if n_images < 1:
        raise ValueError("n_images must be >= 1")
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    rng = Rng(seed, "data")
    lines = []
    for i in range(n_images):
        scene = make_scene(rng, image_size=image_size, max_objects=max_objects)
        rel = f"images/{i:06d}.ppm"
        write_ppm(out_dir / rel, scene.image)
        objs = [{"class": int(c), "x1": float(b[0]), "y1": float(b[1]),
                 "x2": float(b[2]), "y2": float(b[3])}
                for c, b in zip(scene.classes, scene.boxes)]
        lines.append(json.dumps({"image": rel, "width": scene.width,
                                 "height": scene.height, "objects": objs}))
    manifest = out_dir / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + ("\n" if lines else ""))
    return manifest


class ManifestError(ValueError):
    pass


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    root = path.parent
    entries = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                e = json.loads(line)
                w, h = int(e["width"]), int(e["height"])
                for o in e["objects"]:
                    if not (0 <= o["x1"] <= o["x2"] <= w and 0 <= o["y1"] <= o["y2"] <= h):
                        raise ManifestError(
                            f"{path}:{lineno}: object box outside image bounds")
            except ManifestError:
                raise
            except (KeyError, ValueError, TypeError) as exc:
                raise ManifestError(f"{path}:{lineno}: malformed entry: {exc}") from exc
            img = root / e["image"]
            if not img.exists():
                raise ManifestError(f"{path}:{lineno}: missing image file {img}")
            entries.append(e)
    return DatasetManifest(root=root, entries=entries)


def image_to_input(image: np.ndarray) -> np.ndarray:
    """uint8 (H,W,3) -> float32 (3,H,W) in [-0.5, 0.5]."""
    return (image.astype(np.float32) / 255.0 - 0.5).transpose(2, 0, 1)
