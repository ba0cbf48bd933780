"""Independent reference implementations the geometry and tensor tests compare
against, and the finite-difference check of every op's gradient."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from minircnn.tensor import ShapeError, Tensor, _accum, _make


def random_boxes(rng: np.random.Generator, n: int, lo: float = 0.0,
                 hi: float = 100.0, min_size: float = 1e-3) -> np.ndarray:
    """(n, 4) array of valid boxes with positive width and height."""
    x1 = rng.uniform(lo, hi, size=n)
    y1 = rng.uniform(lo, hi, size=n)
    w = rng.uniform(min_size, hi - lo, size=n)
    h = rng.uniform(min_size, hi - lo, size=n)
    return np.stack([x1, y1, x1 + w, y1 + h], axis=1)


def brute_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Scalar IoU of two (4,) boxes, computed independently of the library."""
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    union = ((a[2] - a[0]) * (a[3] - a[1])
             + (b[2] - b[0]) * (b[3] - b[1]) - inter)
    return inter / union if union > 0 else 0.0


def brute_nms(boxes: np.ndarray, scores: np.ndarray, thresh: float) -> list[int]:
    """Quadratic greedy NMS reference: stable sort, strict > suppression."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    keep: list[int] = []
    alive = set(order)
    for i in order:
        if i not in alive:
            continue
        keep.append(i)
        alive.discard(i)
        for j in list(alive):
            if brute_iou(boxes[i], boxes[j]) > thresh:
                alive.discard(j)
    return keep


def permutation_loop(rng, n: int) -> np.ndarray:
    """Fisher-Yates permutation of range(n) drawn from `rng`, one swap per
    numpy element assignment."""
    out = np.arange(n)
    if n <= 1:
        return out
    u = rng.uniform(n - 1)
    for i in range(n - 1, 0, -1):
        j = int(u[n - 1 - i] * (i + 1))
        out[i], out[j] = out[j], out[i]
    return out


def normal_concat(rng, n: int) -> np.ndarray:
    """n standard normals drawn from `rng` by Box-Muller over whole arrays:
    m = ceil(n / 2) uniforms u1, then m uniforms u2, and the first n of
    r cos θ followed by r sin θ."""
    m = (n + 1) // 2
    u1 = np.maximum(rng.uniform(m), 2.0**-53)
    u2 = rng.uniform(m)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]


def raster_in_image(cls: int, x0: int, y0: int, w: int, h: int, hh: int,
                    ww: int) -> np.ndarray:
    """Boolean mask (hh, ww) of a filled shape of class `cls` in the cell
    [x0, x0 + w) x [y0, y0 + h), computed in image coordinates."""
    mask = np.zeros((hh, ww), dtype=bool)
    ys = np.arange(y0, y0 + h)
    xs = np.arange(x0, x0 + w)
    if cls == 1:
        mask[y0:y0 + h, x0:x0 + w] = True
    elif cls == 2:
        cx, cy = x0 + w / 2.0, y0 + h / 2.0
        dx = (xs + 0.5 - cx) / (w / 2.0)
        dy = (ys + 0.5 - cy) / (h / 2.0)
        mask[y0:y0 + h, x0:x0 + w] = (dy[:, None] ** 2 + dx[None, :] ** 2) <= 1.0
    elif cls == 3:
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
    return mask


def named_stream_words(seed: int, name: str, n: int) -> list[int]:
    """The first n 64-bit words of the stream the two-argument constructor
    `Rng(seed, name)` drew for a non-empty `name`, in plain Python integers:
    splitmix64 at counters 1..n from the seed mixed with the FNV-1a hash of
    `name`."""
    mask = (1 << 64) - 1

    def mix(z: int) -> int:
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    h = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & mask
    base = mix((seed & mask) ^ h)
    return [mix((base + i * 0x9E3779B97F4A7C15) & mask) for i in range(1, n + 1)]


def relu_where(a: Tensor) -> Tensor:
    """ReLU through np.where's select; backward masks g with a > 0."""
    mask = a.data > 0
    y = np.where(mask, a.data, 0)

    def bwd(g):
        _accum(a, g * mask)

    return _make(y, (a,), bwd)


def roi_pool_loop(x: np.ndarray, rois: np.ndarray, spatial_scale: float,
                  out_size: int) -> tuple[np.ndarray, np.ndarray]:
    """RoI max pooling one RoI, bin row and bin column at a time.

    x:(C,H,W) -> (y, arg), both (N,C,P,P): the pooled values and the flat
    H*W index each one came from (np.argmax's first maximum per bin).
    """
    C, H, W = x.shape
    rois = np.asarray(rois, dtype=np.float64).reshape(-1, 4)
    N, P = rois.shape[0], out_size
    y = np.empty((N, C, P, P), dtype=x.dtype)
    arg = np.empty((N, C, P, P), dtype=np.int64)
    fi = np.arange(H * W).reshape(H, W)
    cidx = np.arange(C)
    for n in range(N):
        x1, y1, x2, y2 = rois[n] * spatial_scale
        c0 = min(int(np.floor(x1)), W - 1)
        r0 = min(int(np.floor(y1)), H - 1)
        Lx = max(1, int(np.ceil(x2)) - c0)
        Ly = max(1, int(np.ceil(y2)) - r0)
        for bi in range(P):
            rs = r0 + (bi * Ly) // P
            re = r0 + -(-(bi + 1) * Ly // P)
            rs = min(max(rs, 0), H - 1)
            re = min(max(re, rs + 1), H)
            for bj in range(P):
                cs = c0 + (bj * Lx) // P
                ce = c0 + -(-(bj + 1) * Lx // P)
                cs = min(max(cs, 0), W - 1)
                ce = min(max(ce, cs + 1), W)
                sub = x[:, rs:re, cs:ce].reshape(C, -1)
                am = sub.argmax(axis=1)
                y[n, :, bi, bj] = sub[cidx, am]
                arg[n, :, bi, bj] = fi[rs:re, cs:ce].ravel()[am]
    return y, arg


def conv2d_tensordot(x: Tensor, w: Tensor, b: Tensor, pad: int = 0) -> Tensor:
    """Stride-1 convolution as one `tensordot` over the window view; dx is
    the full correlation of g with the flipped kernel, cropped to H x W, and
    dW one GEMM of g against the transposed view of the windows' C-order
    (C*KH*KW, Ho*Wo) copy."""
    C, H, W = x.shape
    O, Cw, KH, KW = w.shape
    if Cw != C:
        raise ShapeError(f"conv2d: input has {C} channels, weight expects {Cw}")
    xp = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad))) if pad else x.data
    win = sliding_window_view(xp, (KH, KW), axis=(1, 2))
    y = np.tensordot(w.data, win, axes=([1, 2, 3], [0, 3, 4])) + b.data[:, None, None]

    def bwd(g):
        _accum(b, g.sum(axis=(1, 2)))
        win_cols = np.ascontiguousarray(win.transpose(0, 3, 4, 1, 2)).reshape(C * KH * KW, -1)
        _accum(w, np.dot(g.reshape(O, -1), win_cols.T).reshape(w.shape))
        if x.requires_grad or x._backward is not None:
            gp = np.pad(g, ((0, 0), (KH - 1, KH - 1), (KW - 1, KW - 1)))
            wf = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)  # (C,O,KH,KW)
            gwin = sliding_window_view(gp, (KH, KW), axis=(1, 2))
            dxp = np.tensordot(wf, gwin, axes=([1, 2, 3], [0, 3, 4]))
            _accum(x, dxp[:, pad:pad + H, pad:pad + W])

    return _make(y, (x, w, b), bwd)


def maxpool2x2_argmax(x: Tensor) -> Tensor:
    """2x2 max pooling through `argmax` over each window's four cells, which
    picks the first maximum in row-major order (NaN before any number); odd
    extents padded with -inf. Backward scatters g to the argmax cells."""
    C, H, W = x.shape
    d = x.data
    if H % 2 or W % 2:
        d = np.pad(d, ((0, 0), (0, H % 2), (0, W % 2)), constant_values=-np.inf)
    Hp, Wp = d.shape[1], d.shape[2]
    Ho, Wo = Hp // 2, Wp // 2
    v = d.reshape(C, Ho, 2, Wo, 2).transpose(0, 1, 3, 2, 4).reshape(C, Ho, Wo, 4)
    idx = v.argmax(axis=3)
    y = np.take_along_axis(v, idx[..., None], axis=3)[..., 0]

    def bwd(g):
        rows = 2 * np.arange(Ho)[None, :, None] + idx // 2
        cols = 2 * np.arange(Wo)[None, None, :] + idx % 2
        keep = (rows < H) & (cols < W)
        dx = np.zeros_like(x.data).reshape(C, H * W)
        flat = rows * W + cols
        c = np.broadcast_to(np.arange(C)[:, None, None], idx.shape)
        dx[c[keep], flat[keep]] = g[keep]
        _accum(x, dx.reshape(C, H, W))

    return _make(y, (x,), bwd)


def gradcheck(fn, tensors, eps: float = 1e-5, rtol: float = 1e-4) -> float:
    """Central finite-difference check of fn(*tensors) -> scalar Tensor.

    Returns the worst relative error over all inputs with requires_grad.
    Tensors must hold float64 data for the stated tolerance to be meaningful.
    """
    out = fn(*tensors)
    for t in tensors:
        t.grad = None
    out.backward()
    worst = 0.0
    for t in tensors:
        if not t.requires_grad:
            continue
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = fn(*tensors).item()
            flat[i] = orig - eps
            fm = fn(*tensors).item()
            flat[i] = orig
            num = (fp - fm) / (2 * eps)
            ana = g.reshape(-1)[i]
            denom = max(abs(num), abs(ana), 1.0)
            worst = max(worst, abs(num - ana) / denom)
    return worst
