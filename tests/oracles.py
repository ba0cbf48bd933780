"""Independent reference implementations the geometry and tensor tests compare
against, and the finite-difference check of every op's gradient."""

from __future__ import annotations

import numpy as np


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


def gradcheck(fn, tensors, eps: float = 1e-5, rtol: float = 1e-4) -> float:
    """Central finite-difference check of fn(*tensors) -> scalar Tensor.

    Returns the worst relative error over all inputs with requires_grad.
    Tensors must hold float64 data for the stated tolerance to be meaningful.
    """
    out = fn(*tensors)
    for t in tensors:
        t.zero_grad()
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
