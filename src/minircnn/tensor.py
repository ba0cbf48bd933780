"""Dense-tensor compute with reverse-mode differentiation.

Single-image tensors (no batch dimension for conv feature maps), numpy
storage, tape built eagerly by the op functions below. float32 is the
training dtype; passing float64 arrays switches the whole graph to the
64-bit shadow mode used by gradient checks.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    pass


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        if self.data.ndim != 0:
            raise ShapeError("backward() requires a scalar loss node")
        topo, seen = [], set()

        def visit(t):
            if id(t) in seen:
                return
            seen.add(id(t))
            for p in t._parents:
                visit(p)
            topo.append(t)

        visit(self)
        self.grad = np.ones((), dtype=self.data.dtype)
        for t in reversed(topo):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)

    # elementwise / arithmetic sugar ------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def sum(self):
        return tsum(self)

    def mean(self):
        n = self.data.size
        return mul(tsum(self), 1.0 / n)

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes)


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad and t._backward is None:
        return
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad += g


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad or p._backward is not None for p in parents):
        out._parents = tuple(parents)
        out._backward = backward
    return out


# core ops --------------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        if a.shape != b.shape:
            raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
        y = a.data + b.data

        def bwd(g):
            _accum(a, g)
            _accum(b, g)

        return _make(y, (a, b), bwd)
    y = a.data + b

    def bwd(g):
        _accum(a, g)

    return _make(y, (a,), bwd)


def mul(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        if a.shape != b.shape:
            raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")
        y = a.data * b.data

        def bwd(g):
            _accum(a, g * b.data)
            _accum(b, g * a.data)

        return _make(y, (a, b), bwd)
    y = a.data * b

    def bwd(g):
        _accum(a, g * b)

    return _make(y, (a,), bwd)


def tsum(a: Tensor) -> Tensor:
    y = a.data.sum()

    def bwd(g):
        _accum(a, np.broadcast_to(g, a.shape))

    return _make(y, (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    y = a.data.reshape(shape)

    def bwd(g):
        _accum(a, g.reshape(a.shape))

    return _make(y, (a,), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    y = a.data.transpose(axes)
    inv = np.argsort(axes)

    def bwd(g):
        _accum(a, g.transpose(inv))

    return _make(y, (a,), bwd)


def take_rows(a: Tensor, idx) -> Tensor:
    """Gather rows along axis 0; backward scatter-adds."""
    idx = np.asarray(idx, dtype=np.int64)
    y = a.data[idx]

    def bwd(g):
        da = np.zeros_like(a.data)
        np.add.at(da, idx, g)
        _accum(a, da)

    return _make(y, (a,), bwd)


def select_class(a: Tensor, cls) -> Tensor:
    """From (N, C, D) pick row n's slice at class cls[n] -> (N, D)."""
    cls = np.asarray(cls, dtype=np.int64)
    n = np.arange(a.shape[0])
    y = a.data[n, cls]

    def bwd(g):
        da = np.zeros_like(a.data)
        da[n, cls] = g
        _accum(a, da)

    return _make(y, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    y = np.where(mask, a.data, 0)

    def bwd(g):
        _accum(a, g * mask)

    return _make(y, (a,), bwd)


def smooth_l1(a: Tensor) -> Tensor:
    """Elementwise robust loss: 0.5 x^2 for |x| < 1, |x| - 0.5 otherwise."""
    x = a.data
    small = np.abs(x) < 1
    y = np.where(small, 0.5 * x * x, np.abs(x) - 0.5)

    def bwd(g):
        _accum(a, g * np.clip(x, -1, 1))

    return _make(y, (a,), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x:(N,D) @ w:(D,M) + b:(M,)."""
    if x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"linear: x{x.shape} w{w.shape} b{b.shape}")
    y = x.data @ w.data + b.data

    def bwd(g):
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)
        _accum(b, g.sum(axis=0))

    return _make(y, (x, w, b), bwd)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Forward-only softmax on raw arrays."""
    z = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_logloss(logits: Tensor, labels) -> Tensor:
    """Per-row cross-entropy of softmax(logits:(N,K)) against int labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(f"softmax_logloss: logits{logits.shape} labels{labels.shape}")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    n = np.arange(labels.shape[0])
    y = lse - z[n, labels]

    def bwd(g):
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        p[n, labels] -= 1
        _accum(logits, p * g[:, None])

    return _make(y, (logits,), bwd)


# spatial ops -----------------------------------------------------------

def _corr(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Valid cross-correlation: x (C,H,W) with w (O,C,KH,KW) -> (O,Ho,Wo)."""
    win = sliding_window_view(x, (w.shape[2], w.shape[3]), axis=(1, 2))
    return np.tensordot(w, win, axes=([1, 2, 3], [0, 3, 4]))


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """x:(C,H,W), w:(O,C,KH,KW), b:(O,) -> (O,Ho,Wo)."""
    C, H, W = x.shape
    O, Cw, KH, KW = w.shape
    if Cw != C:
        raise ShapeError(f"conv2d: input has {C} channels, weight expects {Cw}")
    xp = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad))) if pad else x.data
    win = sliding_window_view(xp, (KH, KW), axis=(1, 2))[:, ::stride, ::stride]
    y = np.tensordot(w.data, win, axes=([1, 2, 3], [0, 3, 4])) + b.data[:, None, None]

    def bwd(g):
        _accum(b, g.sum(axis=(1, 2)))
        _accum(w, np.tensordot(g, win, axes=([1, 2], [1, 2])))
        if x.requires_grad or x._backward is not None:
            Ho, Wo = g.shape[1], g.shape[2]
            if stride > 1:  # dilate the output gradient
                gd = np.zeros((O, (Ho - 1) * stride + 1, (Wo - 1) * stride + 1),
                              dtype=g.dtype)
                gd[:, ::stride, ::stride] = g
            else:
                gd = g
            Hp, Wp = H + 2 * pad, W + 2 * pad
            ph = Hp + KH - 1 - gd.shape[1]
            pw = Wp + KW - 1 - gd.shape[2]
            gp = np.pad(gd, ((0, 0), (KH - 1, ph - (KH - 1)), (KW - 1, pw - (KW - 1))))
            wf = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)  # (C,O,KH,KW)
            dxp = _corr(gp, wf)
            _accum(x, dxp[:, pad:pad + H, pad:pad + W])

    return _make(y, (x, w, b), bwd)


def maxpool2x2(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 max pooling; odd extents padded with -inf."""
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


def roi_pool(x: Tensor, rois: np.ndarray, spatial_scale: float, out_size: int) -> Tensor:
    """Max-pool image-coordinate RoIs from x:(C,H,W) into (N,C,P,P).

    Bin b of P covers feature cells [floor(b*L/P), ceil((b+1)*L/P)) where L
    is the RoI extent in cells, at least one cell per bin. Backward routes
    gradient to argmax cells only; RoI coordinates get no gradient.
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
                sub = x.data[:, rs:re, cs:ce].reshape(C, -1)
                am = sub.argmax(axis=1)
                y[n, :, bi, bj] = sub[cidx, am]
                arg[n, :, bi, bj] = fi[rs:re, cs:ce].ravel()[am]

    def bwd(g):
        dx = np.zeros((C, H * W), dtype=x.dtype)
        c = np.broadcast_to(cidx[None, :, None, None], arg.shape)
        np.add.at(dx, (c.ravel(), arg.ravel()), g.ravel())
        _accum(x, dx.reshape(C, H, W))

    return _make(y, (x,), bwd)


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
