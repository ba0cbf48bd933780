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
        # depth-first post-order, parents in _parents order, without recursion
        topo, seen = [], {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            t, parents = stack[-1]
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                stack.pop()
                topo.append(t)
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


def conv2d(x: Tensor, w: Tensor, b: Tensor, pad: int = 0) -> Tensor:
    """Stride-1 convolution, x:(C,H,W), w:(O,C,KH,KW), b:(O,) -> (O,Ho,Wo)."""
    C, H, W = x.shape
    _, Cw, KH, KW = w.shape
    if Cw != C:
        raise ShapeError(f"conv2d: input has {C} channels, weight expects {Cw}")
    xp = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad))) if pad else x.data
    win = sliding_window_view(xp, (KH, KW), axis=(1, 2))
    y = np.tensordot(w.data, win, axes=([1, 2, 3], [0, 3, 4])) + b.data[:, None, None]

    def bwd(g):
        _accum(b, g.sum(axis=(1, 2)))
        _accum(w, np.tensordot(g, win, axes=([1, 2], [1, 2])))
        if x.requires_grad or x._backward is not None:
            gp = np.pad(g, ((0, 0), (KH - 1, KH - 1), (KW - 1, KW - 1)))
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


def _floor_log2(n: np.ndarray) -> np.ndarray:
    """floor(log2(n)) of positive integers below 2**53, exactly."""
    return np.frexp(n.astype(np.float64))[1].astype(np.int64) - 1


def _bin_edges(lo: np.ndarray, hi: np.ndarray, size: int, P: int):
    """Per-RoI bin ranges [start, end) along one axis of extent `size`.

    lo, hi: (N,) scaled RoI edges. Returns (N, P) int64 starts and ends: bin
    b covers [floor(b*L/P), ceil((b+1)*L/P)) from the RoI's first cell, with
    L the RoI extent in cells (at least 1), clamped to at least one cell
    inside the map.
    """
    c0 = np.minimum(np.floor(lo).astype(np.int64), size - 1)[:, None]
    L = np.maximum(1, np.ceil(hi).astype(np.int64)[:, None] - c0)
    b = np.arange(P)
    start = np.clip(c0 + (b * L) // P, 0, size - 1)
    end = np.minimum(np.maximum(c0 - (-(b + 1) * L // P), start + 1), size)
    return start, end


def _rank_table(x: np.ndarray):
    """Sparse table of per-channel rank keys over x:(C,H,W).

    The ranks order each channel's H*W cells so that the cell np.argmax
    would pick from any set holds the largest rank: higher values rank
    higher, NaN above every number, and among equals the lower flat index.
    A stable sort of the reversed channel gives exactly that order. Channel
    c's cell of rank r has key r*C + c, so keys compare as ranks within a
    channel. Returns (cells, values, table): cells[key] is the key's flat
    H*W index, values[key] its value, and table[a, b, i, j, c] the largest
    key over rows [i, i + 2**a) and columns [j, j + 2**b) of channel c.
    """
    C, H, W = x.shape
    HW = H * W
    flat = x.reshape(C, HW)
    order = (HW - 1) - np.argsort(flat[:, ::-1], axis=1, kind="stable")
    cidx = np.arange(C)
    keys = np.empty((C, HW), dtype=np.int32)
    np.put_along_axis(keys, order, np.arange(0, HW * C, C, dtype=np.int32)[None, :]
                      + cidx[:, None].astype(np.int32), axis=1)
    cells = order.T.ravel()
    values = flat[cidx[None, :], order.T].ravel()
    LA, LB = H.bit_length(), W.bit_length()    # floor(log2) + 1 levels
    table = np.zeros((LA, LB, H, W, C), dtype=np.int32)
    table[0, 0] = keys.T.reshape(H, W, C)
    for a in range(1, LA):
        h = 1 << (a - 1)
        np.maximum(table[a - 1, 0, :H - h], table[a - 1, 0, h:], out=table[a, 0, :H - h])
    for b in range(1, LB):
        w = 1 << (b - 1)
        np.maximum(table[:, b - 1, :, :W - w], table[:, b - 1, :, w:],
                   out=table[:, b, :, :W - w])
    return cells, values, table


def roi_pool(x: Tensor, rois: np.ndarray, spatial_scale: float, out_size: int) -> Tensor:
    """Max-pool image-coordinate RoIs from x:(C,H,W) into (N,C,P,P).

    Bin b of P covers feature cells [floor(b*L/P), ceil((b+1)*L/P)) where L
    is the RoI extent in cells, at least one cell per bin. Each bin takes the
    cell np.argmax picks (the first maximum in row-major order, NaN before
    any number), found with four lookups in a sparse table of per-channel
    ranks. Backward routes gradient to argmax cells only; RoI coordinates
    get no gradient.
    """
    C, H, W = x.shape
    rois = np.asarray(rois, dtype=np.float64).reshape(-1, 4)
    scaled = rois * spatial_scale
    bad = np.flatnonzero(~(np.abs(scaled) < 2.0 ** 31).all(axis=1))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"roi_pool: RoI row {i} {rois[i].tolist()} is not finite "
                         "or lies beyond 2**31 feature cells")
    rs, re = _bin_edges(scaled[:, 1], scaled[:, 3], H, out_size)
    cs, ce = _bin_edges(scaled[:, 0], scaled[:, 2], W, out_size)
    kh, kw = _floor_log2(re - rs), _floor_log2(ce - cs)
    r2, c2 = re - (1 << kh), ce - (1 << kw)
    level = (kh[:, :, None] * W.bit_length() + kw[:, None, :]) * H     # (N, P, P)

    cells, values, table = _rank_table(x.data)
    table = table.reshape(-1, C)
    key = np.take(table, (level + rs[:, :, None]) * W + cs[:, None, :], axis=0)
    for r, c in ((rs, c2), (r2, cs), (r2, c2)):
        np.maximum(key, np.take(table, (level + r[:, :, None]) * W + c[:, None, :],
                                axis=0), out=key)
    key = np.ascontiguousarray(key.transpose(0, 3, 1, 2))     # (N, C, P, P)
    arg = cells[key]
    y = values[key]
    cidx = np.arange(C)

    def bwd(g):
        dx = np.zeros((C, H * W), dtype=x.dtype)
        c = np.broadcast_to(cidx[None, :, None, None], arg.shape)
        np.add.at(dx, (c.ravel(), arg.ravel()), g.ravel())
        _accum(x, dx.reshape(C, H, W))

    return _make(y, (x,), bwd)

