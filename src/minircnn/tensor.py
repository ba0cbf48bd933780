"""Dense-tensor compute with reverse-mode differentiation.

Single-image tensors (no batch dimension for conv feature maps), numpy
storage, tape built eagerly by the op functions below. float32 is the
training dtype; passing float64 arrays switches the whole graph to the
64-bit shadow mode used by gradient checks.
"""
from __future__ import annotations

import numpy as np


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
        return add(self, mul(other, -1.0))

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes)


def _accum(t: Tensor, g: np.ndarray):
    """Add g to t.grad: the first g is kept as given (it may be shared or a
    read-only view), so a grad is never written in place."""
    if not t.requires_grad and t._backward is None:
        return
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=False)
    else:
        t.grad = np.add(t.grad, g).astype(t.data.dtype, copy=False)


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad or p._backward is not None for p in parents):
        out._parents = tuple(parents)
        out._backward = backward
    return out


# core ops --------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
    y = a.data + b.data

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    return _make(y, (a, b), bwd)


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
    # np.where(a > 0, a, 0) bit for bit, without its data-dependent select:
    # fmax maps NaN and negatives to +0.0 (and a zero to either zero), and
    # adding +0.0 turns -0.0 into +0.0 while leaving every other value as is
    y = np.fmax(a.data, 0)
    y += 0

    def bwd(g):
        _accum(a, g * (y > 0))      # y > 0 exactly where a > 0

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
        p = softmax(logits.data, axis=1)
        p[n, labels] -= 1
        _accum(logits, p * g[:, None])

    return _make(y, (logits,), bwd)


# spatial ops -----------------------------------------------------------

def _cols(a: np.ndarray, KH: int, KW: int, ph: int, pw: int) -> np.ndarray:
    """The C-order (C*KH*KW, Ho*Wo) column matrix np.tensordot multiplies to
    correlate a:(C,H,W), zero-padded by ph rows and pw columns, with a
    (KH,KW) kernel, filled per kernel offset straight from a."""
    C, H, W = a.shape
    Ho, Wo = H + 2 * ph - KH + 1, W + 2 * pw - KW + 1
    cols = np.zeros((C, KH, KW, Ho, Wo), dtype=a.dtype)
    for u in range(KH):
        h0, h1 = max(0, ph - u), min(Ho, H + ph - u)
        for v in range(KW):
            w0, w1 = max(0, pw - v), min(Wo, W + pw - v)
            cols[:, u, v, h0:h1, w0:w1] = a[:, h0 + u - ph:h1 + u - ph, w0 + v - pw:w1 + v - pw]
    return cols.reshape(C * KH * KW, Ho * Wo)


def conv2d(x: Tensor, w: Tensor, b: Tensor, pad: int = 0) -> Tensor:
    """Stride-1 convolution, x:(C,H,W), w:(O,C,KH,KW), b:(O,) -> (O,Ho,Wo).

    y is one GEMM of the flattened kernel against `_cols` of x padded by
    pad, and dx one GEMM of the flipped kernel against `_cols` of g padded
    by K-1, cropped to H x W. dW is one GEMM of g against the transposed
    view of forward's column matrix, which the tape keeps only while w needs
    a gradient and drops once dW is taken. y and dx keep np.tensordot's
    operand layouts, and so its bytes; dW keeps them at the default config's
    shapes, but not at some narrow ones, where OpenBLAS's small-matrix kernel
    reads a transposed operand in another order.
    """
    C, H, W = x.shape
    O, Cw, KH, KW = w.shape
    Ho, Wo = H + 2 * pad - KH + 1, W + 2 * pad - KW + 1
    if Cw != C:
        raise ShapeError(f"conv2d: input has {C} channels, weight expects {Cw}")
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"conv2d: a {KH}x{KW} kernel does not fit {H}x{W} padded by {pad}")
    cols = _cols(x.data, KH, KW, pad, pad)
    y = np.dot(w.data.reshape(O, -1), cols).reshape(O, Ho, Wo)
    y += b.data[:, None, None]
    kept = [cols] if w.requires_grad else []      # dW's operand, until backward pops it

    def bwd(g):
        _accum(b, g.sum(axis=(1, 2)))
        if kept:
            _accum(w, np.dot(g.reshape(O, -1), kept.pop().T).reshape(w.shape))
        if x.requires_grad or x._backward is not None:
            wf = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)  # (C,O,KH,KW)
            dx = np.dot(wf.reshape(C, -1), _cols(g, KH, KW, KH - 1, KW - 1))
            _accum(x, dx.reshape(C, H + 2 * pad, W + 2 * pad)[:, pad:pad + H, pad:pad + W])

    return _make(y, (x, w, b), bwd)


def maxpool2x2(x: Tensor) -> Tensor:
    """ReLU, then non-overlapping 2x2 max pooling, as one tape op; odd
    extents are padded with zeros, which no ReLU output is below.

    Each output has the bits of the cell np.argmax would pick from the ReLU
    output's window: np.fmax of the row pairs (contiguous rows), then of
    their column pairs, clamped at 0 plus +0.0. fmax skips NaN, and the
    clamp turns NaN, negatives and both zeros into +0.0, so no full-size
    ReLU output is built. Backward masks g with y > 0, as relu's would, and
    sends it to the first stride-2 quarter equal to y or, where y is 0, to
    the window's first cell (g * 0, sign carried); every other cell gets
    +0.0. dx is C-contiguous, as relu's was, so conv2d's bias sum keeps its
    bytes. The name stays because the benchmark traces `tensor.maxpool2x2`
    and `tensor.relu` by name: the pooled stages' ReLU time reads under
    `tensor.maxpool2x2.*`.
    """
    C, H, W = x.shape
    d = x.data
    if H % 2 or W % 2:
        d = np.pad(d, ((0, 0), (0, H % 2), (0, W % 2)))
    corners = ((0, 0), (0, 1), (1, 0), (1, 1))      # row-major within a window
    quarters = [d[:, i::2, j::2] for i, j in corners]
    rows = np.fmax(d[:, 0::2], d[:, 1::2])
    y = np.fmax(rows[:, :, 0::2], rows[:, :, 1::2])
    np.fmax(y, 0, out=y)
    y += 0

    def bwd(g):
        bits = np.dtype(f"u{x.dtype.itemsize}")
        free = y > 0
        gm = (g * free).view(bits)
        dx = np.empty(d.shape, dtype=x.dtype)
        free &= quarters[0] != y        # the first cell takes every y == 0 window
        hit = ~free
        for (i, j), q in zip(corners, quarters):
            if i or j:
                hit = q == y
                hit &= free
                free ^= hit
            np.bitwise_and(gm, np.negative(hit, dtype=bits), out=dx[:, i::2, j::2].view(bits))
        _accum(x, np.ascontiguousarray(dx[:, :H, :W]))

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


def _sparse_table(base: np.ndarray, LA: int, LB: int) -> np.ndarray:
    """Sparse max table over base:(H,W,C), LA levels of rows by LB levels of
    columns: table[a, b, i, j, c] (a < LA, b < LB) is the largest entry over
    rows [i, i + 2**a) and columns [j, j + 2**b) of channel c, wherever that
    range lies inside the map (elsewhere it holds a partial maximum or 0)."""
    H, W, C = base.shape
    table = np.zeros((LA, LB, H, W, C), dtype=base.dtype)
    table[0, 0] = base
    for a in range(1, LA):
        h = 1 << (a - 1)
        np.maximum(table[a - 1, 0, :H - h], table[a - 1, 0, h:], out=table[a, 0, :H - h])
    for b in range(1, LB):
        w = 1 << (b - 1)
        np.maximum(table[:, b - 1, :, :W - w], table[:, b - 1, :, w:],
                   out=table[:, b, :, :W - w])
    return table


def _rank_table(x: np.ndarray, LA: int, LB: int):
    """`_sparse_table` of per-channel rank keys over x:(C,H,W).

    The ranks order each channel's H*W cells so that the cell np.argmax
    would pick from any set holds the largest rank: higher values rank
    higher, NaN above every number, and among equals the lower flat index.
    A stable sort of the reversed channel gives exactly that order. Channel
    c's cell of rank r has key r*C + c, so keys compare as ranks within a
    channel. Returns (cells, values, table): cells[key] is the key's flat
    index c*H*W + cell into x, values[key] its value, and table the int32
    sparse table of the keys.
    """
    C, H, W = x.shape
    HW = H * W
    flat = x.reshape(C, HW)
    order = (HW - 1) - np.argsort(flat[:, ::-1], axis=1, kind="stable")
    cidx = np.arange(C)
    keys = np.empty((C, HW), dtype=np.int32)
    np.put_along_axis(keys, order, np.arange(0, HW * C, C, dtype=np.int32)[None, :]
                      + cidx[:, None].astype(np.int32), axis=1)
    cells = (order + cidx[:, None] * HW).T.ravel()
    values = flat[cidx[None, :], order.T].ravel()
    return cells, values, _sparse_table(keys.T.reshape(H, W, C), LA, LB)


def roi_pool(x: Tensor, rois: np.ndarray, spatial_scale: float, out_size: int) -> Tensor:
    """Max-pool image-coordinate RoIs from x:(C,H,W) into (N,C,P,P).

    Bin b of P covers feature cells [floor(b*L/P), ceil((b+1)*L/P)) where L
    is the RoI extent in cells, at least one cell per bin. Each bin takes the
    cell np.argmax picks (the first maximum in row-major order, NaN before
    any number), found with four lookups in a sparse table. Overlapping
    RoIs share most bin rectangles, so each distinct one is looked up once
    and the result gathered per bin. Forward builds the `_rank_table` of
    per-channel ranks when x needs a gradient, or when x holds NaN or -0.0
    (where the largest value does not fix the bits np.argmax picks), and
    keeps only the looked-up rank keys, as a C-order intp array; y gathers
    the values and backward the argmax cells from it, and scatters the
    gradient by flat index into x. Otherwise it builds the same table over
    x's values and takes the largest of the four lookups, which is the
    argmax cell's value. RoI coordinates get no gradient.
    """
    C, H, W = x.shape
    rois = np.asarray(rois, dtype=np.float64).reshape(-1, 4)
    scaled = rois * spatial_scale
    bad = np.flatnonzero(~(np.abs(scaled) < 2.0 ** 31).all(axis=1))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"roi_pool: RoI row {i} {rois[i].tolist()} is not finite "
                         "or lies beyond 2**31 feature cells")
    N, P = rois.shape[0], out_size
    rs, re = _bin_edges(scaled[:, 1], scaled[:, 3], H, P)
    cs, ce = _bin_edges(scaled[:, 0], scaled[:, 2], W, P)
    # each distinct bin rectangle is looked up once: its id packs (rs, re)
    # and (cs, ce), and inv maps every bin to its rectangle's place in ids
    ids, inv = np.unique((rs * (H + 1) + re)[:, :, None] * (W * (W + 1))
                         + (cs * (W + 1) + ce)[:, None, :], return_inverse=True)
    rows, cols = np.divmod(ids, W * (W + 1))
    (rs, re), (cs, ce) = np.divmod(rows, H + 1), np.divmod(cols, W + 1)
    kh, kw = _floor_log2(re - rs), _floor_log2(ce - cs)
    # levels up to the largest bin's, not to the whole map's
    LA, LB = int(kh.max(initial=0)) + 1, int(kw.max(initial=0)) + 1
    level = (kh * LB + kw) * H
    corners = [(level + r) * W + c for r in (rs, re - (1 << kh)) for c in (cs, ce - (1 << kw))]

    def lookup(table):
        """The largest of the four lookups per bin, (N, C, P, P) as a view."""
        table = table.reshape(-1, C)
        top = np.take(table, corners[0], axis=0)
        for idx in corners[1:]:
            np.maximum(top, np.take(table, idx, axis=0), out=top)
        return top.take(inv.ravel(), axis=0).reshape(N, P, P, C).transpose(0, 3, 1, 2)

    d = x.data
    if not (x.requires_grad or x._backward is not None
            or np.isnan(d).any() or (np.signbit(d) & (d == 0)).any()):
        y = np.ascontiguousarray(lookup(_sparse_table(d.transpose(1, 2, 0), LA, LB)))
        return Tensor(y)

    cells, values, table = _rank_table(d, LA, LB)
    # the keys as C-order intp, so that take need not convert them
    key = np.array(lookup(table), dtype=np.intp, order="C")
    y = values.take(key)

    def bwd(g):
        dx = np.zeros(C * H * W, dtype=x.dtype)
        np.add.at(dx, cells.take(key).ravel(), g.ravel())
        _accum(x, dx.reshape(C, H, W))

    return _make(y, (x,), bwd)
