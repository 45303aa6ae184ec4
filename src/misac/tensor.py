"""Dense float64 tensors with a reverse-mode autodiff tape.

Primitives execute eagerly on numpy buffers. While a :class:`Tape` is active,
any primitive whose inputs require gradients appends a node holding
vector-Jacobian closures; :func:`backward` replays the tape in exact reverse
order, accumulates into ``Tensor.grad`` and frees each node as it goes.
Float64 is the default precision so that central differences, the oracle the
tests check every gradient against, resolve errors below 1e-7. Each loss
term is one node: ``cross_entropy`` and ``squared_error`` are primitives,
and ``mse`` is the mean of the latter. So is each routed expert layer,
``moe_ffn`` (fan-out, fc1, GELU, fc2, keeping only the pre-activation and
its CDF), and each RMSNorm-gained residual branch, ``residual_rmsnorm``
(keeping the branch and its rms, not the normalized branch): a step's
traced peak is its forward, so what the forward keeps is what a step costs
in memory.

Also hosts the small binary tensor format used for datasets and checkpoints
(magic ``MSTN``) and a thin complex-array wrapper for the signal-synthesis
code, which never participates in autodiff.
"""

from __future__ import annotations

import math
import os
import struct
from typing import Sequence

import numpy as np
from scipy import special

_TAPES: list["Tape"] = []
_CHECK_FINITE = True

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def set_finite_checks(enabled: bool) -> bool:
    """Toggle the per-primitive NaN/Inf assertion; returns the prior setting."""
    global _CHECK_FINITE
    prev = _CHECK_FINITE
    _CHECK_FINITE = bool(enabled)
    return prev


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Use as a context manager around the forward computation, then hand to
    :func:`backward` once. ``backward`` spends the tape: it pops every node,
    so read the tape before calling it.
    """

    def __init__(self) -> None:
        self.nodes: list[_Node] = []
        self.spent = False

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPES.pop()


class _Node:
    __slots__ = ("out", "vjps")

    def __init__(self, out: "Tensor", vjps) -> None:
        self.out = out
        self.vjps = vjps  # list of (input Tensor, g_out -> g_input)


class Tensor:
    """A dense row-major float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "__weakref__")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item: tensor is not scalar")
        return float(self.data)


def _emit(op: str, out_data: np.ndarray, vjps) -> Tensor:
    """Wrap an op result, assert finiteness, and record on the active tape."""
    if _CHECK_FINITE and not np.all(np.isfinite(out_data)):
        raise FloatingPointError(f"{op}: non-finite values in output")
    out = Tensor(out_data)
    if _TAPES:
        tracked = [(t, fn) for t, fn in vjps if t.requires_grad]
        if tracked:
            out.requires_grad = True
            _TAPES[-1].nodes.append(_Node(out, tracked))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g if g.shape == shape else g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    return _emit(
        "add",
        a.data + b.data,
        [(a, lambda g: _unbroadcast(g, a.data.shape)),
         (b, lambda g: _unbroadcast(g, b.data.shape))],
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _emit(
        "mul",
        a.data * b.data,
        [(a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
         (b, lambda g: _unbroadcast(g * a.data, b.data.shape))],
    )


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b, plus bias (added in place) when given: one node either way."""
    out = np.matmul(a.data, b.data)

    def vjp_a(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        return _unbroadcast(ga, a.data.shape)

    def vjp_b(g):
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(gb, b.data.shape)

    vjps = [(a, vjp_a), (b, vjp_b)]
    if bias is not None:
        out += bias.data

        def vjp_bias(g):
            return _unbroadcast(g, bias.data.shape)

        vjps.append((bias, vjp_bias))
    return _emit("matmul", out, vjps)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _emit("transpose", a.data.transpose(axes), [(a, lambda g: g.transpose(inv))])


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join parts along axis; a lone part is returned as is, with no node."""
    if len(parts) == 0:
        raise ValueError("concat: empty input")
    if len(parts) == 1:
        return parts[0]
    datas = [p.data for p in parts]
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            return g[tuple(idx)]

        return vjp

    return _emit(
        "concat",
        np.concatenate(datas, axis=axis),
        [(p, make_vjp(i)) for i, p in enumerate(parts)],
    )


def _row_index(idx, op: str) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"{op}: row index must be 1-D, got shape {idx.shape}")
    return idx


def _rising_rows(idx, op: str) -> np.ndarray:
    """A 1-D row index that starts at 0 or above and strictly increases, so
    out[idx] += vals adds each value to its own row exactly once."""
    idx = _row_index(idx, op)
    if idx.size and (idx[0] < 0 or np.any(idx[1:] <= idx[:-1])):
        raise ValueError(f"{op}: row index must start at 0 or above and strictly increase")
    return idx


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows along axis 0; the gradient adds back into the same rows."""
    idx = _rising_rows(idx, "gather_rows")

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[idx] += g
        return ga

    return _emit("gather_rows", a.data[idx], [(a, vjp)])


def index_add(base: Tensor, idx, vals: Tensor) -> Tensor:
    """Return base with vals added at rows idx (axis 0)."""
    idx = _rising_rows(idx, "index_add")
    out = base.data.copy()
    out[idx] += vals.data
    return _emit("index_add", out, [(base, lambda g: g), (vals, lambda g: g[idx])])


def _last_index(a: Tensor, idx, op: str) -> tuple[np.ndarray, np.ndarray]:
    """idx as an [N, k] int array that names k distinct columns in each row of
    the 2D tensor a, and the [N, 1] row numbers that pair with it, so a
    gradient placed at [rows, idx] places each value exactly once."""
    if a.data.ndim != 2:
        raise ValueError(f"{op}: expected a 2D tensor")
    n, width = a.data.shape
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[0] != n:
        raise ValueError(f"{op}: index must be [{n}, k], got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= width):
        raise ValueError(f"{op}: index outside [0, {width})")
    ordered = np.sort(idx, axis=1)
    if np.any(ordered[:, 1:] == ordered[:, :-1]):
        raise ValueError(f"{op}: repeated index within a row")
    return idx, np.arange(n)[:, None]


def take_along_last(a: Tensor, idx) -> Tensor:
    """Gather along the last axis of a 2D tensor: row t of the [N, k] result
    is a[t, idx[t]], for k distinct columns idx[t]."""
    idx, rows = _last_index(a, idx, "take_along_last")

    def vjp(g):
        out = np.zeros_like(a.data)
        out[rows, idx] = g
        return out

    return _emit("take_along_last", a.data[rows, idx], [(a, vjp)])


def tile_rows(v: Tensor, n: int) -> Tensor:
    """Stack n copies of the vector v as the rows of an [n, d] tensor."""
    if v.data.ndim != 1:
        raise ValueError("tile_rows: expected a 1-D tensor")

    def vjp(g):
        return g.sum(axis=0)

    return _emit("tile_rows", np.tile(v.data, (n, 1)), [(v, vjp)])


def _groups(offsets, params: Sequence[Sequence[Tensor]], n_rows: int, op: str) -> list[tuple[int, int, int]]:
    """(e, lo, hi) for every non-empty row block e, rows offsets[e]:offsets[e + 1]
    of n_rows, after checking that each list in params holds one tensor per
    group and that the offsets rise from 0 to n_rows."""
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(params[0])
    if not n or any(len(p) != n for p in params) or offsets.shape != (n + 1,):
        raise ValueError(f"{op}: need one tensor of each kind per group and one offset more than groups")
    if offsets[0] != 0 or offsets[-1] != n_rows or np.any(np.diff(offsets) < 0):
        raise ValueError(f"{op}: offsets must rise from 0 to the row count")
    bounds = offsets.tolist()
    return [(e, lo, hi) for e, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if hi > lo]


def grouped_linear(x: Tensor, ws: Sequence[Tensor], bs: Sequence[Tensor], offsets) -> Tensor:
    """Row block e of x, rows offsets[e]:offsets[e + 1], maps through
    x @ ws[e] + bs[e]; one node covers every group. An empty group records no
    vjp, so its weight and bias keep ``grad is None``."""
    groups = _groups(offsets, (ws, bs), x.data.shape[0], "grouped_linear")
    out = np.empty((x.data.shape[0], ws[0].data.shape[1]))
    for e, lo, hi in groups:
        np.matmul(x.data[lo:hi], ws[e].data, out=out[lo:hi])
        out[lo:hi] += bs[e].data

    def vjp_x(g):
        gx = np.empty_like(x.data)
        for e, lo, hi in groups:
            np.matmul(g[lo:hi], ws[e].data.T, out=gx[lo:hi])
        return gx

    def group_vjps(lo, hi):
        def vjp_w(g):
            return np.matmul(x.data[lo:hi].T, g[lo:hi])

        def vjp_b(g):
            return g[lo:hi].sum(axis=0)

        return vjp_w, vjp_b

    vjps = [(x, vjp_x)]
    for e, lo, hi in groups:
        vjp_w, vjp_b = group_vjps(lo, hi)
        vjps += [(ws[e], vjp_w), (bs[e], vjp_b)]
    return _emit("grouped_linear", out, vjps)


def _places(pairs, n: int, op: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check that pairs, the places of n tokens at k slots each, holds each
    flat (token * k + slot) index 0 .. n*k - 1 once. Returns pairs, the token
    of every place (pairs // k) and the [n, k] table of each token's places
    in order."""
    pairs = _row_index(pairs, op)
    k = pairs.size // n if n else 0
    if k < 1 or pairs.size != n * k or not np.array_equal(np.sort(pairs), np.arange(pairs.size)):
        raise ValueError(f"{op}: pairs must hold each of 0 .. n*k - 1 once for the {n} tokens")
    rows = pairs // k
    return pairs, rows, np.argsort(rows, kind="stable").reshape(n, k)


def _sum_places(a: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Row t of the result is a[pos[t, 0]] + a[pos[t, 1]] + ..., added in r order."""
    out = a[pos[:, 0]]
    for r in range(1, pos.shape[1]):
        out += a[pos[:, r]]
    return out


def moe_ffn(x: Tensor, pairs, w1s: Sequence[Tensor], b1s: Sequence[Tensor], w2s: Sequence[Tensor],
            b2s: Sequence[Tensor], offsets) -> Tensor:
    """Every row of x fanned out to its k places (place p is row pairs[p] // k),
    then the places' row block e, rows offsets[e]:offsets[e + 1], through
    expert e's fc1 -> exact GELU -> fc2: gelu(. @ w1s[e] + b1s[e]) @ w2s[e] + b2s[e].

    One node, with the op order of the fan-out, grouped linear, gelu,
    grouped linear chain forward and backward, that keeps only the
    pre-activation a and its CDF. The vjps gather each group's rows from x
    again, recompute the GELU output a * cdf with one multiply, and sum
    each token's k place gradients in order. An empty group records no vjp,
    so its expert's tensors keep ``grad is None``. Only the output is
    finite-checked: a non-finite pre-activation always reaches it."""
    xd = x.data
    _, rows, pos = _places(pairs, xd.shape[0], "moe_ffn")
    groups = _groups(offsets, (w1s, b1s, w2s, b2s), rows.size, "moe_ffn")
    a = np.empty((rows.size, w1s[0].data.shape[1]))
    for e, lo, hi in groups:
        np.matmul(xd[rows[lo:hi]], w1s[e].data, out=a[lo:hi])
        a[lo:hi] += b1s[e].data
    cdf = _gelu_cdf(a)
    h = a * cdf
    out = np.empty((rows.size, w2s[0].data.shape[1]))
    for e, lo, hi in groups:
        np.matmul(h[lo:hi], w2s[e].data, out=out[lo:hi])
        out[lo:hi] += b2s[e].data

    held = []  # (g, the gradient of a), from x's vjp until the fc1 vjps take it

    def grad_a(g):
        if held and held[0] is g:
            return held[1]
        ga = _gelu_slope(a, cdf)
        for e, lo, hi in groups:
            ga[lo:hi] *= np.matmul(g[lo:hi], w2s[e].data.T)
        held[:] = [g, ga]
        return ga

    def vjp_x(g):
        ga = grad_a(g)
        gx = np.empty((rows.size, xd.shape[1]))
        for e, lo, hi in groups:
            np.matmul(ga[lo:hi], w1s[e].data.T, out=gx[lo:hi])
        return _sum_places(gx, pos)

    def group_vjps(lo, hi):
        def vjp_w1(g):
            return np.matmul(xd[rows[lo:hi]].T, grad_a(g)[lo:hi])

        def vjp_b1(g):
            return grad_a(g)[lo:hi].sum(axis=0)

        def vjp_w2(g):
            return np.matmul((a[lo:hi] * cdf[lo:hi]).T, g[lo:hi])

        def vjp_b2(g):
            return g[lo:hi].sum(axis=0)

        return vjp_w1, vjp_b1, vjp_w2, vjp_b2

    vjps = [(x, vjp_x)]
    for e, lo, hi in groups:
        vjps += zip((w1s[e], b1s[e], w2s[e], b2s[e]), group_vjps(lo, hi))
    return _emit("moe_ffn", out, vjps)


def combine_rows(out: Tensor, w: Tensor, pairs) -> Tensor:
    """Weighted fan-in, the inverse of moe_ffn's fan-out: row t of the result sums
    out[p] * w.flat[pairs[p]] over token t's places p in order, where
    pairs[p] is the flat index into the [n, k] w (token * k + slot) of place p."""
    pairs, rows, pos = _places(pairs, w.data.shape[0], "combine_rows")
    if w.data.shape != pos.shape or out.data.shape[0] != pairs.size:
        raise ValueError("combine_rows: w must be [n, k] for the n*k places, with one out row per place")
    place_w = w.data.reshape(-1)[pairs][:, None]

    def vjp_out(g):
        go = g[rows]
        go *= place_w
        return go

    def vjp_w(g):
        go = g[rows]
        go *= out.data
        gw = np.empty(pairs.size)
        gw[pairs] = go.sum(axis=1)
        return gw.reshape(w.data.shape)

    return _emit("combine_rows", _sum_places(out.data * place_w, pos), [(out, vjp_out), (w, vjp_w)])


def _spread(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """The gradient of a sum over axis: g copied back over the reduced axis."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def vjp(g):
        return _spread(g, a.data.shape, axis, keepdims)

    return _emit("sum", a.data.sum(axis=axis, keepdims=keepdims), [(a, vjp)])


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]

    def vjp(g):
        return _spread(g / n, a.data.shape, axis, keepdims)

    return _emit("mean", a.data.mean(axis=axis, keepdims=keepdims), [(a, vjp)])


def squared_error(pred: Tensor, target: np.ndarray) -> Tensor:
    """(pred - target)^2 against a constant target, which broadcasts as in add."""
    d = pred.data - target
    return _emit("squared_error", d * d, [(pred, lambda g: _unbroadcast(g * 2.0 * d, pred.data.shape))])


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target of pred's shape."""
    return tmean(squared_error(pred, target))


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the [N, k] labels of the softmax cross-entropy of [N, C]
    logits: the row's max-shifted logsumexp minus the labelled logit. The vjp
    adds the pick term to the softmax term, in the log/sum/exp chain's order."""
    idx, rows = _last_index(logits, labels, "cross_entropy")
    x = logits.data
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    total = e.sum(axis=-1, keepdims=True)
    d = np.log(total) + m - x[rows, idx]

    def vjp(g):
        gd = np.broadcast_to(g / d.size, d.shape)
        gx = np.zeros_like(x)
        gx[rows, idx] = -gd
        gx += gd.sum(axis=-1, keepdims=True) / total * e
        return gx

    return _emit("cross_entropy", d.mean(), [(logits, vjp)])


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = 0.5 * (1 + erf(x / sqrt 2)), each step in one new buffer."""
    cdf = np.multiply(x, _INV_SQRT2, out=np.empty_like(x))
    special.erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_slope(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """The GELU derivative cdf + x * pdf(x), each step in one new buffer."""
    gx = np.multiply(-0.5, x, out=np.empty_like(x))
    gx *= x
    np.exp(gx, out=gx)
    gx *= _INV_SQRT_2PI
    gx *= x
    gx += cdf
    return gx


def gelu(a: Tensor) -> Tensor:
    """Exact GELU x * Phi(x) with the Gaussian CDF, not the tanh fit."""
    x = a.data
    # no input scan: a non-finite input gives a non-finite output (inf -> inf,
    # -inf and nan -> nan), which _emit catches while finite checks are on.
    # the operations and their order are those of 0.5 * (1 + erf(x / sqrt 2))
    # and g * (cdf + x * pdf)
    cdf = _gelu_cdf(x)

    def vjp(g):
        gx = _gelu_slope(x, cdf)
        gx *= g
        return gx

    return _emit("gelu", x * cdf, [(a, vjp)])


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    out = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def vjp(g):
        gx = g * out
        np.subtract(g, gx.sum(axis=-1, keepdims=True), out=gx)
        gx *= out
        return gx

    return _emit("softmax", out, [(a, vjp)])


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """softmax(q_h k_h^T / sqrt(dh)) v_h for each of n_heads column blocks
    of the [n, d] projections, merged back to [n, d], as one node. One
    [heads, n, n] buffer holds the scores, then the weights. The arithmetic
    and its order are those of the reshape/transpose, matmul, scale, softmax,
    matmul chain on the same head views, forward and backward."""
    n, d = q.data.shape
    if k.data.shape != (n, d) or v.data.shape != (n, d) or n_heads < 1 or d % n_heads:
        raise ValueError("scaled_dot_product_attention: need one [n, d] shape for q, k, v and n_heads dividing d")
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)

    def split(x):  # [n, d] -> a [heads, n, dh] view
        return x.reshape(n, n_heads, dh).transpose(1, 0, 2)

    def merge(x):  # [heads, n, dh] -> [n, d]
        return x.transpose(1, 0, 2).reshape(n, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    p = np.matmul(qh, kh.transpose(0, 2, 1))
    p *= scale
    if _CHECK_FINITE and not np.all(np.isfinite(p)):
        raise FloatingPointError("scaled_dot_product_attention: non-finite values in scores")
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def score_grad(g):
        gs = np.matmul(split(g), vh.transpose(0, 2, 1))
        np.subtract(gs, (gs * p).sum(axis=-1, keepdims=True), out=gs)
        gs *= p
        gs *= scale
        return gs

    held = []  # (g, its score gradient), from q's vjp until k's takes it

    def vjp_q(g):
        held[:] = [g, score_grad(g)]
        return merge(np.matmul(held[1], kh))

    def vjp_k(g):
        gs = held[1] if held and held[0] is g else score_grad(g)
        held.clear()
        return merge(np.matmul(qh.transpose(0, 2, 1), gs).transpose(0, 2, 1))

    def vjp_v(g):
        return merge(np.matmul(p.transpose(0, 2, 1), split(g)))

    return _emit("scaled_dot_product_attention", merge(np.matmul(p, vh)),
                 [(q, vjp_q), (k, vjp_k), (v, vjp_v)])


def residual_rmsnorm(h: Tensor, y: Tensor, gain: Tensor, eps: float = 1e-6) -> Tensor:
    """h + y / sqrt(mean(y^2, last axis) + eps) * gain, the residual add of an
    RMSNorm-gained branch y, as one node. It keeps y and the rms, not the
    normalized y, which the gain's vjp recomputes with one divide."""
    yd = y.data
    if h.data.shape != yd.shape:
        raise ValueError(f"residual_rmsnorm: h has shape {h.data.shape} but y has {yd.shape}")
    rms = np.sqrt((yd * yd).mean(axis=-1, keepdims=True) + eps)
    out = yd / rms
    out *= gain.data
    out += h.data

    def vjp_y(g):
        # the chain rule of the composite y / sqrt(mean(y * y) + eps) * gain,
        # term by term in its order, so the gradient matches it bit for bit
        gy = g * gain.data
        t = gy * yd
        t /= rms * rms
        c = t.sum(axis=-1, keepdims=True)
        c *= -0.5
        c /= rms
        c /= yd.shape[-1]
        c *= 2.0
        gy /= rms
        gy += np.multiply(c, yd, out=t)
        return gy

    def vjp_gain(g):
        return _unbroadcast(g * (yd / rms), gain.data.shape)

    return _emit("residual_rmsnorm", out, [(h, lambda g: g), (y, vjp_y), (gain, vjp_gain)])


# ---------------------------------------------------------------------------
# backward


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(input) into .grad for every tracked tensor.

    Spends the tape: each node is popped before its vjps run, so its closures,
    the activations only they hold, and its output with that output's .grad
    are freed once it is done. Intermediate gradients therefore survive only
    on tensors the caller still holds. A spent tape is refused.

    A tensor's first gradient is kept as its vjp returned it, which may be
    another tensor's gradient buffer (add passes g through). The second
    allocates the sum, and later ones add in place into that buffer only."""
    if loss.data.size != 1:
        raise ValueError("backward: loss must be scalar")
    if tape.spent:
        raise ValueError("backward: the tape was already spent by backward")
    tape.spent = True
    loss.grad = np.ones_like(loss.data)
    # ids of tensors whose .grad this call allocated. An id may outlive its
    # tensor, but no vjp creates a Tensor, so every tensor looked up below was
    # made in the forward, is held by a node not yet popped, and was alive
    # beside every tensor in this set: no live tensor can reuse a dead id.
    owned: set[int] = set()
    nodes = tape.nodes
    while nodes:
        node = nodes.pop()
        g = node.out.grad
        if g is None:
            continue
        for t, vjp in node.vjps:
            gi = vjp(g)
            if t.grad is None:
                t.grad = gi
            elif id(t) in owned:
                t.grad += gi
            else:
                t.grad = t.grad + gi
                owned.add(id(t))


# ---------------------------------------------------------------------------
# complex wrapper for signal synthesis (no autodiff)


class ComplexTensor:
    """Thin wrapper over a complex128 numpy array, the currency of the
    synthesis code for complex data."""

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        self.data = np.asarray(data, dtype=np.complex128)


# ---------------------------------------------------------------------------
# binary tensor serialization (little-endian, magic "MSTN")

_MAGIC = b"MSTN"
_FORMAT_VERSION = 1
_DTYPE_TAGS = {0: np.dtype("<f8"), 1: np.dtype("<f4"), 2: np.dtype("<c16")}
_TAG_FOR_KIND = {("f", 8): 0, ("f", 4): 1, ("c", 16): 2}


def _mstn_parts(array) -> tuple[bytes, np.ndarray]:
    """The MSTN header of a float32/float64/complex128 array (magic, version,
    rank, extents as u64 each, dtype tag) and the array as C-ordered
    little-endian data of the tag's dtype, which is the rest of the blob."""
    arr = np.asarray(array)
    key = (arr.dtype.kind, arr.dtype.itemsize)
    if key not in _TAG_FOR_KIND:
        raise ValueError(f"write_mstn: unsupported dtype {arr.dtype}")
    tag = _TAG_FOR_KIND[key]
    arr = np.asarray(arr, dtype=_DTYPE_TAGS[tag], order="C")
    header = struct.pack(f"<4sII{arr.ndim}QI", _MAGIC, _FORMAT_VERSION, arr.ndim, *arr.shape, tag)
    return header, arr


def mstn_dumps(array: np.ndarray) -> bytes:
    header, arr = _mstn_parts(array)
    return b"".join((header, arr.data))  # header + arr.tobytes() would copy the data twice


def write_mstn(path, array: np.ndarray) -> None:
    """Write the bytes of mstn_dumps(array) without joining them first."""
    header, arr = _mstn_parts(array)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr)


def read_mstn(path) -> np.ndarray:
    """Read a file into one uninitialized buffer; the array is a writable
    view of it."""
    with open(path, "rb") as fh:
        buf = np.empty(os.fstat(fh.fileno()).st_size, np.uint8)
        got = fh.readinto(buf)
    return mstn_loads(buf[:got])


def mstn_loads(blob) -> np.ndarray:
    """Parse an MSTN blob from any bytes-like object. The array is a view of
    the blob's buffer, writable when that buffer is."""
    view = memoryview(blob).cast("B")
    size = view.nbytes
    if size < 12 or view[:4] != _MAGIC:
        raise ValueError("read_mstn: bad magic")
    version, rank = struct.unpack_from("<II", view, 4)
    if version != _FORMAT_VERSION:
        raise ValueError(f"read_mstn: unsupported version {version}")
    off = 16 + 8 * rank
    if size < off:
        raise ValueError("read_mstn: truncated header")
    *extents, tag = struct.unpack_from(f"<{rank}QI", view, 12)
    if tag not in _DTYPE_TAGS:
        raise ValueError(f"read_mstn: unknown dtype tag {tag}")
    dtype = _DTYPE_TAGS[tag]
    count = math.prod(extents)
    if size != off + count * dtype.itemsize:
        raise ValueError("read_mstn: truncated or oversized payload")
    return np.frombuffer(view, dtype=dtype, count=count, offset=off).reshape(extents)
