"""Dense float64 tensors with a reverse-mode autodiff tape.

Primitives execute eagerly on numpy buffers. While a :class:`Tape` is active,
any primitive whose inputs require gradients appends a node holding
vector-Jacobian closures; :func:`backward` replays the tape in exact reverse
order, accumulates into ``Tensor.grad`` and frees each node as it goes.
Float64 is the default precision so that central differences, the oracle the
tests check every gradient against, resolve errors below 1e-7.

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


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _emit(
        "sub",
        a.data - b.data,
        [(a, lambda g: _unbroadcast(g, a.data.shape)),
         (b, lambda g: _unbroadcast(-g, b.data.shape))],
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


def take_along_last(a: Tensor, idx) -> Tensor:
    """Gather along the last axis of a 2D tensor: row t of the [N, k] result
    is a[t, idx[t]]. Every row of idx must name k distinct columns of a, so
    the gradient places each value exactly once."""
    if a.data.ndim != 2:
        raise ValueError("take_along_last: expected a 2D tensor")
    n, width = a.data.shape
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[0] != n:
        raise ValueError(f"take_along_last: index must be [{n}, k], got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= width):
        raise ValueError(f"take_along_last: index outside [0, {width})")
    ordered = np.sort(idx, axis=1)
    if np.any(ordered[:, 1:] == ordered[:, :-1]):
        raise ValueError("take_along_last: repeated index within a row")
    rows = np.arange(n)[:, None]

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


def grouped_linear(x: Tensor, ws: Sequence[Tensor], bs: Sequence[Tensor], offsets) -> Tensor:
    """Row block e of x, rows offsets[e]:offsets[e + 1], maps through
    x @ ws[e] + bs[e]; one node covers every group. An empty group records no
    vjp, so its weight and bias keep ``grad is None``."""
    offsets = np.asarray(offsets, dtype=np.int64)
    if not ws or len(bs) != len(ws) or offsets.shape != (len(ws) + 1,):
        raise ValueError("grouped_linear: need one bias per weight and len(ws) + 1 offsets")
    if offsets[0] != 0 or offsets[-1] != x.data.shape[0] or np.any(np.diff(offsets) < 0):
        raise ValueError("grouped_linear: offsets must rise from 0 to the row count")
    bounds = offsets.tolist()
    groups = [(e, lo, hi) for e, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if hi > lo]
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


def dispatch_rows(x: Tensor, pairs) -> Tensor:
    """Fan every row of x out to its k places: place p of the result is row
    pairs[p] // k of x. The gradient of row t sums its k places in order,
    with no scatter."""
    _, rows, pos = _places(pairs, x.data.shape[0], "dispatch_rows")

    def vjp(g):
        return _sum_places(g, pos)

    return _emit("dispatch_rows", x.data[rows], [(x, vjp)])


def combine_rows(out: Tensor, w: Tensor, pairs) -> Tensor:
    """Weighted fan-in, the inverse of dispatch_rows: row t of the result sums
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


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _emit("exp", out, [(a, lambda g: g * out)])


def log(a: Tensor) -> Tensor:
    return _emit("log", np.log(a.data), [(a, lambda g: g / a.data)])


def square(a: Tensor) -> Tensor:
    return _emit("square", a.data * a.data, [(a, lambda g: g * 2.0 * a.data)])


def gelu(a: Tensor) -> Tensor:
    """Exact GELU x * Phi(x) with the Gaussian CDF, not the tanh fit."""
    x = a.data
    # no input scan: a non-finite input gives a non-finite output (inf -> inf,
    # -inf and nan -> nan), which _emit catches while finite checks are on.
    # each kernel writes into its own result buffer; the operations and their
    # order are those of 0.5 * (1 + erf(x / sqrt 2)) and g * (cdf + x * pdf)
    cdf = np.multiply(x, _INV_SQRT2, out=np.empty_like(x))
    special.erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5

    def vjp(g):
        gx = np.multiply(-0.5, x, out=np.empty_like(x))
        gx *= x
        np.exp(gx, out=gx)
        gx *= _INV_SQRT_2PI
        gx *= x
        gx += cdf
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


def rmsnorm(x: Tensor, gain: Tensor, eps: float = 1e-6) -> Tensor:
    """x / sqrt(mean(x^2, last axis) + eps) * gain, as one node."""
    xd = x.data
    rms = np.sqrt((xd * xd).mean(axis=-1, keepdims=True) + eps)
    xhat = xd / rms

    def vjp_x(g):
        # the chain rule of the composite x / sqrt(mean(x * x) + eps) * gain,
        # term by term in its order, so the gradient matches it bit for bit
        gx = g * gain.data
        t = gx * xd
        t /= rms * rms
        c = t.sum(axis=-1, keepdims=True)
        c *= -0.5
        c /= rms
        c /= xd.shape[-1]
        c *= 2.0
        gx /= rms
        gx += np.multiply(c, xd, out=t)
        return gx

    def vjp_gain(g):
        return _unbroadcast(g * xhat, gain.data.shape)

    return _emit("rmsnorm", xhat * gain.data, [(x, vjp_x), (gain, vjp_gain)])


# ---------------------------------------------------------------------------
# composites (built from primitives, so gradients come for free)


def logsumexp_rows(x: Tensor) -> Tensor:
    """Row-wise log(sum(exp(x))) for a 2D tensor; max-shifted for stability."""
    m = Tensor(x.data.max(axis=-1, keepdims=True))  # constant shift
    return add(log(tsum(exp(sub(x, m)), axis=-1, keepdims=True)), m)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the rows of [N, C] logits of the softmax cross-entropy
    against labels, an [N, 1] int array of class indices."""
    return tmean(sub(logsumexp_rows(logits), take_along_last(logits, labels)))


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target of pred's shape."""
    return tmean(square(sub(pred, Tensor(target))))


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
