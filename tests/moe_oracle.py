"""The chains that misac.tensor's one-node ``moe_ffn`` and
``residual_rmsnorm`` replaced, kept as the oracle for their values and
gradients: the ``dispatch_rows`` and ``rmsnorm`` primitives as they were,
the dispatch, grouped linear, gelu, grouped linear expert chain, and the
``rmsnorm`` then ``add`` residual branch."""

import numpy as np

from misac import tensor as T
from misac.tensor import Tensor


def dispatch_rows(x: Tensor, pairs) -> Tensor:
    """Fan every row of x out to its k places: place p of the result is row
    pairs[p] // k of x. The gradient of row t sums its k places in order,
    with no scatter."""
    _, rows, pos = T._places(pairs, x.data.shape[0], "dispatch_rows")

    def vjp(g):
        return T._sum_places(g, pos)

    return T._emit("dispatch_rows", x.data[rows], [(x, vjp)])


def rmsnorm(x: Tensor, gain: Tensor, eps: float = 1e-6) -> Tensor:
    """x / sqrt(mean(x^2, last axis) + eps) * gain, as one node."""
    xd = x.data
    rms = np.sqrt((xd * xd).mean(axis=-1, keepdims=True) + eps)
    xhat = xd / rms

    def vjp_x(g):
        # the chain rule of the composite x / sqrt(mean(x * x) + eps) * gain,
        # term by term in its order
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
        return T._unbroadcast(g * xhat, gain.data.shape)

    return T._emit("rmsnorm", xhat * gain.data, [(x, vjp_x), (gain, vjp_gain)])


def expert_chain(x: Tensor, pairs, w1s, b1s, w2s, b2s, offsets) -> Tensor:
    """The four-node chain moe_ffn replaced."""
    h = T.gelu(T.grouped_linear(dispatch_rows(x, pairs), w1s, b1s, offsets))
    return T.grouped_linear(h, w2s, b2s, offsets)


def residual_branch(h: Tensor, y: Tensor, gain: Tensor, eps: float = 1e-6) -> Tensor:
    """The two-node residual branch residual_rmsnorm replaced."""
    return T.add(h, rmsnorm(y, gain, eps))
