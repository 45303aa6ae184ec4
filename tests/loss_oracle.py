"""The loss chains that misac.tensor's one-node ``cross_entropy`` and
``squared_error`` replaced, kept as the oracle for their values and
gradients: the ``sub``, ``square``, ``exp`` and ``log`` primitives as they
were, and the ``logsumexp_rows``, ``cross_entropy`` and ``mse`` composites
built from them. The tests also build their own objectives from ``sub`` and
``square``."""

import numpy as np

from misac import tensor as T
from misac.tensor import Tensor


def sub(a: Tensor, b: Tensor) -> Tensor:
    return T._emit(
        "sub",
        a.data - b.data,
        [(a, lambda g: T._unbroadcast(g, a.data.shape)),
         (b, lambda g: T._unbroadcast(-g, b.data.shape))],
    )


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return T._emit("exp", out, [(a, lambda g: g * out)])


def log(a: Tensor) -> Tensor:
    return T._emit("log", np.log(a.data), [(a, lambda g: g / a.data)])


def square(a: Tensor) -> Tensor:
    return T._emit("square", a.data * a.data, [(a, lambda g: g * 2.0 * a.data)])


def logsumexp_rows(x: Tensor) -> Tensor:
    """Row-wise log(sum(exp(x))) for a 2D tensor; max-shifted for stability."""
    m = Tensor(x.data.max(axis=-1, keepdims=True))  # constant shift
    return T.add(log(T.tsum(exp(sub(x, m)), axis=-1, keepdims=True)), m)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the rows of [N, C] logits of the softmax cross-entropy
    against labels, an [N, 1] int array of class indices."""
    return T.tmean(sub(logsumexp_rows(logits), T.take_along_last(logits, labels)))


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target of pred's shape."""
    return T.tmean(square(sub(pred, Tensor(target))))
