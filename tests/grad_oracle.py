"""Central differences, the oracle for every tape gradient the tests check.
misac itself computes gradients only by its tape; this checker evaluates the
loss at perturbed parameter values and compares."""

from typing import Callable, Sequence

import numpy as np

from misac.tensor import Tape, Tensor, backward


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-5,
    coords_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare tape gradients of f() against central differences.

    f must be deterministic (it is evaluated repeatedly at perturbed
    parameter values) and must read the live ``.data`` of params. Returns the
    max relative error |analytic - numeric| / max(1, |analytic|, |numeric|)
    over the checked coordinates; all coordinates are checked unless
    coords_per_param caps the per-tensor sample.
    """
    if not (1e-6 <= h <= 1e-4):
        raise ValueError("grad_check: h must lie in [1e-6, 1e-4]")
    l0 = f().data.copy()
    l1 = f().data.copy()
    if not np.array_equal(l0, l1):
        raise ValueError("grad_check: f is not deterministic")

    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = f()
    backward(loss, tape)

    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for p in params:
        n = p.data.size
        if coords_per_param is None or coords_per_param >= n:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=coords_per_param, replace=False)
        flat = p.data.reshape(-1)
        gflat = None if p.grad is None else p.grad.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            lp = float(f().data)
            flat[c] = orig - h
            lm = float(f().data)
            flat[c] = orig
            numeric = (lp - lm) / (2.0 * h)
            analytic = 0.0 if gflat is None else float(gflat[c])
            err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            worst = max(worst, err)
    return worst
