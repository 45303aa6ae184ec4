"""Hold top-k routing fixed across forward passes, for finite-difference
checks whose loss must be smooth in the parameters.

The encoder makes every routing choice in one function,
``misac.encoder._topk_indices``. ``recorded()`` keeps each selection it
returns, in call order: per sample, then per layer, the shared dispatch and
then the specific one. ``replayed(sels)`` hands those selections back in the
same order in place of the live top-k. It covers one forward pass, so a
check wraps each forward it repeats in its own ``replayed``.
"""

from contextlib import contextmanager

import numpy as np

from misac import encoder


class ReplayError(AssertionError):
    pass


@contextmanager
def _routing(choose):
    """Route by choose(live_topk, logits, k) while the block runs."""
    live = encoder._topk_indices
    encoder._topk_indices = lambda logits, k: choose(live, logits, k)
    try:
        yield
    finally:
        encoder._topk_indices = live


@contextmanager
def recorded():
    """Yields the list that collects every live selection made inside."""
    sels: list[np.ndarray] = []

    def choose(live, logits, k):
        sels.append(live(logits, k))
        return sels[-1]

    with _routing(choose):
        yield sels


@contextmanager
def replayed(sels):
    """Route one forward pass by sels, in call order. Refuses a selection
    whose shape is not the dispatch's [n, k], a forward that asks for more
    selections than sels holds, and one that leaves some of them unused."""
    used = 0

    def choose(live, logits, k):
        nonlocal used
        if used == len(sels):
            raise ReplayError(f"replay ran short: the forward asks for more than {len(sels)} selections")
        sel = sels[used]
        if sel.shape != (logits.shape[0], k):
            raise ReplayError(f"selection {used} has shape {sel.shape}; its dispatch routes {(logits.shape[0], k)}")
        used += 1
        return sel

    with _routing(choose):
        yield
    if used != len(sels):
        raise ReplayError(f"the forward used {used} of {len(sels)} selections, leaving the rest unused")
