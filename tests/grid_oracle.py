"""The grid layout a reconstruction was scored in before mask_loss moved to
token rows: a differentiable reshape, the fold of decoder tokens back to an
[H, W, C] grid, the token mask spread over pixels, and the masked loss over
the whole grid with every visible pixel multiplied by 0. It is the oracle
for the token-space mask_loss; misac itself has none of it."""

import numpy as np

from loss_oracle import square, sub
from misac import tensor as tt


def reshape(a, shape):
    """A differentiable reshape; misac.tensor has no reshape primitive."""
    shape = tuple(shape)
    return tt._emit("reshape", a.data.reshape(shape), [(a, lambda g: g.reshape(a.data.shape))])


def unpatchify(tokens, spec, channels):
    """Differentiable inverse of tokenizer.patchify for [n_tokens, ph*pw*C]
    tensors: reshape, transpose, reshape."""
    (gr, gc), (ph, pw) = spec.grid, spec.patch
    x = reshape(tokens, (gr, gc, ph, pw, channels))
    x = tt.transpose(x, (0, 2, 1, 3, 4))
    return reshape(x, (spec.height, spec.width, channels))


def pixel_mask(omega, patch):
    """The [grid_rows, grid_cols] token mask spread over each token's patch."""
    return np.kron(omega, np.ones(patch, dtype=bool))


def grid_mask_loss(recons, targets, masks, patches):
    """(sse, count) of [H, W, C] reconstructions against [H, W, C] targets:
    sum(square(mul(sub(recon, target), pixel mask))) over the whole grid,
    counting the masked pixels times the channels."""
    sse, count = None, 0
    for m, recon in recons.items():
        pix = pixel_mask(masks[m].omega, patches[m])
        target = targets[m]
        term = tt.tsum(square(tt.mul(sub(recon, tt.Tensor(target)), tt.Tensor(pix[..., None]))))
        sse = term if sse is None else tt.add(sse, term)
        count += int(pix.sum()) * target.shape[2]
    return sse, count
