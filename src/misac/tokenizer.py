"""Unified tokenization: modality tensors -> patch token sequences.

Every modality is preprocessed to a real [H, W, C] grid, cut into
non-overlapping patches, and linearly embedded into the shared model width.
Patch vectors are row-major over (patch rows, patch cols, channels) and
patches are enumerated row-major over the patch grid; both orderings are
load-bearing for checkpoint portability and are pinned by tests.

Per-sample normalization: CSI and radar grids are scaled to unit mean power
(the scale is returned so metrics can be computed in the raw domain); map
occupancy channels are already in [0, 1] and the height channel is divided
by a fixed scale.

To add a modality, build a ``Modality`` record with a new id and put it, with
its ``ModalitySpec``, in the ``TokenizerConfig`` a model is built from; every
other module iterates that config's modalities and never names one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from . import tensor as tt
from .synth import MultimodalSample
from .tensor import Tensor


class TokenError(ValueError):
    pass


@dataclass(frozen=True)
class ModalitySpec:
    """A [height, width] grid cut into patch-sized tokens; the patch must
    tile the grid exactly."""

    height: int
    width: int
    patch: tuple[int, int]

    def __post_init__(self):
        ph, pw = self.patch
        if ph < 1 or pw < 1:
            raise TokenError("patch sides must be >= 1")
        if self.height % ph or self.width % pw:
            raise TokenError(f"patch {self.patch} does not tile {self.height}x{self.width}")

    @property
    def grid(self) -> tuple[int, int]:
        return self.height // self.patch[0], self.width // self.patch[1]

    @property
    def n_tokens(self) -> int:
        return self.grid[0] * self.grid[1]


@dataclass(frozen=True, order=True)
class Modality:
    """The one place that knows a modality. Ids are stable (new modalities
    take a new id) and records compare, hash and sort by id alone.

    ``prepare(value, spec, cfg) -> (grid, scale)`` turns the sample's
    ``source`` field into the [H, W, channels] grid, with model = raw * scale.
    Roles: every other modality is contrasted with the ``anchor``, the
    ``context`` modality's mean conditions the shared-pool router, and
    modality dropout removes only ``droppable`` ones. A model has at most one
    anchor and one context.
    """

    id: int
    name: str = field(compare=False)
    channels: int = field(compare=False)
    source: str = field(compare=False)
    prepare: Callable = field(compare=False, repr=False)
    anchor: bool = field(default=False, compare=False)
    context: bool = field(default=False, compare=False)
    droppable: bool = field(default=False, compare=False)

    CSI: ClassVar[Modality]
    MAP: ClassVar[Modality]
    RADAR: ClassVar[Modality]


@dataclass(frozen=True)
class TokenizerConfig:
    """A model's modalities are the keys of ``specs``, in id order."""

    d: int
    specs: dict[Modality, ModalitySpec]
    height_scale: float = 30.0

    def __post_init__(self):
        if self.d < 1:
            raise TokenError("embedding width must be >= 1")
        for role in ("anchor", "context"):
            if sum(getattr(m, role) for m in self.specs) > 1:
                raise TokenError(f"more than one {role} modality")

    @property
    def modalities(self) -> tuple[Modality, ...]:
        return tuple(sorted(self.specs))

    def spec(self, modality: Modality) -> ModalitySpec:
        return self.specs[modality]

    def patch_dim(self, modality: Modality) -> int:
        ph, pw = self.spec(modality).patch
        return ph * pw * modality.channels


@dataclass
class Prepped:
    """A modality grid ready for tokenization. ``scale`` maps raw values to
    the model domain: model = raw * scale."""

    modality: Modality
    array: np.ndarray  # [H, W, C] float64
    scale: float


def _unit_power_scale(x: np.ndarray) -> float:
    p = float(np.mean(np.abs(x) ** 2))
    return 1.0 / np.sqrt(p) if p > 0 else 1.0


def _block_mean(x: np.ndarray, factor: int) -> np.ndarray:
    """Mean over factor x factor blocks of [H, W, C]: the factor² strided
    slices summed in place, block row outer, then divided by factor²; bit for
    bit x.reshape(H / f, f, W / f, f, C).mean(axis=(1, 3))."""
    out = x[::factor, ::factor].copy()
    for i in range(factor):
        for j in range(factor):
            if i or j:
                out += x[i::factor, j::factor]
    out /= factor * factor
    return out


def _prepare_csi(csi, spec: ModalitySpec, cfg: TokenizerConfig) -> tuple[np.ndarray, float]:
    h = csi.h.data
    scale = _unit_power_scale(h)
    return np.stack([h.real, h.imag], axis=-1) * scale, scale


def _prepare_map(smap, spec: ModalitySpec, cfg: TokenizerConfig) -> tuple[np.ndarray, float]:
    """A copy of the [res, res, 4] grid with height divided by height_scale,
    block-averaged from the native side down to the configured one. The
    strided block sums read this warm contiguous copy, not the sample's cold
    grid; channels never mix, so the result is bit for bit the average of bev
    and of the scaled height taken apart."""
    x = smap.grid.copy()
    x[..., 3:] /= cfg.height_scale
    native = x.shape[0]
    if native != spec.height:
        if native % spec.height:
            raise TokenError(
                f"map side {native} not an integer multiple of configured {spec.height}"
            )
        x = _block_mean(x, native // spec.height)
    return x, 1.0


def _prepare_radar(radar, spec: ModalitySpec, cfg: TokenizerConfig) -> tuple[np.ndarray, float]:
    ra, rv = radar.data
    scale = _unit_power_scale(radar.data)  # both maps together
    return np.stack([ra.real, ra.imag, rv.real, rv.imag], axis=-1) * scale, scale


# channels: csi re/im, map bev + height / height_scale, radar ra re/im then rv re/im
Modality.CSI = Modality(0, "csi", 2, "csi", _prepare_csi, anchor=True)
Modality.MAP = Modality(1, "map", 4, "map", _prepare_map, context=True, droppable=True)
Modality.RADAR = Modality(2, "radar", 4, "radar", _prepare_radar, droppable=True)
MODALITY_ORDER = (Modality.CSI, Modality.MAP, Modality.RADAR)


def preprocess(sample: MultimodalSample, modality: Modality, cfg: TokenizerConfig) -> Prepped:
    """The modality's configured [H, W, C] grid, prepared from its sample field."""
    spec = cfg.spec(modality)
    value = getattr(sample, modality.source)
    if value is None:
        raise TokenError(f"sample has no {modality.source}")
    arr, scale = modality.prepare(value, spec, cfg)
    want = (spec.height, spec.width, modality.channels)
    if arr.shape != want:
        raise TokenError(f"{modality.name} grid {arr.shape} != configured {want}")
    return Prepped(modality=modality, array=arr, scale=scale)


def patchify(x: np.ndarray, patch: tuple[int, int]) -> np.ndarray:
    """[H, W, C] -> [n_tokens, ph*pw*C], row-major in both orderings."""
    spec = ModalitySpec(x.shape[0], x.shape[1], patch)
    (gr, gc), (ph, pw), c = spec.grid, patch, x.shape[2]
    return x.reshape(gr, ph, gc, pw, c).transpose(0, 2, 1, 3, 4).reshape(spec.n_tokens, ph * pw * c)


def unpatchify(tokens: Tensor, grid: tuple[int, int], patch: tuple[int, int], channels: int) -> Tensor:
    """Differentiable inverse of patchify for [n_tokens, ph*pw*C] tensors."""
    gr, gc = grid
    ph, pw = patch
    x = tt.reshape(tokens, (gr, gc, ph, pw, channels))
    x = tt.transpose(x, (0, 2, 1, 3, 4))
    return tt.reshape(x, (gr * ph, gc * pw, channels))


def patchify_embed(prepped: Prepped, w: Tensor, b: Tensor, cfg: TokenizerConfig) -> Tensor:
    """Patch + affine embed to [n_tokens, d]: token_i = vec(patch_i) @ w + b."""
    spec = cfg.spec(prepped.modality)
    patches = patchify(prepped.array, spec.patch)
    if w.shape != (patches.shape[1], cfg.d):
        raise TokenError(f"embedding matrix {w.shape} != {(patches.shape[1], cfg.d)}")
    return tt.matmul(Tensor(patches), w, bias=b)

