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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .synth import MultimodalSample
from .tensor import Tensor


class TokenError(ValueError):
    pass


class Modality(enum.IntEnum):
    """Stable integer ids; new modalities append, existing values never move."""

    CSI = 0
    MAP = 1
    RADAR = 2


# channel counts are structural: csi re/im, map bev+height, radar ra/rv re/im
CHANNELS = {Modality.CSI: 2, Modality.MAP: 4, Modality.RADAR: 4}


@dataclass(frozen=True)
class ModalitySpec:
    height: int
    width: int
    patch: tuple[int, int]

    @property
    def grid(self) -> tuple[int, int]:
        return self.height // self.patch[0], self.width // self.patch[1]

    @property
    def n_tokens(self) -> int:
        return self.grid[0] * self.grid[1]


@dataclass(frozen=True)
class TokenizerConfig:
    d: int
    csi: ModalitySpec
    map: ModalitySpec
    radar: ModalitySpec
    height_scale: float = 30.0

    def __post_init__(self):
        if self.d < 1:
            raise TokenError("embedding width must be >= 1")
        for mod in Modality:
            spec = self.spec(mod)
            token_count(spec.height, spec.width, spec.patch)

    def spec(self, modality: Modality) -> ModalitySpec:
        return {Modality.CSI: self.csi, Modality.MAP: self.map, Modality.RADAR: self.radar}[
            modality
        ]

    def patch_dim(self, modality: Modality) -> int:
        ph, pw = self.spec(modality).patch
        return ph * pw * CHANNELS[modality]


def token_count(height: int, width: int, patch: tuple[int, int]) -> tuple[int, int, int]:
    """(grid_rows, grid_cols, n_tokens); patch must tile the grid exactly."""
    ph, pw = patch
    if ph < 1 or pw < 1:
        raise TokenError("patch sides must be >= 1")
    if height % ph or width % pw:
        raise TokenError(f"patch {patch} does not tile {height}x{width}")
    gr, gc = height // ph, width // pw
    return gr, gc, gr * gc


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
    h, w, c = x.shape
    return x.reshape(h // factor, factor, w // factor, factor, c).mean(axis=(1, 3))


def preprocess(sample: MultimodalSample, modality: Modality, cfg: TokenizerConfig) -> Prepped:
    spec = cfg.spec(modality)
    if modality == Modality.CSI:
        if sample.csi is None:
            raise TokenError("sample has no csi")
        h = sample.csi.h.data
        scale = _unit_power_scale(h)
        arr = np.stack([h.real, h.imag], axis=-1) * scale
    elif modality == Modality.RADAR:
        if sample.radar is None:
            raise TokenError("sample has no radar")
        ra, rv = sample.radar.ra.data, sample.radar.rv.data
        scale = _unit_power_scale(np.stack([ra, rv]))
        arr = np.stack([ra.real, ra.imag, rv.real, rv.imag], axis=-1) * scale
    else:
        if sample.map is None:
            raise TokenError("sample has no map")
        arr = np.concatenate(
            [sample.map.bev, sample.map.height / cfg.height_scale], axis=-1
        )
        native = arr.shape[0]
        if native != spec.height:
            if native % spec.height:
                raise TokenError(
                    f"map side {native} not an integer multiple of configured {spec.height}"
                )
            arr = _block_mean(arr, native // spec.height)
        scale = 1.0
    if arr.shape != (spec.height, spec.width, CHANNELS[modality]):
        raise TokenError(
            f"{modality.name.lower()} grid {arr.shape} != configured "
            f"{(spec.height, spec.width, CHANNELS[modality])}"
        )
    return Prepped(modality=modality, array=arr, scale=scale)


def patchify(x: np.ndarray, patch: tuple[int, int]) -> np.ndarray:
    """[H, W, C] -> [n_tokens, ph*pw*C], row-major in both orderings."""
    ph, pw = patch
    gr, gc, n = token_count(x.shape[0], x.shape[1], patch)
    c = x.shape[2]
    return (
        x.reshape(gr, ph, gc, pw, c).transpose(0, 2, 1, 3, 4).reshape(n, ph * pw * c)
    )


def unpatchify(tokens: Tensor, grid: tuple[int, int], patch: tuple[int, int], channels: int) -> Tensor:
    """Differentiable inverse of patchify for [n_tokens, ph*pw*C] tensors."""
    gr, gc = grid
    ph, pw = patch
    x = tt.reshape(tokens, (gr, gc, ph, pw, channels))
    x = tt.transpose(x, (0, 2, 1, 3, 4))
    return tt.reshape(x, (gr * ph, gc * pw, channels))


@dataclass
class TokenSequence:
    tokens: Tensor  # [n_tokens, d]
    modality: Modality
    grid: tuple[int, int]


def patchify_embed(prepped: Prepped, w: Tensor, b: Tensor, cfg: TokenizerConfig) -> TokenSequence:
    """Patch + affine embed: token_i = vec(patch_i) @ w + b."""
    spec = cfg.spec(prepped.modality)
    patches = patchify(prepped.array, spec.patch)
    if w.shape != (patches.shape[1], cfg.d):
        raise TokenError(f"embedding matrix {w.shape} != {(patches.shape[1], cfg.d)}")
    tokens = tt.linear(Tensor(patches), w, b)
    return TokenSequence(tokens=tokens, modality=prepped.modality, grid=spec.grid)

