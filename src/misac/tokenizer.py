"""Unified tokenization: modality tensors -> patch token sequences.

Every modality is preprocessed to a real [H, W, C] grid, cut into
non-overlapping patches, and linearly embedded into the shared model width.
Patch vectors are row-major over (patch rows, patch cols, channels) and
patches are enumerated row-major over the patch grid; both orderings are
load-bearing for checkpoint portability and are pinned by tests.

Per-sample normalization: CSI and radar grids are scaled to unit mean power
(NMSE, the metric of the reconstruction tasks, is the same in either domain);
map occupancy channels are already in [0, 1] and the height channel is
divided by a fixed scale.

To add a modality, build a ``Modality`` record with a new id and put it, with
its ``ModalitySpec``, in the ``TokenizerConfig`` a model is built from; every
other module iterates that config's modalities and never names one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from . import MisacError, tensor as tt
from .synth import MultimodalSample
from .tensor import Tensor


class TokenError(MisacError):
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

    ``prepare(value, spec, cfg) -> grid`` turns the sample's ``source``
    field into the [H, W, channels] grid the model reads.
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
        if not 0 < self.height_scale < np.inf:  # _prepare_map needs +0.0 / height_scale == +0.0
            raise TokenError(f"height_scale must be positive and finite, got {self.height_scale}")
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


def _unit_power_scale(x: np.ndarray) -> float:
    p = float(np.mean(np.abs(x) ** 2))
    return 1.0 / np.sqrt(p) if p > 0 else 1.0


def _prepare_csi(csi, spec: ModalitySpec, cfg: TokenizerConfig) -> np.ndarray:
    h = csi.h.data
    return np.stack([h.real, h.imag], axis=-1) * _unit_power_scale(h)


def _prepare_map(smap, spec: ModalitySpec, cfg: TokenizerConfig) -> np.ndarray:
    """The map's mean over factor x factor blocks, height divided by
    height_scale, from its listed cells alone. The cells are added into the
    [side, side, 4] grid in row-major order, so each block sums them in the
    order that strided block sums over the dense grid do. There the unlisted
    cells add +0.0, which changes a sum only when it is -0.0, so a block whose
    factor² cells are all listed starts from -0.0 (the identity of +) and any
    other from +0.0: bit for bit those strided sums, divided by factor²."""
    native, side = smap.resolution, spec.height
    if native % side:
        raise TokenError(f"map side {native} not an integer multiple of configured {side}")
    factor = native // side
    index = smap.index
    block = index // native // factor * side + index % native // factor
    cells = smap.channels.copy()
    cells[:, 3] /= cfg.height_scale
    out = np.zeros((side * side, 4))
    out[np.bincount(block, minlength=side * side) == factor * factor] = -0.0
    np.add.at(out, block, cells)
    out /= factor * factor
    return out.reshape(side, side, 4)


def _prepare_radar(radar, spec: ModalitySpec, cfg: TokenizerConfig) -> np.ndarray:
    ra, rv = radar.data
    return np.stack([ra.real, ra.imag, rv.real, rv.imag], axis=-1) * _unit_power_scale(radar.data)  # over both maps


# channels: csi re/im, map bev + height / height_scale, radar ra re/im then rv re/im
Modality.CSI = Modality(0, "csi", 2, "csi", _prepare_csi, anchor=True)
Modality.MAP = Modality(1, "map", 4, "map", _prepare_map, context=True, droppable=True)
Modality.RADAR = Modality(2, "radar", 4, "radar", _prepare_radar, droppable=True)
MODALITY_ORDER = (Modality.CSI, Modality.MAP, Modality.RADAR)


def preprocess(sample: MultimodalSample, modality: Modality, cfg: TokenizerConfig) -> np.ndarray:
    """The modality's configured [H, W, C] float64 grid, prepared from its
    sample field."""
    spec = cfg.spec(modality)
    value = getattr(sample, modality.source)
    if value is None:
        raise TokenError(f"sample has no {modality.source}")
    arr = modality.prepare(value, spec, cfg)
    want = (spec.height, spec.width, modality.channels)
    if arr.shape != want:
        raise TokenError(f"{modality.name} grid {arr.shape} != configured {want}")
    return arr


def patchify(x: np.ndarray, spec: ModalitySpec) -> np.ndarray:
    """[H, W, C] -> [n_tokens, ph*pw*C], row-major in both orderings."""
    if x.shape[:2] != (spec.height, spec.width):
        raise TokenError(f"grid {x.shape[:2]} != spec {(spec.height, spec.width)}")
    (gr, gc), (ph, pw), c = spec.grid, spec.patch, x.shape[2]
    return x.reshape(gr, ph, gc, pw, c).transpose(0, 2, 1, 3, 4).reshape(spec.n_tokens, ph * pw * c)


def patchify_embed(grid: np.ndarray, spec: ModalitySpec, w: Tensor, b: Tensor, d: int) -> Tensor:
    """Patch + affine embed to [n_tokens, d]: token_i = vec(patch_i) @ w + b."""
    patches = patchify(grid, spec)
    if w.shape != (patches.shape[1], d):
        raise TokenError(f"embedding matrix {w.shape} != {(patches.shape[1], d)}")
    return tt.matmul(Tensor(patches), w, bias=b)
