"""Unified multimodal encoder: shared attention over the concatenated token
sequence, then a per-block mixture-of-experts FFN split into one shared pool
(routed with a context vector, the mean of the context modality's rows)
and one specific pool per modality (routed from the token alone).

Layout invariants:

* Tokens concatenate in modality id order, restricted to the modalities
  present; segment bounds travel with the sequence.
* Routing is top-k over a truncated softmax: the k highest gate logits are
  renormalized, every other expert weight is exactly zero, and ties break
  toward the lower expert index. Gradients flow through the selected weights
  only; the selection itself is treated as constant, and callers can freeze
  a captured selection to keep the loss smooth for finite-difference checks.
* Both expert branches re-enter the stream through their own RMSNorm gain:
  out = x + rmsnorm(y_shared) + rmsnorm(y_specific).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .tensor import Tensor
from .tokenizer import MODALITY_ORDER  # noqa: F401 - the benchmark reads the built-in modalities here
from .tokenizer import Modality, Prepped, TokenizerConfig, patchify_embed


class EncoderError(ValueError):
    pass


@dataclass(frozen=True)
class EncoderConfig:
    d: int = 64
    n_layers: int = 2
    n_heads: int = 4
    n_experts: int = 8
    top_k: int = 4
    hidden_mult: int = 2
    rms_eps: float = 1e-6

    def __post_init__(self):
        if self.d < 1 or self.n_layers < 1 or self.n_heads < 1:
            raise EncoderError("width, depth and heads must be >= 1")
        if self.d % self.n_heads:
            raise EncoderError("d must divide evenly into heads")
        if not 1 <= self.top_k <= self.n_experts:
            raise EncoderError("top_k must lie in [1, n_experts]")


def trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, 0.02) with values beyond 2 std redrawn."""
    std = 0.02
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2 * std
    while bad.any():
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2 * std
    return x


class Linear:
    """x @ w + b; with bias=False, x @ w."""

    def __init__(self, rng, n_in: int, n_out: int, bias: bool = True):
        self.w = Tensor(trunc_normal(rng, (n_in, n_out)), requires_grad=True)
        self.b = Tensor(np.zeros(n_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return tt.matmul(x, self.w, bias=self.b)

    def named(self, prefix: str):
        return [(f"{prefix}.w", self.w)] + ([] if self.b is None else [(f"{prefix}.b", self.b)])


class MLP:
    """Two-layer GELU MLP: fc2(gelu(fc1(x))). Experts, decoder FFNs and task
    heads are all this module."""

    def __init__(self, rng, n_in: int, hidden: int, n_out: int):
        self.fc1 = Linear(rng, n_in, hidden)
        self.fc2 = Linear(rng, hidden, n_out)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(tt.gelu(self.fc1(x)))

    def named(self, prefix: str):
        return self.fc1.named(f"{prefix}.fc1") + self.fc2.named(f"{prefix}.fc2")


class ExpertPool:
    """K experts plus a gate. Shared pools gate on [token; context] (2d in),
    modality pools gate on the token alone (d in)."""

    def __init__(self, rng, cfg: EncoderConfig, kind: str):
        self.kind = kind
        gate_in = 2 * cfg.d if kind == "shared" else cfg.d
        self.gate = Linear(rng, gate_in, cfg.n_experts)
        self.experts = [MLP(rng, cfg.d, cfg.hidden_mult * cfg.d, cfg.d) for _ in range(cfg.n_experts)]

    def named(self, prefix: str):
        out = self.gate.named(f"{prefix}.gate")
        for i, e in enumerate(self.experts):
            out += e.named(f"{prefix}.expert{i}")
        return out


@dataclass
class Segment:
    modality: Modality
    start: int
    stop: int


@dataclass
class PoolStats:
    layer: int
    pool: str
    weights: Tensor  # [n_tokens, K] dense routing weights (zeros off-selection)
    selected: np.ndarray  # [n_tokens, k] chosen expert ids


def _topk_indices(logits: np.ndarray, k: int) -> np.ndarray:
    """Row-wise top-k of [n, K]; stable sort so ties keep the lower index."""
    return np.argsort(-logits, axis=-1, kind="stable")[:, :k]


def gate_shared(x: Tensor, ctx: Tensor, pool: ExpertPool) -> Tensor:
    """Gate logits of [token; context], with the [d] context on every row."""
    if pool.kind != "shared":
        raise EncoderError("gate_shared: pool is not the shared pool")
    return pool.gate(tt.concat([x, tt.tile_rows(ctx, x.shape[0])], axis=1))


def gate_specific(x: Tensor, pool: ExpertPool) -> Tensor:
    if pool.kind == "shared":
        raise EncoderError("gate_specific: pool is the shared pool")
    return pool.gate(x)


def _dispatch(
    pool: ExpertPool,
    x: Tensor,
    logits: Tensor,
    k: int,
    layer: int,
    frozen: np.ndarray | None,
) -> tuple[Tensor, PoolStats]:
    """Route each row to its top-k experts and sum the weighted outputs.

    The (token, slot) pairs are stably sorted by expert, so each expert's
    rows form one block in token order and each expert layer runs as one
    grouped node. That pair order is the one table dispatch_rows and
    combine_rows take, and the combine sums every token's outputs in it,
    which is expert order."""
    K = len(pool.experts)
    sel = _topk_indices(logits.data, k) if frozen is None else frozen
    w = tt.softmax(tt.take_along_last(logits, sel))  # [n, k]
    dense = tt.scatter_last(w, sel, K)  # [n, K], exact zeros elsewhere
    pairs = np.argsort(sel.reshape(-1), kind="stable")
    offsets = np.concatenate([[0], np.cumsum(np.bincount(sel.reshape(-1), minlength=K))])
    ex = pool.experts
    xs = tt.dispatch_rows(x, pairs)
    h = tt.gelu(tt.grouped_linear(xs, [e.fc1.w for e in ex], [e.fc1.b for e in ex], offsets))
    out = tt.grouped_linear(h, [e.fc2.w for e in ex], [e.fc2.b for e in ex], offsets)
    y = tt.combine_rows(out, w, pairs)
    stats = PoolStats(layer=layer, pool=pool.kind, weights=dense, selected=sel)
    return y, stats


class Attention:
    """The query, key, value and output projections of one attention layer.
    The key has no bias: it would add q . b to every score of a query row,
    which the softmax cancels, so its gradient is exactly zero."""

    def __init__(self, rng, d: int):
        self.q, self.k = Linear(rng, d, d), Linear(rng, d, d, bias=False)
        self.v, self.o = Linear(rng, d, d), Linear(rng, d, d)

    def named(self, prefix: str):
        return [item for name in "qkvo" for item in getattr(self, name).named(f"{prefix}.{name}")]


def attention(h: Tensor, attn: Attention, n_heads: int) -> Tensor:
    """Scaled dot-product multi-head self-attention over all tokens: five
    tape nodes, the four projections and one attention core."""
    return attn.o(tt.scaled_dot_product_attention(attn.q(h), attn.k(h), attn.v(h), n_heads))


class EncoderBlock:
    def __init__(self, rng, cfg: EncoderConfig, modalities: tuple[Modality, ...]):
        d = cfg.d
        self.attn = Attention(rng, d)
        self.g_attn = Tensor(np.ones(d), requires_grad=True)
        self.g_shared = Tensor(np.ones(d), requires_grad=True)
        self.g_specific = Tensor(np.ones(d), requires_grad=True)
        self.shared = ExpertPool(rng, cfg, "shared")
        self.specific = {m: ExpertPool(rng, cfg, m.name) for m in modalities}

    def named(self, prefix: str):
        out = (
            self.attn.named(f"{prefix}.attn")
            + [
                (f"{prefix}.g_attn", self.g_attn),
                (f"{prefix}.g_shared", self.g_shared),
                (f"{prefix}.g_specific", self.g_specific),
            ]
            + self.shared.named(f"{prefix}.shared")
        )
        for m, pool in self.specific.items():
            out += pool.named(f"{prefix}.{m.name}")
        return out


def pool_context(h: Tensor, segments: list[Segment]) -> Tensor:
    """Mean of the context modality's rows; zeros when it is absent."""
    for seg in segments:
        if seg.modality.context:
            return tt.tmean(tt.gather_rows(h, np.arange(seg.start, seg.stop)), axis=0)
    return Tensor(np.zeros(h.shape[1]))


FrozenRouting = dict[tuple[int, str], np.ndarray]


def ss_dmoe_forward(
    x: Tensor,
    segments: list[Segment],
    ctx: Tensor,
    block: EncoderBlock,
    cfg: EncoderConfig,
    layer: int,
    frozen: FrozenRouting | None = None,
) -> tuple[Tensor, list[PoolStats]]:
    """Shared pool over all rows plus one modality pool per segment."""

    def frozen_for(pool: str):
        return None if frozen is None else frozen.get((layer, pool))

    y_shared, st = _dispatch(
        block.shared, x, gate_shared(x, ctx, block.shared), cfg.top_k, layer, frozen_for("shared")
    )
    stats = [st]
    y_parts = []  # the segments tile rows [0, n) in order, so y_spec is their concat
    for seg in segments:
        pool = block.specific[seg.modality]
        xm = tt.gather_rows(x, np.arange(seg.start, seg.stop))
        ym, st = _dispatch(
            pool, xm, gate_specific(xm, pool), cfg.top_k, layer, frozen_for(pool.kind)
        )
        y_parts.append(ym)
        stats.append(st)
    y_spec = tt.concat(y_parts, axis=0)
    out = tt.add(
        tt.add(x, tt.rmsnorm(y_shared, block.g_shared, cfg.rms_eps)),
        tt.rmsnorm(y_spec, block.g_specific, cfg.rms_eps),
    )
    return out, stats


def encoder_block(
    h: Tensor,
    segments: list[Segment],
    block: EncoderBlock,
    cfg: EncoderConfig,
    layer: int,
    frozen: FrozenRouting | None = None,
) -> tuple[Tensor, list[PoolStats]]:
    h1 = tt.add(h, tt.rmsnorm(attention(h, block.attn, cfg.n_heads), block.g_attn, cfg.rms_eps))
    ctx = pool_context(h1, segments)
    return ss_dmoe_forward(h1, segments, ctx, block, cfg, layer, frozen)


@dataclass
class EncodeResult:
    h: Tensor  # [n_total, d]
    segments: list[Segment]
    stats: list[PoolStats]

    def segment(self, modality: Modality) -> Segment:
        for seg in self.segments:
            if seg.modality == modality:
                return seg
        raise EncoderError(f"no {modality.name} segment")

    def rows(self, modality: Modality) -> Tensor:
        seg = self.segment(modality)
        return tt.gather_rows(self.h, np.arange(seg.start, seg.stop))

    def frozen_routing(self) -> FrozenRouting:
        return {(s.layer, s.pool): s.selected for s in self.stats}


class MultimodalEncoder:
    """Owns every encoder-side parameter: patch embeddings, positional
    tables, modality id vectors, and the attention/MoE blocks."""

    def __init__(self, cfg: EncoderConfig, tok_cfg: TokenizerConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.tok_cfg = tok_cfg
        if tok_cfg.d != cfg.d:
            raise EncoderError("tokenizer and encoder widths disagree")
        self.patch_embed: dict[Modality, Linear] = {}
        self.pos: dict[Modality, Tensor] = {}
        self.mod_id: dict[Modality, Tensor] = {}
        for m in tok_cfg.modalities:
            self.patch_embed[m] = Linear(rng, tok_cfg.patch_dim(m), cfg.d)
            self.pos[m] = Tensor(trunc_normal(rng, (tok_cfg.spec(m).n_tokens, cfg.d)), requires_grad=True)
            self.mod_id[m] = Tensor(np.zeros(cfg.d), requires_grad=True)
        self.blocks = [EncoderBlock(rng, cfg, tok_cfg.modalities) for _ in range(cfg.n_layers)]

    def embed(self, prepped: Prepped, visible: np.ndarray | None = None) -> Tensor:
        """Patch tokens + positional row + modality id; optionally keep a
        subset of rows (positions follow the original grid coordinates)."""
        m = prepped.modality
        lin = self.patch_embed[m]
        tokens = patchify_embed(prepped, lin.w, lin.b, self.tok_cfg)
        h = tt.add(tt.add(tokens, self.pos[m]), self.mod_id[m])
        if visible is not None:
            if visible.size == 0:
                raise EncoderError("embed: empty visible set")
            h = tt.gather_rows(h, visible)
        return h

    def encode(
        self,
        parts: list[tuple[Modality, Tensor]],
        frozen: FrozenRouting | None = None,
    ) -> EncodeResult:
        if not parts:
            raise EncoderError("encode: no modalities")
        seen = [m for m, _ in parts]
        if len(set(seen)) != len(seen):
            raise EncoderError("encode: duplicate modality")
        parts = sorted(parts, key=lambda p: p[0])
        segments, offset = [], 0
        for m, t in parts:
            segments.append(Segment(m, offset, offset + t.shape[0]))
            offset += t.shape[0]
        h = tt.concat([t for _, t in parts], axis=0)
        stats: list[PoolStats] = []
        for li, block in enumerate(self.blocks):
            h, st = encoder_block(h, segments, block, self.cfg, li, frozen)
            stats.extend(st)
        return EncodeResult(h=h, segments=segments, stats=stats)

    def named_params(self) -> dict[str, Tensor]:
        out: list[tuple[str, Tensor]] = []
        for m, embed in self.patch_embed.items():
            out += embed.named(f"embed.{m.name}")
            out += [(f"pos.{m.name}", self.pos[m]), (f"id.{m.name}", self.mod_id[m])]
        for i, b in enumerate(self.blocks):
            out += b.named(f"block{i}")
        return dict(out)
