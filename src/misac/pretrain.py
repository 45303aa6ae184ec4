"""Self-supervised pre-training: masked multimodal reconstruction anchored
by a contrastive term that binds every modality to the anchor modality (CSI)
and an expert load-balancing penalty.

The encoder only ever sees visible tokens. Reconstruction happens in a
lightweight per-modality decoder: visible latents and a learnable mask token
are scattered back to the full grid, decoder positions are added, a couple
of plain transformer blocks run over the full sequence, and a linear head
maps back to patch pixels. The masked loss is charged on the masked support
only, normalized by the number of masked scalar elements (the unnormalized
sum is also reported).

The anchor's (CSI's) masking draws one of three schemes per step: uniform
random tokens, contiguous frequency stripes (whole token-columns), or a comb
of visible token-columns derived from a subcarrier spacing. Every other
modality reuses the random scheme. All per-sample routing decisions are
exposed as stats so the load-balance term can aggregate over (layer, pool)
pairs.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .encoder import (
    MLP,
    Attention,
    EncodeResult,
    EncoderConfig,
    FrozenRouting,
    Linear,
    MultimodalEncoder,
    PoolStats,
    attention,
    trunc_normal,
)
from .synth import MultimodalSample, with_noisy_csi
from .tensor import Tensor
from .tokenizer import Modality, Prepped, TokenizerConfig, preprocess, unpatchify


class PretrainError(ValueError):
    pass


# ---------------------------------------------------------------------------
# masking


@dataclass(frozen=True)
class MaskScheme:
    kind: str  # "random" | "frequency" | "comb"
    ratio: float | None = None  # random / frequency
    spacing: int | None = None  # comb, in subcarriers

    def __post_init__(self):
        if self.kind in ("random", "frequency"):
            if self.ratio is None or not 0.0 < self.ratio < 1.0:
                raise PretrainError(f"{self.kind} mask needs a ratio in (0, 1)")
        elif self.kind == "comb":
            if self.spacing is None or self.spacing < 2:
                raise PretrainError("comb mask needs a spacing >= 2")
        else:
            raise PretrainError(f"unknown mask scheme {self.kind!r}")


CSI_SCHEME_KINDS = ("random", "frequency", "comb")


def sample_scheme(kind: str, rng: np.random.Generator) -> MaskScheme:
    """Draw scheme parameters: ratios ~ U(0.1, 0.5), comb spacing ~ U{4..16}."""
    if kind == "comb":
        return MaskScheme("comb", spacing=int(rng.integers(4, 17)))
    return MaskScheme(kind, ratio=float(rng.uniform(0.1, 0.5)))


def choose_csi_scheme(rng: np.random.Generator) -> MaskScheme:
    return sample_scheme(CSI_SCHEME_KINDS[int(rng.integers(0, 3))], rng)


@dataclass
class MaskSpec:
    visible: np.ndarray  # sorted token indices
    masked: np.ndarray  # sorted token indices
    omega: np.ndarray  # [grid_rows, grid_cols] bool, True = masked

    @classmethod
    def from_omega(cls, omega: np.ndarray) -> "MaskSpec":
        flat = omega.reshape(-1)
        return cls(np.nonzero(~flat)[0], np.nonzero(flat)[0], omega)


def pixel_mask(omega: np.ndarray, patch: tuple[int, int]) -> np.ndarray:
    """Spread a token-grid mask over the pixels of each token's patch."""
    return omega.repeat(patch[0], axis=0).repeat(patch[1], axis=1)


def column_mask(grid: tuple[int, int], masked_cols: np.ndarray) -> np.ndarray:
    """A token-grid mask that hides whole columns (indices or a bool row)."""
    omega = np.zeros(grid, dtype=bool)
    omega[:, masked_cols] = True
    return omega


def sample_mask(
    scheme: MaskScheme,
    grid: tuple[int, int],
    rng: np.random.Generator,
    patch_w: int = 1,
) -> MaskSpec:
    """Draw a mask over a modality's token grid that leaves both sides
    non-empty: the random count is clamped to [1, n - 1], the stripe width to
    [1, cols - 1], and the comb step is at least 2 token columns. Comb spacing
    is given in input columns (subcarriers) and converts to token columns via
    patch_w: exact when divisible, else nearest (ties to even)."""
    gr, gc = grid
    n = gr * gc
    if n < 2 or (scheme.kind != "random" and gc < 2):
        raise PretrainError(f"a {gr}x{gc} token grid cannot hold a {scheme.kind} mask")
    if scheme.kind == "random":
        n_masked = min(max(int(round(scheme.ratio * n)), 1), n - 1)
        omega = np.zeros(n, dtype=bool)
        omega[rng.permutation(n)[:n_masked]] = True
        return MaskSpec.from_omega(omega.reshape(grid))
    if scheme.kind == "frequency":
        width = min(max(int(round(scheme.ratio * gc)), 1), gc - 1)
        start = int(rng.integers(0, gc - width + 1))
        return MaskSpec.from_omega(column_mask(grid, np.arange(start, start + width)))
    step = max(round(scheme.spacing / patch_w), 2)
    return MaskSpec.from_omega(column_mask(grid, np.arange(gc) % step > 0))


# ---------------------------------------------------------------------------
# decoder


class DecoderBlock:
    """Attention + plain GELU FFN, both on RMSNorm-gained residual branches."""

    def __init__(self, rng, d: int, n_heads: int, hidden_mult: int):
        self.n_heads = n_heads
        self.attn = Attention(rng, d)
        self.ffn = MLP(rng, d, hidden_mult * d, d)
        self.g_attn = Tensor(np.ones(d), requires_grad=True)
        self.g_ffn = Tensor(np.ones(d), requires_grad=True)

    def __call__(self, h: Tensor, eps: float) -> Tensor:
        h = tt.add(h, tt.rmsnorm(attention(h, self.attn, self.n_heads), self.g_attn, eps))
        return tt.add(h, tt.rmsnorm(self.ffn(h), self.g_ffn, eps))

    def named(self, prefix: str):
        return (
            self.attn.named(f"{prefix}.attn")
            + self.ffn.named(f"{prefix}.ffn")
            + [(f"{prefix}.g_attn", self.g_attn), (f"{prefix}.g_ffn", self.g_ffn)]
        )


class DecoderHead:
    """Per-modality reconstruction head over the full token grid."""

    def __init__(self, rng, enc_cfg: EncoderConfig, tok_cfg: TokenizerConfig, modality: Modality, n_blocks: int):
        spec = tok_cfg.spec(modality)
        d = enc_cfg.d
        self.mask_token = Tensor(trunc_normal(rng, (d,)), requires_grad=True)
        self.pos = Tensor(trunc_normal(rng, (spec.n_tokens, d)), requires_grad=True)
        self.blocks = [
            DecoderBlock(rng, d, enc_cfg.n_heads, enc_cfg.hidden_mult) for _ in range(n_blocks)
        ]
        self.out = Linear(rng, d, tok_cfg.patch_dim(modality))

    def named(self, prefix: str):
        out = [(f"{prefix}.mask_token", self.mask_token), (f"{prefix}.pos", self.pos)]
        for i, b in enumerate(self.blocks):
            out += b.named(f"{prefix}.block{i}")
        return out + self.out.named(f"{prefix}.out")


class PretrainModel:
    """Encoder plus per-modality decoders and contrastive projection heads."""

    def __init__(
        self,
        enc_cfg: EncoderConfig,
        tok_cfg: TokenizerConfig,
        rng: np.random.Generator,
        decoder_blocks: int = 1,
    ):
        self.enc_cfg = enc_cfg
        self.tok_cfg = tok_cfg
        self.encoder = MultimodalEncoder(enc_cfg, tok_cfg, rng)
        self.decoders = {
            m: DecoderHead(rng, enc_cfg, tok_cfg, m, decoder_blocks) for m in tok_cfg.modalities
        }
        # InfoNCE ignores a shift of every logit in a row, so only the anchor's
        # projection gets a bias: another modality's would shift the rows alike
        self.proj = {m: Linear(rng, enc_cfg.d, enc_cfg.d, bias=m.anchor) for m in tok_cfg.modalities}

    def named_params(self) -> dict[str, Tensor]:
        out = dict(self.encoder.named_params())
        for m, dec in self.decoders.items():
            out.update(dict(dec.named(f"decoder.{m.name}")))
            out.update(dict(self.proj[m].named(f"proj.{m.name}")))
        return out


def encode_visible(
    model: PretrainModel,
    prepped: dict[Modality, Prepped],
    masks: dict[Modality, MaskSpec],
    frozen: FrozenRouting | None = None,
) -> EncodeResult:
    """Tokenize each present modality, keep visible rows, encode jointly.
    Modalities without a mask entry are fully visible."""
    parts = []
    for m in sorted(prepped):
        visible = masks[m].visible if m in masks else None
        parts.append((m, model.encoder.embed(prepped[m], visible)))
    return model.encoder.encode(parts, frozen)


def decode_masked(
    model: PretrainModel,
    result: EncodeResult,
    masks: dict[Modality, MaskSpec],
) -> dict[Modality, Tensor]:
    """Reconstruct the full grid of every masked modality: add visible
    latents and mask tokens onto the decoder positions of their grid rows,
    run the decoder blocks, project to pixels, fold patches."""
    out: dict[Modality, Tensor] = {}
    for m, spec in masks.items():
        dec = model.decoders[m]
        latents = result.rows(m)
        if latents.shape[0] != spec.visible.size:
            raise PretrainError("mask/visible row mismatch at decode")
        h = tt.index_add(dec.pos, spec.visible, latents)
        if spec.masked.size:
            h = tt.index_add(h, spec.masked, tt.tile_rows(dec.mask_token, spec.masked.size))
        for block in dec.blocks:
            h = block(h, model.enc_cfg.rms_eps)
        layout = model.tok_cfg.spec(m)
        out[m] = unpatchify(dec.out(h), layout.grid, layout.patch, m.channels)
    return out


# ---------------------------------------------------------------------------
# losses


def mask_loss(
    recons: dict[Modality, Tensor],
    targets: dict[Modality, np.ndarray],
    masks: dict[Modality, MaskSpec],
) -> tuple[Tensor, int]:
    """(sum of squared errors over the masked scalar elements, their count);
    the masked mean is sse / count."""
    sse: Tensor | None = None
    count = 0
    for m, recon in recons.items():
        spec = masks[m]
        target = targets[m]
        if recon.shape != target.shape:
            raise PretrainError(f"reconstruction shape {recon.shape} != target {target.shape}")
        ph = target.shape[0] // spec.omega.shape[0]
        pw = target.shape[1] // spec.omega.shape[1]
        pix = pixel_mask(spec.omega, (ph, pw))[..., None]
        term = tt.tsum(tt.square(tt.mul(tt.sub(recon, Tensor(target)), Tensor(pix))))
        sse = term if sse is None else tt.add(sse, term)
        count += int(spec.masked.size) * ph * pw * target.shape[2]
    if sse is None or count == 0:
        raise PretrainError("mask_loss: nothing masked")
    return sse, count


def contrastive_loss(
    anchors: list[Tensor],
    others: dict[Modality, list[Tensor]],
    tau: float = 0.07,
) -> Tensor:
    """Sum over the other modalities of InfoNCE against the anchor.

    anchors[i] and others[m][i] are [1, d] embeddings of the i-th complete
    sample; similarity is the raw dot product over tau. Returns a constant
    zero when fewer than two complete samples exist."""
    b = len(anchors)
    if b <= 1:
        return Tensor(0.0)
    z_anchor = tt.concat(anchors, axis=0)
    total: Tensor | None = None
    diag = np.arange(b)[:, None]
    for m, zs in others.items():
        if len(zs) != b:
            raise PretrainError("contrastive_loss: ragged batch")
        z_m = tt.concat(zs, axis=0)
        s = tt.mul(tt.matmul(z_anchor, tt.transpose(z_m, (1, 0))), Tensor(1.0 / tau))
        term = tt.cross_entropy(s, diag)
        total = term if total is None else tt.add(total, term)
    return total if total is not None else Tensor(0.0)


@dataclass
class PoolUsage:
    layer: int
    pool: str
    importance: Tensor  # [K] token-mean of the dense routing weights, carries gradient
    load: np.ndarray  # [K] share of the tokens that selected each expert


def pool_usage(stats: list[PoolStats], n_experts: int) -> Iterator[PoolUsage]:
    """Yield the usage of each (layer, pool) group of stats, in key order,
    pooled over every sample's tokens in that group."""
    groups: dict[tuple[int, str], list[PoolStats]] = {}
    for s in stats:
        groups.setdefault((s.layer, s.pool), []).append(s)
    for (layer, pool), members in sorted(groups.items()):
        weights = tt.concat([m.weights for m in members], axis=0)
        counts = sum(np.bincount(m.selected.reshape(-1), minlength=n_experts) for m in members)
        load = counts / sum(m.selected.shape[0] for m in members)
        yield PoolUsage(layer, pool, tt.tmean(weights, axis=0), load)


def load_balance_loss(stats: list[PoolStats], n_experts: int) -> Tensor:
    """Mean over (layer, pool) groups of (1/K) sum_e Imp(e) * Load(e).

    Importance carries gradient; load, the hard selection frequency, is
    treated as constant. Uniform routing gives top_k / K^2."""
    if not stats:
        raise PretrainError("load_balance_loss: no routing stats")
    total: Tensor | None = None
    n_groups = 0
    for usage in pool_usage(stats, n_experts):
        term = tt.mul(tt.tsum(tt.mul(usage.importance, Tensor(usage.load))), Tensor(1.0 / n_experts))
        total = term if total is None else tt.add(total, term)
        n_groups += 1
    return tt.mul(total, Tensor(1.0 / n_groups))


def total_loss(
    l_mask: Tensor, l_cl: Tensor, l_lb: Tensor, lambda_cl: float = 5e-4, lambda_lb: float = 0.05
) -> Tensor:
    # the auxiliary terms are summed first; with the default weights this
    # keeps total_loss(1, 2, 0.5) at the decimal value 1.026 bit-exactly
    return tt.add(
        l_mask, tt.add(tt.mul(l_cl, Tensor(lambda_cl)), tt.mul(l_lb, Tensor(lambda_lb)))
    )


@dataclass
class PretrainLoss:
    total: Tensor
    mask: Tensor
    mask_unnormalized: Tensor
    contrastive: Tensor
    load_balance: Tensor
    masked_count: int
    n_complete: int

    def scalars(self) -> dict[str, float]:
        return {
            "loss": self.total.item(),
            "mask": self.mask.item(),
            "mask_unnormalized": self.mask_unnormalized.item(),
            "contrastive": self.contrastive.item(),
            "load_balance": self.load_balance.item(),
            "masked_count": float(self.masked_count),
            "n_complete": float(self.n_complete),
        }


# ---------------------------------------------------------------------------
# optimizer and schedule


class Adam:
    """Adam with beta1 = 0.9, beta2 = 0.999 and eps = 1e-8."""

    def __init__(self, params: dict[str, Tensor]):
        self.params = dict(params)
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        for k, p in self.params.items():
            if p.grad is None:
                continue
            # in place, with the operations and order of m = b1 * m + (1 - b1) * g,
            # v = b2 * v + (1 - b2) * g * g and
            # p - lr * (m / c1) / (sqrt(v / c2) + eps), in two scratch buffers
            m, v, g = self.m[k], self.v[k], p.grad
            step = np.multiply(1 - b1, g)
            m *= b1
            m += step
            gg = np.multiply(1 - b2, g)
            gg *= g
            v *= b2
            v += gg
            np.divide(m, 1 - b1**self.t, out=step)
            step *= lr
            np.divide(v, 1 - b2**self.t, out=gg)
            np.sqrt(gg, out=gg)
            gg += eps
            step /= gg
            p.data = p.data - step

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for k in self.params:
            out[f"m.{k}"] = self.m[k]
            out[f"v.{k}"] = self.v[k]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], t: int) -> None:
        self.t = t
        for k in self.params:
            self.m[k] = arrays[f"m.{k}"].copy()
            self.v[k] = arrays[f"v.{k}"].copy()


def cosine_lr(step: int, total_steps: int, lr_min: float, lr_max: float) -> float:
    """Cosine from lr_max (step 0) down to lr_min (step total_steps)."""
    if total_steps < 1:
        raise PretrainError("schedule needs at least one step")
    frac = min(max(step, 0), total_steps) / total_steps
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * frac))


# ---------------------------------------------------------------------------
# training step


@dataclass(frozen=True)
class PretrainSettings:
    steps: int = 200
    batch_size: int = 8
    lr_min: float = 1e-5
    lr_max: float = 3e-3
    lambda_cl: float = 5e-4
    lambda_lb: float = 0.05
    tau: float = 0.07
    modality_dropout: float = 0.2
    snr_range: tuple[float, float] | None = (10.0, 25.0)


@dataclass
class StepInputs:
    """Everything sampled for one step, so a step can be replayed exactly."""

    prepped: list[dict[Modality, Prepped]]
    masks: list[dict[Modality, MaskSpec]]


def prepare_sample(
    sample: MultimodalSample,
    tok_cfg: TokenizerConfig,
    rng: np.random.Generator | None = None,
    drop: tuple[str, ...] = (),
    dropout: float | None = None,
    snr_range: tuple[float, float] | None = None,
) -> dict[Modality, Prepped]:
    """Preprocess the sample's present modalities, in id order: those it has
    and drop does not name, less the droppable ones that modality dropout
    removes (one rng draw each while more than one is left; no draws when
    dropout is None), after adding CSI noise when snr_range is set and the
    CSI is present."""
    present = [m for m in tok_cfg.modalities if m.name not in drop and sample.available[m.source]]
    if dropout is not None:
        for m in [m for m in present if m.droppable]:
            if len(present) > 1 and rng.random() < dropout:
                present.remove(m)
    work = sample
    if snr_range is not None and any(m.source == "csi" for m in present):
        work = with_noisy_csi(sample, snr_range, rng)
    return {m: preprocess(work, m, tok_cfg) for m in present}


def prepare_step_inputs(
    batch: list[MultimodalSample],
    model: PretrainModel,
    cfg: PretrainSettings,
    rng: np.random.Generator,
) -> StepInputs:
    """Apply modality dropout, CSI noise injection, preprocessing, and mask
    sampling for one batch, modality by modality in id order. One anchor
    (CSI) scheme per step; fresh ratio draws per sample for the other
    modalities' random masks."""
    scheme = choose_csi_scheme(rng)
    tok_cfg = model.tok_cfg
    prepped_all, masks_all = [], []
    for sample in batch:
        prepped = prepare_sample(sample, tok_cfg, rng, dropout=cfg.modality_dropout, snr_range=cfg.snr_range)
        masks = {}
        for m in prepped:
            spec = tok_cfg.spec(m)
            if m.anchor:
                masks[m] = sample_mask(scheme, spec.grid, rng, spec.patch[1])
            else:
                masks[m] = sample_mask(sample_scheme("random", rng), spec.grid, rng)
        prepped_all.append(prepped)
        masks_all.append(masks)
    return StepInputs(prepped=prepped_all, masks=masks_all)


def step_objective(
    model: PretrainModel, inputs: StepInputs, cfg: PretrainSettings,
    frozen: list[FrozenRouting] | None = None,
) -> tuple[PretrainLoss, list[EncodeResult]]:
    """Forward the whole batch and assemble the combined objective."""
    all_stats: list[PoolStats] = []
    sse_total: Tensor | None = None
    count_total = 0
    modalities = model.tok_cfg.modalities
    anchor = next((m for m in modalities if m.anchor), None)
    anchors: list[Tensor] = []
    others: dict[Modality, list[Tensor]] = {m: [] for m in modalities if m != anchor}
    results = []
    for i, (prepped, masks) in enumerate(zip(inputs.prepped, inputs.masks)):
        res = encode_visible(model, prepped, masks, None if frozen is None else frozen[i])
        results.append(res)
        recons = decode_masked(model, res, masks)
        targets = {m: prepped[m].array for m in recons}
        sse, count = mask_loss(recons, targets, masks)
        sse_total = sse if sse_total is None else tt.add(sse_total, sse)
        count_total += count
        all_stats.extend(res.stats)
        if anchor is not None and all(m in prepped for m in modalities):
            pooled = {m: tt.tmean(res.rows(m), axis=0, keepdims=True) for m in modalities}
            anchors.append(model.proj[anchor](pooled[anchor]))
            for m, zs in others.items():
                zs.append(model.proj[m](pooled[m]))
    l_mask = tt.mul(sse_total, Tensor(1.0 / count_total))
    l_cl = contrastive_loss(anchors, others, cfg.tau)
    l_lb = load_balance_loss(all_stats, model.enc_cfg.n_experts)
    loss = PretrainLoss(
        total=total_loss(l_mask, l_cl, l_lb, cfg.lambda_cl, cfg.lambda_lb),
        mask=l_mask,
        mask_unnormalized=sse_total,
        contrastive=l_cl,
        load_balance=l_lb,
        masked_count=count_total,
        n_complete=len(anchors),
    )
    return loss, results


def pretrain_step(
    model: PretrainModel,
    batch: list[MultimodalSample],
    opt: Adam,
    cfg: PretrainSettings,
    rng: np.random.Generator,
    lr: float,
) -> PretrainLoss:
    inputs = prepare_step_inputs(batch, model, cfg, rng)
    opt.zero_grad()
    with tt.Tape() as tape:
        loss, _ = step_objective(model, inputs, cfg)
    tt.backward(loss.total, tape)
    opt.step(lr)
    return loss


def run_pretrain(
    model: PretrainModel,
    samples: list[MultimodalSample],
    cfg: PretrainSettings,
    seed: int,
    log=None,
    start_step: int = 0,
    until: int | None = None,
    opt: Adam | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[list[dict], Adam, np.random.Generator]:
    """Cycle the dataset in order; one rng drives dropout, noise, and masks.
    The schedule always spans cfg.steps; [start_step, until) with the opt and
    rng returned by an earlier call resumes a run exactly."""
    if not samples:
        raise PretrainError("run_pretrain: empty dataset")
    opt = opt or Adam(model.named_params())
    rng = rng or np.random.default_rng(seed)
    history = []
    n = len(samples)
    for step in range(start_step, cfg.steps if until is None else until):
        batch = [samples[(step * cfg.batch_size + j) % n] for j in range(cfg.batch_size)]
        lr = cosine_lr(step, cfg.steps, cfg.lr_min, cfg.lr_max)
        loss = pretrain_step(model, batch, opt, cfg, rng, lr)
        record = {"step": step, "lr": lr, **loss.scalars()}
        history.append(record)
        if log is not None:
            log(record)
    return history, opt, rng
