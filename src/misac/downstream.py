"""Downstream task heads, fine-tuning, and evaluation.

Five tasks ride on the pre-trained encoder:

- channel_prediction: the last quarter of CSI token columns is hidden and
  reconstructed (extrapolation along frequency); loss and NMSE live on the
  hidden columns.
- channel_estimation: only every PILOT_SPACING-th (4th) CSI token column is
  visible (a pilot comb); the full grid is reconstructed and scored.
- beam_selection: classify the best codebook beam from pooled features.
- localization: regress the tx-rx distance in meters.
- aoa_estimation: regress (sin, cos) of the dominant-path azimuth; decoded
  with atan2 and scored by wrapped absolute error.

Reconstruction tasks reuse the CSI decoder as their head; label tasks attach
a small two-layer head on mean-pooled encoder output. With freeze=True only
the head (or CSI decoder) trains, the encoder stays bit-identical, and
run_finetune keeps the frozen parameters off the tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .encoder import MLP
from .pretrain import (
    Adam,
    MaskSpec,
    PretrainModel,
    column_mask,
    cosine_lr,
    decode_masked,
    encode_visible,
    mask_loss,
    pixel_mask,
    prepare_sample,
)
from .synth import MultimodalSample, SynthConfig
from .tensor import Tensor
from .tokenizer import Modality


class DownstreamError(ValueError):
    pass


TASKS = (
    "channel_prediction",
    "channel_estimation",
    "beam_selection",
    "localization",
    "aoa_estimation",
)
RECON_TASKS = ("channel_prediction", "channel_estimation")
CHANNEL = Modality.CSI  # the modality the reconstruction tasks hide and rebuild
PILOT_SPACING = 4  # token columns from one channel_estimation pilot to the next


# ---------------------------------------------------------------------------
# task-defined CSI masks (deterministic)


def prediction_mask(grid: tuple[int, int]) -> MaskSpec:
    """Hide the last quarter of token columns (at least one)."""
    gc = grid[1]
    return MaskSpec.from_omega(column_mask(grid, np.arange(gc - max(1, round(0.25 * gc)), gc)))


def estimation_mask(grid: tuple[int, int]) -> MaskSpec:
    """Keep every PILOT_SPACING-th token column visible (pilot comb)."""
    gc = grid[1]
    if PILOT_SPACING >= gc:
        raise DownstreamError(f"pilot spacing {PILOT_SPACING} needs more than {gc} token columns")
    return MaskSpec.from_omega(column_mask(grid, np.arange(gc) % PILOT_SPACING > 0))


def task_mask(task: str, grid: tuple[int, int]) -> MaskSpec | None:
    if task == "channel_prediction":
        return prediction_mask(grid)
    if task == "channel_estimation":
        return estimation_mask(grid)
    return None


# ---------------------------------------------------------------------------
# metrics


def nmse_db(pred: np.ndarray, target: np.ndarray) -> float:
    """10 log10(|pred - target|^2 / |target|^2), floored at -120 dB for exact
    matches."""
    floor_db = -120.0
    den = float(np.sum(np.abs(target) ** 2))
    if den == 0.0:
        raise DownstreamError("nmse_db: zero-power target")
    num = float(np.sum(np.abs(pred - target) ** 2))
    if num == 0.0:
        return floor_db
    return max(10.0 * math.log10(num / den), floor_db)


def topk_accuracy(logits: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Fraction of rows whose label lands in the top-k logits (stable order,
    ties resolved toward the lower index)."""
    order = np.argsort(-logits, axis=-1, kind="stable")[:, :k]
    return float(np.mean([label in row for label, row in zip(labels, order)]))


def wrapped_abs_error(pred: float, target: float) -> float:
    """Absolute angular difference wrapped onto (-pi, pi]."""
    d = (pred - target + math.pi) % (2.0 * math.pi) - math.pi
    return abs(d)


# ---------------------------------------------------------------------------
# model


def head_outputs(task: str, n_beams: int) -> int:
    """Output width of a label task's head: one logit per beam, the distance,
    or (sin, cos) of the angle."""
    return {"beam_selection": n_beams, "localization": 1, "aoa_estimation": 2}[task]


class FinetuneModel:
    """A pre-trained model plus one task binding."""

    def __init__(
        self,
        pretrained: PretrainModel,
        task: str,
        rng: np.random.Generator,
        n_beams: int = SynthConfig.n_beams,
    ):
        if task not in TASKS:
            raise DownstreamError(f"unknown task {task!r}")
        self.pretrained = pretrained
        self.task = task
        self.mask: MaskSpec | None = None  # the fixed CSI mask of a reconstruction task
        if task in RECON_TASKS:
            if CHANNEL not in pretrained.tok_cfg.specs:
                raise DownstreamError(f"{task} needs {CHANNEL.name}")
            self.mask = task_mask(task, pretrained.tok_cfg.spec(CHANNEL).grid)
            self.head = None
        else:
            d = pretrained.enc_cfg.d
            self.head = MLP(rng, d, d, head_outputs(task, n_beams))  # on the mean-pooled encoder output

    def named_params(self) -> dict[str, Tensor]:
        out = dict(self.pretrained.named_params())
        if self.head is not None:
            out.update(dict(self.head.named("head")))
        return out

    def trainable_params(self, freeze_encoder: bool) -> dict[str, Tensor]:
        """freeze_encoder=True trains the task head only: the label head for
        label tasks, the CSI decoder for reconstruction tasks."""
        params = self.named_params()
        if not freeze_encoder:
            return params
        if self.task in RECON_TASKS:
            keep = f"decoder.{CHANNEL.name}."
        else:
            keep = "head."
        return {k: p for k, p in params.items() if k.startswith(keep)}


# ---------------------------------------------------------------------------
# forward passes


@dataclass(frozen=True)
class FinetuneSettings:
    steps: int = 100
    batch_size: int = 8
    lr_min: float = 1e-5
    lr_max: float = 1e-3
    freeze_encoder: bool = False
    snr_range: tuple[float, float] | None = None
    drop: tuple[str, ...] = ()  # modality names excluded at train and eval


def sample_loss(
    model: FinetuneModel,
    sample: MultimodalSample,
    cfg: FinetuneSettings,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, dict]:
    """Loss for one sample plus everything needed to score it."""
    pre = model.pretrained
    if cfg.snr_range is not None and rng is None:
        raise DownstreamError("snr injection needs an rng")
    prepped = prepare_sample(sample, pre.tok_cfg, rng, drop=cfg.drop, snr_range=cfg.snr_range)
    if not prepped:
        raise DownstreamError("sample has no usable modality after drops")
    task = model.task
    if task in RECON_TASKS:
        if CHANNEL not in prepped:
            raise DownstreamError(f"{task} needs {CHANNEL.name}")
        spec = model.mask
        masks = {CHANNEL: spec}
        res = encode_visible(pre, prepped, masks)
        recon = decode_masked(pre, res, masks)[CHANNEL]
        target = prepped[CHANNEL].array
        if task == "channel_prediction":
            sse, count = mask_loss({CHANNEL: recon}, {CHANNEL: target}, masks)
            loss = tt.mul(sse, Tensor(1.0 / count))
        else:
            loss = tt.mse(recon, target)
        scale = prepped[CHANNEL].scale
        aux = {
            "recon": recon.data / scale,  # de-normalized
            "target": target / scale,
            "mask_pixels": pixel_mask(spec.omega, pre.tok_cfg.spec(CHANNEL).patch),
        }
        return loss, aux

    res = encode_visible(pre, prepped, {})
    pooled = tt.tmean(res.h, axis=0, keepdims=True)
    out = model.head(pooled)
    lab = sample.labels
    if task == "beam_selection":
        target = int(lab.beam_index)
        loss = tt.cross_entropy(out, np.array([[target]]))
        return loss, {"logits": out.data[0].copy(), "label": target}
    if task == "localization":
        target = float(lab.distance_m)
        loss = tt.mse(out, np.array([[target]]))
        return loss, {"pred": float(out.data[0, 0]), "label": target}
    # aoa_estimation
    theta = float(lab.aoa_rad)
    loss = tt.mse(out, np.array([[math.sin(theta), math.cos(theta)]]))
    pred = math.atan2(float(out.data[0, 0]), float(out.data[0, 1]))
    return loss, {"pred": pred, "label": theta}


def finetune_step(
    model: FinetuneModel,
    batch: list[MultimodalSample],
    opt: Adam,
    cfg: FinetuneSettings,
    rng: np.random.Generator,
    lr: float,
) -> float:
    opt.zero_grad()
    with tt.Tape() as tape:
        total: Tensor | None = None
        for sample in batch:
            loss, _ = sample_loss(model, sample, cfg, rng)
            total = loss if total is None else tt.add(total, loss)
        total = tt.mul(total, Tensor(1.0 / len(batch)))
    tt.backward(total, tape)
    opt.step(lr)
    return total.item()


def run_finetune(
    model: FinetuneModel,
    samples: list[MultimodalSample],
    cfg: FinetuneSettings,
    seed: int,
    log=None,
) -> list[dict]:
    if not samples:
        raise DownstreamError("run_finetune: empty dataset")
    trainable = model.trainable_params(cfg.freeze_encoder)
    opt = Adam(trainable)
    rng = np.random.default_rng(seed)
    history = []
    n = len(samples)
    # The tape records only ops with a grad-requiring input, so untracking the
    # parameters the optimizer skips leaves a frozen encoder off the tape.
    untracked = [
        p for name, p in model.named_params().items() if name not in trainable and p.requires_grad
    ]
    for p in untracked:
        p.requires_grad = False
    try:
        for step in range(cfg.steps):
            batch = [samples[(step * cfg.batch_size + j) % n] for j in range(cfg.batch_size)]
            lr = cosine_lr(step, cfg.steps, cfg.lr_min, cfg.lr_max)
            loss = finetune_step(model, batch, opt, cfg, rng, lr)
            record = {"step": step, "lr": lr, "loss": loss}
            history.append(record)
            if log is not None:
                log(record)
    finally:
        for p in untracked:
            p.requires_grad = True
    return history


# ---------------------------------------------------------------------------
# evaluation


def evaluate(
    model: FinetuneModel,
    samples: list[MultimodalSample],
    cfg: FinetuneSettings,
    seed: int = 0,
) -> dict[str, float]:
    """Task metrics over a sample list. The seed fixes SNR injection noise so
    runs that differ only in the model see identical inputs."""
    if not samples:
        raise DownstreamError("evaluate: empty dataset")
    rng = np.random.default_rng(seed)
    losses, auxes = [], []
    for s in samples:
        loss, aux = sample_loss(model, s, cfg, rng)
        losses.append(loss.item())
        auxes.append(aux)
    out = {"loss": float(np.mean(losses))}
    task = model.task
    if task in RECON_TASKS:
        nmses = []
        for a in auxes:
            recon, target = a["recon"], a["target"]
            if task == "channel_prediction":  # scored on the hidden columns only
                recon, target = recon[a["mask_pixels"]], target[a["mask_pixels"]]
            nmses.append(nmse_db(recon, target))
        return {**out, "nmse_db": float(np.mean(nmses))}
    labels = np.asarray([a["label"] for a in auxes])
    if task == "beam_selection":
        logits = np.stack([a["logits"] for a in auxes])
        return {**out, "top1": topk_accuracy(logits, labels, 1), "top3": topk_accuracy(logits, labels, 3)}
    preds = np.asarray([a["pred"] for a in auxes])
    if task == "localization":
        err = np.abs(preds - labels)
        return {**out, "mae_m": float(np.mean(err)), "rmse_m": float(np.sqrt(np.mean(err**2)))}
    errs = np.array([wrapped_abs_error(p, t) for p, t in zip(preds, labels)])
    return {**out, "mae_rad": float(np.mean(errs)), "mae_deg": float(np.degrees(np.mean(errs)))}
