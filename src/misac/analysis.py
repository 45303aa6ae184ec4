"""Model accounting: parameter counts, analytic FLOP estimates, and routing
utilization export.

Activated parameters follow the sparse-expert convention: every non-expert
parameter counts fully, expert parameters count at top_k / n_experts (the
fraction a single token actually touches). FLOPs count multiply-add-dominant
terms only (2mnp per [m,n]x[n,p] matmul); normalization, softmax, and
residual adds are omitted.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig, RunConfig
from .downstream import CHANNEL, RECON_TASKS, TASKS, head_outputs
from .pretrain import PretrainModel, encode_visible, pool_usage, prepare_sample
from .tokenizer import Modality


class AnalysisError(ValueError):
    pass


# ---------------------------------------------------------------------------
# parameters


def is_expert_param(name: str) -> bool:
    return ".expert" in name


def param_counts(params: dict, top_k: int, n_experts: int) -> dict[str, int | float]:
    """params maps name -> array (or anything with .size via np.asarray)."""
    if not 1 <= top_k <= n_experts:
        raise AnalysisError("need 1 <= top_k <= n_experts")
    total = expert = 0
    for name, arr in params.items():
        size = int(np.asarray(getattr(arr, "data", arr)).size)
        total += size
        if is_expert_param(name):
            expert += size
    activated = (total - expert) + expert * top_k / n_experts
    return {
        "total": total,
        "expert": expert,
        "activated": activated,
        "activated_fraction": activated / total if total else 0.0,
    }


# ---------------------------------------------------------------------------
# FLOPs


def _matmul(m: int, n: int, p: int) -> int:
    return 2 * m * n * p


def _block_flops(model: ModelConfig, n_total: int, pool_tokens: list[int]) -> int:
    """One encoder block: attention over n_total tokens plus the shared pool
    (over all tokens) and one specific pool per modality segment."""
    d, k, h = model.d, model.top_k, model.hidden_mult
    attn = 4 * _matmul(n_total, d, d) + 2 * _matmul(n_total, n_total, d)
    expert_cost_per_token = k * (_matmul(1, d, h * d) + _matmul(1, h * d, d))
    moe = 0
    # shared pool: gate input [x; context] is 2d wide
    moe += _matmul(n_total, 2 * d, model.n_experts) + n_total * expert_cost_per_token
    for n_m in pool_tokens:
        moe += _matmul(n_m, d, model.n_experts) + n_m * expert_cost_per_token
    return attn + moe


def encoder_flops(model: ModelConfig, present: list[Modality]) -> int:
    tok = model.tokenizer_config()
    n_by_mod = [tok.spec(m).n_tokens for m in present]
    n_total = sum(n_by_mod)
    total = sum(_matmul(tok.spec(m).n_tokens, tok.patch_dim(m), model.d) for m in present)  # patch embed
    total += model.n_layers * _block_flops(model, n_total, n_by_mod)
    return total


def decoder_flops(model: ModelConfig, modality: Modality) -> int:
    tok = model.tokenizer_config()
    tokens, dims = tok.spec(modality).n_tokens, tok.patch_dim(modality)
    d, h = model.d, model.hidden_mult
    per_block = 4 * _matmul(tokens, d, d) + 2 * _matmul(tokens, tokens, d)
    per_block += _matmul(tokens, d, h * d) + _matmul(tokens, h * d, d)
    return model.decoder_blocks * per_block + _matmul(tokens, d, dims)


def task_flops(cfg: RunConfig, task: str) -> dict[str, int]:
    """Analytic cost of one full-modality forward pass for a task."""
    if task not in TASKS:
        raise AnalysisError(f"unknown task {task!r}")
    model = cfg.model
    enc = encoder_flops(model, list(model.tokenizer_config().modalities))
    if task in RECON_TASKS:
        rest = decoder_flops(model, CHANNEL)
    else:
        n_out = head_outputs(task, cfg.data.synth_config(model).n_beams)
        rest = _matmul(1, model.d, model.d) + _matmul(1, model.d, n_out)
    return {"encoder": enc, "task": rest, "total": enc + rest}


# ---------------------------------------------------------------------------
# routing utilization


@dataclass(frozen=True)
class RoutingRow:
    layer: int
    pool: str
    expert: int
    importance: float
    load: float


def routing_table(model: PretrainModel, samples, drop: tuple[str, ...] = ()) -> list[RoutingRow]:
    """Aggregate routing statistics over full (unmasked) forward passes."""
    if not samples:
        raise AnalysisError("routing_table: no samples")
    stats = []
    for sample in samples:
        stats += encode_visible(model, prepare_sample(sample, model.tok_cfg, drop=drop), {}).stats
    return [
        RoutingRow(u.layer, u.pool, e, float(u.importance.data[e]), float(u.load[e]))
        for u in pool_usage(stats, model.enc_cfg.n_experts)
        for e in range(model.enc_cfg.n_experts)
    ]


def routing_csv(rows: list[RoutingRow]) -> str:
    out = io.StringIO()
    out.write("layer,pool,expert,importance,load\n")
    for r in rows:
        out.write(f"{r.layer},{r.pool},{r.expert},{r.importance:.10g},{r.load:.10g}\n")
    return out.getvalue()
