"""Reduce the spans of a traced run to the per-layer metrics.

Times are self times (a span's duration minus its child spans) in
milliseconds per unit of work: per pre-training step (pretrain), per
fine-tuning step (finetune_eval; spans under ``evaluate`` are reported as
``downstream.eval_ms_per_sample`` and ``encoder.eval_achieved_gflops``
instead) and per synthesized sample (synth_io). Checkpoint times are per
save or load call. Counts of tape nodes and encoded tokens are those of the
first unit of work, so they do not depend on how many units fit in the run.
A metric that a workload does not exercise reads 0.
"""

from __future__ import annotations

import time

import numpy as np

from misac import analysis, downstream
from misac.encoder import MODALITY_ORDER

# the spans whose calls are the workload's units of work
UNIT_SPANS = {
    "pretrain": ("pretrain.pretrain_step",),
    "finetune_eval": ("downstream.finetune_step",),
    "synth_io": ("synth.synth_dataset", "synth.load_dataset"),
}
# the span whose median duration the layer self times should add up to
COVER_SPAN = {
    "pretrain": "pretrain.pretrain_step",
    "finetune_eval": "downstream.finetune_step",
    "synth_io": "synth.synth_dataset",
}
PER_UNIT_MS = {
    "tensor.backward_ms": "tensor.backward",
    "synth.sample_scene_ms": "synth.sample_scene",
    "synth.scene_to_paths_ms": "synth.scene_to_paths",
    "synth.channel_response_ms": "synth.channel_response",
    "synth.radar_cube_ms": "synth.radar_cube",
    "synth.range_angle_map_ms": "synth.range_angle_map",
    "synth.range_velocity_map_ms": "synth.range_velocity_map",
    "synth.rasterize_scene_ms": "synth.rasterize_scene",
    "synth.derive_labels_ms": "synth.derive_labels",
    "synth.write_mstn_ms": "synth.write_mstn",
    "synth.read_mstn_ms": "synth.read_mstn",
    "synth.add_awgn_ms": "synth.add_awgn",
    "tokenizer.preprocess_ms": "tokenizer.preprocess",
    "tokenizer.patchify_embed_ms": "tokenizer.patchify_embed",
    "encoder.attention_ms": "encoder.attention",
    "encoder.moe_ms": "encoder.moe",
    "encoder.encode_self_ms": "encoder.encode",
    "pretrain.prepare_inputs_ms": "pretrain.prepare_inputs",
    "pretrain.encode_visible_self_ms": "pretrain.encode_visible",
    "pretrain.decode_ms": "pretrain.decode",
    "pretrain.mask_loss_ms": "pretrain.mask_loss",
    "pretrain.contrastive_ms": "pretrain.contrastive",
    "pretrain.load_balance_ms": "pretrain.load_balance",
    "pretrain.forward_ms": "pretrain.forward",
    "downstream.sample_loss_ms": "downstream.sample_loss",
}
ADAM_MS = {"pretrain": "pretrain.adam_ms", "finetune_eval": "downstream.adam_ms"}
PER_CALL_MS = {  # metric -> (span timed, span whose calls divide)
    "checkpoint.snapshot_ms": ("checkpoint.snapshot", "checkpoint.snapshot"),
    "checkpoint.save_ms": ("checkpoint.save", "checkpoint.save"),
    "checkpoint.mstn_dumps_ms": ("checkpoint.mstn_dumps", "checkpoint.save"),
    "checkpoint.load_ms": ("checkpoint.load", "checkpoint.load"),
    "checkpoint.mstn_loads_ms": ("checkpoint.mstn_loads", "checkpoint.load"),
    "checkpoint.restore_ms": ("checkpoint.restore", "checkpoint.restore"),
}
NODE_OPS = ("matmul", "add", "mul", "gather_rows", "index_add", "take_along_last", "scatter_last", "gelu")


def matmul_ceiling_gflops(seconds: float = 0.3) -> float:
    """Best observed rate of the encoder's typical matmul, 256x64 @ 64x128."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((256, 64)), rng.standard_normal((64, 128))
    flop, reps, best = 2 * 256 * 64 * 128, 20, 0.0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        t0 = time.perf_counter()
        for _ in range(reps):
            a @ b
        best = max(best, reps * flop / (time.perf_counter() - t0))
    return best / 1e9


def layer_metrics(workload: str, tracer, result, cfg, ceiling_gflops: float, src_lines: int) -> dict:
    spans = tracer.spans
    unit_of = tracer.nearest(UNIT_SPANS[workload])
    units = [i for i, s in enumerate(spans) if unit_of[i] == i and s.name in UNIT_SPANS[workload]]
    n_units = result.samples if workload == "synth_io" else len(units)
    first = units[0] if units else -2  # -2 matches no span

    self_ms: dict[str, float] = {}
    for s, u in zip(spans, unit_of):
        if u >= 0:
            self_ms[s.name] = self_ms.get(s.name, 0.0) + s.self_s * 1e3

    def per_unit(span: str) -> float:
        return self_ms.get(span, 0.0) / n_units if n_units else 0.0

    out = {metric: per_unit(span) for metric, span in PER_UNIT_MS.items()}
    out["pretrain.adam_ms"] = out["downstream.adam_ms"] = 0.0
    if workload in ADAM_MS:
        out[ADAM_MS[workload]] = per_unit("pretrain.adam")

    for metric, (span, per) in PER_CALL_MS.items():
        calls = tracer.count(per)
        total = sum(s.self_s for s in spans if s.name == span)
        out[metric] = total * 1e3 / calls if calls else 0.0

    first_backward = [s.info for s, u in zip(spans, unit_of) if u == first and s.name == "tensor.backward"]
    out["tensor.tape_nodes"] = first_backward[0] if first_backward else 0
    histogram = tracer.first_tape or {}
    for op in NODE_OPS:
        out[f"tensor.nodes.{op}"] = histogram.get(op, 0)
    out["tensor.matmul_gflops_ceiling"] = ceiling_gflops
    out["tokenizer.tokens_encoded"] = sum(
        rows for s, u in zip(spans, unit_of) if u == first and s.name == "encoder.encode" for _, rows in s.info
    )

    in_eval = tracer.nearest(["downstream.evaluate"])
    eval_flops = eval_s = 0.0
    for s, e in zip(spans, in_eval):
        if e >= 0 and s.name == "encoder.encode":  # its parent is the encode_visible call
            eval_flops += analysis.encoder_flops(cfg.model, [m for m in MODALITY_ORDER if m in dict(s.info)])
            eval_s += spans[s.parent].seconds
    out["encoder.eval_achieved_gflops"] = eval_flops / eval_s / 1e9 if eval_s else 0.0
    eval_samples = result.facts.get("eval_samples", 0)
    eval_total_s = sum(s.seconds for s in spans if s.name == "downstream.evaluate")
    out["downstream.eval_ms_per_sample"] = eval_total_s * 1e3 / eval_samples if eval_samples else 0.0
    out["downstream.trainable_params"] = result.facts.get("trainable_params", 0)

    out["synth.bytes_written"] = result.facts.get("bytes_written", 0)
    out["checkpoint.bytes"] = result.facts.get("ckpt_bytes", 0)
    out["analysis.encoder_flops"] = analysis.encoder_flops(cfg.model, list(MODALITY_ORDER))
    for task in downstream.TASKS:
        out[f"analysis.task_flops.{task}"] = analysis.task_flops(cfg, task)["total"]
    out["repo.src_lines"] = src_lines

    cover = COVER_SPAN[workload]
    cover_of = tracer.nearest([cover])
    durations = [s.seconds for s in spans if s.name == cover]
    inner_ms = sum(s.self_s for s, c in zip(spans, cover_of) if c >= 0 and s.name != cover) * 1e3
    out["trace.step_cover_share"] = (
        inner_ms / len(durations) / (float(np.median(durations)) * 1e3) if durations else 0.0
    )
    out["trace.samples_per_s"] = result.samples / result.loop_s if result.loop_s > 0 else 0.0
    out["pretrain.loss_final"] = result.facts.get("pretrain_loss", 0.0)
    out["downstream.loss_final"] = result.facts.get("finetune_loss", 0.0)
    return out
