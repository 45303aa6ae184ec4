"""Command-line entry points.

Subcommands: synth, pretrain, finetune, eval, stats. Machine-readable JSON
lines go to stdout; human-oriented progress and summaries go to stderr. Exit
codes: 0 success, 1 configuration/validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import AnalysisError, param_counts, routing_csv, routing_table, task_flops
from .checkpoint import (
    CheckpointError,
    load_checkpoint,
    restore,
    save_checkpoint,
    snapshot,
)
from .config import ConfigError, RunConfig, load_config, fingerprint
from .downstream import (
    TASKS,
    DownstreamError,
    FinetuneModel,
    evaluate,
    run_finetune,
)
from .encoder import EncoderError
from .pretrain import Adam, PretrainError, PretrainModel, run_pretrain
from .synth import MODALITY_NAMES, SceneError, load_dataset, manifest_hash, synth_dataset
from .tensor import set_finite_checks
from .tokenizer import TokenError

VALIDATION_ERRORS = (
    ConfigError,
    CheckpointError,
    SceneError,
    TokenError,
    EncoderError,
    PretrainError,
    DownstreamError,
    AnalysisError,
)


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    sys.stdout.flush()


def note(msg: str) -> None:
    sys.stderr.write(msg + "\n")
    sys.stderr.flush()


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract wants 1
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="misac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (default: desk preset)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_synth = sub.add_parser("synth", help="generate a dataset")
    common(p_synth)
    p_synth.add_argument("--out", required=True, help="output dataset directory")

    p_pre = sub.add_parser("pretrain", help="run self-supervised pre-training")
    common(p_pre)
    p_pre.add_argument("--data", required=True, help="dataset directory or manifest")
    p_pre.add_argument("--out", required=True, help="checkpoint path (resumes if present)")
    p_pre.add_argument("--force", action="store_true", help="ignore checkpoint fingerprint mismatch")

    p_ft = sub.add_parser("finetune", help="fine-tune on a downstream task")
    common(p_ft)
    p_ft.add_argument("--data", required=True)
    p_ft.add_argument("--checkpoint", help="pre-trained checkpoint to start from")
    p_ft.add_argument("--task", help=f"one of: {', '.join(TASKS)}")
    p_ft.add_argument("--out", help="where to write the fine-tuned checkpoint")
    p_ft.add_argument("--scratch", action="store_true", help="random init instead of a checkpoint")
    p_ft.add_argument("--freeze", choices=["full", "head"], help="full: train everything; head: freeze the encoder")
    p_ft.add_argument("--force", action="store_true")

    p_ev = sub.add_parser("eval", help="evaluate a checkpoint on a task")
    common(p_ev)
    p_ev.add_argument("--data", required=True)
    p_ev.add_argument("--checkpoint", required=True)
    p_ev.add_argument("--task", help=f"one of: {', '.join(TASKS)}")
    p_ev.add_argument("--drop-modality", default="", help="comma-separated modalities to remove")
    p_ev.add_argument("--force", action="store_true")

    p_st = sub.add_parser("stats", help="parameter, FLOP, and routing reports")
    common(p_st)
    p_st.add_argument("--data", required=True)
    p_st.add_argument("--checkpoint", required=True)
    p_st.add_argument("--out", help="write the routing table CSV here")
    p_st.add_argument("--force", action="store_true")

    return parser


# ---------------------------------------------------------------------------
# helpers


def _load(args) -> tuple[RunConfig, int]:
    cfg = load_config(args.config)
    seed = cfg.data.seed if args.seed is None else int(args.seed)
    return cfg, seed


def _build_model(cfg: RunConfig, seed: int) -> PretrainModel:
    return PretrainModel(
        cfg.model.encoder_config(),
        cfg.model.tokenizer_config(),
        np.random.default_rng(seed),
        decoder_blocks=cfg.model.decoder_blocks,
    )


def _finetune_model(cfg: RunConfig, pre: PretrainModel, task: str, seed: int) -> FinetuneModel:
    n_beams = cfg.data.synth_config(cfg.model).n_beams
    return FinetuneModel(pre, task, np.random.default_rng(seed + 1), n_beams=n_beams)


def _load_data(path: str):
    samples, manifest = load_dataset(path)
    return samples, manifest_hash(manifest)


def _override(cfg: RunConfig, **finetune) -> RunConfig:
    """cfg with the finetune fields given on the command line (None keeps the
    config's), validated as a config file is. The fingerprint stays cfg's."""
    given = {k: v for k, v in finetune.items() if v is not None}
    return dataclasses.replace(cfg, finetune=dataclasses.replace(cfg.finetune, **given)).validate()


def _report(
    task: str,
    data_hash: str,
    drop: tuple[str, ...],
    metrics: dict,
    n: int,
    seed: int,
    **extra,
) -> None:
    """One metric line per metric, then the report line; all share the run's
    task, dataset, modalities, sample count and seed."""
    modalities = [m for m in MODALITY_NAMES if m not in drop]
    run = {"task": task, "dataset": data_hash, "modalities": modalities, "n_samples": n, "seed": seed}
    for name, value in sorted(metrics.items()):
        emit({"kind": "metric", **run, "metric": name, "value": value})
    emit({"kind": "report", **run, "metrics": metrics, **extra})


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    cfg, seed = _load(args)
    synth_cfg = cfg.data.synth_config(cfg.model)
    samples, manifest = synth_dataset(synth_cfg, cfg.data.n_samples, seed, args.out)
    digest = manifest_hash(manifest)
    counts = {m: sum(1 for s in samples if s.available[m]) for m in MODALITY_NAMES}
    emit(
        {
            "kind": "dataset",
            "path": str(args.out),
            "manifest_hash": digest,
            "n": len(samples),
            "counts": counts,
            "seed": seed,
        }
    )
    fracs = ", ".join(f"{m}={counts[m] / len(samples):.2f}" for m in counts)
    note(f"wrote {len(samples)} samples to {args.out} (availability: {fracs})")
    note(f"manifest hash {digest}")
    return 0


def cmd_pretrain(args) -> int:
    cfg, seed = _load(args)
    fp = fingerprint(cfg)
    samples, data_hash = _load_data(args.data)
    settings = cfg.pretrain.settings()
    model = _build_model(cfg, seed)
    opt = Adam(model.named_params())
    rng = np.random.default_rng(seed)
    start = 0
    out = Path(args.out)
    if out.exists():
        ckpt = load_checkpoint(out, fp, force=args.force)
        rng = restore(ckpt, model, opt)
        start = ckpt.step
        note(f"resuming from {out} at step {start}")
        if start >= settings.steps:
            note("checkpoint already covers the full schedule; nothing to do")
            emit({"kind": "checkpoint_saved", "path": str(out), "step": start})
            return 0

    def log(record):
        emit({"kind": "pretrain_step", "dataset": data_hash, **record})
        if not math.isfinite(record["loss"]):
            raise RuntimeError(
                f"non-finite loss at step {record['step']}; last-good checkpoint retained"
            )

    step = start
    while step < settings.steps:
        upto = min(step + cfg.pretrain.save_every, settings.steps)
        run_pretrain(
            model, samples, settings, seed, log=log, start_step=step, until=upto, opt=opt, rng=rng
        )
        step = upto
        save_checkpoint(out, snapshot(model, fp, step, opt, rng))
    emit({"kind": "checkpoint_saved", "path": str(out), "step": step})
    note(f"pre-training finished at step {step}; checkpoint at {out}")
    return 0


def cmd_finetune(args) -> int:
    cfg, seed = _load(args)
    run = _override(cfg, task=args.task, freeze=args.freeze).finetune
    task, settings = run.task, run.settings()
    fp = fingerprint(cfg)
    samples, data_hash = _load_data(args.data)
    pre = _build_model(cfg, seed)
    init = "scratch"
    if args.scratch:
        if args.checkpoint:
            raise ConfigError("--scratch and --checkpoint are mutually exclusive")
    else:
        if not args.checkpoint:
            raise ConfigError("finetune needs --checkpoint (or --scratch)")
        ckpt = load_checkpoint(args.checkpoint, fp, force=args.force)
        restore(ckpt, pre)
        init = "pretrained"
    model = _finetune_model(cfg, pre, task, seed)

    def log(record):
        emit({"kind": "finetune_step", "task": task, "init": init, **record})
        if not math.isfinite(record["loss"]):
            raise RuntimeError(f"non-finite loss at step {record['step']}")

    run_finetune(model, samples, settings, seed, log=log)
    metrics = evaluate(model, samples, settings, seed=seed)
    _report(task, data_hash, settings.drop, metrics, len(samples), seed, init=init)
    if args.out:
        save_checkpoint(args.out, snapshot(model, fp, settings.steps))
        emit({"kind": "checkpoint_saved", "path": str(args.out), "step": settings.steps})
    summary = ", ".join(f"{k}={v:.6g}" for k, v in sorted(metrics.items()))
    freeze = "head" if settings.freeze_encoder else "full"
    note(f"finetune[{task}, {init}, freeze={freeze}]: {summary}")
    return 0


def cmd_eval(args) -> int:
    cfg, seed = _load(args)
    # --drop-modality always replaces finetune.drop, with () when it is not given
    drop = tuple(part.strip() for part in args.drop_modality.split(",") if part.strip())
    run = _override(cfg, task=args.task, drop=drop).finetune
    task, settings = run.task, run.settings()
    fp = fingerprint(cfg)
    samples, data_hash = _load_data(args.data)
    pre = _build_model(cfg, seed)
    model = _finetune_model(cfg, pre, task, seed)
    ckpt = load_checkpoint(args.checkpoint, fp, force=args.force)
    restore(ckpt, model)
    metrics = evaluate(model, samples, settings, seed=seed)
    _report(task, data_hash, drop, metrics, len(samples), seed)
    if drop:
        full = evaluate(model, samples, dataclasses.replace(settings, drop=()), seed=seed)
        deltas = {k: metrics[k] - full[k] for k in metrics if k in full}
        emit(
            {
                "kind": "drop_delta",
                "task": task,
                "dataset": data_hash,
                "dropped": list(drop),
                "full_metrics": full,
                "delta": deltas,
                "seed": seed,
            }
        )
        note(f"eval[{task}] without {','.join(drop)}: " + ", ".join(f"{k}={v:.6g}" for k, v in sorted(metrics.items())))
        note("delta vs full modalities: " + ", ".join(f"{k}={v:+.6g}" for k, v in sorted(deltas.items())))
    else:
        note(f"eval[{task}]: " + ", ".join(f"{k}={v:.6g}" for k, v in sorted(metrics.items())))
    return 0


def cmd_stats(args) -> int:
    cfg, seed = _load(args)
    fp = fingerprint(cfg)
    samples, data_hash = _load_data(args.data)
    model = _build_model(cfg, seed)
    ckpt = load_checkpoint(args.checkpoint, fp, force=args.force)
    restore(ckpt, model)  # a fine-tune checkpoint's head tensors are ignored
    counts = param_counts(model.named_params(), cfg.model.top_k, cfg.model.n_experts)
    emit({"kind": "params", **counts})
    flops = {task: task_flops(cfg, task) for task in TASKS}
    emit({"kind": "flops", "per_task": flops})
    rows = routing_table(model, samples)
    for r in rows:
        emit({"kind": "routing", **dataclasses.asdict(r)})
    csv = routing_csv(rows)
    if args.out:
        Path(args.out).write_text(csv)
        note(f"routing table written to {args.out}")
    note(
        f"params: total={counts['total']:,} activated={counts['activated']:,.0f} "
        f"({100 * counts['activated_fraction']:.1f}%)"
    )
    note(f"flops (channel_prediction forward): {flops['channel_prediction']['total']:,}")
    note(f"routing rows over {len(samples)} samples of {data_hash[:12]}: {len(rows)}")
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "eval": cmd_eval,
    "stats": cmd_stats,
}


def main(argv=None) -> int:
    set_finite_checks(True)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except VALIDATION_ERRORS as e:
        note(f"error: {e}")
        return 1
    except OSError as e:
        note(f"i/o error: {e}")
        return 2
    except Exception as e:  # noqa: BLE001 - the CLI boundary maps everything to exit codes
        note(f"runtime error: {type(e).__name__}: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
