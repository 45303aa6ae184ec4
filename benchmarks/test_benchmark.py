"""Tests of the benchmark itself: smoke runs of every workload, stable count
fields, span structure, and refusal to run without the library sources.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
from misac import config, downstream, pretrain, synth  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAMED = {
    "pretrain": ["pretrain_samples_per_s", "pretrain_step_ms_p50", "pretrain_step_ms_tail", "ckpt_save_ms",
                 "pretrain_loss_final"],
    "finetune_eval": ["ckpt_load_ms", "finetune_samples_per_s", "finetune_step_ms_p50", "finetune_loss_final",
                      "eval_samples_per_s"],
    "synth_io": ["synth_samples_per_s", "dataset_load_samples_per_s"],
}
COUNTS = [
    m["name"] for m in SPEC["per_layer"]
    if m["unit"] in ("count", "bytes", "FLOP", "lines")
]


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric_without_failures(workload, trace):
    proc = bench(workload, trace)
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in out["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    if not trace:
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in listed)
        for name in NAMED[workload] + ["setup_s", "peak_rss_mb", "failed_share"]:
            assert f"  {name} " in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_count_fields_are_identical_across_runs(workload):
    first, second = (last_json(bench(workload, 1))["metrics"] for _ in range(2))
    counts = {k: first[k]["value"] for k in COUNTS}
    assert counts == {k: second[k]["value"] for k in COUNTS}
    assert all(isinstance(v, int) for v in counts.values())
    if workload != "synth_io":
        assert counts["tensor.tape_nodes"] > 0 and counts["tensor.nodes.matmul"] > 0


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("synth_io", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tape_op_names_resolve_or_fail_loudly():
    from misac import tensor as tt

    a = tt.Tensor(np.ones((2, 2)), requires_grad=True)
    with tt.Tape() as tape:
        tt.gelu(tt.add(tt.matmul(a, a), a))
    assert tracing.tape_histogram(tape) == {"matmul": 1, "add": 1, "gelu": 1}
    with pytest.raises(RuntimeError, match="cannot resolve"):
        tracing.tape_op(lambda g: g)


def test_span_counts_match_the_call_structure():
    cfg = config.desk_config()
    scfg = cfg.data.synth_config(cfg.model)
    samples, _ = synth.synth_dataset(scfg, 2, 5)
    model = pretrain.PretrainModel(
        cfg.model.encoder_config(), cfg.model.tokenizer_config(), np.random.default_rng(0),
        decoder_blocks=cfg.model.decoder_blocks,
    )
    originals = {name: getattr(owner, attr) for name, owner, attr, *_ in tracing.SPANS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pre_settings = pretrain.PretrainSettings(steps=2, batch_size=2)
        pretrain.run_pretrain(model, samples, pre_settings, 0)
        head = downstream.FinetuneModel(model, "beam_selection", np.random.default_rng(1))
        ft_settings = downstream.FinetuneSettings(steps=2, batch_size=2, freeze_encoder=True)
        downstream.run_finetune(head, samples, ft_settings, 0)
        downstream.evaluate(head, samples, ft_settings)
    finally:
        tracer.uninstall()
    assert {name: getattr(owner, attr) for name, owner, attr, *_ in tracing.SPANS} == originals

    spans = tracer.spans
    children: dict[int, list[str]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s.name)
    steps = [i for i, s in enumerate(spans) if s.name in ("pretrain.pretrain_step", "downstream.finetune_step")]
    assert len(steps) == 4
    for name, batch in (("pretrain.pretrain_step", 2), ("downstream.finetune_step", 2)):
        step_of = tracer.nearest([name])
        for i in (i for i in steps if spans[i].name == name):
            under = [s.name for s, u in zip(spans, step_of) if u == i]
            assert under.count("pretrain.encode_visible") == batch
            assert under.count("tensor.backward") == 1
    n_layers = cfg.model.n_layers
    encodes = [i for i, s in enumerate(spans) if s.name == "encoder.encode"]
    assert len(encodes) == 2 * 2 + 2 * 2 + len(samples)
    for i in encodes:
        assert children[i].count("encoder.attention") == n_layers
        assert children[i].count("encoder.moe") == n_layers
        assert spans[spans[i].parent].name == "pretrain.encode_visible"
    in_eval = tracer.nearest(["downstream.evaluate"])
    assert tracer.count("downstream.evaluate") == 1
    assert not [s for s, e in zip(spans, in_eval) if e >= 0 and s.name == "tensor.backward"]
    assert all(s.self_s >= 0 and s.self_s <= s.seconds for s in spans)
