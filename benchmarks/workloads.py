"""The benchmark's three closed-loop workloads.

Each workload is a single caller in one process: every library call waits
for the previous one. Set-up builds the inputs from the seed and is repeated
``setup_repeats`` times (the last set-up's objects are used), then one timed
loop runs for at least the requested seconds, then correctness checks run
outside the timed window. Every checked operation counts as attempted; a
check that fails, or an operation that raises, counts as failed.

- pretrain: ``run_pretrain`` at the desk batch size, resumed chunk by chunk
  through ``start_step``/``until``/``opt``/``rng`` with a checkpoint save
  after every chunk, as ``misac pretrain`` does.
- finetune_eval: cycles of ``load_checkpoint`` + ``restore`` (repeated),
  frozen-encoder ``run_finetune`` on beam selection, and ``evaluate`` on a
  held-out set, as ``misac finetune --freeze head`` followed by
  ``misac eval`` do.
- synth_io: ``synth_dataset`` to disk, then ``load_dataset`` of it,
  compared bit for bit, as ``misac synth`` and every command's data load do.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from misac import checkpoint, config, downstream, pretrain, synth

DESK = config.desk_config()
TASK = "beam_selection"
HELDOUT_SEED_OFFSET = 1_000_003  # the held-out set is drawn under another seed


@dataclass(frozen=True)
class Sizes:
    setup_repeats: int
    pretrain_samples: int
    save_every: int  # pretrain steps between checkpoint saves
    min_steps: int
    loss_window: tuple[int, int]  # pretrain steps whose mean loss is reported
    train_samples: int
    heldout_samples: int
    loads_per_cycle: int
    finetune_steps: int
    min_cycles: int  # at least 2, so one cycle replays another
    synth_samples: int  # per synth_dataset call
    warmup_samples: int  # synthesized in memory during synth_io set-up
    min_calls: int


FULL = Sizes(
    setup_repeats=5,
    pretrain_samples=DESK.data.n_samples,
    save_every=5,
    min_steps=20,
    loss_window=(10, 20),
    train_samples=DESK.data.n_samples,
    heldout_samples=16,
    loads_per_cycle=3,
    finetune_steps=5,
    min_cycles=2,
    synth_samples=DESK.data.n_samples,
    warmup_samples=4,
    min_calls=3,
)
SMOKE = Sizes(
    setup_repeats=1,
    pretrain_samples=8,
    save_every=2,
    min_steps=2,
    loss_window=(0, 2),
    train_samples=8,
    heldout_samples=2,
    loads_per_cycle=1,
    finetune_steps=1,
    min_cycles=2,
    synth_samples=2,
    warmup_samples=1,
    min_calls=2,
)


class Checks:
    """Counts attempted and failed operations, and the time spent checking
    inside the timed loop (which the loop's throughput excludes)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.seconds = 0.0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def crashed(self, what: str) -> None:
        traceback.print_exc(file=sys.stderr)
        self.record(False, f"{what}: {sys.exc_info()[1]!r}")

    @contextlib.contextmanager
    def excluded(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - t0


@dataclass
class Result:
    setup_s: list[float]
    loop_s: float  # timed loop wall time, checks excluded
    samples: int  # samples the timed loop pushed through
    step_ms: list[float]
    io_ms: list[float]
    named: dict[str, tuple[float, str, str]]  # workload metric -> (value, unit, note)
    checks: Checks
    facts: dict = field(default_factory=dict)  # counts for the per-layer metrics


def build_model(cfg: config.RunConfig, seed: int) -> pretrain.PretrainModel:
    return pretrain.PretrainModel(
        cfg.model.encoder_config(),
        cfg.model.tokenizer_config(),
        np.random.default_rng(seed),
        decoder_blocks=cfg.model.decoder_blocks,
    )


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else math.nan


def median(values: list[float]) -> float:
    return float(np.median(values)) if values else math.nan


def tail(values: list[float]) -> tuple[float, int]:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond
    it (p50 when there are fewer than twenty samples), and its percentile."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            break
    return (float(np.percentile(values, p)) if values else math.nan), p


def _timed_setup(setup, repeats: int):
    times, out = [], None
    for _ in range(repeats):
        out = None  # let the previous set-up's objects go before the next
        t0 = time.perf_counter()
        out = setup()
        times.append(time.perf_counter() - t0)
    return times, out


@contextlib.contextmanager
def _traced(tracer):
    if tracer is not None:
        tracer.install()
    try:
        yield
    finally:
        if tracer is not None:
            tracer.uninstall()


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def _params(model) -> dict:
    return {k: p.data for k, p in model.named_params().items()}


# ---------------------------------------------------------------------------


def run_pretrain_workload(seed: int, seconds: float, sizes: Sizes, tracer, work: Path) -> Result:
    cfg = DESK
    fp = config.fingerprint(cfg)
    settings = cfg.pretrain.settings()

    def setup():
        samples, _ = synth.synth_dataset(cfg.data.synth_config(cfg.model), sizes.pretrain_samples, seed)
        model = build_model(cfg, seed)
        return samples, model, pretrain.Adam(model.named_params())

    setup_s, (samples, model, opt) = _timed_setup(setup, sizes.setup_repeats)
    rng = np.random.default_rng(seed)
    path = work / "pretrain.ckpt"
    checks = Checks()
    step_ms, save_ms, losses, marks = [], [], [], []

    def log(record):
        marks.append(time.perf_counter())
        losses.append(record["loss"])

    step = ckpt_bytes = 0
    start = time.perf_counter()
    with _traced(tracer):
        while step < sizes.min_steps or time.perf_counter() - start < seconds:
            upto = step + sizes.save_every
            first = len(marks)
            chunk_start = time.perf_counter()
            try:
                pretrain.run_pretrain(
                    model, samples, settings, seed, log=log, start_step=step, until=upto, opt=opt, rng=rng
                )
                t0 = time.perf_counter()
                checkpoint.save_checkpoint(path, checkpoint.snapshot(model, fp, upto, opt, rng))
                t1 = time.perf_counter()
            except Exception:  # noqa: BLE001 - a failed step or save is counted, then timing stops
                checks.crashed(f"pretrain steps {step}..{upto} and save")
                break
            step_ms += list(np.diff([chunk_start, *marks[first:]]) * 1e3)
            if not save_ms:  # later headers hold other step counts and rng states
                ckpt_bytes = path.stat().st_size
            save_ms.append((t1 - t0) * 1e3)
            checks.record(True, "checkpoint save")
            step = upto
        loop_s = time.perf_counter() - start - checks.seconds
    for s, loss in enumerate(losses):
        checks.record(math.isfinite(loss), f"pretrain step {s}: loss {loss}")

    try:
        _check_resume(cfg, fp, path, samples, settings, seed, step, model, opt, rng, checks)
    except Exception:  # noqa: BLE001 - counted as a failed check
        checks.crashed(f"resume checks at step {step}")

    lo, hi = sizes.loss_window
    loss_final = float(np.mean(losses[lo:hi]))
    samples_done = len(losses) * settings.batch_size
    tail_ms, p = tail(step_ms)
    return Result(
        setup_s=setup_s,
        loop_s=loop_s,
        samples=samples_done,
        step_ms=step_ms,
        io_ms=save_ms,
        checks=checks,
        named={
            "pretrain_samples_per_s": (rate(samples_done, loop_s), "samples/s", "checkpoint saves included"),
            "pretrain_step_ms_p50": (median(step_ms), "ms", f"{len(step_ms)} steps"),
            "pretrain_step_ms_tail": (tail_ms, "ms", f"p{p} of {len(step_ms)} steps"),
            "ckpt_save_ms": (median(save_ms), "ms", f"median of {len(save_ms)} saves"),
            "pretrain_loss_final": (loss_final, "loss", f"mean over steps {lo}..{hi - 1}"),
        },
        facts={"ckpt_bytes": ckpt_bytes, "pretrain_loss": loss_final},
    )


def _check_resume(cfg, fp, path, samples, settings, seed, step, model, opt, rng, checks) -> None:
    """The last checkpoint must restore params, Adam moments and the rng bit
    for bit, and the next step replayed from it must give the live loss."""
    ckpt = checkpoint.load_checkpoint(path, fp)
    twin = build_model(cfg, seed + 1)  # another init, so restore must overwrite it
    twin_opt = pretrain.Adam(twin.named_params())
    twin_rng = checkpoint.restore(ckpt, twin, twin_opt)
    checks.record(
        _same(_params(twin), _params(model))
        and _same(twin_opt.state_arrays(), opt.state_arrays())
        and twin_opt.t == opt.t
        and twin_rng.bit_generator.state == rng.bit_generator.state,
        f"checkpoint round trip at step {step} is not bit-exact",
    )
    live = pretrain.run_pretrain(model, samples, settings, seed, start_step=step, until=step + 1, opt=opt, rng=rng)
    replay = pretrain.run_pretrain(
        twin, samples, settings, seed, start_step=step, until=step + 1, opt=twin_opt, rng=twin_rng
    )
    live_loss, replay_loss = live[0][0]["loss"], replay[0][0]["loss"]
    checks.record(
        math.isfinite(live_loss) and live_loss == replay_loss,
        f"replayed step {step}: loss {replay_loss!r} != live {live_loss!r}",
    )


def run_finetune_eval(seed: int, seconds: float, sizes: Sizes, tracer, work: Path) -> Result:
    cfg = DESK
    fp = config.fingerprint(cfg)
    scfg = cfg.data.synth_config(cfg.model)
    settings = dataclasses.replace(cfg.finetune.settings(), steps=sizes.finetune_steps, freeze_encoder=True)
    path = work / "pretrain.ckpt"

    def setup():
        train, _ = synth.synth_dataset(scfg, sizes.train_samples, seed)
        heldout, _ = synth.synth_dataset(scfg, sizes.heldout_samples, seed + HELDOUT_SEED_OFFSET)
        pre = build_model(cfg, seed)
        written = checkpoint.snapshot(pre, fp, 0, pretrain.Adam(pre.named_params()), np.random.default_rng(seed))
        checkpoint.save_checkpoint(path, written)
        return train, heldout, pre, written

    setup_s, (train, heldout, pre, written) = _timed_setup(setup, sizes.setup_repeats)
    checks = Checks()
    load_ms, step_ms, marks = [], [], []
    finetune_s = eval_s = 0.0
    first = None
    model = None
    cycles = 0

    def log(record):
        marks.append(time.perf_counter())

    start = time.perf_counter()
    with _traced(tracer):
        while cycles < sizes.min_cycles or time.perf_counter() - start < seconds:
            try:
                for _ in range(sizes.loads_per_cycle):
                    t0 = time.perf_counter()
                    ckpt = checkpoint.load_checkpoint(path, fp)
                    checkpoint.restore(ckpt, pre)
                    load_ms.append((time.perf_counter() - t0) * 1e3)
                    with checks.excluded():
                        checks.record(
                            _same(ckpt.params, written.params)
                            and _same(ckpt.opt_moments, written.opt_moments)
                            and _same(_params(pre), written.params),
                            "checkpoint load + restore is not bit-exact",
                        )
                model = downstream.FinetuneModel(pre, TASK, np.random.default_rng(seed + 1), n_beams=scfg.n_beams)
                n_marks = len(marks)
                t0 = time.perf_counter()
                history = downstream.run_finetune(model, train, settings, seed, log=log)
                t1 = time.perf_counter()
                metrics = downstream.evaluate(model, heldout, settings, seed=seed)
                t2 = time.perf_counter()
            except Exception:  # noqa: BLE001 - a failed cycle is counted, then timing stops
                checks.crashed(f"finetune_eval cycle {cycles}")
                break
            step_ms += list(np.diff([t0, *marks[n_marks:]]) * 1e3)
            finetune_s += t1 - t0
            eval_s += t2 - t1
            with checks.excluded():
                losses = [r["loss"] for r in history]
                for s, loss in enumerate(losses):
                    checks.record(math.isfinite(loss), f"cycle {cycles} finetune step {s}: loss {loss}")
                checks.record(
                    all(math.isfinite(v) for v in metrics.values()), f"cycle {cycles}: eval metrics {metrics}"
                )
                if first is None:
                    first = (losses, metrics)
                else:  # every cycle replays the first from the same checkpoint and seed
                    checks.record((losses, metrics) == first, f"cycle {cycles} differs from cycle 0")
            cycles += 1
        loop_s = time.perf_counter() - start - checks.seconds

    trained = len(step_ms) * settings.batch_size
    evaluated = cycles * len(heldout)
    loss_final = first[0][-1] if first else math.nan
    return Result(
        setup_s=setup_s,
        loop_s=loop_s,
        samples=trained + evaluated,
        step_ms=step_ms,
        io_ms=load_ms,
        checks=checks,
        named={
            "ckpt_load_ms": (median(load_ms), "ms", f"median of {len(load_ms)} loads"),
            "finetune_samples_per_s": (rate(trained, finetune_s), "samples/s", f"{trained} samples"),
            "finetune_step_ms_p50": (median(step_ms), "ms", f"{len(step_ms)} steps"),
            "finetune_loss_final": (loss_final, "loss", f"after {settings.steps} steps"),
            "eval_samples_per_s": (rate(evaluated, eval_s), "samples/s", f"{evaluated} samples"),
        },
        facts={
            "ckpt_bytes": path.stat().st_size,
            "finetune_loss": loss_final,
            "eval_samples": evaluated,
            "trainable_params": 0 if model is None else sum(
                p.size for p in model.trainable_params(settings.freeze_encoder).values()
            ),
        },
    )


def _sample_arrays(sample) -> dict:
    out = {}
    if sample.csi is not None:
        out["csi"] = sample.csi.h.data
    if sample.radar is not None:
        out["ra"], out["rv"] = sample.radar.ra.data, sample.radar.rv.data
    if sample.map is not None:
        out["bev"], out["height"] = sample.map.bev, sample.map.height
    return out


def _same_samples(a: list, b: list) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        ax, ay = _sample_arrays(x), _sample_arrays(y)
        if x.index != y.index or x.labels != y.labels or not _same(ax, ay):
            return False
        if any(ax[k].dtype != ay[k].dtype for k in ax):
            return False
    return True


def run_synth_io(seed: int, seconds: float, sizes: Sizes, tracer, work: Path) -> Result:
    cfg = DESK

    def setup():
        scfg = cfg.data.synth_config(cfg.model)
        # first calls pay one-off costs (FFT plans, allocator growth)
        synth.synth_dataset(scfg, sizes.warmup_samples, seed)
        return scfg

    setup_s, scfg = _timed_setup(setup, sizes.setup_repeats)
    checks = Checks()
    synth_ms, load_ms = [], []
    calls = 0
    bytes_written = 0
    start = time.perf_counter()
    with _traced(tracer):
        while calls < sizes.min_calls or time.perf_counter() - start < seconds:
            call_seed = int(np.random.SeedSequence([seed, calls]).generate_state(1)[0])
            out = work / f"dataset{calls}"
            try:
                t0 = time.perf_counter()
                made, manifest = synth.synth_dataset(scfg, sizes.synth_samples, call_seed, out)
                t1 = time.perf_counter()
                loaded, loaded_manifest = synth.load_dataset(out)
                t2 = time.perf_counter()
            except Exception:  # noqa: BLE001 - a failed call is counted, then timing stops
                checks.crashed(f"synth_io call {calls}")
                break
            synth_ms.append((t1 - t0) * 1e3)
            load_ms.append((t2 - t1) * 1e3)
            with checks.excluded():
                checks.record(
                    synth.manifest_hash(loaded_manifest) == synth.manifest_hash(manifest)
                    and _same_samples(made, loaded),
                    f"dataset {calls} (seed {call_seed}) does not load back bit-exactly",
                )
                if calls == 0:
                    bytes_written = sum(f.stat().st_size for f in out.iterdir())
                shutil.rmtree(out)
            calls += 1
        loop_s = time.perf_counter() - start - checks.seconds

    n = calls * sizes.synth_samples
    return Result(
        setup_s=setup_s,
        loop_s=loop_s,
        samples=n,
        step_ms=synth_ms,
        io_ms=load_ms,
        checks=checks,
        named={
            "synth_samples_per_s": (
                rate(n, sum(synth_ms) / 1e3), "samples/s", f"{calls} datasets of {sizes.synth_samples}"
            ),
            "dataset_load_samples_per_s": (rate(n, sum(load_ms) / 1e3), "samples/s", f"{calls} loads"),
        },
        facts={"bytes_written": bytes_written},
    )


WORKLOADS = {
    "pretrain": run_pretrain_workload,
    "finetune_eval": run_finetune_eval,
    "synth_io": run_synth_io,
}
