"""Acceptance suite: eight go/no-go criteria, one test per criterion.

Each test prints a single summary line with the measured values and asserts
its own wall-clock budget. Where a criterion needs training, the setup lives
in module fixtures whose build time is charged against the budgets of the
tests that use them.
"""

import copy
import dataclasses
import io
import json
import math
import os
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from grad_oracle import grad_check
from routing_replay import recorded, replayed
from misac import tensor as tt
from misac.checkpoint import load_checkpoint, save_checkpoint
from misac.cli import main as cli_main
from misac.config import desk_config
from misac.downstream import (
    TASKS,
    FinetuneModel,
    FinetuneSettings,
    estimation_mask,
    evaluate,
    nmse_db,
    prediction_mask,
    run_finetune,
)
from misac.encoder import ExpertPool, PoolStats, _dispatch
from misac.pretrain import (
    MaskScheme,
    PretrainModel,
    PretrainSettings,
    Tensor,
    contrastive_loss,
    load_balance_loss,
    mask_loss,
    prepare_step_inputs,
    run_pretrain,
    sample_mask,
    step_objective,
    total_loss,
)
from misac.synth import RadarParams, Scatterer, SceneSpec, synth_dataset
from misac.synth import C_LIGHT, radar_cube, range_angle_map, range_velocity_map
from misac.tokenizer import Modality, ModalitySpec, patchify

DESK = desk_config()


def _halving_step(losses: list[float], threshold: float) -> int | None:
    return next((i for i, l in enumerate(losses) if l <= threshold), None)


# ---------------------------------------------------------------------------
# trained fixtures (shared; build time charged to the tests that use them)


@pytest.fixture(scope="module")
def tiny_overfit():
    """Fixed 8-sample batch and a model small enough to memorize it: the full
    pipeline with reduced grids (CSI 8x16, radar/map 32x32)."""
    t0 = time.perf_counter()
    model_cfg = dataclasses.replace(
        DESK.model, csi_height=8, csi_width=16, map_size=32, radar_size=32
    )
    synth_cfg = dataclasses.replace(
        DESK.data.synth_config(model_cfg),
        radar=dataclasses.replace(RadarParams(), out_size=32),
    )
    samples, _ = synth_dataset(synth_cfg, 8, seed=5)
    model = PretrainModel(
        model_cfg.encoder_config(),
        model_cfg.tokenizer_config(),
        np.random.default_rng(0),
        decoder_blocks=model_cfg.decoder_blocks,
    )
    cfg = PretrainSettings(steps=200, batch_size=8, modality_dropout=0.0, snr_range=None)
    history, _, _ = run_pretrain(model, samples, cfg, seed=7)
    return {
        "model_cfg": model_cfg,
        "synth_cfg": synth_cfg,
        "samples": samples,
        "model": model,
        "history": history,
        "build": time.perf_counter() - t0,
    }


# the fine-tune that criteria 6 and 7(a) run from the tiny_overfit model
OVERFIT_FINETUNE = FinetuneSettings(steps=100, batch_size=8, lr_max=3e-3)


def _overfit_losses(tiny_overfit, task: str) -> list[float]:
    """The step losses of an OVERFIT_FINETUNE run of task from a copy of the
    tiny_overfit model, on its batch."""
    model = FinetuneModel(
        copy.deepcopy(tiny_overfit["model"]),
        task,
        np.random.default_rng(3),
        n_beams=tiny_overfit["synth_cfg"].n_beams,
    )
    return [h["loss"] for h in run_finetune(model, tiny_overfit["samples"], OVERFIT_FINETUNE, seed=11)]


@pytest.fixture(scope="module")
def pretrained_channel_prediction(tiny_overfit):
    """The channel_prediction fine-tune from the pretrained tiny_overfit
    model, which criterion 6 checks for halving and criterion 7(a) races
    against a scratch init."""
    t0 = time.perf_counter()
    losses = _overfit_losses(tiny_overfit, "channel_prediction")
    return {"losses": losses, "build": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def desk_pretrained():
    """Desk-preset model pretrained with modality dropout on static scenes
    without a line-of-sight path, so the radar map carries the angle of the
    dominant propagation path."""
    t0 = time.perf_counter()
    synth_cfg = dataclasses.replace(
        DESK.data.synth_config(DESK.model), speed=(0.0, 0.0), include_los=False
    )
    samples, _ = synth_dataset(synth_cfg, 8, seed=42)
    model = PretrainModel(
        DESK.model.encoder_config(),
        DESK.model.tokenizer_config(),
        np.random.default_rng(0),
        decoder_blocks=DESK.model.decoder_blocks,
    )
    cfg = PretrainSettings(steps=150, batch_size=8)  # dropout and noise on
    run_pretrain(model, samples, cfg, seed=7)
    return {
        "synth_cfg": synth_cfg,
        "samples": samples,
        "model": model,
        "build": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------------------
# criterion 1: gradient integrity


def _primitive_checks(rng) -> dict[str, float]:
    """Max relative gradient error for every differentiable primitive at a
    generic point."""
    errs: dict[str, float] = {}

    def check(name, make):
        params, f = make()
        errs[name] = grad_check(f, params, h=1e-5, rng=rng)

    def p(shape, positive=False):
        data = rng.standard_normal(shape)
        if positive:
            data = np.abs(data) + 0.5
        return Tensor(data, requires_grad=True)

    def scalarize(x):
        return tt.tsum(tt.mul(x, x))

    a35, b35, b53 = p((3, 5)), p((3, 5)), p((5, 3))
    check("add", lambda: ([a35, b35], lambda: scalarize(tt.add(a35, b35))))
    check("sub", lambda: ([a35, b35], lambda: scalarize(tt.sub(a35, b35))))
    check("mul", lambda: ([a35, b35], lambda: scalarize(tt.mul(a35, b35))))
    check("matmul", lambda: ([a35, b53], lambda: scalarize(tt.matmul(a35, b53))))
    check("transpose", lambda: ([a35], lambda: scalarize(tt.transpose(a35, (1, 0)))))
    check("concat", lambda: ([a35, b35], lambda: scalarize(tt.concat([a35, b35], axis=0))))
    idx = np.array([0, 2])
    check("gather_rows", lambda: ([a35], lambda: scalarize(tt.gather_rows(a35, idx))))
    vals = p((3, 5))
    base = p((4, 5))
    check(
        "index_add",
        lambda: ([base, vals], lambda: scalarize(tt.index_add(base, np.array([0, 2, 3]), vals))),
    )
    last = np.array([[1], [4], [0]])
    check("take_along_last", lambda: ([a35], lambda: scalarize(tt.take_along_last(a35, last))))
    w32 = p((3, 2))
    check("tsum", lambda: ([a35], lambda: tt.square(tt.tsum(a35))))
    check("tmean_axis", lambda: ([a35], lambda: scalarize(tt.tmean(a35, axis=0))))
    check("exp", lambda: ([a35], lambda: scalarize(tt.exp(a35))))
    pos = p((3, 5), positive=True)
    check("log", lambda: ([pos], lambda: scalarize(tt.log(pos))))
    check("square", lambda: ([a35], lambda: scalarize(tt.square(a35))))
    check("gelu", lambda: ([a35], lambda: scalarize(tt.gelu(a35))))
    check("softmax", lambda: ([a35], lambda: scalarize(tt.mul(tt.softmax(a35), b35))))
    q54, k54, v54 = p((5, 4)), p((5, 4)), p((5, 4))
    check(
        "scaled_dot_product_attention",
        lambda: ([q54, k54, v54], lambda: scalarize(tt.scaled_dot_product_attention(q54, k54, v54, 2))),
    )
    gain = p((5,))
    check("rmsnorm", lambda: ([a35, gain], lambda: scalarize(tt.rmsnorm(a35, gain))))
    check("logsumexp_rows", lambda: ([a35], lambda: scalarize(tt.logsumexp_rows(a35))))
    w, b = p((5, 4)), p((4,))
    check("matmul_bias", lambda: ([a35, w, b], lambda: scalarize(tt.matmul(a35, w, bias=b))))
    ws, bs = [p((5, 4)) for _ in range(3)], [p((4,)) for _ in range(3)]
    offsets = np.array([0, 2, 2, 3])  # a two-row, an empty and a single-row group
    check(
        "grouped_linear",
        lambda: ([a35, *ws, *bs], lambda: scalarize(tt.grouped_linear(a35, ws, bs, offsets))),
    )
    # three tokens at k = 2: pairs[place] is the place's flat (token * 2 +
    # slot) index, in the expert-sorted order encoder._dispatch builds
    pairs = np.array([0, 2, 3, 4, 1, 5])
    check("dispatch_rows", lambda: ([a35], lambda: scalarize(tt.dispatch_rows(a35, pairs))))
    out65 = p((6, 5))
    check(
        "combine_rows",
        lambda: ([out65, w32], lambda: scalarize(tt.combine_rows(out65, w32, pairs))),
    )
    row5 = p((5,))
    check("tile_rows", lambda: ([row5], lambda: scalarize(tt.mul(tt.tile_rows(row5, 3), a35))))
    return errs


def test_criterion_1_gradient_integrity():
    t0 = time.perf_counter()
    prim = _primitive_checks(np.random.default_rng(2))
    worst_prim = max(prim.values())
    assert worst_prim < 1e-7, f"primitive gradients: {prim}"

    model = PretrainModel(
        DESK.model.encoder_config(),
        DESK.model.tokenizer_config(),
        np.random.default_rng(0),
        decoder_blocks=DESK.model.decoder_blocks,
    )
    synth_cfg = DESK.data.synth_config(DESK.model)
    samples, _ = synth_dataset(synth_cfg, 2, seed=5)
    cfg = PretrainSettings(modality_dropout=0.0, snr_range=None)
    inputs = prepare_step_inputs(samples, model, cfg, np.random.default_rng(1))
    with recorded() as sels:
        step_objective(model, inputs, cfg)

    def objective():
        with replayed(sels):
            return step_objective(model, inputs, cfg).total

    params = list(model.named_params().values())
    err = grad_check(objective, params, h=1e-5, coords_per_param=1,
                     rng=np.random.default_rng(3))
    elapsed = time.perf_counter() - t0
    assert err < 1e-4, f"full-objective gradient error {err}"
    assert elapsed < 120.0
    print(
        f"[criterion 1] gradient integrity: PASS "
        f"(objective rel err {err:.2e} < 1e-4 over {len(params)} tensors, "
        f"worst primitive {worst_prim:.2e} < 1e-7, {elapsed:.0f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 2: FFT maps against a naive DFT oracle


def _dft2_oracle(x: np.ndarray, size: int) -> np.ndarray:
    def dft_matrix(n_in):
        k = np.arange(size)[:, None]
        n = np.arange(n_in)[None, :]
        return np.exp(-2j * np.pi * k * n / size)

    return dft_matrix(x.shape[0]) @ x @ dft_matrix(x.shape[1]).T


def _one_scatterer(position, velocity=(0.0, 0.0), rx=(-80.0, 0.0, 10.0)):
    return SceneSpec(
        scatterers=(Scatterer(position=position, reflectivity=1.0, velocity=velocity),),
        tx_position=(0.0, 0.0, 2.0),
        rx_position=rx,
    )


def test_criterion_2_radar_map_oracle():
    t0 = time.perf_counter()
    params = RadarParams(n_rx=8, n_chirp=8, n_samp=16)
    scene = SceneSpec(
        scatterers=(
            Scatterer(position=(-20.0, 15.0, 8.0), reflectivity=0.9, velocity=(4.0, -2.0)),
            Scatterer(position=(10.0, -30.0, 3.0), reflectivity=0.5, velocity=(-6.0, 1.0)),
            Scatterer(position=(-55.0, -5.0, 12.0), reflectivity=0.7, velocity=(0.0, 9.0)),
        ),
        tx_position=(0.0, 0.0, 2.0),
        rx_position=(-80.0, 0.0, 10.0),
    )
    cube = radar_cube(scene, params)
    data = cube.data
    assert data.shape == (8, 8, 16)
    size = params.out_size

    ra = range_angle_map(cube)
    want_ra = np.mean([_dft2_oracle(data[:, c, :], size) for c in range(8)], axis=0)
    err_ra = np.abs(ra - want_ra).max() / np.abs(want_ra).max()
    assert err_ra < 1e-9

    rv = range_velocity_map(cube)
    want_rv = np.mean([_dft2_oracle(data[m, :, :], size) for m in range(8)], axis=0)
    err_rv = np.abs(rv - want_rv).max() / np.abs(want_rv).max()
    assert err_rv < 1e-9

    # single scatterer placed so range, angle, and Doppler land on exact bins
    defaults = RadarParams()
    size = defaults.out_size
    k_r, k_a = 11, 8
    r = k_r * defaults.sample_rate * C_LIGHT / (2.0 * defaults.slope * size)
    theta = math.asin(k_a / (defaults.spacing * size))
    rx = (-80.0, 0.0, 10.0)
    pos = (rx[0] + r * math.cos(theta), rx[1] + r * math.sin(theta), rx[2])
    ra1 = range_angle_map(radar_cube(_one_scatterer(pos, rx=rx), defaults))
    peak_ra = np.unravel_index(np.argmax(np.abs(ra1)), ra1.shape)
    assert peak_ra == (k_a, k_r)

    k_r2, k_v = 20, 5
    r2 = k_r2 * defaults.sample_rate * C_LIGHT / (2.0 * defaults.slope * size)
    v = k_v * C_LIGHT / (2.0 * defaults.carrier * defaults.chirp_period * size)
    pos2 = (rx[0] + r2, rx[1], rx[2])
    rv1 = range_velocity_map(radar_cube(_one_scatterer(pos2, velocity=(v, 0.0), rx=rx), defaults))
    peak_rv = np.unravel_index(np.argmax(np.abs(rv1)), rv1.shape)
    assert peak_rv == (k_v, k_r2)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"[criterion 2] radar map oracle: PASS "
        f"(RA err {err_ra:.1e}, RV err {err_rv:.1e} < 1e-9; peaks {peak_ra}, {peak_rv} exact; "
        f"{elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 3: routing laws


def test_criterion_3_routing_laws():
    t0 = time.perf_counter()
    enc = DESK.model.encoder_config()
    K, k = enc.n_experts, enc.top_k
    assert (K, k) == (8, 4)
    pool = ExpertPool(np.random.default_rng(0), enc, enc.d)
    n = 10_000
    x = Tensor(np.random.default_rng(1).standard_normal((n, enc.d)))
    logits = pool.gate(x)
    part = np.zeros(n, dtype=np.int64)  # every row in the one pool
    _, w, sel = _dispatch(pool.experts, x, logits, part, k)

    # the dispatch routes each row by its k weights over k distinct experts;
    # every other expert's weight is exactly zero
    w = w.data
    row_sums = w.sum(axis=1)
    assert np.abs(row_sums - 1.0).max() < 1e-9
    support = np.array([np.unique(s[ws != 0]).size for s, ws in zip(sel, w)])
    assert np.all(support == k)

    imp = np.bincount(sel.reshape(-1), weights=w.reshape(-1), minlength=K) / n
    assert abs(imp.sum() - 1.0) < 1e-9
    load = np.bincount(sel.reshape(-1), minlength=K) / n
    assert abs(load.sum() - k) < 1e-9

    # rotating selection with equal weights realizes perfectly uniform routing
    sel = (np.arange(n)[:, None] + np.arange(k)[None, :]) % K
    uniform = PoolStats(0, ("csi",), part, Tensor(np.full((n, k), 1.0 / k)), sel)
    lb = load_balance_loss([uniform], K).item()
    assert abs(lb - k / K**2) < 1e-6 and abs(lb - 0.0625) < 1e-6

    # with k = K the sparse path must reproduce the dense softmax mixture
    y_full, _, _ = _dispatch(pool.experts, x, logits, part, K)
    soft = tt.softmax(logits).data
    want = np.zeros_like(y_full.data)
    for e in range(K):
        want += soft[:, e : e + 1] * pool.experts[e](x).data
    err_dense = np.abs(y_full.data - want).max()
    assert err_dense < 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"[criterion 3] routing laws: PASS "
        f"(row sums 1±{np.abs(row_sums - 1.0).max():.1e}, support {k}, "
        f"uniform balance {lb:.6f}=k/K², dense match {err_dense:.1e}; {elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 4: masking laws


def test_criterion_4_masking_laws():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    comb = sample_mask(MaskScheme("comb", spacing=4), ModalitySpec(4, 32, (1, 1)), rng)
    visible_cols = np.flatnonzero(~comb.omega.any(axis=0))
    masked_cols = np.flatnonzero(comb.omega.all(axis=0))
    assert visible_cols.size == 8
    assert visible_cols.size + masked_cols.size == 32
    np.testing.assert_array_equal(visible_cols, np.arange(0, 32, 4))

    random_half = sample_mask(MaskScheme("random", ratio=0.5), ModalitySpec(8, 16, (1, 1)), rng)
    assert random_half.omega.size == 128
    assert random_half.masked.size == 64

    # loss must not react to ground truth outside the masked support; the
    # pixel mask is the token mask spread over each 2 x 2 patch
    layout = ModalitySpec(8, 8, (2, 2))
    spec = sample_mask(MaskScheme("random", ratio=0.5), layout, rng)
    target = np.random.default_rng(1).standard_normal((8, 8, 2))
    recon = Tensor(patchify(np.random.default_rng(2).standard_normal((8, 8, 2)), layout))
    base, _ = mask_loss({Modality.CSI: recon}, {Modality.CSI: patchify(target, layout)}, {Modality.CSI: spec})

    pixel_mask = np.kron(spec.omega, np.ones((2, 2), dtype=bool))
    outside = np.argwhere(~pixel_mask)
    inside = np.argwhere(pixel_mask)
    bumped = target.copy()
    for r, c in outside:
        bumped[r, c, :] += 7.0
    same, _ = mask_loss(
        {Modality.CSI: Tensor(recon.data)}, {Modality.CSI: patchify(bumped, layout)}, {Modality.CSI: spec}
    )
    assert same.item() == base.item()

    bumped_in = target.copy()
    bumped_in[inside[0][0], inside[0][1], 0] += 7.0
    changed, _ = mask_loss(
        {Modality.CSI: Tensor(recon.data)}, {Modality.CSI: patchify(bumped_in, layout)}, {Modality.CSI: spec}
    )
    assert changed.item() != base.item()

    # the masked count follows each mask's patch, for every scheme and task
    # mask, on the desk CSI layout and on one cut by (2, 4) patches
    desk_csi = DESK.model.tokenizer_config().spec(Modality.CSI)
    for layout in (desk_csi, ModalitySpec(16, 32, (2, 4))):
        (ph, pw), shape = layout.patch, (layout.height, layout.width, Modality.CSI.channels)
        schemes = (MaskScheme("random", ratio=0.3), MaskScheme("frequency", ratio=0.3), MaskScheme("comb", spacing=8))
        masks = [sample_mask(s, layout, rng) for s in schemes] + [prediction_mask(layout), estimation_mask(layout)]
        for mask in masks:
            pixels = np.kron(mask.omega, np.ones((ph, pw), dtype=bool))
            assert pixels.shape == shape[:2]
            assert pixels.sum() == mask.masked.size * ph * pw
            zeros = patchify(np.zeros(shape), layout)
            _, count = mask_loss({Modality.CSI: Tensor(zeros)}, {Modality.CSI: zeros}, {Modality.CSI: mask})
            assert count == pixels.sum() * Modality.CSI.channels

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"[criterion 4] masking laws: PASS "
        f"(comb/4 on 32 cols -> {visible_cols.size} visible, r=0.5 on 128 -> "
        f"{random_half.masked.size} masked, loss blind outside the mask; {elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 5: loss identities


def test_criterion_5_loss_identities():
    t0 = time.perf_counter()
    b = 8
    z = np.random.default_rng(0).standard_normal(16)
    anchors = [Tensor(z[None].copy()) for _ in range(b)]
    others = {Modality.RADAR: [Tensor(z[None].copy()) for _ in range(b)]}
    info = contrastive_loss(anchors, others, tau=0.07).item()
    assert abs(info - math.log(b)) < 1e-9

    total = total_loss(Tensor(1.0), Tensor(2.0), Tensor(0.5)).item()
    assert total == 1.026

    target = np.random.default_rng(1).standard_normal((6, 7))
    nmse = nmse_db(0.5 * target, target)
    assert abs(nmse - (-6.0206)) < 1e-3

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(
        f"[criterion 5] loss identities: PASS "
        f"(InfoNCE {info:.12f}=log {b}, total {total}, half-amplitude {nmse:.4f} dB; "
        f"{elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 6: tiny-overfit


def test_criterion_6_tiny_overfit(tiny_overfit, pretrained_channel_prediction):
    t0 = time.perf_counter()
    losses = [h["loss"] for h in tiny_overfit["history"]]
    assert len(losses) <= 200
    pre_cross = _halving_step(losses, 0.5 * losses[0])
    assert pre_cross is not None, f"pre-training never halved {losses[0]:.4f}"

    crossings = {}
    for task in TASKS:
        if task == "channel_prediction":
            task_losses = pretrained_channel_prediction["losses"]
        else:
            task_losses = _overfit_losses(tiny_overfit, task)
        crossings[task] = _halving_step(task_losses, 0.5 * task_losses[0])
        assert crossings[task] is not None, f"{task} never halved {task_losses[0]:.4f}"

    elapsed = time.perf_counter() - t0 + tiny_overfit["build"] + pretrained_channel_prediction["build"]
    assert elapsed < 600.0
    summary = ", ".join(f"{t}@{s}" for t, s in crossings.items())
    print(
        f"[criterion 6] tiny-overfit: PASS "
        f"(pre-training halved at step {pre_cross}; finetunes halved at {summary}; "
        f"{elapsed:.0f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 7: directional claims


def test_criterion_7_directional_claims(tiny_overfit, pretrained_channel_prediction, desk_pretrained):
    t0 = time.perf_counter()

    # (a) pretrained init reaches the halving threshold before scratch init
    n_beams = tiny_overfit["synth_cfg"].n_beams
    scratch_base = PretrainModel(
        tiny_overfit["model_cfg"].encoder_config(),
        tiny_overfit["model_cfg"].tokenizer_config(),
        np.random.default_rng(100),
        decoder_blocks=tiny_overfit["model_cfg"].decoder_blocks,
    )
    scratch_model = FinetuneModel(
        scratch_base, "channel_prediction", np.random.default_rng(3), n_beams=n_beams
    )
    pre_losses = pretrained_channel_prediction["losses"]
    scr_losses = [h["loss"] for h in run_finetune(scratch_model, tiny_overfit["samples"], OVERFIT_FINETUNE, seed=11)]
    threshold = 0.5 * scr_losses[0]
    steps_pre = _halving_step(pre_losses, threshold)
    steps_scr = _halving_step(scr_losses, threshold)
    assert steps_pre is not None, "pretrained init never reached the overfit threshold"
    assert steps_scr is None or steps_pre < steps_scr, (steps_pre, steps_scr)

    # (b) with noisy CSI, radar and map cut the angle error
    mm_cfg = FinetuneSettings(steps=100, batch_size=8, lr_max=1e-3, snr_range=(5.0, 15.0))
    co_cfg = dataclasses.replace(mm_cfg, drop=("radar", "map"))
    beams = desk_pretrained["synth_cfg"].n_beams
    ft_mm = FinetuneModel(copy.deepcopy(desk_pretrained["model"]), "aoa_estimation",
                          np.random.default_rng(3), n_beams=beams)
    ft_co = FinetuneModel(copy.deepcopy(desk_pretrained["model"]), "aoa_estimation",
                          np.random.default_rng(3), n_beams=beams)
    run_finetune(ft_mm, desk_pretrained["samples"], mm_cfg, seed=11)
    run_finetune(ft_co, desk_pretrained["samples"], co_cfg, seed=11)
    mae_mm = evaluate(ft_mm, desk_pretrained["samples"], mm_cfg, seed=13)["mae_rad"]
    mae_co = evaluate(ft_co, desk_pretrained["samples"], co_cfg, seed=13)["mae_rad"]
    assert mae_mm <= mae_co, (mae_mm, mae_co)

    # (c) dropping the map at inference stays within 6 dB on reconstruction
    cp_cfg = FinetuneSettings(steps=60, batch_size=8, lr_max=1e-3)
    ft_cp = FinetuneModel(copy.deepcopy(desk_pretrained["model"]), "channel_prediction",
                          np.random.default_rng(3), n_beams=beams)
    run_finetune(ft_cp, desk_pretrained["samples"], cp_cfg, seed=11)
    full = evaluate(ft_cp, desk_pretrained["samples"], cp_cfg, seed=13)["nmse_db"]
    dropped = evaluate(
        ft_cp, desk_pretrained["samples"], dataclasses.replace(cp_cfg, drop=("map",)), seed=13
    )["nmse_db"]
    degradation = dropped - full
    assert degradation < 6.0, (full, dropped)

    elapsed = (time.perf_counter() - t0 + tiny_overfit["build"] + pretrained_channel_prediction["build"]
               + desk_pretrained["build"])
    assert elapsed < 900.0
    print(
        f"[criterion 7] directional claims: PASS "
        f"(init gap {steps_pre} vs {steps_scr} steps; AoA MAE {mae_mm:.4f} <= {mae_co:.4f} rad; "
        f"map-drop {degradation:+.2f} dB < 6 dB; {elapsed:.0f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 8: determinism and persistence


AC8_CONFIG = {
    "model": {"d": 16, "n_heads": 2, "n_layers": 1, "n_experts": 4, "top_k": 2},
    "data": {"n_samples": 4, "seed": 11},
    "pretrain": {"steps": 4, "batch_size": 2, "save_every": 2},
    "finetune": {"task": "beam_selection", "steps": 3, "batch_size": 2},
}


def _run_pipeline(workdir) -> str:
    """synth -> pretrain -> finetune -> eval with relative paths, returning
    the concatenated machine-readable output."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with open("cfg.json", "w") as fh:
            json.dump(AC8_CONFIG, fh)
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli_main(["synth", "--config", "cfg.json", "--out", "data"]) == 0
            assert cli_main(["pretrain", "--config", "cfg.json", "--data", "data", "--out", "pre.msck"]) == 0
            assert (
                cli_main(
                    ["finetune", "--config", "cfg.json", "--data", "data",
                     "--checkpoint", "pre.msck", "--out", "ft.msck"]
                )
                == 0
            )
            assert cli_main(["eval", "--config", "cfg.json", "--data", "data", "--checkpoint", "ft.msck"]) == 0
        return buf.getvalue()
    finally:
        os.chdir(cwd)


def test_criterion_8_determinism_and_persistence(tmp_path):
    t0 = time.perf_counter()
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    dir_a.mkdir(), dir_b.mkdir()
    out_a = _run_pipeline(dir_a)
    out_b = _run_pipeline(dir_b)
    assert out_a.encode() == out_b.encode()
    assert (dir_a / "pre.msck").read_bytes() == (dir_b / "pre.msck").read_bytes()
    assert (dir_a / "ft.msck").read_bytes() == (dir_b / "ft.msck").read_bytes()

    ckpt = load_checkpoint(dir_a / "pre.msck")
    save_checkpoint(dir_a / "rt.msck", ckpt)
    assert (dir_a / "rt.msck").read_bytes() == (dir_a / "pre.msck").read_bytes()

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    n_lines = out_a.count("\n")
    print(
        f"[criterion 8] determinism & persistence: PASS "
        f"({n_lines} report lines byte-identical across runs, checkpoint round-trip "
        f"bit-exact; {elapsed:.1f}s)"
    )
