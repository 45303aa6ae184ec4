"""A fourth modality that exists only in this file: a per-antenna
received-power grid |h|^2 computed from the sample's CSI, droppable, and
bound to the CSI anchor. It enters the model only through the
TokenizerConfig built here; no module under src/misac names it."""

import dataclasses

import numpy as np
import pytest

from grad_oracle import grad_check
from routing_replay import recorded, replayed
from misac import tensor as tt
from misac.analysis import routing_table
from misac.config import desk_config
from misac.downstream import FinetuneModel, FinetuneSettings, evaluate, run_finetune
from misac.pretrain import (
    PretrainModel,
    PretrainSettings,
    decode_masked,
    encode_visible,
    mask_loss,
    prepare_step_inputs,
    run_pretrain,
    step_objective,
)
from misac.synth import synth_dataset
from misac.tokenizer import Modality, ModalitySpec, TokenizerConfig, patchify, preprocess


def _prepare_power(csi, spec, cfg):
    power = np.abs(csi.h.data)[..., None] ** 2
    return power * (1.0 / power.mean())


POWER = Modality(3, "power", 1, "csi", _prepare_power, droppable=True)
DESK = desk_config()


def with_power(model_cfg) -> TokenizerConfig:
    tok = model_cfg.tokenizer_config()
    spec = ModalitySpec(model_cfg.csi_height, model_cfg.csi_width, (2, 2))
    return TokenizerConfig(tok.d, {**tok.specs, POWER: spec}, tok.height_scale)


def build(model_cfg, tok_cfg, seed=0) -> PretrainModel:
    return PretrainModel(
        model_cfg.encoder_config(), tok_cfg, np.random.default_rng(seed), decoder_blocks=model_cfg.decoder_blocks
    )


@pytest.fixture(scope="module")
def desk_samples():
    samples, _ = synth_dataset(DESK.data.synth_config(DESK.model), 8, seed=5)
    return samples


def three_modality_outputs(tok_cfg, samples) -> dict[str, np.ndarray]:
    """The fixed desk step's loss and gradients, a 3-step pretrain's
    parameters, and 3-step frozen and full fine-tunes' losses, metrics and
    parameters."""
    cfg = DESK.pretrain.settings()
    out = {}
    model = build(DESK.model, tok_cfg)
    inputs = prepare_step_inputs(samples, model, cfg, np.random.default_rng(1))
    with tt.Tape() as tape:
        loss = step_objective(model, inputs, cfg)
    tt.backward(loss.total, tape)
    out["step.loss"] = loss.total.data
    out.update({f"step.grad.{k}": p.grad for k, p in model.named_params().items() if p.grad is not None})
    model = build(DESK.model, tok_cfg)
    run_pretrain(model, samples, dataclasses.replace(cfg, steps=3), seed=0)
    out.update({f"pre.{k}": p.data.copy() for k, p in model.named_params().items()})
    # the frozen fine-tune leaves the encoder as it is; the full one runs last
    for task, freeze in (("beam_selection", True), ("channel_prediction", False)):
        ft = FinetuneModel(model, task, np.random.default_rng(1), n_beams=16)
        settings = FinetuneSettings(steps=3, batch_size=4, freeze_encoder=freeze)
        losses = [r["loss"] for r in run_finetune(ft, samples, settings, seed=0)]
        metrics = evaluate(ft, samples[:4], settings, seed=0)
        out[f"{task}.losses"] = np.array(losses)
        out[f"{task}.metrics"] = np.array([metrics[k] for k in sorted(metrics)])
        out.update({f"{task}.{k}": p.data.copy() for k, p in ft.named_params().items()})
    return out


def test_absent_fourth_modality_changes_nothing(desk_samples):
    before = three_modality_outputs(DESK.model.tokenizer_config(), desk_samples)
    assert not [k for k in before if "power" in k]
    # a four-modality model runs in between, then the fourth is left out again
    four = with_power(DESK.model)
    run_pretrain(build(DESK.model, four), desk_samples[:2], PretrainSettings(steps=1, batch_size=2), seed=0)
    three = TokenizerConfig(four.d, {m: s for m, s in four.specs.items() if m != POWER}, four.height_scale)
    after = three_modality_outputs(three, desk_samples)
    assert before.keys() == after.keys()
    assert [k for k in before if not np.array_equal(before[k], after[k])] == []


# tiny dims for the present-modality checks: CSI and power 4x16 in 16
# tokens (8 columns), map 16x16 in 16 tokens and radar in 64, so that every
# masking scheme leaves tokens on both sides of the mask
TINY = dataclasses.replace(
    DESK.model, d=16, n_layers=1, n_heads=2, n_experts=2, top_k=1,
    csi_height=4, csi_width=16, map_size=16, radar_size=16, map_patch=(4, 4), radar_patch=(2, 2),
)
TINY_SETTINGS = PretrainSettings(modality_dropout=0.0, snr_range=None)


@pytest.fixture(scope="module")
def tiny_samples():
    cfg = dataclasses.replace(DESK, model=TINY).validate()
    samples, _ = synth_dataset(cfg.data.synth_config(TINY), 4, seed=3)
    return samples


def test_present_fourth_modality_joins_every_part_of_the_model(tiny_samples):
    tok = with_power(TINY)
    assert tok.modalities == (Modality.CSI, Modality.MAP, Modality.RADAR, POWER)
    grid = preprocess(tiny_samples[0], POWER, tok)
    assert grid.shape == (4, 16, 1)
    assert grid.mean() == pytest.approx(1.0, abs=1e-12)  # unit mean power
    power = np.abs(tiny_samples[0].csi.h.data) ** 2
    np.testing.assert_allclose(grid[..., 0], power / power.mean())
    model = build(TINY, tok)
    names = model.named_params()
    assert names["embed.power.w"].shape == (2 * 2 * 1, TINY.d)
    assert {"pos.power", "id.power", "block0.power.gate.w", "decoder.power.out.w", "proj.power.w"} <= set(names)
    inputs = prepare_step_inputs(tiny_samples, model, TINY_SETTINGS, np.random.default_rng(0))
    assert all(POWER in masks for masks in inputs.masks)
    assert {r.pool for r in routing_table(model, tiny_samples[:1])} == {"shared", "csi", "map", "radar", "power"}


def test_present_fourth_modality_objective_passes_grad_check(tiny_samples):
    """As the tiny whole-objective check in test_pretrain: frozen routing,
    parameters bumped off the 0.02-std init so finite differences resolve."""
    model = build(TINY, with_power(TINY))
    params = model.named_params()
    rng = np.random.default_rng(4)
    for p in params.values():
        p.data = p.data + rng.normal(0.0, 0.1, size=p.data.shape)
    inputs = prepare_step_inputs(tiny_samples[:2], model, TINY_SETTINGS, np.random.default_rng(1))
    with recorded() as sels:
        loss = step_objective(model, inputs, TINY_SETTINGS)
    assert loss.n_complete == 2  # both samples bind power to the anchor

    def objective():
        with replayed(sels):
            return step_objective(model, inputs, TINY_SETTINGS).total

    err = grad_check(objective, list(params.values()), h=1e-5, coords_per_param=2, rng=np.random.default_rng(0))
    assert err < 1e-7, f"max rel grad error {err:.3e}"
    assert np.abs(params["proj.power.w"].grad).max() > 0


def power_mask_loss(model, inputs) -> float:
    total = 0.0
    for prepped, masks in zip(inputs.prepped, inputs.masks):
        res = encode_visible(model, prepped, masks)
        recon = decode_masked(model, res, {POWER: masks[POWER]})
        sse, count = mask_loss(recon, {POWER: patchify(prepped[POWER], model.tok_cfg.spec(POWER))}, masks)
        total += sse.item() / count
    return total / len(inputs.prepped)


def test_short_pretrain_lowers_the_fourth_modality_masked_loss(tiny_samples):
    model = build(TINY, with_power(TINY))
    held = prepare_step_inputs(tiny_samples, model, TINY_SETTINGS, np.random.default_rng(9))
    before = power_mask_loss(model, held)
    run_pretrain(model, tiny_samples, dataclasses.replace(TINY_SETTINGS, steps=30, batch_size=4), seed=0)
    after = power_mask_loss(model, held)
    assert after < 0.5 * before, (before, after)
