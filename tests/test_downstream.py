"""Downstream task tests: metric functions against closed forms, task mask
structure, freeze semantics (bit-identical encoder), head gradients against
central differences, and evaluation plumbing."""

import dataclasses
import math

import numpy as np
import pytest

from grad_oracle import grad_check
from grid_oracle import unpatchify
from misac import tensor as tt
from misac.config import config_from_dict, desk_config
from misac.downstream import (
    RECON_TASKS,
    TASKS,
    DownstreamError,
    FinetuneModel,
    FinetuneSettings,
    estimation_mask,
    evaluate,
    finetune_step,
    nmse_db,
    prediction_mask,
    run_finetune,
    sample_loss,
    topk_accuracy,
    wrapped_abs_error,
)
from misac.encoder import EncoderConfig
from misac.pretrain import Adam, PretrainModel, cosine_lr, prepare_sample
from misac.synth import SynthConfig, synth_dataset
from misac.tokenizer import Modality, ModalitySpec, TokenizerConfig, patchify


# ---------------------------------------------------------------------------
# metrics


class TestMetrics:
    def test_nmse_half_amplitude_is_minus_six_db(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(5, 7))
        assert nmse_db(0.5 * t, t) == pytest.approx(10 * math.log10(0.25), abs=1e-9)
        assert nmse_db(0.5 * t, t) == pytest.approx(-6.0205999132, abs=1e-6)

    def test_nmse_scale_invariance(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=(4, 4))
        p = t + rng.normal(size=(4, 4)) * 0.1
        assert nmse_db(3.7 * p, 3.7 * t) == pytest.approx(nmse_db(p, t), abs=1e-12)

    def test_nmse_floor_and_complex_support(self):
        t = np.array([1.0 + 1j, 2.0 - 1j])
        assert nmse_db(t.copy(), t) == -120.0
        tiny = t + 1e-12
        assert nmse_db(tiny, t) >= -120.0

    def test_nmse_zero_target_rejected(self):
        with pytest.raises(DownstreamError):
            nmse_db(np.ones(3), np.zeros(3))

    def test_topk_accuracy_hand_cases(self):
        logits = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        assert topk_accuracy(logits, np.array([2, 0]), 1) == 1.0
        assert topk_accuracy(logits, np.array([0, 2]), 1) == 0.0
        assert topk_accuracy(logits, np.array([0, 2]), 3) == 1.0
        assert topk_accuracy(logits, np.array([1, 1]), 2) == 1.0

    def test_topk_tie_prefers_lower_index(self):
        logits = np.array([[5.0, 5.0, 0.0]])
        assert topk_accuracy(logits, np.array([0]), 1) == 1.0
        assert topk_accuracy(logits, np.array([1]), 1) == 0.0

    def test_wrapped_error(self):
        assert wrapped_abs_error(0.5, 0.2) == pytest.approx(0.3)
        assert wrapped_abs_error(0.2, 0.5) == pytest.approx(0.3)
        assert wrapped_abs_error(3.1, -3.1) == pytest.approx(2 * math.pi - 6.2, abs=1e-12)
        assert wrapped_abs_error(1.0, 1.0) == 0.0


# ---------------------------------------------------------------------------
# task masks


class TestTaskMasks:
    def test_prediction_hides_last_quarter(self):
        spec = prediction_mask(ModalitySpec(16, 32, (2, 2)))
        masked_cols = np.nonzero(spec.omega.all(axis=0))[0]
        assert np.array_equal(masked_cols, [12, 13, 14, 15])
        assert not spec.omega[:, :12].any()
        assert spec.masked.size == 8 * 4

    def test_prediction_masks_at_least_one_column(self):
        spec = prediction_mask(ModalitySpec(2, 2, (1, 1)))
        assert np.array_equal(np.nonzero(spec.omega.all(axis=0))[0], [1])

    def test_estimation_keeps_pilot_comb(self):
        spec = estimation_mask(ModalitySpec(16, 32, (2, 2)))  # PILOT_SPACING is 4
        visible_cols = np.nonzero(~spec.omega.any(axis=0))[0]
        assert np.array_equal(visible_cols, [0, 4, 8, 12])
        assert spec.visible.size == 8 * 4
        assert spec.masked.size == 8 * 12

    def test_estimation_spacing_bounds(self):
        # the comb needs more token columns than its spacing of 4
        for cols in (1, 3, 4):
            with pytest.raises(DownstreamError, match="pilot spacing"):
                estimation_mask(ModalitySpec(8, cols, (1, 1)))
        visible_cols = np.nonzero(~estimation_mask(ModalitySpec(8, 5, (1, 1))).omega.any(axis=0))[0]
        assert np.array_equal(visible_cols, [0, 4])

    def test_recon_tasks_table_builds_each_task_mask(self):
        assert RECON_TASKS == {"channel_prediction": prediction_mask, "channel_estimation": estimation_mask}
        for task, build in RECON_TASKS.items():
            model = make_model(task)
            want = build(model.pretrained.tok_cfg.spec(Modality.CSI))
            np.testing.assert_array_equal(model.mask.omega, want.omega)
        assert make_model("beam_selection").mask is None


# ---------------------------------------------------------------------------
# model wiring on synthetic data


@pytest.fixture(scope="module")
def samples():
    data, _ = synth_dataset(SynthConfig(), 4, seed=321)
    return data


def small_pretrained(seed: int = 0) -> PretrainModel:
    tok = TokenizerConfig(
        d=16,
        specs={
            Modality.CSI: ModalitySpec(16, 32, (2, 2)),
            Modality.MAP: ModalitySpec(64, 64, (8, 8)),
            Modality.RADAR: ModalitySpec(64, 64, (8, 8)),
        },
    )
    enc = EncoderConfig(d=16, n_layers=1, n_heads=2, n_experts=4, top_k=2)
    return PretrainModel(enc, tok, np.random.default_rng(seed), decoder_blocks=1)


def make_model(task: str, seed: int = 0) -> FinetuneModel:
    return FinetuneModel(small_pretrained(seed), task, np.random.default_rng(seed + 1))


class TestModelWiring:
    def test_unknown_task_rejected(self):
        with pytest.raises(DownstreamError):
            FinetuneModel(small_pretrained(), "beam_steering", np.random.default_rng(0))

    def test_head_shapes_per_task(self):
        assert make_model("channel_prediction").head is None
        assert make_model("channel_estimation").head is None
        assert make_model("beam_selection").head.fc2.w.shape == (16, 16)
        assert make_model("localization").head.fc2.w.shape == (16, 1)
        assert make_model("aoa_estimation").head.fc2.w.shape == (16, 2)

    def test_named_params_include_head(self):
        names = set(make_model("beam_selection").named_params())
        assert "head.fc1.w" in names and "head.fc2.b" in names
        assert "block0.shared.gate.w" in names

    def test_trainable_params_under_freeze(self):
        model = make_model("beam_selection")
        frozen = model.trainable_params(freeze_encoder=True)
        assert set(frozen) == {"head.fc1.w", "head.fc1.b", "head.fc2.w", "head.fc2.b"}
        recon = make_model("channel_prediction")
        keep = recon.trainable_params(freeze_encoder=True)
        assert keep and all(k.startswith("decoder.csi.") for k in keep)
        assert len(recon.trainable_params(False)) == len(recon.named_params())

    def test_prep_respects_drops(self, samples):
        pre = small_pretrained()
        full = prepare_sample(samples[0], pre.tok_cfg)
        assert set(full) == {Modality.CSI, Modality.MAP, Modality.RADAR}
        csi_only = prepare_sample(samples[0], pre.tok_cfg, drop=("map", "radar"))
        assert set(csi_only) == {Modality.CSI}
        model = FinetuneModel(pre, "beam_selection", np.random.default_rng(1))
        with pytest.raises(DownstreamError):
            sample_loss(model, samples[0], FinetuneSettings(drop=("csi", "map", "radar")))

    def test_estimation_on_a_narrow_csi_grid_fails_at_construction(self):
        # an 8 x 4 CSI token grid validates, but leaves no room for the
        # pilot comb of spacing 4; the model refuses it before any step
        cfg = config_from_dict({"model": {"csi_width": 8}})
        pre = PretrainModel(cfg.model.encoder_config(), cfg.model.tokenizer_config(), np.random.default_rng(0))
        with pytest.raises(DownstreamError, match="pilot spacing"):
            FinetuneModel(pre, "channel_estimation", np.random.default_rng(1))
        assert FinetuneModel(pre, "channel_prediction", np.random.default_rng(1)).mask.masked.size

    def test_snr_injection_requires_rng(self, samples):
        model = make_model("beam_selection")
        cfg = FinetuneSettings(snr_range=(10.0, 25.0))
        with pytest.raises(DownstreamError):
            sample_loss(model, samples[0], cfg, rng=None)


class TestLossesAndTraining:
    def test_every_task_produces_finite_loss(self, samples):
        cfg = FinetuneSettings()
        for task in (
            "channel_prediction",
            "channel_estimation",
            "beam_selection",
            "localization",
            "aoa_estimation",
        ):
            loss, aux = sample_loss(make_model(task), samples[0], cfg)
            assert np.isfinite(loss.item()) and loss.item() >= 0.0
            assert aux

    def test_recon_nmse_is_the_raw_domain_nmse(self, samples):
        # each sample is scored on the token rows of its unit-power grid; NMSE
        # is blind to that common scale and to the order of the elements
        cfg = FinetuneSettings()
        for task in ("channel_prediction", "channel_estimation"):
            model = make_model(task)
            layout = model.pretrained.tok_cfg.spec(Modality.CSI)
            scored = ...
            if task == "channel_prediction":
                scored = np.kron(model.mask.omega, np.ones(layout.patch, dtype=bool))  # its CSI pixels
            raw = []
            for s in samples:
                h = s.csi.h.data
                scale = 1.0 / np.sqrt(np.mean(np.abs(h) ** 2))
                _, aux = sample_loss(model, s, cfg)
                target = np.stack([h.real, h.imag], axis=-1)
                np.testing.assert_allclose(aux["target"] / scale, patchify(target, layout), rtol=1e-12)
                recon = unpatchify(tt.Tensor(aux["recon"]), layout, 2).data
                raw.append(nmse_db(recon[scored] / scale, target[scored]))
            assert evaluate(model, samples, cfg)["nmse_db"] == pytest.approx(np.mean(raw), rel=1e-12)

    def test_batch_loss_is_mean_of_sample_losses(self, samples):
        model = make_model("beam_selection")
        cfg = FinetuneSettings()
        singles = [sample_loss(model, s, cfg)[0].item() for s in samples[:2]]
        from misac.pretrain import Adam

        opt = Adam(model.trainable_params(False))
        got = finetune_step(model, samples[:2], opt, cfg, np.random.default_rng(0), lr=0.0)
        assert got == pytest.approx(np.mean(singles), abs=1e-12)

    def test_freeze_keeps_encoder_bit_identical(self, samples):
        model = make_model("beam_selection")
        cfg = FinetuneSettings(steps=2, batch_size=2, freeze_encoder=True, lr_max=1e-3)
        enc_before = {k: p.data.copy() for k, p in model.pretrained.encoder.named_params().items()}
        head_before = {k: p.data.copy() for k, p in model.head.named("head")}
        run_finetune(model, samples, cfg, seed=0)
        enc_after = model.pretrained.encoder.named_params()
        assert all(np.array_equal(enc_before[k], enc_after[k].data) for k in enc_before)
        assert any(
            not np.array_equal(head_before[k], dict(model.head.named("head"))[k].data)
            for k in head_before
        )

    def test_freeze_on_recon_trains_decoder_only(self, samples):
        model = make_model("channel_estimation")
        cfg = FinetuneSettings(steps=1, batch_size=2, freeze_encoder=True)
        before = {k: p.data.copy() for k, p in model.named_params().items()}
        run_finetune(model, samples, cfg, seed=0)
        after = model.named_params()
        for k in before:
            same = np.array_equal(before[k], after[k].data)
            if k.startswith("decoder.csi."):
                continue  # may move
            assert same, f"{k} changed under freeze"
        moved = [k for k in before if not np.array_equal(before[k], after[k].data)]
        assert moved and all(k.startswith("decoder.csi.") for k in moved)

    @pytest.mark.parametrize("task", ["beam_selection", "channel_prediction"])
    def test_frozen_encoder_is_not_taped(self, samples, task):
        cfg = FinetuneSettings(steps=2, batch_size=2, freeze_encoder=True)
        model = make_model(task)
        history = run_finetune(model, samples, cfg, seed=0)
        trainable = model.trainable_params(True)
        for name, p in model.named_params().items():
            assert p.requires_grad, f"{name} left untracked"
            if name not in trainable:
                assert p.grad is None, f"{name} was taped"

        # the same steps with every parameter tracked, as finetune_step alone runs them
        taped = make_model(task)
        opt = Adam(taped.trainable_params(True))
        rng = np.random.default_rng(0)
        losses = []
        for step in range(cfg.steps):
            batch = [samples[(2 * step + j) % len(samples)] for j in range(2)]
            lr = cosine_lr(step, cfg.steps, cfg.lr_min, cfg.lr_max)
            losses.append(finetune_step(taped, batch, opt, cfg, rng, lr))
        assert taped.named_params()["block0.attn.q.w"].grad is not None
        assert [r["loss"] for r in history] == losses
        assert evaluate(model, samples, cfg) == evaluate(taped, samples, cfg)

    def test_unfrozen_training_moves_encoder(self, samples):
        model = make_model("localization")
        cfg = FinetuneSettings(steps=1, batch_size=2, freeze_encoder=False)
        before = {k: p.data.copy() for k, p in model.pretrained.encoder.named_params().items()}
        run_finetune(model, samples, cfg, seed=0)
        after = model.pretrained.encoder.named_params()
        assert any(not np.array_equal(before[k], after[k].data) for k in before)

    def test_head_gradients_match_central_differences(self, samples):
        model = make_model("beam_selection")
        cfg = FinetuneSettings()
        sample = samples[0]

        def f():
            loss, _ = sample_loss(model, sample, cfg)
            return loss

        head_params = [p for _, p in model.head.named("head")]
        err = grad_check(f, head_params, h=1e-5, coords_per_param=3,
                         rng=np.random.default_rng(0))
        assert err < 1e-7, f"max rel grad error {err:.3e}"

    def test_training_reduces_loss(self, samples):
        model = make_model("beam_selection")
        cfg = FinetuneSettings(steps=10, batch_size=2, freeze_encoder=True, lr_max=3e-3)
        history = run_finetune(model, samples[:2], cfg, seed=0)
        assert history[-1]["loss"] < history[0]["loss"]

    def test_run_is_deterministic(self, samples):
        cfg = FinetuneSettings(steps=2, batch_size=2)
        h1 = run_finetune(make_model("aoa_estimation", 5), samples, cfg, seed=1)
        h2 = run_finetune(make_model("aoa_estimation", 5), samples, cfg, seed=1)
        assert h1 == h2


class TestEvaluate:
    def test_beam_metrics(self, samples):
        out = evaluate(make_model("beam_selection"), samples, FinetuneSettings())
        assert set(out) == {"loss", "top1", "top3"}
        assert 0.0 <= out["top1"] <= out["top3"] <= 1.0

    def test_localization_metrics(self, samples):
        out = evaluate(make_model("localization"), samples, FinetuneSettings())
        assert set(out) == {"loss", "mae_m", "rmse_m"}
        assert out["rmse_m"] >= out["mae_m"] >= 0.0

    def test_aoa_metrics(self, samples):
        out = evaluate(make_model("aoa_estimation"), samples, FinetuneSettings())
        assert out["mae_deg"] == pytest.approx(math.degrees(out["mae_rad"]))
        assert 0.0 <= out["mae_rad"] <= math.pi

    def test_recon_metrics(self, samples):
        for task in ("channel_prediction", "channel_estimation"):
            out = evaluate(make_model(task), samples, FinetuneSettings())
            assert set(out) == {"loss", "nmse_db"}
            assert np.isfinite(out["nmse_db"]) and out["nmse_db"] >= -120.0

    def test_eval_is_deterministic_under_snr_injection(self, samples):
        model = make_model("aoa_estimation")
        cfg = FinetuneSettings(snr_range=(10.0, 25.0))
        a = evaluate(model, samples, cfg, seed=7)
        b = evaluate(model, samples, cfg, seed=7)
        assert a == b

    def test_empty_dataset_rejected(self, samples):
        with pytest.raises(DownstreamError):
            evaluate(make_model("beam_selection"), [], FinetuneSettings())


class TestUnusableSamples:
    """run_finetune and evaluate refuse a sample the task cannot use before
    the first step, naming it."""

    def test_recon_task_refuses_a_sample_without_csi(self, samples):
        data = [samples[0], samples[1], dataclasses.replace(samples[2], csi=None), samples[3]]
        model = make_model("channel_prediction")
        records = []
        with pytest.raises(DownstreamError, match=r"samples \[2\] have no csi left after drop \[\]"):
            run_finetune(model, data, FinetuneSettings(steps=4, batch_size=1), seed=0, log=records.append)
        assert records == []
        with pytest.raises(DownstreamError, match=r"samples \[2\] have no csi"):
            evaluate(model, data, FinetuneSettings())

    def test_label_task_refuses_a_sample_left_with_no_modality(self, samples):
        only_map = dataclasses.replace(samples[1], csi=None, radar=None)
        data = [samples[0], only_map, samples[2], dataclasses.replace(samples[3], csi=None, radar=None)]
        model = make_model("beam_selection")
        cfg = FinetuneSettings(steps=4, batch_size=1, drop=("map",))
        records = []
        with pytest.raises(DownstreamError, match=r"samples \[1, 3\] have no modality left after drop \['map'\]"):
            run_finetune(model, data, cfg, seed=0, log=records.append)
        assert records == []
        with pytest.raises(DownstreamError, match=r"samples \[1, 3\] have no modality"):
            evaluate(model, data, cfg)
        run_finetune(model, data, dataclasses.replace(cfg, drop=()), seed=0, log=records.append)
        assert len(records) == 4  # the same samples train once the map stays

    def test_beam_label_past_the_head_is_refused(self, samples):
        # labels drawn on a 32-beam codebook, a head of 16 beams
        data = [
            dataclasses.replace(s, labels=dataclasses.replace(s.labels, beam_index=b))
            for s, b in zip(samples, [5, 5, 31, 9])
        ]
        model = make_model("beam_selection")
        assert model.head.fc2.w.data.shape[1] == 16
        records = []
        with pytest.raises(DownstreamError, match=r"samples \[2\] have a beam_index outside the head's 16 beams"):
            run_finetune(model, data, FinetuneSettings(steps=4, batch_size=1), seed=0, log=records.append)
        assert records == []
        with pytest.raises(DownstreamError, match=r"samples \[2\] have a beam_index outside the head's 16 beams"):
            evaluate(model, data, FinetuneSettings())


# ---------------------------------------------------------------------------
# the fine-tune path, pinned as the desk pretrain step is


def pinned_finetune_runs() -> dict[tuple[str, str], tuple[list[float], dict, dict]]:
    """(loss history, metrics, metrics without the map) of a 2-step head-only
    and a 2-step full fine-tune of every task, with SNR injection, from one
    fixed desk model on desk seed-5 samples."""
    desk = desk_config()
    synth_cfg = desk.data.synth_config(desk.model)
    samples, _ = synth_dataset(synth_cfg, 8, seed=5)
    out = {}
    for task in TASKS:
        for freeze in ("head", "full"):
            pre = PretrainModel(
                desk.model.encoder_config(),
                desk.model.tokenizer_config(),
                np.random.default_rng(0),
                decoder_blocks=desk.model.decoder_blocks,
            )
            model = FinetuneModel(pre, task, np.random.default_rng(1), n_beams=synth_cfg.n_beams)
            cfg = dataclasses.replace(
                desk.finetune.settings(), steps=2, batch_size=4,
                freeze_encoder=freeze == "head", snr_range=(10.0, 25.0),
            )
            history = [r["loss"] for r in run_finetune(model, samples, cfg, seed=3)]
            metrics = evaluate(model, samples, cfg, seed=4)
            without_map = evaluate(model, samples, dataclasses.replace(cfg, drop=("map",)), seed=4)
            out[task, freeze] = (history, metrics, without_map)
    return out


FINETUNE_PINS = {
    ('channel_prediction', 'head'): (
        [0.5510802238471133, 0.5309482158555432],
        {'loss': 0.5228732794950058, 'nmse_db': 0.1717639158993794},
        {'loss': 0.5212345135768872, 'nmse_db': 0.15980040026936765},
    ),
    ('channel_prediction', 'full'): (
        [0.5510802238471133, 0.5192622871881358],
        {'loss': 0.5533635945257674, 'nmse_db': 0.42138709131427926},
        {'loss': 0.5363637389958387, 'nmse_db': 0.2858316839625173},
    ),
    ('channel_estimation', 'head'): (
        [0.5626316108802065, 0.5592891326878251],
        {'loss': 0.5360760297714666, 'nmse_db': 0.30069900418562745},
        {'loss': 0.5403467283863078, 'nmse_db': 0.3358790995707854},
    ),
    ('channel_estimation', 'full'): (
        [0.5626316108802065, 0.5627961404874358],
        {'loss': 0.6637098577595515, 'nmse_db': 1.2286527559158698},
        {'loss': 0.6355261691255383, 'nmse_db': 1.035385109724786},
    ),
    ('beam_selection', 'head'): (
        [2.7681066003834136, 2.771503048287761],
        {'loss': 2.7460785366616496, 'top1': 0.5, 'top3': 0.75},
        {'loss': 2.7550502433531516, 'top1': 0.125, 'top3': 0.5},
    ),
    ('beam_selection', 'full'): (
        [2.7681066003834136, 2.7197084497482793],
        {'loss': 2.6437459344809393, 'top1': 0.375, 'top3': 0.625},
        {'loss': 2.6458869154246942, 'top1': 0.375, 'top3': 0.5},
    ),
    ('localization', 'head'): (
        [12612.398398690391, 13110.77289225852],
        {'loss': 12856.622098185206, 'mae_m': 106.61071901757123, 'rmse_m': 113.3870455483571},
        {'loss': 12858.838063944871, 'mae_m': 106.62078532912678, 'rmse_m': 113.39681681575048},
    ),
    ('localization', 'full'): (
        [12612.398398690391, 13083.200364974902],
        {'loss': 12789.877174918385, 'mae_m': 106.29492911457578, 'rmse_m': 113.09233915220953},
        {'loss': 12791.811529773939, 'mae_m': 106.30404614904717, 'rmse_m': 113.1008909327152},
    ),
    ('aoa_estimation', 'head'): (
        [0.48473600825744056, 0.5081905744421313],
        {'loss': 0.4703762855758876, 'mae_rad': 0.8076491991122433, 'mae_deg': 46.27489043625262},
        {'loss': 0.47966534230190294, 'mae_rad': 0.9966461431930163, 'mae_deg': 57.10361767295093},
    ),
    ('aoa_estimation', 'full'): (
        [0.48473600825744056, 0.3775147806196468],
        {'loss': 0.21899197071913099, 'mae_rad': 0.36292045097423903, 'mae_deg': 20.793810139808404},
        {'loss': 0.2329148902067729, 'mae_rad': 0.39864772731635645, 'mae_deg': 22.840832287709325},
    ),
}


def test_fixed_seed_finetunes_are_pinned():
    # Every task's fine-tune losses and eval metrics; the relative bound
    # leaves room for the last digits that the BLAS thread count moves.
    got = pinned_finetune_runs()
    assert got.keys() == FINETUNE_PINS.keys()
    for key, (history, metrics, without_map) in FINETUNE_PINS.items():
        g_history, g_metrics, g_without_map = got[key]
        assert g_history == pytest.approx(history, rel=1e-12, abs=0), key
        assert g_metrics.keys() == metrics.keys() and g_without_map.keys() == without_map.keys(), key
        assert g_metrics == pytest.approx(metrics, rel=1e-12, abs=0), key
        assert g_without_map == pytest.approx(without_map, rel=1e-12, abs=0), key
