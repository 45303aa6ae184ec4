"""Analysis tests: activated-parameter arithmetic, FLOP-count structure, and
routing-table aggregation identities."""

import dataclasses

import numpy as np
import pytest

from misac.analysis import (
    AnalysisError,
    encoder_flops,
    is_expert_param,
    param_counts,
    routing_csv,
    routing_table,
    task_flops,
)
from misac.config import DataConfig, ModelConfig, RunConfig, desk_config
from misac.encoder import EncoderConfig, MODALITY_ORDER
from misac.pretrain import PretrainModel
from misac.synth import SynthConfig, synth_dataset
from misac.tokenizer import Modality, ModalitySpec, TokenizerConfig


class TestParamCounts:
    def test_expert_name_predicate(self):
        assert is_expert_param("block0.shared.expert3.fc1.w")
        assert is_expert_param("block1.csi.expert0.fc2.b")
        assert not is_expert_param("block0.shared.gate.w")
        assert not is_expert_param("embed.csi.w")

    def test_activated_arithmetic(self):
        params = {
            "embed.csi.w": np.zeros(10),
            "block0.shared.expert0.fc1.w": np.zeros(25),
            "block0.shared.expert1.fc1.w": np.zeros(15),
        }
        out = param_counts(params, top_k=2, n_experts=4)
        assert out["total"] == 50
        assert out["expert"] == 40
        assert out["activated"] == 10 + 40 * 2 / 4

    def test_doubling_experts_keeps_activated_expert_count(self):
        # expert params scale with K; the activated share k/K cancels the growth
        small = {"block.expert0": np.zeros(40), "gate": np.zeros(10)}
        big = {"block.expert0": np.zeros(80), "gate": np.zeros(10)}
        a = param_counts(small, top_k=2, n_experts=4)
        b = param_counts(big, top_k=2, n_experts=8)
        assert b["total"] > a["total"]
        assert a["activated"] - 10 == b["activated"] - 10 == 20

    def test_activated_never_exceeds_total(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k_total = int(rng.integers(1, 9))
            k = int(rng.integers(1, k_total + 1))
            params = {
                f"block.expert{i}": np.zeros(int(rng.integers(1, 50))) for i in range(k_total)
            }
            params["other"] = np.zeros(int(rng.integers(1, 50)))
            out = param_counts(params, top_k=k, n_experts=k_total)
            assert out["activated"] <= out["total"]
            assert out["activated"] >= out["total"] - out["expert"]

    def test_real_model_counts(self):
        model = PretrainModel(
            EncoderConfig(d=16, n_layers=1, n_heads=2, n_experts=4, top_k=2),
            TokenizerConfig(
                d=16,
                specs={
                    Modality.CSI: ModalitySpec(4, 8, (2, 2)),
                    Modality.MAP: ModalitySpec(8, 8, (4, 4)),
                    Modality.RADAR: ModalitySpec(8, 8, (4, 4)),
                },
            ),
            np.random.default_rng(0),
        )
        out = param_counts(model.named_params(), 2, 4)
        # 4 pools x 4 experts x (fc1: 16x32+32, fc2: 32x16+16)
        assert out["expert"] == 4 * 4 * (16 * 32 + 32 + 32 * 16 + 16)
        assert out["activated"] < out["total"]

    def test_bad_topk(self):
        with pytest.raises(AnalysisError):
            param_counts({"a": np.zeros(3)}, top_k=5, n_experts=4)


class TestFlops:
    def test_per_layer_cost_is_constant(self):
        m1 = ModelConfig(n_layers=1)
        m2 = ModelConfig(n_layers=2)
        m3 = ModelConfig(n_layers=3)
        mods = list(MODALITY_ORDER)
        d21 = encoder_flops(m2, mods) - encoder_flops(m1, mods)
        d32 = encoder_flops(m3, mods) - encoder_flops(m2, mods)
        assert d21 == d32 > 0

    def test_fewer_modalities_cost_less(self):
        m = ModelConfig()
        assert encoder_flops(m, list(MODALITY_ORDER)) > encoder_flops(m, [MODALITY_ORDER[0]])

    def test_task_breakdown_sums(self):
        cfg = desk_config()
        for task in ("channel_prediction", "beam_selection", "aoa_estimation"):
            out = task_flops(cfg, task)
            assert out["total"] == out["encoder"] + out["task"] > 0

    def test_recon_head_costs_more_than_label_head(self):
        cfg = desk_config()
        assert (
            task_flops(cfg, "channel_estimation")["task"]
            > task_flops(cfg, "beam_selection")["task"]
        )

    def test_encoder_term_is_task_independent(self):
        cfg = desk_config()
        encs = {task_flops(cfg, t)["encoder"] for t in ("beam_selection", "localization")}
        assert len(encs) == 1

    def test_beam_head_width_follows_synth_beam_count(self, monkeypatch):
        cfg = desk_config()
        d = cfg.model.d
        assert task_flops(cfg, "beam_selection")["task"] == 2 * d * d + 2 * d * 16
        synth_config = DataConfig.synth_config
        monkeypatch.setattr(
            DataConfig,
            "synth_config",
            lambda self, model: dataclasses.replace(synth_config(self, model), n_beams=8),
        )
        assert task_flops(cfg, "beam_selection")["task"] == 2 * d * d + 2 * d * 8

    def test_unknown_task(self):
        with pytest.raises(AnalysisError):
            task_flops(desk_config(), "beam_steering")


@pytest.fixture(scope="module")
def routed():
    samples, _ = synth_dataset(SynthConfig(), 2, seed=77)
    model = PretrainModel(
        EncoderConfig(d=16, n_layers=2, n_heads=2, n_experts=4, top_k=2),
        TokenizerConfig(
            d=16,
            specs={
                Modality.CSI: ModalitySpec(16, 32, (2, 2)),
                Modality.MAP: ModalitySpec(64, 64, (8, 8)),
                Modality.RADAR: ModalitySpec(64, 64, (8, 8)),
            },
        ),
        np.random.default_rng(1),
    )
    return model, samples, routing_table(model, samples)


class TestRoutingTable:
    def test_row_coverage(self, routed):
        model, _, rows = routed
        keys = {(r.layer, r.pool, r.expert) for r in rows}
        assert len(rows) == len(keys) == 2 * 4 * 4  # layers x pools x experts

    def test_importance_sums_to_one_per_pool(self, routed):
        _, _, rows = routed
        for layer in (0, 1):
            for pool in ("shared", "csi", "map", "radar"):
                imps = [r.importance for r in rows if r.layer == layer and r.pool == pool]
                assert sum(imps) == pytest.approx(1.0, abs=1e-9)

    def test_load_sums_to_topk_per_pool(self, routed):
        _, _, rows = routed
        for layer in (0, 1):
            for pool in ("shared", "csi", "map", "radar"):
                loads = [r.load for r in rows if r.layer == layer and r.pool == pool]
                assert sum(loads) == pytest.approx(2.0, abs=1e-9)

    def test_csv_shape(self, routed):
        _, _, rows = routed
        text = routing_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "layer,pool,expert,importance,load"
        assert len(lines) == len(rows) + 1

    def test_empty_samples_rejected(self, routed):
        model, _, _ = routed
        with pytest.raises(AnalysisError):
            routing_table(model, [])
