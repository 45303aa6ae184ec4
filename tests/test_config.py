"""Config tests: preset validity, JSON roundtrips, fingerprint stability and
sensitivity, and cross-field validation."""

import dataclasses
import json

import numpy as np
import pytest

from misac.config import (
    ConfigError,
    DataConfig,
    FinetuneConfig,
    ModelConfig,
    PretrainConfig,
    RunConfig,
    canonical_config_json,
    config_from_dict,
    config_to_dict,
    desk_config,
    fingerprint,
    load_config,
    paper_config,
    save_config,
)


class TestPresets:
    def test_desk_validates_and_is_small(self):
        cfg = desk_config()
        assert cfg.model.d == 64 and cfg.model.n_layers == 2
        assert cfg.model.n_experts == 8 and cfg.model.top_k == 4
        assert cfg.model.decoder_blocks == 1

    def test_paper_validates_and_is_larger(self):
        cfg = paper_config()
        assert cfg.model.d > desk_config().model.d
        assert cfg.pretrain.batch_size == 64
        assert cfg.pretrain.lr_max == 1e-4

    def test_presets_have_distinct_fingerprints(self):
        assert fingerprint(desk_config()) != fingerprint(paper_config())

    def test_builders_produce_consistent_configs(self):
        cfg = desk_config()
        enc = cfg.model.encoder_config()
        tok = cfg.model.tokenizer_config()
        assert enc.d == tok.d == 64
        assert enc.top_k == 4
        assert tok.csi.grid == (8, 16)

    def test_settings_mapping(self):
        pre = PretrainConfig(snr_range=(5.0, 9.0)).settings()
        assert pre.snr_range == (5.0, 9.0) and pre.lambda_cl == 5e-4
        assert FinetuneConfig(freeze="head").settings().freeze_encoder is True
        assert FinetuneConfig(freeze="full").settings().freeze_encoder is False

    def test_data_config_flows_into_synth(self):
        cfg = RunConfig(
            data=DataConfig(availability={"csi": 1.0, "radar": 0.5, "map": 1.0},
                            speed=(0.0, 0.0), include_los=False)
        ).validate()
        synth = cfg.data.synth_config(cfg.model)
        assert synth.availability["radar"] == 0.5
        assert synth.speed == (0.0, 0.0)
        assert synth.include_los is False
        assert synth.n_t == cfg.model.csi_height and synth.n_sc == cfg.model.csi_width

    def test_radar_size_flows_into_synth(self):
        from misac.pretrain import PretrainModel, PretrainSettings, run_pretrain
        from misac.synth import synth_dataset

        cfg = RunConfig(model=ModelConfig(radar_size=32)).validate()
        synth = cfg.data.synth_config(cfg.model)
        assert synth.radar.out_size == 32
        samples, _ = synth_dataset(synth, 2, seed=0)
        assert samples[0].radar.ra.data.shape == samples[0].radar.rv.data.shape == (32, 32)
        m = cfg.model
        model = PretrainModel(m.encoder_config(), m.tokenizer_config(), np.random.default_rng(0))
        settings = PretrainSettings(steps=1, batch_size=2, modality_dropout=0.0)
        history, _, _ = run_pretrain(model, samples, settings, seed=0)
        assert len(history) == 1 and np.isfinite(history[0]["loss"])


class TestSerialization:
    def test_file_roundtrip(self, tmp_path):
        cfg = desk_config()
        save_config(cfg, tmp_path / "cfg.json")
        again = load_config(tmp_path / "cfg.json")
        assert again == cfg
        assert fingerprint(again) == fingerprint(cfg)

    def test_tuples_survive_json(self, tmp_path):
        cfg = RunConfig(model=ModelConfig(csi_patch=(4, 2), csi_height=16, csi_width=32)).validate()
        save_config(cfg, tmp_path / "c.json")
        again = load_config(tmp_path / "c.json")
        assert again.model.csi_patch == (4, 2)
        assert isinstance(again.model.csi_patch, tuple)

    def test_fingerprint_ignores_key_order(self):
        d = config_to_dict(desk_config())
        reordered = {k: d[k] for k in reversed(list(d))}
        assert fingerprint(config_from_dict(d)) == fingerprint(config_from_dict(reordered))

    def test_fingerprint_sensitivity(self):
        base = desk_config()
        other = dataclasses.replace(base, model=dataclasses.replace(base.model, d=128))
        assert fingerprint(base) != fingerprint(other.validate())
        tweaked = dataclasses.replace(
            base, pretrain=dataclasses.replace(base.pretrain, lambda_cl=1e-3)
        )
        assert fingerprint(base) != fingerprint(tweaked)

    def test_canonical_json_has_no_whitespace(self):
        s = canonical_config_json(desk_config())
        assert ": " not in s and ", " not in s
        json.loads(s)

    def test_partial_dict_uses_defaults(self):
        cfg = config_from_dict({"model": {"d": 32, "n_heads": 2}})
        assert cfg.model.d == 32 and cfg.model.n_layers == 2

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"model": {"dd": 32}})
        with pytest.raises(ConfigError):
            config_from_dict({"models": {}})

    def test_load_missing_or_bad_files(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_load_none_gives_desk(self):
        assert load_config(None) == desk_config()
        with pytest.raises(ConfigError):
            load_config(None, preset="pocket")

    def test_preset_is_the_base_the_file_overrides(self, tmp_path):
        assert config_from_dict({"preset": "paper"}) == paper_config()
        cfg = config_from_dict({"preset": "paper", "model": {"d": 256}})
        assert cfg.model.d == 256 and cfg.model.n_layers == paper_config().model.n_layers
        assert cfg.pretrain.batch_size == 64
        save_config(cfg, tmp_path / "paper.json")
        assert fingerprint(load_config(tmp_path / "paper.json")) == fingerprint(cfg)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown preset 'pocket'"):
            config_from_dict({"preset": "pocket"})
        with pytest.raises(ConfigError, match="unknown preset"):
            config_from_dict({"preset": ["desk"]})


class TestValidation:
    def bad(self, **model_kwargs):
        with pytest.raises(ConfigError):
            RunConfig(model=ModelConfig(**model_kwargs)).validate()

    def test_head_divisibility(self):
        self.bad(d=30, n_heads=4)

    def test_topk_bounds(self):
        self.bad(top_k=9, n_experts=8)
        self.bad(top_k=0)

    def test_patch_divisibility(self):
        self.bad(csi_patch=(3, 2))
        self.bad(map_patch=(7, 7))

    def test_map_size_must_divide_synth_resolution(self):
        assert desk_config().data.synth_config(desk_config().model).map_resolution == 256
        with pytest.raises(ConfigError, match="map_size=48"):
            RunConfig(model=ModelConfig(map_size=48)).validate()
        RunConfig(model=ModelConfig(map_size=128)).validate()

    def test_data_bounds(self):
        with pytest.raises(ConfigError):
            RunConfig(data=DataConfig(n_samples=0)).validate()
        with pytest.raises(ConfigError):
            RunConfig(data=DataConfig(availability={"csi": -0.1})).validate()
        with pytest.raises(ConfigError):
            RunConfig(data=DataConfig(availability={"lidar": 1.0})).validate()

    def test_optimizer_bounds(self):
        with pytest.raises(ConfigError):
            RunConfig(pretrain=PretrainConfig(lr_min=1e-3, lr_max=1e-5)).validate()
        with pytest.raises(ConfigError):
            RunConfig(pretrain=PretrainConfig(steps=0)).validate()
        with pytest.raises(ConfigError):
            RunConfig(pretrain=PretrainConfig(modality_dropout=1.5)).validate()

    def test_unknown_task_lists_valid_kinds(self):
        with pytest.raises(ConfigError, match="valid:.*beam_selection"):
            RunConfig(finetune=FinetuneConfig(task="beam_steering")).validate()

    def test_bad_drop_modality(self):
        with pytest.raises(ConfigError):
            RunConfig(finetune=FinetuneConfig(drop=("lidar",))).validate()
