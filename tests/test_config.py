"""Config tests: preset validity, JSON roundtrips, fingerprint stability and
sensitivity, field and cross-field validation, and a property test that a
config either fails validation or runs synth -> tokenizer -> encode."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from misac import tensor as tt
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
)
from misac.encoder import MultimodalEncoder
from misac.pretrain import PretrainModel, cosine_lr, prepare_step_inputs, step_objective
from misac.synth import synth_sample
from misac.tokenizer import Modality, preprocess


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
        assert tok.spec(Modality.CSI).grid == (8, 16)

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


def write_config(cfg, path):
    """A config file as a user would write one: the config_to_dict JSON."""
    path.write_text(json.dumps(config_to_dict(cfg), indent=2))


class TestSerialization:
    def test_file_roundtrip(self, tmp_path):
        cfg = desk_config()
        write_config(cfg, tmp_path / "cfg.json")
        again = load_config(tmp_path / "cfg.json")
        assert again == cfg
        assert fingerprint(again) == fingerprint(cfg)

    def test_tuples_survive_json(self, tmp_path):
        cfg = RunConfig(model=ModelConfig(csi_patch=(4, 2), csi_height=16, csi_width=32)).validate()
        write_config(cfg, tmp_path / "c.json")
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

    def test_preset_is_the_base_the_file_overrides(self, tmp_path):
        assert config_from_dict({"preset": "paper"}) == paper_config()
        cfg = config_from_dict({"preset": "paper", "model": {"d": 256}})
        assert cfg.model.d == 256 and cfg.model.n_layers == paper_config().model.n_layers
        assert cfg.pretrain.batch_size == 64
        write_config(cfg, tmp_path / "paper.json")
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

    def test_dropping_every_modality_rejected(self):
        with pytest.raises(ConfigError, match="every modality"):
            RunConfig(finetune=FinetuneConfig(drop=("csi", "map", "radar"))).validate()

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_heads", 0),
            ("n_heads", -4),
            ("map_size", 0),
            ("radar_size", 0),
            ("d", "64"),
            ("d", True),
            ("n_layers", 0),
            ("n_experts", 0),
            ("hidden_mult", 0),
            ("csi_height", 0),
            ("csi_width", 2.0),
            ("decoder_blocks", -1),
            ("top_k", 0),
            ("top_k", 9),
            ("csi_patch", [2]),
            ("csi_patch", [2, 2, 2]),
            ("csi_patch", 2),
            ("map_patch", [0, 8]),
            ("radar_patch", [8.0, 8]),
            ("rms_eps", "x"),
            ("rms_eps", -1.0),
            ("height_scale", "x"),
        ],
    )
    def test_bad_model_field_is_named(self, name, value):
        with pytest.raises(ConfigError, match=name):
            config_from_dict({"model": {name: value}})

    def test_zero_decoder_blocks_is_valid(self):
        assert config_from_dict({"model": {"decoder_blocks": 0}}).model.decoder_blocks == 0

    @pytest.mark.parametrize(
        "section, raw",
        [
            ("finetune", {"freeze": "none"}),
            ("pretrain", {"tau": 0}),
            ("pretrain", {"tau": -0.07}),
            ("pretrain", {"tau": "x"}),
            ("pretrain", {"tau": float("nan")}),
            ("pretrain", {"lr_max": "1e-3"}),
            ("pretrain", {"modality_dropout": "x"}),
            ("pretrain", {"steps": "5"}),
            ("pretrain", {"lambda_cl": "x"}),
            ("pretrain", {"lambda_lb": -1}),
            ("pretrain", {"save_every": "x"}),
            ("pretrain", {"save_every": 0}),
            ("data", {"n_samples": 2.5}),
            ("data", {"seed": "x"}),
            ("data", {"availability": {"csi": "x"}}),
            ("data", {"speed": ["a", 3]}),
            ("data", {"include_los": 1}),
            ("finetune", {"batch_size": True}),
            ("finetune", {"snr_range": [30, 10]}),
            ("finetune", {"snr_range": [5]}),
            ("finetune", {"drop": "map"}),
        ],
    )
    def test_bad_training_setting_is_named(self, section, raw):
        with pytest.raises(ConfigError, match=f"{section}.{next(iter(raw))}"):
            config_from_dict({section: raw})

    @pytest.mark.parametrize("raw", [{"csi_width": 4, "csi_patch": [2, 4]}, {"map_size": 8, "map_patch": [8, 8]}])
    def test_grid_that_cannot_hold_a_mask_rejected(self, raw):
        # the anchor (CSI) needs two token columns, every grid two tokens
        with pytest.raises(ConfigError, match="cannot hold a mask"):
            config_from_dict({"model": raw})


# A tiny grid of model fields and of the other sections' fields, valid and
# invalid; every draw either fails validation with ConfigError or runs
# synth -> preprocess -> encode and a pre-training objective cleanly.
_FIELDS = {
    "d": st.sampled_from([0, 4, 6, 8, "8", True]),
    "n_layers": st.sampled_from([0, 1, 2]),
    "n_heads": st.sampled_from([-2, 0, 1, 2, 3]),
    "n_experts": st.sampled_from([0, 1, 2, 4]),
    "top_k": st.sampled_from([0, 1, 2, 5]),
    "hidden_mult": st.sampled_from([0, 1, 2]),
    "decoder_blocks": st.sampled_from([-1, 0, 1]),
    "csi_height": st.sampled_from([0, 2, 4, 6]),
    "csi_width": st.sampled_from([4, 8, 8.0]),
    "csi_patch": st.sampled_from([[1, 1], [2, 2], [2, 4], [2], [0, 2], 2]),
    "map_size": st.sampled_from([0, 8, 16, 48]),
    "map_patch": st.sampled_from([[4, 4], [8, 8], [3, 3]]),
    "radar_size": st.sampled_from([0, 4, 8, 16]),
    "radar_patch": st.sampled_from([[2, 2], [4, 4], [4, 8]]),
}


# (section, field, value) draws for the other sections, valid and invalid
_SETTINGS = [
    ("data", "n_samples", 1), ("data", "n_samples", 2.5),
    ("data", "seed", 3), ("data", "seed", -1), ("data", "seed", "x"),
    ("data", "availability", {"radar": 0.5}), ("data", "availability", {"map": "x"}),
    ("data", "availability", {"csi": 1.5}),
    ("data", "speed", [-3, 3]), ("data", "speed", [3, -3]), ("data", "speed", ["a", 3]),
    ("data", "include_los", False), ("data", "include_los", 1),
    ("pretrain", "steps", 1), ("pretrain", "steps", "5"),
    ("pretrain", "lr_max", 1e-3), ("pretrain", "lr_max", "1e-3"), ("pretrain", "lr_max", 1e-6),
    ("pretrain", "lambda_cl", 0), ("pretrain", "lambda_cl", 1.0), ("pretrain", "lambda_cl", -1),
    ("pretrain", "lambda_lb", 0.5), ("pretrain", "lambda_lb", "x"),
    ("pretrain", "tau", 0.5), ("pretrain", "tau", 0), ("pretrain", "tau", float("inf")),
    ("pretrain", "modality_dropout", 0), ("pretrain", "modality_dropout", 1),
    ("pretrain", "modality_dropout", 1.5),
    ("pretrain", "snr_range", None), ("pretrain", "snr_range", [5, 9]),
    ("pretrain", "snr_range", [30, 10]), ("pretrain", "snr_range", [5]),
    ("pretrain", "save_every", 1), ("pretrain", "save_every", 0),
    ("finetune", "batch_size", 1), ("finetune", "batch_size", True),
    ("finetune", "lr_min", 1e-6), ("finetune", "lr_min", 0.0),
    ("finetune", "snr_range", [0, 0]), ("finetune", "snr_range", ["x", 1]),
    ("finetune", "drop", ["map"]), ("finetune", "drop", "map"),
]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.fixed_dictionaries({}, optional=_FIELDS),
    st.lists(st.sampled_from(_SETTINGS), max_size=2),
    st.integers(0, 2**16),
)
def test_config_either_fails_validation_or_encodes(fields, settings_draw, seed):
    sections = {}
    for section, name, value in settings_draw:
        sections.setdefault(section, {})[name] = value
    try:
        cfg = config_from_dict({"model": fields, **sections})
    except ConfigError:
        return
    tok = cfg.model.tokenizer_config()
    sample = synth_sample(cfg.data.synth_config(cfg.model), 0, seed)
    model = MultimodalEncoder(cfg.model.encoder_config(), tok, np.random.default_rng(seed))
    parts = []
    for m in tok.modalities:
        h = model.embed(m, preprocess(sample, m, tok))
        assert h.shape == (tok.spec(m).n_tokens, cfg.model.d)
        parts.append((m, h))
    with tt.Tape():
        res = model.encode(parts)
    assert [s.stop - s.start for s in res.segments] == [tok.spec(m).n_tokens for m in tok.modalities]
    assert np.isfinite(res.h.data).all()
    pre = PretrainModel(
        cfg.model.encoder_config(), tok, np.random.default_rng(seed), decoder_blocks=cfg.model.decoder_blocks
    )
    train = cfg.pretrain.settings()
    inputs = prepare_step_inputs([sample, sample], pre, train, np.random.default_rng(seed))
    loss = step_objective(pre, inputs, train)
    assert np.isfinite(loss.total.item())
    for s in (train, cfg.finetune.settings()):
        assert s.lr_min <= cosine_lr(1, s.steps, s.lr_min, s.lr_max) <= s.lr_max
