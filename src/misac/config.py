"""Single-file run configuration: model, data, pre-training, fine-tuning.

A config is plain JSON on disk. Loading validates cross-field consistency
(head divisibility, top_k <= n_experts, patches tiling the grids) and the
canonical serialization (sorted keys, no whitespace) is hashed to a
fingerprint that checkpoints carry, so a checkpoint can refuse to load under
a different configuration.

Two presets ship: "desk" (small dims, everything runs in seconds on a CPU)
and "paper" (full-scale dims; same mechanisms, not meant for the test
suite).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .downstream import TASKS, FinetuneSettings
from .encoder import EncoderConfig
from .pretrain import PretrainSettings
from .synth import RadarParams, SynthConfig
from .tokenizer import ModalitySpec, TokenizerConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    d: int = 64
    n_layers: int = 2
    n_heads: int = 4
    n_experts: int = 8
    top_k: int = 4
    hidden_mult: int = 2
    rms_eps: float = 1e-6
    decoder_blocks: int = 1
    csi_height: int = 16
    csi_width: int = 32
    csi_patch: tuple[int, int] = (2, 2)
    map_size: int = 64
    map_patch: tuple[int, int] = (8, 8)
    radar_size: int = 64
    radar_patch: tuple[int, int] = (8, 8)
    height_scale: float = 30.0

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            d=self.d,
            n_layers=self.n_layers,
            n_heads=self.n_heads,
            n_experts=self.n_experts,
            top_k=self.top_k,
            hidden_mult=self.hidden_mult,
            rms_eps=self.rms_eps,
        )

    def tokenizer_config(self) -> TokenizerConfig:
        return TokenizerConfig(
            d=self.d,
            csi=ModalitySpec(self.csi_height, self.csi_width, tuple(self.csi_patch)),
            map=ModalitySpec(self.map_size, self.map_size, tuple(self.map_patch)),
            radar=ModalitySpec(self.radar_size, self.radar_size, tuple(self.radar_patch)),
            height_scale=self.height_scale,
        )


@dataclass(frozen=True)
class DataConfig:
    n_samples: int = 32
    seed: int = 0
    availability: dict = field(default_factory=lambda: {"csi": 1.0, "radar": 1.0, "map": 1.0})
    speed: tuple[float, float] = (-15.0, 15.0)
    include_los: bool = True

    def synth_config(self, model: ModelConfig) -> SynthConfig:
        return dataclasses.replace(
            SynthConfig(),
            n_t=model.csi_height,
            n_sc=model.csi_width,
            radar=RadarParams(out_size=model.radar_size),
            availability=dict(self.availability),
            speed=tuple(self.speed),
            include_los=self.include_los,
        )


@dataclass(frozen=True)
class PretrainConfig:
    steps: int = 200
    batch_size: int = 8
    lr_min: float = 1e-5
    lr_max: float = 3e-3
    lambda_cl: float = 5e-4
    lambda_lb: float = 0.05
    tau: float = 0.07
    modality_dropout: float = 0.2
    snr_range: tuple[float, float] | None = (10.0, 25.0)
    save_every: int = 50

    def settings(self) -> PretrainSettings:
        return PretrainSettings(
            steps=self.steps,
            batch_size=self.batch_size,
            lr_min=self.lr_min,
            lr_max=self.lr_max,
            lambda_cl=self.lambda_cl,
            lambda_lb=self.lambda_lb,
            tau=self.tau,
            modality_dropout=self.modality_dropout,
            snr_range=None if self.snr_range is None else tuple(self.snr_range),
        )


@dataclass(frozen=True)
class FinetuneConfig:
    task: str = "channel_prediction"
    steps: int = 100
    batch_size: int = 8
    lr_min: float = 1e-5
    lr_max: float = 1e-3
    freeze: str = "full"  # "full" trains everything, "head" freezes the encoder
    snr_range: tuple[float, float] | None = None
    drop: tuple[str, ...] = ()

    def settings(self) -> FinetuneSettings:
        return FinetuneSettings(
            steps=self.steps,
            batch_size=self.batch_size,
            lr_min=self.lr_min,
            lr_max=self.lr_max,
            freeze_encoder=self.freeze == "head",
            snr_range=None if self.snr_range is None else tuple(self.snr_range),
            drop=tuple(self.drop),
        )


@dataclass(frozen=True)
class RunConfig:
    preset: str = "desk"
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)

    def validate(self) -> "RunConfig":
        m = self.model
        if m.d % m.n_heads != 0:
            raise ConfigError(f"d={m.d} not divisible by n_heads={m.n_heads}")
        if not 1 <= m.top_k <= m.n_experts:
            raise ConfigError(f"top_k={m.top_k} outside [1, {m.n_experts}]")
        try:
            m.encoder_config()
            m.tokenizer_config()
        except ValueError as e:
            raise ConfigError(str(e)) from e
        resolution = self.data.synth_config(m).map_resolution
        if resolution % m.map_size:
            raise ConfigError(
                f"map_size={m.map_size} does not divide the synthesized map side {resolution}"
            )
        if self.data.n_samples < 1:
            raise ConfigError("data.n_samples must be >= 1")
        for mod, frac in self.data.availability.items():
            if mod not in ("csi", "radar", "map"):
                raise ConfigError(f"unknown modality {mod!r} in availability")
            if not 0.0 <= float(frac) <= 1.0:
                raise ConfigError(f"availability[{mod}]={frac} outside [0, 1]")
        for name, section in (("pretrain", self.pretrain), ("finetune", self.finetune)):
            if section.steps < 1 or section.batch_size < 1:
                raise ConfigError(f"{name}: steps and batch_size must be >= 1")
            if not 0 < section.lr_min <= section.lr_max:
                raise ConfigError(f"{name}: need 0 < lr_min <= lr_max")
        if not 0.0 <= self.pretrain.modality_dropout <= 1.0:
            raise ConfigError("pretrain.modality_dropout outside [0, 1]")
        if self.finetune.task not in TASKS:
            raise ConfigError(
                f"unknown task {self.finetune.task!r}; valid: {', '.join(TASKS)}"
            )
        for mod in self.finetune.drop:
            if mod not in ("csi", "radar", "map"):
                raise ConfigError(f"unknown modality {mod!r} in finetune.drop")
        return self


def desk_config() -> RunConfig:
    return RunConfig().validate()


def paper_config() -> RunConfig:
    """Full-scale preset: same mechanisms, production dims."""
    return RunConfig(
        preset="paper",
        model=ModelConfig(
            d=512,
            n_layers=4,
            n_heads=8,
            n_experts=8,
            top_k=4,
            decoder_blocks=2,
            csi_patch=(4, 4),
            map_patch=(8, 8),
            radar_patch=(8, 8),
        ),
        data=DataConfig(n_samples=4096),
        pretrain=PretrainConfig(steps=15000, batch_size=64, lr_min=1e-6, lr_max=1e-4),
        finetune=FinetuneConfig(steps=10000, batch_size=64, lr_min=1e-6, lr_max=1e-4),
    ).validate()


PRESETS = {"desk": desk_config, "paper": paper_config}


# ---------------------------------------------------------------------------
# serialization


def _override(base, raw: dict):
    """Override a config section with the fields of a dict, coercing
    list-valued fields back to tuples and rejecting unknown keys."""
    names = {f.name for f in dataclasses.fields(base)}
    unknown = set(raw) - names
    if unknown:
        raise ConfigError(f"unknown {type(base).__name__} fields: {sorted(unknown)}")
    kwargs = {}
    for k, v in raw.items():
        kwargs[k] = tuple(v) if isinstance(v, list) else v
    return dataclasses.replace(base, **kwargs)


def _preset(name) -> RunConfig:
    if not isinstance(name, str) or name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; valid: {', '.join(PRESETS)}")
    return PRESETS[name]()


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    names = {"preset", "model", "data", "pretrain", "finetune"}
    unknown = set(raw) - names
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    base = _preset(raw.get("preset", "desk"))  # the file's fields override the named preset
    cfg = RunConfig(
        preset=base.preset,
        model=_override(base.model, raw.get("model", {})),
        data=_override(base.data, raw.get("data", {})),
        pretrain=_override(base.pretrain, raw.get("pretrain", {})),
        finetune=_override(base.finetune, raw.get("finetune", {})),
    )
    return cfg.validate()


def load_config(path: str | Path | None, preset: str | None = None) -> RunConfig:
    """Load a config file, or fall back to a named preset (default desk)."""
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
        return config_from_dict(raw)
    return _preset(preset or "desk")


def save_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")


def canonical_config_json(cfg: RunConfig) -> str:
    return json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))


def fingerprint(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_config_json(cfg).encode()).hexdigest()
