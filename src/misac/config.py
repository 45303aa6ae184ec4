"""Single-file run configuration: model, data, pre-training, fine-tuning.

A config is plain JSON on disk. Loading validates field types and ranges and
cross-field consistency (head divisibility, top_k <= n_experts, patches
tiling the grids) and the
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
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import MisacError, canonical_json
from .downstream import TASKS, FinetuneSettings
from .encoder import EncoderConfig
from .pretrain import PretrainSettings
from .synth import MODALITY_NAMES, RadarParams, SynthConfig
from .tokenizer import MODALITY_ORDER, ModalitySpec, TokenizerConfig


class ConfigError(MisacError):
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
        return _copy_fields(self, EncoderConfig)

    def tokenizer_config(self) -> TokenizerConfig:
        grids = {
            "csi": (self.csi_height, self.csi_width),
            "map": (self.map_size, self.map_size),
            "radar": (self.radar_size, self.radar_size),
        }
        specs = {
            m: ModalitySpec(*grids[m.name], tuple(getattr(self, f"{m.name}_patch")))
            for m in MODALITY_ORDER
        }
        return TokenizerConfig(d=self.d, specs=specs, height_scale=self.height_scale)


def _copy_fields(source, cls, **mapped):
    """Build cls from the same-named fields of source, list values as tuples;
    mapped gives the fields whose value comes from elsewhere."""
    values = {f.name: getattr(source, f.name) for f in dataclasses.fields(cls) if f.name not in mapped}
    return cls(**{n: tuple(v) if isinstance(v, list) else v for n, v in values.items()}, **mapped)


# The range of a number field (or of the numbers in it) where it is not the
# default, ints >= 1 and any finite float: (lowest, highest, lowest excluded)
_RANGES = {
    **dict.fromkeys(("decoder_blocks", "seed", "lambda_cl", "lambda_lb"), (0, math.inf, False)),
    **dict.fromkeys(("rms_eps", "height_scale", "lr_min", "lr_max", "tau"), (0, math.inf, True)),
    **dict.fromkeys(("modality_dropout", "availability"), (0, 1, False)),
}


def _field_error(name: str, value, kind: str) -> str | None:
    """Why value does not fit the field name, annotated kind; None if it does."""
    if kind in ("int", "float"):
        if isinstance(value, bool) or not isinstance(value, int if kind == "int" else (int, float)):
            return f"must be {'an int' if kind == 'int' else 'a number'}"
        low, high, open_low = _RANGES.get(name, (1 if kind == "int" else -math.inf, math.inf, False))
        if isinstance(value, float) and not math.isfinite(value):
            return "must be finite"
        if value < low or value > high or (open_low and value == low):
            return f"must be {'>' if open_low else '>='} {low}" + (f" and <= {high}" if high < math.inf else "")
        return None
    if kind in ("bool", "str"):
        return None if isinstance(value, bool if kind == "bool" else str) else f"must be a {kind}"
    if kind == "tuple[str, ...]":
        strings = isinstance(value, (tuple, list)) and all(isinstance(v, str) for v in value)
        return None if strings else "must be a list of strings"
    if kind == "dict[str, float]":
        if not isinstance(value, dict):
            return "must be an object"
        return next(filter(None, (_field_error(name, v, "float") for v in value.values())), None)
    if kind in ("tuple[int, int]", "tuple[float, float]"):
        if not (isinstance(value, (tuple, list)) and len(value) == 2):
            return "must be a pair"
        error = next(filter(None, (_field_error(name, v, kind[6 : kind.index(",")]) for v in value)), None)
        if error is None and kind == "tuple[float, float]" and value[0] > value[1]:
            return "must be a (low, high) pair"
        return error
    raise TypeError(f"config field {name} has no check for type {kind}")


def _check_fields(section: str, values) -> None:
    """Check every field of a config section against its annotation and
    range, before any arithmetic uses it; a None is valid where the
    annotation allows it."""
    for f in dataclasses.fields(values):
        value = getattr(values, f.name)
        kind = f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue
        error = _field_error(f.name, value, kind)
        if error is not None:
            raise ConfigError(f"{section}.{f.name}={value!r} {error}")


@dataclass(frozen=True)
class DataConfig:
    n_samples: int = 32
    seed: int = 0
    availability: dict[str, float] = field(default_factory=lambda: dict.fromkeys(MODALITY_NAMES, 1.0))
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
class PretrainConfig(PretrainSettings):
    save_every: int = 50

    def settings(self) -> PretrainSettings:
        return _copy_fields(self, PretrainSettings)


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
        return _copy_fields(self, FinetuneSettings, freeze_encoder=self.freeze == "head")


@dataclass(frozen=True)
class RunConfig:
    preset: str = "desk"
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)

    def validate(self) -> "RunConfig":
        for name in ("model", "data", "pretrain", "finetune"):
            _check_fields(name, getattr(self, name))
        m = self.model
        try:
            m.encoder_config()
            tok = m.tokenizer_config()
        except ValueError as e:
            raise ConfigError(str(e)) from e
        for mod in tok.modalities:
            # every grid is masked at random, the anchor's also by whole columns
            rows, cols = tok.spec(mod).grid
            if rows * cols < 2 or (mod.anchor and cols < 2):
                raise ConfigError(f"model: the {rows}x{cols} {mod.name} token grid cannot hold a mask")
        synth_cfg = self.data.synth_config(m)
        if synth_cfg.map_resolution % m.map_size:
            raise ConfigError(
                f"map_size={m.map_size} does not divide the synthesized map side {synth_cfg.map_resolution}"
            )
        corner = math.sqrt(2.0) * max(abs(v) for v in self.data.speed)  # both velocity axes at the bound
        if corner >= synth_cfg.radar.max_speed:
            raise ConfigError(
                f"data.speed={list(self.data.speed)} allows {corner:.2f} m/s, not below the radar's "
                f"unambiguous speed {synth_cfg.radar.max_speed:.2f} m/s"
            )
        for mod in self.data.availability:
            if mod not in MODALITY_NAMES:
                raise ConfigError(f"unknown modality {mod!r} in availability")
        for name, section in (("pretrain", self.pretrain), ("finetune", self.finetune)):
            if section.lr_min > section.lr_max:
                raise ConfigError(f"{name}: need lr_min <= lr_max")
        if self.finetune.freeze not in ("full", "head"):
            raise ConfigError(f"finetune.freeze={self.finetune.freeze!r} must be 'full' or 'head'")
        if self.finetune.task not in TASKS:
            raise ConfigError(
                f"unknown task {self.finetune.task!r}; valid: {', '.join(TASKS)}"
            )
        names = [t.name for t in tok.modalities]
        for mod in self.finetune.drop:
            if mod not in names:
                raise ConfigError(f"unknown modality {mod!r} to drop; valid: {', '.join(names)}")
        if set(names) <= set(self.finetune.drop):
            raise ConfigError("cannot drop every modality")
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


def load_config(path: str | Path | None) -> RunConfig:
    """Load a config file, or fall back to the desk preset."""
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
        return config_from_dict(raw)
    return desk_config()


def fingerprint(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_json(config_to_dict(cfg)).encode()).hexdigest()
