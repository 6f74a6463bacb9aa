"""Hyperparameter records and strict JSON config loading.

Defaults reproduce the reference training recipe: a 4-layer, 32-dim,
4-head encoder with a 64-unit feed-forward, dropout 0.1, Adam at 1e-4 with
weight decay 0.005 and batch 256 for pretraining, and few-shot calibration
at 1e-5 with early stopping (patience 20).  Unknown JSON keys are rejected
so a config file always means what it says.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

from .augment import AugmentConfig, AugmentError
from .checks import check_fields, number


class ConfigError(ValueError):
    pass


# the shared number rule (see :mod:`checks`), failing with ConfigError
_number = partial(number, error=ConfigError)
_check = partial(check_fields, error=ConfigError)


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 4
    d_model: int = 32
    n_heads: int = 4
    ffn_hidden: int = 64
    dropout: float = 0.1
    n_channels: int = 62
    n_bands: int = 5
    proj_dims: tuple[int, int, int] = (128, 256, 128)
    clf_hidden: tuple[int, int] = (32, 32)
    n_classes: int = 3
    init_scale: float = 1.0

    def __post_init__(self):
        _check(self, int, "positive", "n_layers", "d_model", "n_heads", "ffn_hidden",
               "n_channels", "n_bands", "n_classes")
        for name, length in (("proj_dims", 3), ("clf_hidden", 2)):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or len(value) != length:
                raise ConfigError(f"{name} must list {length} dimensions, got {value!r}")
            object.__setattr__(self, name, tuple(_number(f"{name}[{i}]", d, int, "positive")
                                                 for i, d in enumerate(value)))
        _check(self, float, "non-negative", "dropout", "init_scale")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if self.dropout >= 1:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass(frozen=True)
class StageConfig:
    batch_size: int
    epochs: int
    lr: float

    def __post_init__(self):
        _check(self, int, "positive", "batch_size", "epochs")
        _check(self, float, "positive", "lr")


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 42
    weight_decay: float = 0.005
    pretrain: StageConfig = field(default_factory=lambda: StageConfig(256, 30, 1e-4))
    calibrate: StageConfig = field(default_factory=lambda: StageConfig(128, 100, 1e-5))
    patience: int = 20
    k_per_class: int = 20

    def __post_init__(self):
        _check(self, int, "non-negative", "seed", "k_per_class")
        _check(self, int, "positive", "patience")
        _check(self, float, "non-negative", "weight_decay")
        if self.patience > self.calibrate.epochs:
            raise ConfigError("patience must be in [1, calibrate.epochs]")


@dataclass(frozen=True)
class SynthSpec:
    n_subjects: int = 5
    n_classes: int = 3
    n_channels: int = 62
    n_bands: int = 5
    trials_per_subject: int = 10
    samples_per_trial: int = 30
    class_mean_scale: float = 1.0
    subject_shift_std: float = 0.5
    sample_noise_std: float = 0.5
    seed: int = 42
    mode: str = "features"

    def __post_init__(self):
        _check(self, int, "positive", "n_subjects", "n_classes", "n_channels", "n_bands",
               "trials_per_subject", "samples_per_trial")
        _check(self, int, "non-negative", "seed")
        _check(self, float, "non-negative", "class_mean_scale", "subject_shift_std",
               "sample_noise_std")
        if self.mode not in ("features", "timeseries"):
            raise ConfigError(f"mode must be 'features' or 'timeseries', got {self.mode!r}")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    synth: SynthSpec = field(default_factory=SynthSpec)
    protocol: str | None = None

    def __post_init__(self):
        _check(self, int, "non-negative", "seed")


_NESTED = {
    ModelConfig: {},
    StageConfig: {},
    AugmentConfig: {},
    SynthSpec: {},
    TrainConfig: {"pretrain": StageConfig, "calibrate": StageConfig},
    RunConfig: {"model": ModelConfig, "train": TrainConfig,
                "augment": AugmentConfig, "synth": SynthSpec},
}


def _from_dict(cls, d, where):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {type(d).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    kwargs = {}
    nested = _NESTED.get(cls, {})
    for key, value in d.items():
        if key in nested:
            kwargs[key] = _from_dict(nested[key], value, f"{where}.{key}")
        else:
            kwargs[key] = value
    # the record's own errors get its path; a nested record's carry theirs
    try:
        return cls(**kwargs)
    except TypeError as e:
        raise ConfigError(f"{where}: {e}") from None
    except (ConfigError, AugmentError) as e:
        raise type(e)(f"{where}: {e}") from None


def run_config_from_dict(d: dict) -> RunConfig:
    cfg = _from_dict(RunConfig, d, "config")
    # a top-level seed is the single source of randomness unless a section
    # explicitly pins its own
    train_d = d.get("train", {})
    synth_d = d.get("synth", {})
    if "seed" in d:
        if "seed" not in train_d:
            cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, seed=cfg.seed))
        if "seed" not in synth_d:
            cfg = dataclasses.replace(cfg, synth=dataclasses.replace(cfg.synth, seed=cfg.seed))
    return cfg


def load_run_config(path=None, seed=None) -> RunConfig:
    """Load a run config; `seed` (e.g. from --seed) overrides every section."""
    if path is None:
        cfg = RunConfig()
    else:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            doc = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ConfigError(f"{p}: invalid JSON ({e})") from None
        cfg = run_config_from_dict(doc)
    if seed is not None:
        cfg = dataclasses.replace(
            cfg, seed=seed,
            train=dataclasses.replace(cfg.train, seed=seed),
            synth=dataclasses.replace(cfg.synth, seed=seed))
    return cfg


def to_dict(cfg) -> dict:
    return dataclasses.asdict(cfg)


def config_hash(cfg: RunConfig) -> str:
    """Short stable digest of the full config, stamped into result files."""
    blob = json.dumps(to_dict(cfg), sort_keys=True, default=list)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
