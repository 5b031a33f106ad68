"""Experiment configuration: one flat JSON document, strictly validated.

Unknown keys are a hard error so a typo can never silently fall back
to a default. Omitted keys take the documented defaults.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .augment import AugmentPolicy
from .classifier import MIN_TRAIN_SAMPLES, TrainConfig, validation_size
from .classmodels import make_bump_dataset
from .errors import ConfigError
from .recordio import open_atomic
from .samplers import SAMPLER_KINDS

# name -> (generator, pixel policy). The generator is None or a
# Provenance.method value ("single" or "noisecutmix"), the policy an
# augment.POLICY_KINDS entry; trial_seed seeds by position in this order.
METHODS = {
    "original": (None, "none"),
    "cutmix": (None, "cutmix"),
    "mixup": (None, "mixup"),
    "gen_random": ("single", "none"),
    "gen_random+cutmix": ("single", "cutmix"),
    "gen_random+mixup": ("single", "mixup"),
    "noisecutmix": ("noisecutmix", "none"),
}

OUTPUT_DIR_ENV = "NOISECUTMIX_OUTDIR"

# JSON value types a typed field accepts; bool, an int subclass, never
_FIELD_TYPES = {"int": int, "float": (int, float), "str | None": (str, type(None))}


@dataclass
class ExperimentConfig:
    # dataset
    num_classes: int = 4
    width: int = 16
    height: int = 16
    bump_sigma: float = 2.0
    noise_var: float = 0.5
    n_train_per_class: int = 10
    n_test_per_class: int = 50
    # diffusion sampling
    schedule_steps: int = 1000
    sampler_kind: str = "dpm_solver_pp_2m"
    num_inference_steps: int = 25
    guidance_scale: float = 7.5
    # augmentation
    augment_ratio: float = 1.0
    cutmix_alpha: float = 1.0
    mixup_alpha: float = 0.2
    noisemix_alpha: float = 1.0
    augment_probability: float = 0.5
    # classifier training
    batch_size: int = 64
    learning_rate: float = 0.001
    epochs: int = 30
    val_fraction: float = 0.2
    hidden_units: int = 64
    # experiment protocol
    methods: list[str] = field(default_factory=lambda: list(METHODS))
    trials: int = 5
    master_seed: int = 0
    output_dir: str | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = _FIELD_TYPES.get(f.type)
            if kinds and (isinstance(value, bool) or not isinstance(value, kinds)):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        for name in ("cutmix_alpha", "mixup_alpha", "noisemix_alpha"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be > 0")
        if not self.guidance_scale >= 0.0:
            raise ConfigError("guidance_scale must be >= 0")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.augment_ratio < 0.0:
            raise ConfigError("augment_ratio must be >= 0")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        if self.n_test_per_class < 1:
            raise ConfigError("n_test_per_class must be >= 1")
        n_real = self.num_classes * self.n_train_per_class
        if n_real < MIN_TRAIN_SAMPLES:
            raise ConfigError(f"num_classes * n_train_per_class must be >= {MIN_TRAIN_SAMPLES}")
        if self.sampler_kind not in SAMPLER_KINDS:
            raise ConfigError(f"sampler_kind must be one of {SAMPLER_KINDS}")
        if self.schedule_steps < 2:
            raise ConfigError("schedule_steps must be >= 2")
        if not (1 <= self.num_inference_steps <= self.schedule_steps):
            raise ConfigError("num_inference_steps must lie in [1, schedule_steps]")
        unknown = [m for m in self.methods if not isinstance(m, str) or m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}; valid: {list(METHODS)}")
        if not self.methods:
            raise ConfigError("method list must not be empty")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError(f"duplicate methods in {self.methods}")
        try:
            # the dataset, trainer and policy validators: bad values fail before any write
            make_bump_dataset(self.num_classes, self.width, self.height, self.bump_sigma,
                              self.noise_var, 0, 0)
            self.train_config()
            AugmentPolicy(probability=self.augment_probability)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        n_val = validation_size(n_real, self.val_fraction)
        if n_real - n_val < self.num_classes:
            raise ConfigError(f"{n_real - n_val} real training samples after the validation "
                              f"split cannot cover {self.num_classes} classes")

    def train_config(self, seed: int = 0) -> TrainConfig:
        return TrainConfig(
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            val_fraction=self.val_fraction,
            hidden=self.hidden_units,
            seed=seed,
        )

    def augment_policy(self, method: str) -> AugmentPolicy:
        """The pixel policy of a METHODS entry at this config's alpha and probability."""
        kind = METHODS[method][1]
        alpha = {"cutmix": self.cutmix_alpha, "mixup": self.mixup_alpha}.get(kind, 1.0)
        return AugmentPolicy(kind, alpha, self.augment_probability)

    def resolved_output_dir(self, override: str | None = None) -> Path:
        if override:
            return Path(override)
        if self.output_dir:
            return Path(self.output_dir)
        env = os.environ.get(OUTPUT_DIR_ENV)
        if env:
            return Path(env)
        return Path("noisecutmix_out")


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    valid = {f for f in ExperimentConfig.__dataclass_fields__}
    unknown = sorted(set(raw) - valid)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    try:
        return ExperimentConfig(**raw)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def dump_config(cfg: ExperimentConfig, path: str | Path) -> None:
    """Resolved copy of the config, key-sorted for byte stability."""
    with open_atomic(path) as f:
        f.write((json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n").encode("utf-8"))
