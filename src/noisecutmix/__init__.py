"""Mask-gated mixing of class-conditioned noise estimates in diffusion sampling.

Generates two-class blended images by replacing a rectangular region of
one class's predicted noise with another class's at every reverse step,
labels them by the realized area ratio, and benchmarks the result
against pixel-space CutMix/MixUp and plain generator augmentation with
a small soft-label classifier.
"""

from .augment import AugmentPolicy, apply_policy
from .classifier import (
    MlpClassifier,
    TrainConfig,
    evaluate,
    gradient,
    init_classifier,
    soft_ce_loss,
    train,
)
from .classmodels import ClassFamily, ClassModel, class_family, make_bump_dataset, predict_noise
from .config import METHODS, ExperimentConfig, config_from_dict, load_config
from .errors import ConfigError, NumericalDivergence
from .harness import ResultRow, ResultTable, export_grid, run_experiment, run_method
from .mixing import MaskSpec, mask_from_rect, mix_labels, one_hot, sample_lambda, sample_mask
from .samplers import (
    Provenance,
    SamplerConfig,
    generate_batch,
    regenerate,
    sample_noisecutmix_batch,
    sample_single_batch,
    step_ancestral,
    step_dpm_pp_2m,
    timestep_grid,
)
from .schedule import Schedule, cfg_combine, forward_noise, make_cosine_schedule

__version__ = "0.1.0"

__all__ = [
    "AugmentPolicy", "apply_policy",
    "MlpClassifier", "TrainConfig", "evaluate", "gradient", "init_classifier",
    "soft_ce_loss", "train",
    "ClassFamily", "ClassModel", "class_family", "make_bump_dataset", "predict_noise",
    "METHODS", "ExperimentConfig", "config_from_dict", "load_config",
    "ConfigError", "NumericalDivergence",
    "ResultRow", "ResultTable", "export_grid", "run_experiment", "run_method",
    "MaskSpec", "mask_from_rect", "mix_labels", "one_hot", "sample_lambda", "sample_mask",
    "Provenance", "SamplerConfig", "generate_batch", "regenerate",
    "sample_noisecutmix_batch", "sample_single_batch",
    "step_ancestral", "step_dpm_pp_2m", "timestep_grid",
    "Schedule", "cfg_combine", "forward_noise", "make_cosine_schedule",
]
