"""The benchmark's workloads: inputs made from a seed, the timed call, output checks.

Each workload writes its inputs as a config JSON (``master_seed`` set to
the seed) and otherwise passes the seed only as a sampler argument. The
timed section is ``run``; ``check`` runs after it, untimed, and returns
one (name, passed) pair per check. ``digest`` names the outputs whose
bytes must repeat at a fixed seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

# Upper 1e-9 tail of chi-square with 64 degrees of freedom (scipy.stats.chi2.isf).
# Pixel means of a stationary N(0, I) sampler, scaled by their standard errors,
# sum in squares to chi2(64); a per-pixel 3-sigma bound would fail on some seeds.
CHI2_64_TAIL_1E9 = 156.597
# The 1000-step ancestral sampler under-disperses the unit Gaussian by about
# 0.55% (0.9945 pooled over 64 pixels x 50,000 samples); the pooled-variance
# standard error at n = 2,000 is 0.004.
POOLED_VAR_TOL = 0.03
MASS_RATIO_MIN = 2.0


_PROBE_RNG = np.random.default_rng(0)
_PROBE_MEANS = _PROBE_RNG.standard_normal((4, 16, 16))
_PROBE_VAR = 0.3 + _PROBE_RNG.random((4, 16, 16))
_PROBE_X = _PROBE_RNG.standard_normal((16, 16))
_PROBE_BATCH = _PROBE_RNG.standard_normal((2000, 8, 8))


def small_array_probe() -> None:
    """About 10 ms of fixed work of the experiment's kind: Gaussian-mixture
    noise estimates on a 16x16 grid with K=4, many small numpy calls."""
    x = _PROBE_X
    for t in range(150):
        ab = 0.5 + 0.016 * (t % 25)
        v = ab * _PROBE_VAR + (1.0 - ab)
        z = x - np.sqrt(ab) * _PROBE_MEANS
        ll = -0.5 * np.sum(z * z / v + np.log(v), axis=(-2, -1))
        r = np.exp(ll - ll.max())
        eps = np.zeros_like(x)
        for r_c, z_c, v_c in zip(r / r.sum(), z, v):
            eps += r_c * z_c / v_c
        x = 0.98 * x - 0.01 * eps + 0.01 * _PROBE_MEANS[t % 4]


def large_array_probe() -> None:
    """About 10 ms of fixed work of the batch samplers' kind: normal draws
    and affine updates on (2000, 8, 8) arrays."""
    rng = np.random.default_rng(0)
    x = _PROBE_BATCH
    for _ in range(3):
        x = 0.7 * x + 0.3 * rng.standard_normal(x.shape)
        x = x - 0.01 * x / 1.3


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def nullspan(name):
    return contextlib.nullcontext()


class CliExperiment:
    """``noisecutmix experiment`` in-process on a seeded config file."""

    config: dict
    probe = staticmethod(small_array_probe)
    probe_s = 0.006

    def __init__(self, pkg, seed: int, work: Path):
        self.pkg = pkg
        self.cfg_path = work / "config.json"
        self.cfg_path.write_text(json.dumps({**self.config, "master_seed": seed}), encoding="ascii")

    def prepare(self):
        """Nothing to build outside the timed call: the CLI does its own set-up."""

    def run(self, out: Path, span=nullspan):
        argv = ["experiment", "--config", str(self.cfg_path), "--out", str(out)]
        with span("harness.experiment"), contextlib.redirect_stdout(io.StringIO()):
            return self.pkg["cli"].main(argv)

    def digest(self, out: Path, result) -> dict[str, str]:
        if not out.is_dir():
            return {}
        return {p.name: sha256_file(p) for p in sorted(out.iterdir()) if p.is_file()}

    def check(self, out: Path, result, span=nullspan) -> list[tuple[str, bool]]:
        checks = [("exit_code", result == 0)]
        if result != 0:
            return checks
        cfg = self.pkg["config"].load_config(self.cfg_path)
        checks.append(("results_aggregates", _aggregates_ok(out / "results.tsv", cfg)))
        recordio, mixing = self.pkg["recordio"], self.pkg["mixing"]
        expected = int(round(cfg.augment_ratio * cfg.n_train_per_class * cfg.num_classes))
        for path in sorted(out.glob("*.records")):
            with span("recordio.read"):
                try:
                    images, labels = recordio.read_records(path)
                    provs = recordio.read_provenance(path.with_suffix(".prov"))
                except (OSError, ValueError):
                    checks.append((f"{path.name}:readback", False))
                    continue
            with path.open("rb") as f:
                declared = int(f.readline().split()[-1])
            ok = (
                declared == expected == len(images) == len(labels) == len(provs)
                and bool(np.all(np.isfinite(images)))
                and bool(np.all(np.isfinite(labels)))
            )
            checks.append((f"{path.name}:readback", ok))
            if path.name.startswith("noisecutmix_"):
                checks.append((f"{path.name}:labels", _mix_labels_ok(labels, provs, cfg, mixing)))
            elif path.name.startswith("gen_random"):
                one_hot = np.all((labels == 0.0) | (labels == 1.0)) and np.all(labels.sum(axis=1) == 1.0)
                checks.append((f"{path.name}:labels", bool(one_hot)))
        return checks


def _aggregates_ok(path: Path, cfg) -> bool:
    """Recompute each method's mean and sample sd from its stored trials."""
    try:
        rows = [ln.split("\t") for ln in path.read_text(encoding="ascii").splitlines()
                if ln and not ln.startswith("#")]
        if [r[0] for r in rows] != list(cfg.methods):
            return False
        for cells in rows:
            accs = [float(v) for v in cells[1:-2]]
            if len(accs) != cfg.trials:
                return False
            mean = float(np.mean(accs))
            std = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
            # tolerance covers the 6-decimal rounding of both sides
            if abs(float(cells[-2]) - mean) > 2e-6 or abs(float(cells[-1]) - std) > 2e-6:
                return False
        return True
    except (OSError, ValueError, IndexError):
        return False


def _mix_labels_ok(labels, provs, cfg, mixing) -> bool:
    """Each label equals mix_labels at the area ratio its stored rectangle realizes."""
    for label, p in zip(labels, provs):
        if p.rect is None or p.class_b is None:
            return False
        mask = mixing.mask_from_rect(cfg.width, cfg.height, p.rect)
        lam = 1.0 - np.count_nonzero(mask == 0) / mask.size
        if p.lambda_real != lam:
            return False
        if not np.array_equal(label, mixing.mix_labels(p.class_a, p.class_b, lam, cfg.num_classes)):
            return False
    return True


class ExperimentDefault(CliExperiment):
    """Seven methods x 5 trials at the defaults: 800 guided DPM generations plus training."""

    config: dict = {}


class TrainPixelmix(CliExperiment):
    """Pixel-space methods only, 100 real samples per class: training and augmentation, no generation."""

    config = {"methods": ["original", "cutmix", "mixup"], "n_train_per_class": 100}


class SampleBatch:
    """Two large-batch sampler calls in the shapes of acceptance criteria 4 and 5."""

    n_stationary = 2000
    n_mixed = 2000
    probe = staticmethod(large_array_probe)
    probe_s = 0.01

    def __init__(self, pkg, seed: int, work: Path):
        self.pkg = pkg
        self.seed = seed
        self.cfg_path = work / "config.json"
        inputs = {"num_classes": 2, "bump_sigma": 2.0, "noise_var": 0.3, "master_seed": seed}
        self.cfg_path.write_text(json.dumps(inputs), encoding="ascii")

    def prepare(self):
        """Config, schedule and class models: built once, before the timed calls."""
        p = self.pkg["api"]
        cfg = p.load_config(self.cfg_path)
        self.sched = p.make_cosine_schedule(cfg.schedule_steps)
        self.unit = [p.ClassModel(class_id=0, mean=np.zeros((8, 8)), var=np.ones((8, 8)))]
        self.bumps, _ = p.make_bump_dataset(
            cfg.num_classes, cfg.width, cfg.height, cfg.bump_sigma, cfg.noise_var, seed=0, n_per_class=0
        )
        self.mask = np.zeros((cfg.height, cfg.width), dtype=np.uint8)
        self.mask[:, : cfg.width // 2] = 1  # class A's noise on the left half
        self.ancestral = p.SamplerConfig(kind="ancestral", num_inference_steps=1000, guidance_scale=1.0)
        self.guided = p.SamplerConfig(
            kind="dpm_solver_pp_2m", num_inference_steps=25, guidance_scale=cfg.guidance_scale
        )

    def run(self, out: Path, span=nullspan):
        p = self.pkg["api"]
        with span("samplers.sample_batch"):
            stationary = p.sample_single_batch(0, self.ancestral, self.sched, self.unit, self.seed, self.n_stationary)
        with span("samplers.sample_batch"):
            mixed = p.sample_noisecutmix_batch(
                0, 1, self.mask, self.guided, self.sched, self.bumps, self.seed, self.n_mixed
            )
        return stationary, mixed

    def digest(self, out: Path, result) -> dict[str, str]:
        return {name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                for name, a in zip(("stationary", "mixed"), result)}

    def check(self, out: Path, result, span=nullspan) -> list[tuple[str, bool]]:
        stationary, mixed = result
        return [
            ("stationary_unit_gaussian", _stationary_ok(stationary, self.n_stationary)),
            ("half_plane_mass_ratio", _mass_ratio_ok(mixed, self.mask, self.bumps, self.n_mixed)),
        ]


def _stationary_ok(imgs: np.ndarray, n: int) -> bool:
    """Joint test over all pixels: means by chi-square, variances pooled."""
    if imgs.shape != (n, 8, 8) or not np.all(np.isfinite(imgs)):
        return False
    mean = imgs.mean(axis=0)
    var = imgs.var(axis=0, ddof=1)
    chi2 = float(np.sum(mean * mean / (var / n)))
    return chi2 <= CHI2_64_TAIL_1E9 and abs(float(var.mean()) - 1.0) <= POOLED_VAR_TOL


def _mass_ratio_ok(imgs: np.ndarray, mask: np.ndarray, models, n: int) -> bool:
    """Each class's bump mass sits mainly on its own side of the half-plane mask."""
    if imgs.shape != (n,) + mask.shape or not np.all(np.isfinite(imgs)):
        return False
    mean_img = imgs.mean(axis=0)
    keep = mask.astype(bool)
    for template, own in ((models[0].mean, keep), (models[1].mean, ~keep)):
        inside = float((mean_img * template)[own].sum())
        outside = float((mean_img * template)[~own].sum())
        if not inside > MASS_RATIO_MIN * outside:
            return False
    return True


WORKLOADS = {
    "experiment_default": ExperimentDefault,
    "train_pixelmix": TrainPixelmix,
    "sample_batch": SampleBatch,
}
