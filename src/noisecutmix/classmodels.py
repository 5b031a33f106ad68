"""Per-class Gaussian image models and the closed-form optimal noise predictor.

Each class c is a Gaussian over single-channel W x H grids with mean
mu_c and diagonal covariance var_c. Under the variance-preserving
forward process the step-t marginal of class c is Gaussian with mean
sqrt(abar_t) mu_c and diagonal variance v_t = abar_t var_c + (1 - abar_t),
so the optimal noise predictor is available in closed form:

    eps*(x) = -sqrt(1 - abar_t) * grad log p_t(x)
            = sqrt(1 - abar_t) * (x - sqrt(abar_t) mu_c) / v_t     (conditional)

For the unconditional branch p_t is the uniform mixture over all K
classes (prior 1/K each) and the score is the responsibility-weighted
sum of per-class scores, with responsibilities computed in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedule import Schedule

VAR_FLOOR = 1e-6

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class ClassModel:
    """Gaussian image model for one class: N(mean, diag(var))."""

    class_id: int
    mean: np.ndarray  # (H, W)
    var: np.ndarray   # (H, W), all >= VAR_FLOOR

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.var = np.asarray(self.var, dtype=np.float64)
        if self.mean.shape != self.var.shape:
            raise ValueError("mean and var must have the same shape")
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("class mean must be finite")
        if np.any(self.var < VAR_FLOOR):
            raise ValueError(f"variances must be >= {VAR_FLOOR}")


def _bump_centers(num_classes: int, width: int, height: int) -> list[tuple[float, float]]:
    """Deterministic k x k lattice of bump centers, row-major class order."""
    k = math.ceil(math.sqrt(num_classes))
    if width / k < 2.0 or height / k < 2.0:
        raise ValueError(
            f"{num_classes} classes exceed the lattice capacity of a {width}x{height} grid"
        )
    centers = []
    for c in range(num_classes):
        i, j = c % k, c // k
        centers.append(((i + 0.5) * width / k, (j + 0.5) * height / k))
    return centers


def make_bump_dataset(
    num_classes: int,
    width: int,
    height: int,
    bump_sigma: float,
    noise_var: float,
    seed: int,
    n_per_class: int,
) -> tuple[list[ClassModel], tuple[np.ndarray, np.ndarray]]:
    """Build class models with Gaussian-bump means and draw exact samples.

    Class c's mean is a unit-amplitude Gaussian bump of spatial width
    bump_sigma centered at its lattice point; covariance is uniform
    diagonal noise_var. Samples are exact draws from each class model,
    class-major, reproducible from the seed, returned as
    (images (N, H, W), class ids (N,)) with N = num_classes * n_per_class.
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if width < 4 or height < 4:
        raise ValueError("grid must be at least 4x4")
    if bump_sigma <= 0.0:
        raise ValueError("bump_sigma must be positive")
    if noise_var < VAR_FLOOR:
        raise ValueError(f"noise_var must be >= {VAR_FLOOR}")
    if n_per_class < 0:
        raise ValueError("n_per_class must be >= 0")

    centers = _bump_centers(num_classes, width, height)
    cols = np.arange(width, dtype=np.float64) + 0.5
    rows = np.arange(height, dtype=np.float64) + 0.5
    xx, yy = np.meshgrid(cols, rows)

    models = []
    for c, (cx, cy) in enumerate(centers):
        mean = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * bump_sigma ** 2))
        var = np.full((height, width), float(noise_var))
        models.append(ClassModel(class_id=c, mean=mean, var=var))

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xDA7A)))
    images = rng.standard_normal((num_classes, n_per_class, height, width))
    images *= math.sqrt(noise_var)
    images += np.stack([m.mean for m in models])[:, None]
    class_ids = np.repeat(np.arange(num_classes), n_per_class)
    return models, (images.reshape(-1, height, width), class_ids)


@dataclass(frozen=True)
class ClassFamily:
    """The K class models stacked: class c is row c of every array."""

    means: np.ndarray      # (K, H, W)
    variances: np.ndarray  # (K, H, W)


def class_family(models: ClassFamily | list[ClassModel]) -> ClassFamily:
    """The stacked family of a list of class models with ids 0..K-1 in
    order; a family is returned unchanged."""
    if isinstance(models, ClassFamily):
        return models
    if not models or [m.class_id for m in models] != list(range(len(models))):
        raise ValueError("class models must be a non-empty list with class ids 0..K-1 in order")
    return ClassFamily(np.stack([m.mean for m in models]), np.stack([m.var for m in models]))


def _step_params(t: int, sched: Schedule):
    if not (1 <= t <= sched.num_steps):
        raise ValueError(f"step index {t} outside [1, {sched.num_steps}]")
    ab = float(sched.alpha_bar[t])
    return ab, math.sqrt(ab), math.sqrt(1.0 - ab)


def predict_noise(
    x_t: np.ndarray,
    cond: int | np.ndarray | None,
    t: int,
    sched: Schedule,
    models: ClassFamily | list[ClassModel],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Optimal noise estimate for x_t under the given condition.

    cond is a class id, an (N,) array of class ids (one per leading
    entry of x_t, so of shape x_t.shape[:-2]), or None for the
    unconditional (all-class mixture) branch. x_t may carry leading
    batch axes over the (H, W) grid; the result has the same shape and
    goes into out if given (not x_t).
    Each call builds its per-class constants once, stacked (K, H, W): the
    means scaled by sqrt(abar_t), the variances v_t and, for the mixture,
    log v_t + log 2 pi. The mixture branch keeps its per-class terms in one
    array of x_t's shape that it allocates per call, and the K
    log-densities in one (K,) + batch-shape array.
    """
    family = class_family(models)
    x_t = np.asarray(x_t, dtype=np.float64)
    ab, sqrt_ab, sqrt_1mab = _step_params(t, sched)
    num_classes = len(family.means)

    if cond is None and num_classes == 1:
        # one-class mixture: responsibilities are identically 1
        cond = 0
    v = ab * family.variances + (1.0 - ab)
    mu = sqrt_ab * family.means
    if cond is not None:
        ids = np.asarray(cond)
        if ids.ndim and ids.shape != x_t.shape[:-2]:
            # numpy would broadcast a 1-id array over every record
            raise ValueError(f"class-id array of shape {ids.shape} must match x's records {x_t.shape[:-2]}")
        unknown = ids[(ids < 0) | (ids >= num_classes)]  # numpy would wrap -1
        if unknown.size:
            raise ValueError(f"unknown class id {unknown.flat[0]}")
        # one row per record for an id array, one (H, W) grid for an int id
        eps = np.subtract(x_t, mu[ids], out=out)
        np.multiply(sqrt_1mab, eps, out=eps)
        return np.divide(eps, v[ids], out=eps)

    # log(1/K) + log N(x_t; sqrt(abar_t) mu_c, v_c) per class, totals over
    # the trailing (H, W) axes, shape (K,) + batch shape
    log_norm = np.log(v)
    log_norm += LOG_2PI
    work = np.empty_like(x_t)
    log_dens = np.empty((num_classes,) + x_t.shape[:-2])
    for c in range(num_classes):
        z = np.subtract(x_t, mu[c], out=work)
        np.multiply(z, z, out=z)
        np.divide(z, v[c], out=z)
        np.add(log_norm[c], z, out=z)
        np.add.reduce(z, axis=(-2, -1), out=log_dens[c, ...])
    log_dens *= -0.5
    log_dens += math.log(1.0 / num_classes)
    log_dens -= log_dens.max(axis=0, keepdims=True)
    resp = np.exp(log_dens, out=log_dens)
    resp /= resp.sum(axis=0, keepdims=True)

    eps = np.empty_like(x_t) if out is None else out
    eps.fill(0.0)
    for c in range(num_classes):
        term = np.subtract(x_t, mu[c], out=work)
        np.multiply(resp[c, ..., None, None], term, out=term)
        np.divide(term, v[c], out=term)
        np.add(eps, term, out=eps)
    return np.multiply(sqrt_1mab, eps, out=eps)
