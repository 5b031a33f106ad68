"""Reverse-process generation: ancestral DDPM and DPM-Solver++(2M).

One core, run_reverse, integrates a batch over a leading record axis.
A record follows one class condition (random generation) or two whose
guided noise estimates are mixed through a fixed binary mask at every
step (NoiseCutMix). generate_batch makes records and their provenance;
regenerate and sample_*_batch are thin wrappers.

Every record derives its randomness from an integer seed through two
independent child streams, one for mask/ratio draws and one for the
trajectory, so a record is reproducible bit-exactly from its
provenance, alone or in any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classmodels import ClassFamily, ClassModel, class_family, predict_noise
from .errors import NumericalDivergence
from .mixing import mask_from_rect, mix_labels, one_hot, sample_lambda, sample_mask
from .schedule import Schedule, cfg_combine

ANCESTRAL = "ancestral"
DPM_PP_2M = "dpm_solver_pp_2m"
SAMPLER_KINDS = (ANCESTRAL, DPM_PP_2M)

_MASK_STREAM = 0
_TRAJ_STREAM = 1


@dataclass
class SamplerConfig:
    kind: str = DPM_PP_2M
    num_inference_steps: int = 25
    guidance_scale: float = 7.5

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.num_inference_steps < 1:
            raise ValueError("num_inference_steps must be >= 1")
        if not 0.0 <= self.guidance_scale < math.inf:
            raise ValueError("guidance_scale must be finite and >= 0")


@dataclass
class Provenance:
    """Everything needed to regenerate a record bit-exactly (given the
    schedule and class models from the experiment config)."""

    method: str
    class_a: int
    class_b: int | None
    lambda_sampled: float | None
    lambda_real: float
    rect: tuple[float, float, float, float] | None
    seed: int
    sampler: str
    steps: int
    guidance: float
    alpha: float | None


def child_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream), stable across runs."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(stream))))


def timestep_grid(num_steps: int, num_inference_steps: int) -> np.ndarray:
    """n+1 step indices from T down to 0, uniformly spaced in t and rounded."""
    if not (1 <= num_inference_steps <= num_steps):
        raise ValueError(
            f"num_inference_steps must lie in [1, {num_steps}], got {num_inference_steps}"
        )
    ts = np.round(np.linspace(num_steps, 0, num_inference_steps + 1)).astype(np.int64)
    if not np.all(np.diff(ts) < 0):
        raise ValueError("rounded timestep grid is not strictly decreasing")
    return ts


def tweedie_x0(
    x_t: np.ndarray, eps_hat: np.ndarray, t: int, sched: Schedule, out: np.ndarray | None = None
) -> np.ndarray:
    """Data estimate (x_t - sigma_t eps) / a_t, into out if given (which may
    be eps_hat, not x_t)."""
    x0 = np.multiply(sched.noise(t), eps_hat, out=out)
    np.subtract(x_t, x0, out=x0)
    return np.divide(x0, sched.signal(t), out=x0)


def step_ancestral(
    x_t: np.ndarray,
    eps_hat: np.ndarray,
    t_from: int,
    t_to: int,
    sched: Schedule,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One DDPM posterior step from t_from to t_to (skip steps allowed).

    Returns the posterior mean toward t_to plus posterior-variance
    noise; the noise term is omitted on the terminal step t_to = 0,
    where the posterior collapses onto the data estimate. The result
    goes into out if given, which may be x_t or eps_hat; the data
    estimate and then the noise draw share one array allocated per call.
    """
    if not (t_from > t_to >= 0):
        raise ValueError(f"need t_from > t_to >= 0, got {t_from} -> {t_to}")
    if t_from > sched.num_steps:
        raise ValueError(f"t_from {t_from} exceeds schedule length {sched.num_steps}")
    ab_t = float(sched.alpha_bar[t_from])
    ab_s = float(sched.alpha_bar[t_to])
    x0 = tweedie_x0(x_t, eps_hat, t_from, sched)
    u = ab_t / ab_s
    coef_x0 = math.sqrt(ab_s) * (1.0 - u) / (1.0 - ab_t)
    coef_xt = math.sqrt(u) * (1.0 - ab_s) / (1.0 - ab_t)
    np.multiply(coef_x0, x0, out=x0)
    mean = np.multiply(coef_xt, x_t, out=out)
    np.add(x0, mean, out=mean)
    if t_to == 0:
        return mean
    post_var = (1.0 - ab_s) * (1.0 - u) / (1.0 - ab_t)
    noise = rng.standard_normal(np.shape(x_t), out=x0)
    np.multiply(math.sqrt(post_var), noise, out=noise)
    return np.add(mean, noise, out=mean)


def step_dpm_pp_2m(
    x: np.ndarray,
    datapred_curr: np.ndarray,
    datapred_prev: np.ndarray | None,
    times: tuple[int | None, int, int],
    sched: Schedule,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """DPM-Solver++(2M) update in the data-prediction parametrization.

    times is (t_prev, t_curr, t_to): the step of the previous data
    prediction (None on the first step, which falls back to first
    order), the current step, and the target step. With l = log(a/sigma),
    h = l(t_to) - l(t_curr), h_prev = l(t_curr) - l(t_prev), r = h_prev/h:

        D = (1 + 1/(2r)) x0_curr - 1/(2r) x0_prev
        x_to = (sigma_to / sigma_curr) x - a_to (exp(-h) - 1) D

    The update is deterministic. A target of t_to = 0 has infinite h;
    the update limit there is the current data prediction, which is
    returned directly (the standard lower-order terminal step). The
    result goes into out if given, which may be either data prediction
    but not x; one more array is allocated per call.
    """
    t_prev, t_curr, t_to = times
    if not (t_curr > t_to >= 0):
        raise ValueError(f"need t_curr > t_to >= 0, got {t_curr} -> {t_to}")
    if t_curr > sched.num_steps:
        raise ValueError(f"t_curr {t_curr} exceeds schedule length {sched.num_steps}")
    if datapred_prev is not None:
        if t_prev is None or not (t_prev > t_curr):
            raise ValueError("previous data prediction requires t_prev > t_curr")
        if not np.all(np.isfinite(datapred_prev)):
            raise NumericalDivergence("data predictions must be finite")
    if not np.all(np.isfinite(datapred_curr)):
        raise NumericalDivergence("data predictions must be finite")

    if t_to == 0:
        return np.positive(np.asarray(datapred_curr, dtype=np.float64), out=out)  # a copy

    l_curr = sched.log_snr_half(t_curr)
    l_to = sched.log_snr_half(t_to)
    h = l_to - l_curr
    coef_d = sched.signal(t_to) * math.expm1(-h)
    if datapred_prev is None:
        tmp = None
        d = np.multiply(coef_d, datapred_curr, out=out)
    else:
        h_prev = l_curr - sched.log_snr_half(t_prev)
        r = h_prev / h
        # datapred_prev is read before out, which may hold it, is written
        tmp = np.multiply(1.0 / (2.0 * r), datapred_prev)
        d = np.multiply(1.0 + 1.0 / (2.0 * r), datapred_curr, out=out)
        np.subtract(d, tmp, out=d)
        np.multiply(coef_d, d, out=d)
    sigma_ratio = sched.noise(t_to) / sched.noise(t_curr)
    scaled = np.multiply(sigma_ratio, x, out=tmp)
    return np.subtract(scaled, d, out=d)


class _RecordStreams:
    """Per-record trajectory generators behind one generator's draw: row i
    of every (N, ...) draw comes from record i's own stream, so a record
    gets the same noise alone as in any batch."""

    def __init__(self, seeds: list[int]):
        self.rngs = [child_rng(s, _TRAJ_STREAM) for s in seeds]

    def standard_normal(self, shape, out: np.ndarray | None = None) -> np.ndarray:
        """A (N, ...) draw, row i from record i's stream, into out if given."""
        if shape[0] != len(self.rngs):
            raise ValueError(f"draw of {shape[0]} rows from {len(self.rngs)} record streams")
        out = np.empty(shape) if out is None else out
        for r, row in zip(self.rngs, out):
            r.standard_normal(out=row)
        return out


def guided_eps_fn(class_a, class_b, keep_a, cfg: SamplerConfig, sched: Schedule, models, shape):
    """eps_fn(x, t, out=None): the guided noise estimate of one class or of a masked pair.

    class_a and class_b are class ids or (N,) arrays of them. With class_b
    None this is class_a's guided estimate; otherwise each cell takes
    class_a's where keep_a ((H, W) or (N, H, W) bool) is set and class_b's
    elsewhere. Both share one unconditional estimate per step, skipped at
    guidance 1, where cfg_combine returns the conditional estimate.

    x has the given shape. The unconditional and class_a estimates live
    in arrays allocated here once; the returned estimate goes into out
    if given (not x), else into a new array.
    """
    scale = cfg.guidance_scale
    uncond_buf = None if scale == 1.0 else np.empty(shape)
    a_buf = None if class_b is None else np.empty(shape)

    def eps_fn(x, t, out=None):
        uncond = None if scale == 1.0 else predict_noise(x, None, t, sched, models, out=uncond_buf)

        def guided(cond, buf):
            eps = predict_noise(x, cond, t, sched, models, out=buf)
            return eps if uncond is None else cfg_combine(eps, uncond, scale, out=eps)

        if class_b is None:
            return guided(class_a, out)
        eps_a = guided(class_a, a_buf)
        eps = guided(class_b, out)
        # mask selection: each cell takes exactly one source value
        np.copyto(eps, eps_a, where=keep_a)
        return eps

    return eps_fn


def run_reverse(class_a, class_b, keep_a, cfg: SamplerConfig, sched: Schedule, models, rng, n):
    """The reverse-process core: n terminal images (n, H, W) following
    guided_eps_fn(class_a, class_b, keep_a) from step T down to 0; rng
    draws the initial noise and each ancestral step's noise.

    The working (n, H, W) arrays are allocated once, before the first
    step, and every step writes into them: x and the noise estimate, the
    unconditional and class_a estimates when guiding or mixing, and for
    DPM-Solver++(2M) one that receives the first update. There the data
    prediction overwrites the noise estimate and each later update
    overwrites the previous prediction, so x, the estimate and the
    previous prediction rotate through three arrays.
    """
    family = class_family(models)
    x = rng.standard_normal((n,) + family.means.shape[1:])
    eps_fn = guided_eps_fn(class_a, class_b, keep_a, cfg, sched, family, x.shape)
    ts = timestep_grid(sched.num_steps, cfg.num_inference_steps)
    eps = np.empty_like(x)
    if cfg.kind == ANCESTRAL:
        for k in range(len(ts) - 1):
            eps_fn(x, int(ts[k]), out=eps)
            step_ancestral(x, eps, int(ts[k]), int(ts[k + 1]), sched, rng, out=x)
        return x
    free, prev_pred, prev_t = np.empty_like(x), None, None
    for k in range(len(ts) - 1):
        t_curr, t_to = int(ts[k]), int(ts[k + 1])
        eps_fn(x, t_curr, out=eps)
        pred = tweedie_x0(x, eps, t_curr, sched, out=eps)
        dest = free if prev_pred is None else prev_pred
        x, eps = step_dpm_pp_2m(x, pred, prev_pred, (prev_t, t_curr, t_to), sched, out=dest), x
        prev_pred, prev_t = pred, t_curr
    return x


def generate_batch(
    class_a: list[int],
    class_b: list[int] | None,
    cfg: SamplerConfig,
    sched: Schedule,
    models: ClassFamily | list[ClassModel],
    seeds: list[int],
    alpha: float | None = None,
) -> tuple[np.ndarray, np.ndarray, list[Provenance]]:
    """One record per seed from one core call: (images (N, H, W), labels
    (N, K), provenances).

    With class_b None, record i is conditioned on class_a[i] alone and
    has a one-hot label. Otherwise it mixes the noise estimates of
    class_a[i] and class_b[i] through a mask drawn once from its seed's
    mask stream (a Beta(alpha, alpha) ratio, then the cut rectangle) and
    held fixed across all steps; its soft label uses the realized
    (post-clipping) area ratio. Each provenance regenerates its record.
    """
    family = class_family(models)
    k, h, w = family.means.shape
    settings = dict(sampler=cfg.kind, steps=cfg.num_inference_steps,
                    guidance=cfg.guidance_scale, alpha=alpha)
    if class_b is None:
        provs = [Provenance("single", a, None, None, 1.0, None, s, **settings)
                 for a, s in zip(class_a, seeds)]
        labels = np.stack([one_hot(a, k) for a in class_a])
        keep_a = None
    else:
        provs = []
        for a, b, s in zip(class_a, class_b, seeds):
            rng = child_rng(s, _MASK_STREAM)
            spec = sample_mask(w, h, sample_lambda(alpha, rng), rng)
            provs.append(Provenance("noisecutmix", a, b, spec.lambda_sampled, spec.lambda_real,
                                    spec.rect, s, **settings))
        labels = np.stack([mix_labels(p.class_a, p.class_b, p.lambda_real, k) for p in provs])
        keep_a = mask_from_rect(w, h, [p.rect for p in provs]).astype(bool)
        class_b = np.asarray(class_b)
    images = run_reverse(np.asarray(class_a), class_b, keep_a, cfg, sched, family,
                         _RecordStreams(seeds), len(seeds))
    return images, labels, provs


def regenerate(
    prov: Provenance, sched: Schedule, models: ClassFamily | list[ClassModel]
) -> tuple[np.ndarray, np.ndarray]:
    """A record's (image (H, W), label (K,)), rebuilt bit-exactly from its provenance."""
    cfg = SamplerConfig(
        kind=prov.sampler, num_inference_steps=prov.steps, guidance_scale=prov.guidance
    )
    if prov.method == "single":
        class_b = None
    elif prov.method == "noisecutmix":
        if prov.class_b is None or prov.alpha is None:
            raise ValueError("noisecutmix provenance requires class_b and alpha")
        class_b = [prov.class_b]
    else:
        raise ValueError(f"unknown generation method {prov.method!r}")
    images, labels, _ = generate_batch(
        [prov.class_a], class_b, cfg, sched, models, [prov.seed], prov.alpha
    )
    return images[0], labels[0]


def sample_single_batch(
    cond: int,
    cfg: SamplerConfig,
    sched: Schedule,
    models: list[ClassModel],
    seed: int,
    n: int,
) -> np.ndarray:
    """n terminal images for one class condition, shape (n, H, W), drawn
    from one trajectory stream; for moment-level distribution tests where
    per-record provenance is not needed."""
    return run_reverse(cond, None, None, cfg, sched, models, child_rng(seed, _TRAJ_STREAM), n)


def sample_noisecutmix_batch(
    class_a: int,
    class_b: int,
    mask: np.ndarray,
    cfg: SamplerConfig,
    sched: Schedule,
    models: ClassFamily | list[ClassModel],
    seed: int,
    n: int,
) -> np.ndarray:
    """n terminal mixed images sharing one fixed mask, shape (n, H, W)."""
    family = class_family(models)
    mask = np.asarray(mask, dtype=np.uint8)
    if mask.shape != family.means.shape[1:]:
        raise ValueError(f"mask must have shape {family.means.shape[1:]}")
    rng = child_rng(seed, _TRAJ_STREAM)
    return run_reverse(class_a, class_b, mask.astype(bool), cfg, sched, family, rng, n)
