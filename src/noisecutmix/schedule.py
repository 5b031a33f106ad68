"""Discrete variance-preserving noise schedule and the forward noising map.

The schedule stores the cumulative signal-retention coefficients
abar_0 .. abar_T with abar_0 = 1, strictly decreasing, abar_T <= 0.01.
Signal scale at step t is sqrt(abar_t), noise scale sqrt(1 - abar_t),
so the two always satisfy a_t^2 + sigma_t^2 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ALPHA_BAR_FLOOR = 1e-5


@dataclass
class Schedule:
    """Variance-preserving schedule over T discrete steps (T+1 values)."""

    num_steps: int
    alpha_bar: np.ndarray
    sqrt_alpha_bar: np.ndarray = field(init=False, repr=False)
    sigma: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ab = np.asarray(self.alpha_bar, dtype=np.float64)
        if ab.shape != (self.num_steps + 1,):
            raise ValueError(f"alpha_bar must have length T+1={self.num_steps + 1}")
        if ab[0] != 1.0:
            raise ValueError("alpha_bar[0] must be exactly 1")
        # with the two end checks this keeps every value in (0, 1]; a NaN fails it
        if not np.all(np.diff(ab) < 0):
            raise ValueError("alpha_bar must be strictly decreasing")
        if not (0.0 < ab[-1] <= 0.01):
            raise ValueError("alpha_bar[T] must lie in (0, 0.01]")
        self.alpha_bar = ab
        self.sqrt_alpha_bar = np.sqrt(ab)
        self.sigma = np.sqrt(1.0 - ab)

    def signal(self, t: int) -> float:
        return float(self.sqrt_alpha_bar[t])

    def noise(self, t: int) -> float:
        return float(self.sigma[t])

    def log_snr_half(self, t: int) -> float:
        """log(a_t / sigma_t) for 1 <= t <= T; sigma_0 is 0."""
        return 0.5 * math.log(self.alpha_bar[t] / (1.0 - self.alpha_bar[t]))


def make_cosine_schedule(num_steps: int) -> Schedule:
    """Cosine schedule: abar_t = cos^2((t/T + s)/(1 + s) * pi/2) normalized at t=0, s = 0.008.

    Values are kept in [1e-5, 1]. The lower clamp uses a strictly
    decreasing floor (1e-5 at t = T, infinitesimally higher earlier)
    because a flat clamp would create ties in the tail for large T and
    break the strict-monotonicity invariant.
    """
    if num_steps < 2:
        raise ValueError("num_steps must be >= 2")
    s = 0.008
    t = np.arange(num_steps + 1, dtype=np.float64)
    f = np.cos(((t / num_steps + s) / (1.0 + s)) * (np.pi / 2.0)) ** 2
    raw = f / f[0]
    floor = ALPHA_BAR_FLOOR * (1.0 + 1e-6 * (num_steps - t))
    ab = np.minimum(1.0, np.maximum(raw, floor))
    ab[0] = 1.0
    return Schedule(num_steps=num_steps, alpha_bar=ab)


def forward_noise(x0: np.ndarray, eps: np.ndarray, t: int, sched: Schedule) -> np.ndarray:
    """x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps, elementwise."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ValueError(f"shape mismatch: {x0.shape} vs {eps.shape}")
    if not (0 <= t <= sched.num_steps):
        raise ValueError(f"step index {t} outside [0, {sched.num_steps}]")
    return sched.signal(t) * x0 + sched.noise(t) * eps


def cfg_combine(
    eps_cond: np.ndarray, eps_uncond: np.ndarray, scale: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Classifier-free guidance: eps_uncond + scale * (eps_cond - eps_uncond).

    scale 0 and 1 return (a copy of) the respective input bit-exactly.
    The result goes into out if given, which may be eps_cond.
    """
    eps_cond = np.asarray(eps_cond, dtype=np.float64)
    eps_uncond = np.asarray(eps_uncond, dtype=np.float64)
    if eps_cond.shape != eps_uncond.shape:
        raise ValueError(f"shape mismatch: {eps_cond.shape} vs {eps_uncond.shape}")
    if scale == 1.0:
        return np.positive(eps_cond, out=out)  # an exact copy
    if scale == 0.0:
        return np.positive(eps_uncond, out=out)
    eps = np.subtract(eps_cond, eps_uncond, out=out)
    np.multiply(scale, eps, out=eps)
    return np.add(eps_uncond, eps, out=eps)
