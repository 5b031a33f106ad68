"""Mixing-ratio sampling, rectangular binary masks, and soft labels.

The mixing ratio lambda is Beta(alpha, alpha) distributed. A rectangle
of size (W sqrt(1-lambda)) x (H sqrt(1-lambda)) is centered at a
uniformly drawn point (none for lambda 1.0, which cuts nothing) and
clipped to the grid; covered cells (center inside the rectangle) are
zeroed. Because clipping can shrink the cut, the ratio actually used
downstream, lambda_real, is always recomputed from the realized zero
area.
"""

from __future__ import annotations

import math

import numpy as np

# the rectangle of a ratio of exactly 1.0: it cuts nothing
NO_CUT = (0.0, 0.0, 0.0, 0.0)


def _gamma_marsaglia_tsang(shape: float, rng: np.random.Generator) -> float:
    """Gamma(shape, 1) variate via Marsaglia-Tsang squeeze rejection.

    For shape < 1 uses the boosting transform: draw Gamma(shape+1) and
    multiply by U^(1/shape).
    """
    if shape < 1.0:
        g = _gamma_marsaglia_tsang(shape + 1.0, rng)
        u = rng.random()
        # u == 0 would underflow the power; the generator never returns 1.0
        # but can return 0.0, so nudge into the open interval.
        if u <= 0.0:
            u = np.finfo(np.float64).tiny
        return g * u ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.standard_normal()
        v = (1.0 + c * x) ** 3
        if v <= 0.0:
            continue
        u = rng.random()
        if u < 1.0 - 0.0331 * x ** 4:
            return d * v
        if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


def sample_lambda(alpha: float, rng: np.random.Generator) -> float:
    """Beta(alpha, alpha) variate as G1 / (G1 + G2) with Gamma(alpha, 1) draws."""
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    g1 = _gamma_marsaglia_tsang(alpha, rng)
    g2 = _gamma_marsaglia_tsang(alpha, rng)
    total = g1 + g2
    if total == 0.0:
        # Both gammas underflowed (possible for very small alpha); the
        # limit distribution is a fair coin on {0, 1}.
        return float(rng.random() < 0.5)
    return g1 / total


def mask_from_rect(width: int, height: int, rect) -> np.ndarray:
    """Binary (..., H, W) masks for rectangles (..., 4) of (r_x, r_y, r_w, r_h):
    0 where the cell center falls inside the clipped rectangle.

    One 4-tuple gives one (H, W) mask; an (N, 4) array gives N masks in one
    broadcast. fmax/fmin clip like Python's max(0.0, v) and min(W, v),
    which ignore a NaN v.
    """
    r_x, r_y, r_w, r_h = np.moveaxis(np.asarray(rect, dtype=np.float64), -1, 0)[..., None]
    x1 = np.fmax(0.0, r_x - r_w / 2.0)
    x2 = np.fmin(float(width), r_x + r_w / 2.0)
    y1 = np.fmax(0.0, r_y - r_h / 2.0)
    y2 = np.fmin(float(height), r_y + r_h / 2.0)
    cols = np.arange(width, dtype=np.float64) + 0.5
    rows = np.arange(height, dtype=np.float64) + 0.5
    in_x = (cols >= x1) & (cols <= x2)
    in_y = (rows >= y1) & (rows <= y2)
    return (~(in_y[..., :, None] & in_x[..., None, :])).astype(np.uint8)


def realized_lambda(masks: np.ndarray):
    """Share of cells each 0/1 mask keeps, over the trailing (H, W) axes of one mask or a stack."""
    h, w = masks.shape[-2:]
    return 1.0 - (h * w - np.count_nonzero(masks, axis=(-2, -1))) / (h * w)


def sample_mask(
    width: int, height: int, lam: float, rng: np.random.Generator
) -> tuple[float, float, float, float]:
    """The CutMix rectangle (r_x, r_y, r_w, r_h) for mixing ratio lam, as Python floats.

    The center is drawn x ~ Unif(0, W), then y ~ Unif(0, H); the size is
    (W sqrt(1 - lam), H sqrt(1 - lam)). A ratio of exactly 1.0 draws
    nothing and gives NO_CUT. mask_from_rect builds the masks.
    """
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    if lam == 1.0:
        return NO_CUT
    r_x = rng.uniform(0.0, width)
    r_y = rng.uniform(0.0, height)
    side = math.sqrt(1.0 - lam)
    return r_x, r_y, width * side, height * side


def one_hot(index: int, num_classes: int) -> np.ndarray:
    if not (0 <= index < num_classes):
        raise ValueError(f"class index {index} out of range [0, {num_classes})")
    y = np.zeros(num_classes, dtype=np.float64)
    y[index] = 1.0
    return y


def mix_labels(y_a: int, y_b: int, lambda_real: float, num_classes: int) -> np.ndarray:
    """Soft label lambda_real * onehot(y_a) + (1 - lambda_real) * onehot(y_b)."""
    if not (0.0 <= lambda_real <= 1.0):
        raise ValueError(f"lambda_real must lie in [0, 1], got {lambda_real}")
    return lambda_real * one_hot(y_a, num_classes) + (1.0 - lambda_real) * one_hot(y_b, num_classes)
