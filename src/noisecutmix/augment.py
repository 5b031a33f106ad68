"""Pixel-space mixing baselines: CutMix and MixUp over (image, soft label) pairs.

Both accept soft labels, not just one-hot, so they compose with
generator-augmented training sets. apply_policy gates per batch and
pairs each element with a random permutation partner, drawing a fresh
ratio (and rectangle, for CutMix) per pair. The scalar draws run in one
short loop; the masks and the mixing then run once over the whole batch.
The cut size and the realized ratio come from mixing, as in generation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixing import cut_size, mask_from_rect, realized_lambda, sample_lambda

POLICY_KINDS = ("none", "cutmix", "mixup")


@dataclass
class AugmentPolicy:
    kind: str = "none"
    alpha: float = 1.0
    probability: float = 0.5

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must lie in [0, 1]")
        if self.kind != "none" and not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be finite and positive for an active policy")


def _draw(n, alpha, rng, grid=None):
    """n mixing ratios and, for a (W, H) grid, n CutMix masks (N, H, W), else None.

    Per row, in this order: the ratio from Beta(alpha, alpha), then, on a
    grid and only for a ratio other than exactly 1.0, the rectangle center
    x ~ Unif(0, W) and y ~ Unif(0, H). The rectangle measures
    mixing.cut_size; a row with ratio 1.0 draws no center and cuts nothing.
    """
    lams, centers = [], np.zeros((n, 2))
    for i in range(n):
        lam = sample_lambda(alpha, rng)
        lams.append(lam)
        if grid is not None and lam != 1.0:
            centers[i] = rng.uniform(0.0, grid[0]), rng.uniform(0.0, grid[1])
    lam = np.array(lams, dtype=np.float64)
    if grid is None:
        return lam, None
    width, height = grid
    cut = lam != 1.0
    masks = np.ones((n, height, width), dtype=np.uint8)
    rects = np.column_stack([centers, *cut_size(width, height, lam)])
    masks[cut] = mask_from_rect(width, height, rects[cut])
    return lam, masks


def _mix(images_a, labels_a, images_b, labels_b, lam, masks=None):
    """Row i mixes (a_i, b_i) into new arrays.

    With masks (CutMix), pixels come from a_i where masks[i] is 1 and the
    label weight of a_i is the realized (post-clipping) area ratio, not
    lam, so the label always matches the pixels actually pasted. Without
    (MixUp), the image and label are the lam[i] convex blend. A row whose
    weight is exactly 1.0 is a copy of a_i.
    """
    if masks is not None:
        lam = realized_lambda(masks)
        out = np.where(masks, images_a, images_b)
    else:
        weight = lam[:, None, None]
        out = weight * images_a + (1.0 - weight) * images_b
    weight = lam[:, None]
    out_labels = weight * labels_a + (1.0 - weight) * labels_b
    whole = lam == 1.0
    out[whole], out_labels[whole] = images_a[whole], labels_a[whole]
    return out, out_labels


def apply_policy(
    batch: tuple[np.ndarray, np.ndarray],
    policy: AugmentPolicy,
    rng: np.random.Generator,
    trace: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the mixing policy to a batch (images (N, H, W), labels (N, K))
    with the configured probability.

    The gate is drawn once per batch; when it does not fire, the batch
    object itself is returned. When it fires, a random permutation
    assigns each element a partner and each pair is mixed with its own
    ratio draw into new arrays. trace, if given, collects
    (index, partner, lambda) triples for replay-style verification.
    """
    images, labels = batch
    if np.ndim(images) != 3 or np.ndim(labels) != 2 or len(images) != len(labels):
        raise ValueError(
            f"expected images (N, H, W) and labels (N, K), got shapes "
            f"{np.shape(images)} and {np.shape(labels)}"
        )
    if policy.kind == "none":
        return batch
    n, h, w = images.shape
    if n < 2:
        raise ValueError("active policies need a batch of at least 2")
    if rng.random() >= policy.probability:
        return batch
    perm = rng.permutation(n)
    lam, masks = _draw(n, policy.alpha, rng, (w, h) if policy.kind == "cutmix" else None)
    if trace is not None:
        trace.extend(zip(range(n), perm.tolist(), lam.tolist()))
    return _mix(images, labels, images[perm], labels[perm], lam, masks)
