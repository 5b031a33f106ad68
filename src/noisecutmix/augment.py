"""Pixel-space mixing baselines: CutMix and MixUp over (image, soft label) pairs.

Both accept soft labels, not just one-hot, so they compose with
generator-augmented training sets. apply_policy gates per batch and
pairs each element with a random permutation partner, drawing a fresh
ratio (and rectangle, for CutMix) per pair. The scalar draws run in one
short loop; the masks and the mixing then run once over the whole batch.
The rectangle draw and the realized ratio come from mixing, as in generation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixing import mask_from_rect, realized_lambda, sample_lambda, sample_mask

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
            raise ValueError(f"{self.kind} alpha must be finite and positive, got {self.alpha!r}")


def _mix(images_a, labels_a, images_b, labels_b, lam, masks=None):
    """Row i mixes (a_i, b_i) into new arrays.

    With masks (CutMix), pixels come from a_i where masks[i] is set and the
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
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the mixing policy to a batch (images (N, H, W), labels (N, K))
    with the configured probability.

    The gate is drawn once per batch; when it does not fire, the batch
    object itself is returned. When it fires, a random permutation
    assigns each element a partner and each pair is mixed into new arrays
    with its own ratio draw and, for CutMix, then its own sample_mask
    rectangle.
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
    cutmix = policy.kind == "cutmix"
    lams, rects = [], []
    for _ in range(n):
        lams.append(sample_lambda(policy.alpha, rng))
        if cutmix:
            rects.append(sample_mask(w, h, lams[-1], rng))
    masks = mask_from_rect(w, h, rects) if cutmix else None
    return _mix(images, labels, images[perm], labels[perm], np.array(lams), masks)
