"""Pixel-space mixing baselines: CutMix and MixUp over (image, soft label) pairs.

Both accept soft labels, not just one-hot, so they compose with
generator-augmented training sets. apply_policy gates per batch and
pairs each element with a random permutation partner, drawing a fresh
ratio (and mask, for CutMix) per pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mixing import sample_lambda, sample_mask

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
        if self.kind != "none" and self.alpha <= 0.0:
            raise ValueError("alpha must be positive for an active policy")


def _check_pair(img_a, label_a, img_b, label_b):
    if img_a.shape != img_b.shape:
        raise ValueError(f"image shape mismatch: {img_a.shape} vs {img_b.shape}")
    if label_a.shape != label_b.shape:
        raise ValueError(f"label shape mismatch: {label_a.shape} vs {label_b.shape}")


def cutmix_pair(
    img_a: np.ndarray,
    label_a: np.ndarray,
    img_b: np.ndarray,
    label_b: np.ndarray,
    alpha: float,
    rng: np.random.Generator,
    force_lambda: float | None = None,
    force_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Paste a random rectangle of img_b into img_a; area-weighted label.

    The label weight is the realized (post-clipping) area ratio, so the
    emitted label always matches the pixels actually pasted.
    """
    _check_pair(img_a, label_a, img_b, label_b)
    h, w = img_a.shape
    if force_mask is not None:
        mask = np.asarray(force_mask, dtype=np.uint8)
        if mask.shape != (h, w):
            raise ValueError(f"forced mask must have shape {(h, w)}")
        lam_real = 1.0 - np.count_nonzero(mask == 0) / mask.size
    else:
        lam = force_lambda if force_lambda is not None else sample_lambda(alpha, rng)
        if lam == 1.0:
            return img_a.copy(), label_a.copy()
        spec = sample_mask(w, h, lam, rng)
        mask, lam_real = spec.mask, spec.lambda_real
    out = np.where(mask.astype(bool), img_a, img_b)
    label = lam_real * label_a + (1.0 - lam_real) * label_b
    return out, label


def mixup_pair(
    img_a: np.ndarray,
    label_a: np.ndarray,
    img_b: np.ndarray,
    label_b: np.ndarray,
    alpha: float,
    rng: np.random.Generator,
    force_lambda: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Convex blend of two images and labels with lam ~ Beta(alpha, alpha)."""
    _check_pair(img_a, label_a, img_b, label_b)
    lam = force_lambda if force_lambda is not None else sample_lambda(alpha, rng)
    if lam == 1.0:
        return img_a.copy(), label_a.copy()
    out = lam * img_a + (1.0 - lam) * img_b
    label = lam * label_a + (1.0 - lam) * label_b
    return out, label


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
    if policy.kind == "none":
        return batch
    images, labels = batch
    if len(images) < 2:
        raise ValueError("active policies need a batch of at least 2")
    if rng.random() >= policy.probability:
        return batch
    perm = rng.permutation(len(images))
    mix = cutmix_pair if policy.kind == "cutmix" else mixup_pair
    out_images, out_labels = np.empty(images.shape), np.empty(labels.shape)
    for i, j in enumerate(perm.tolist()):
        lam = sample_lambda(policy.alpha, rng)
        out_images[i], out_labels[i] = mix(
            images[i], labels[i], images[j], labels[j], policy.alpha, rng, force_lambda=lam
        )
        if trace is not None:
            trace.append((i, j, lam))
    return out_images, out_labels
