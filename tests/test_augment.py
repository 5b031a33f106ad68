import math

import numpy as np
import pytest

from noisecutmix import AugmentPolicy, apply_policy, augment, one_hot, sample_lambda, sample_mask
from noisecutmix.augment import _mix
from noisecutmix.mixing import mask_from_rect, realized_lambda
from noisecutmix.samplers import child_rng


def _pairs(seed, n=20, shape=(16, 16), k=3):
    """n rows of (a, one-hot 0) and n rows of (b, one-hot 1)."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, n, *shape))
    return a, np.tile(one_hot(0, k), (n, 1)), b, np.tile(one_hot(1, k), (n, 1))


def _cutmix_draws(n, alpha, rng, width=16, height=16):
    """n ratios and their CutMix masks (n, H, W), drawn as apply_policy draws
    them: per row the ratio, then its sample_mask rectangle."""
    lam, rects = [], []
    for _ in range(n):
        lam.append(sample_lambda(alpha, rng))
        rects.append(sample_mask(width, height, lam[-1], rng))
    return np.array(lam), mask_from_rect(width, height, rects)


def test_cutmix_empty_cut_is_identity():
    # alpha 0.01 puts some ratios at exactly 1.0: their masks cut nothing and copy a
    a, ya, b, yb = _pairs(0, n=32)
    lam, masks = _cutmix_draws(32, 0.01, child_rng(0, 0))
    whole = lam == 1.0
    assert whole.any() and np.all(masks[whole] == 1)
    img, label = _mix(a, ya, b, yb, lam, masks)
    assert np.array_equal(img[whole], a[whole])
    assert np.array_equal(label[whole], ya[whole])


def test_cutmix_idempotent_on_equal_images():
    a, ya, _, yb = _pairs(1)
    lam, masks = _cutmix_draws(20, 1.0, child_rng(1, 0))
    img, _ = _mix(a, ya, a.copy(), yb, lam, masks)
    assert np.array_equal(img, a)


def test_cutmix_integer_area_label():
    # an 8x8 zero block in a 16x16 grid puts weight 64/256 on the donor
    a, ya, b, yb = _pairs(2, n=1)
    mask = np.ones((1, 16, 16), dtype=np.uint8)
    mask[0, 4:12, 4:12] = 0
    img, label = _mix(a, ya, b, yb, None, mask)
    assert np.allclose(label, 0.75 * ya + 0.25 * yb, atol=1e-15)
    assert np.array_equal(img[mask == 0], b[mask == 0])
    assert np.array_equal(img[mask == 1], a[mask == 1])


def test_cutmix_output_is_partition_of_sources():
    a, ya, b, yb = _pairs(3)
    lam, masks = _cutmix_draws(20, 1.0, child_rng(3, 0))
    img, _ = _mix(a, ya, b, yb, lam, masks)
    assert np.all((img == a) | (img == b))


def test_mixup_identity_and_midpoint():
    a, ya, b, yb = _pairs(4, n=1)
    img, label = _mix(a, ya, b, yb, np.array([1.0]))
    assert np.array_equal(img, a) and np.array_equal(label, ya)
    zero = np.zeros((1, 4, 4))
    two = np.full((1, 4, 4), 2.0)
    img, _ = _mix(zero, ya, two, yb, np.array([0.5]))
    assert np.array_equal(img, np.ones((1, 4, 4)))


def test_mixup_label_interpolation():
    _, label = _mix(np.zeros((1, 2, 2)), one_hot(0, 2)[None], np.ones((1, 2, 2)),
                    one_hot(1, 2)[None], np.array([0.2]))
    assert np.allclose(label, [[0.2, 0.8]], atol=1e-15)


def test_mixup_bounded_by_sources():
    a, ya, b, yb = _pairs(6)
    rng = child_rng(6, 0)
    lam = np.array([sample_lambda(0.2, rng) for _ in range(20)])
    assert np.all((lam >= 0.0) & (lam <= 1.0))
    img, _ = _mix(a, ya, b, yb, lam)
    assert np.all(img >= np.minimum(a, b) - 1e-12)
    assert np.all(img <= np.maximum(a, b) + 1e-12)


def test_policy_and_generation_cut_alike():
    # apply_policy's CutMix cuts a (W, H) = (12, 9) grid with generation's draw: per
    # pair the ratio, then its sample_mask rectangle; a pair of constant images 1
    # and 0 shows each mask in the pixels
    w, h = 12, 9
    images, labels = np.stack([np.ones((h, w)), np.zeros((h, w))]), np.eye(2)
    for seed in range(50):
        out, out_labels = apply_policy((images, labels), AugmentPolicy("cutmix", 1.0, 1.0),
                                       child_rng(seed, 0))
        rng = child_rng(seed, 0)
        rng.random()
        perm = rng.permutation(2)
        lam, masks = _cutmix_draws(2, 1.0, rng, w, h)
        assert np.all(lam != 1.0)
        assert np.array_equal(out, np.where(masks, images, images[perm]))
        weight = realized_lambda(masks)[:, None]
        assert np.array_equal(out_labels, weight * labels + (1.0 - weight) * labels[perm])


def _batch(seed, n=6, k=4):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 8, 8)), np.eye(k)[np.arange(n) % k]


def test_apply_policy_probability_zero_is_identity():
    batch = _batch(7)
    out = apply_policy(batch, AugmentPolicy("mixup", 0.2, 0.0), child_rng(7, 0))
    assert out is batch


def test_apply_policy_none_is_identity():
    batch = _batch(8)
    out = apply_policy(batch, AugmentPolicy("none", probability=1.0), child_rng(8, 0))
    assert out is batch


def _per_pair_reference(images, labels, policy, rng):
    """Mix pair by pair: the gate, the permutation, then per pair its ratio
    and, for CutMix with a ratio other than exactly 1.0, its rectangle
    center (x then y), with the mask built cell by cell."""
    assert rng.random() < policy.probability
    n, h, w = images.shape
    perm = rng.permutation(n)
    out_images, out_labels, trace = np.empty(images.shape), np.empty(labels.shape), []
    for i, j in enumerate(perm.tolist()):
        lam = sample_lambda(policy.alpha, rng)
        trace.append((i, j, lam))
        if lam == 1.0:
            out_images[i], out_labels[i] = images[i], labels[i]
        elif policy.kind == "mixup":
            out_images[i] = lam * images[i] + (1.0 - lam) * images[j]
            out_labels[i] = lam * labels[i] + (1.0 - lam) * labels[j]
        else:
            r_x, r_y = rng.uniform(0.0, w), rng.uniform(0.0, h)
            r_w, r_h = w * math.sqrt(1.0 - lam), h * math.sqrt(1.0 - lam)
            x1, x2 = max(0.0, r_x - r_w / 2.0), min(float(w), r_x + r_w / 2.0)
            y1, y2 = max(0.0, r_y - r_h / 2.0), min(float(h), r_y + r_h / 2.0)
            keep = np.array([[not (x1 <= c + 0.5 <= x2 and y1 <= r + 0.5 <= y2)
                              for c in range(w)] for r in range(h)])
            lam_real = 1.0 - np.count_nonzero(~keep) / keep.size
            out_images[i] = np.where(keep, images[i], images[j])
            out_labels[i] = lam_real * labels[i] + (1.0 - lam_real) * labels[j]
    return out_images, out_labels, trace


@pytest.mark.parametrize(
    "kind,alpha", [("mixup", 0.2), ("mixup", 0.01), ("cutmix", 1.0), ("cutmix", 0.01)],
    ids=["mixup-0.2", "mixup-0.01", "cutmix-1.0", "cutmix-0.01"],
)
def test_apply_policy_replay(kind, alpha):
    # with probability 1 the batch equals a per-pair replay from the same seed, bit for bit;
    # alpha 0.01 puts some ratios at exactly 1.0, which must draw no rectangle
    images, labels = batch = _batch(9, n=32)
    policy = AugmentPolicy(kind, alpha, 1.0)
    rng, ref_rng = child_rng(9, 0), child_rng(9, 0)
    out_images, out_labels = apply_policy(batch, policy, rng)
    ref_images, ref_labels, ref_trace = _per_pair_reference(images, labels, policy, ref_rng)
    assert np.array_equal(out_images, ref_images)
    assert np.array_equal(out_labels, ref_labels)
    assert rng.random() == ref_rng.random()  # both consumed the same draws
    if alpha == 0.01:
        whole = [i for i, _, lam in ref_trace if lam == 1.0]
        assert whole and whole[0] < len(images) - 1


def test_apply_policy_draws_through_the_mixing_functions(monkeypatch):
    # the benchmark times the policy's draws by wrapping augment.sample_lambda and
    # augment.sample_mask; per pair a fired CutMix batch calls each once, MixUp only the ratio
    calls = []

    def counting(name):
        fn = getattr(augment, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("sample_lambda", "sample_mask"):
        monkeypatch.setattr(augment, name, counting(name))
    batch = _batch(14, n=10)
    for kind, per_pair in (("cutmix", ["sample_lambda", "sample_mask"]), ("mixup", ["sample_lambda"])):
        calls.clear()
        assert apply_policy(batch, AugmentPolicy(kind, 1.0, 0.0), child_rng(14, 0)) is batch
        assert calls == []
        assert apply_policy(batch, AugmentPolicy(kind, 1.0, 1.0), child_rng(14, 0)) is not batch
        assert calls == per_pair * 10


def test_apply_policy_rejects_mismatched_batch():
    images, labels = _batch(13)
    for bad in [(images, labels[:-1]), (images, np.vstack([labels, labels[:1]])),
                (images[0], labels), (images, labels[:, 0])]:
        for kind in ("cutmix", "mixup"):
            with pytest.raises(ValueError):
                apply_policy(bad, AugmentPolicy(kind, 1.0, 1.0), child_rng(13, 0))


def test_apply_policy_labels_stay_on_simplex():
    batch = _batch(10)
    for kind, alpha in (("cutmix", 1.0), ("mixup", 0.2)):
        _, labels = apply_policy(batch, AugmentPolicy(kind, alpha, 1.0), child_rng(10, 0))
        assert np.all(labels >= 0.0)
        assert np.all(np.abs(labels.sum(axis=1) - 1.0) <= 1e-12)


def test_apply_policy_bit_reproducible():
    batch = _batch(11)
    policy = AugmentPolicy("cutmix", 1.0, 0.5)
    out1 = apply_policy(batch, policy, child_rng(11, 0))
    out2 = apply_policy(batch, policy, child_rng(11, 0))
    assert all(np.array_equal(a, b) for a, b in zip(out1, out2))


def test_apply_policy_rejects_singleton_batch():
    with pytest.raises(ValueError):
        apply_policy(_batch(12, n=1), AugmentPolicy("mixup", 0.2, 1.0), child_rng(12, 0))


def test_policy_validation():
    with pytest.raises(ValueError):
        AugmentPolicy("cutout")
    for kind in ("cutmix", "mixup"):
        for alpha in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                AugmentPolicy(kind, alpha=alpha)
    with pytest.raises(ValueError):
        AugmentPolicy("mixup", probability=1.5)
