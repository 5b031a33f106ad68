import math

import numpy as np
import pytest

from noisecutmix import (
    ClassModel,
    class_family,
    make_bump_dataset,
    make_cosine_schedule,
    predict_noise,
)
from noisecutmix.classmodels import LOG_2PI, ClassFamily, spliced_family

# ---------------------------------------------------------------------------
# independent oracle: closed-form log mixture density and its finite-difference
# gradient, written from the definition rather than the predictor's algebra
# ---------------------------------------------------------------------------


def oracle_log_density(x, t, sched, models, cond=None):
    ab = sched.alpha_bar[t]
    logs = []
    for m in models:
        if cond is not None and m.class_id != cond:
            continue
        v = ab * m.var + (1.0 - ab)
        z = x - math.sqrt(ab) * m.mean
        ll = -0.5 * np.sum(np.log(2.0 * np.pi * v) + z * z / v)
        logs.append((math.log(1.0 / len(models)) if cond is None else 0.0) + ll)
    m0 = max(logs)
    return m0 + math.log(sum(math.exp(v - m0) for v in logs))


def oracle_fd_noise(x, t, sched, models, cond=None, h=1e-5):
    """-sqrt(1-abar) * central-difference gradient of the log density."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (
            oracle_log_density(xp, t, sched, models, cond)
            - oracle_log_density(xm, t, sched, models, cond)
        ) / (2.0 * h)
    return -math.sqrt(1.0 - sched.alpha_bar[t]) * grad


# ---------------------------------------------------------------------------
# bump dataset
# ---------------------------------------------------------------------------


def test_bump_means_distinct_and_equal_mass():
    models, _ = make_bump_dataset(2, 8, 8, 1.5, 0.25, seed=0, n_per_class=0)
    assert not np.array_equal(models[0].mean, models[1].mean)
    assert abs(models[0].mean.sum() - models[1].mean.sum()) <= 1e-9


def test_bump_dataset_rejects_degenerate_noise():
    with pytest.raises(ValueError):
        make_bump_dataset(2, 8, 8, 1.5, 0.0, seed=0, n_per_class=1)
    # a NaN noise_var used to pass the floor check and return NaN samples
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="variances must be finite"):
            make_bump_dataset(2, 8, 8, 1.5, bad, seed=0, n_per_class=1)


def test_bump_dataset_rejects_too_many_classes():
    # an 8x8 grid holds a lattice of at most 16 resolvable centers
    with pytest.raises(ValueError):
        make_bump_dataset(17, 8, 8, 1.0, 0.25, seed=0, n_per_class=0)


def test_bump_dataset_rejects_a_negative_sample_count():
    # numpy's own "negative dimensions" error would not name the argument
    with pytest.raises(ValueError, match="n_per_class must be >= 0"):
        make_bump_dataset(2, 8, 8, 1.5, 0.25, seed=0, n_per_class=-1)


def test_bump_dataset_reproducible():
    _, (images1, ids1) = make_bump_dataset(3, 8, 8, 1.5, 0.25, seed=5, n_per_class=4)
    _, (images2, ids2) = make_bump_dataset(3, 8, 8, 1.5, 0.25, seed=5, n_per_class=4)
    assert images1.shape == (12, 8, 8)
    assert np.array_equal(images1, images2) and np.array_equal(ids1, ids2)


def test_bump_sample_mean_matches_model():
    n = 100_000
    noise_var = 0.25
    models, (images, class_ids) = make_bump_dataset(2, 8, 8, 1.5, noise_var, seed=11, n_per_class=n)
    class0 = images[class_ids == 0]
    assert class0.shape[0] == n
    tol = 3.0 * math.sqrt(noise_var / n)
    assert np.all(np.abs(class0.mean(axis=0) - models[0].mean) <= tol)


# ---------------------------------------------------------------------------
# analytic noise predictor
# ---------------------------------------------------------------------------


def _standard_normal_model(h=6, w=6):
    return [ClassModel(class_id=0, mean=np.zeros((h, w)), var=np.ones((h, w)))]


def test_predictor_stationary_standard_normal():
    sched = make_cosine_schedule(100)
    models = _standard_normal_model()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 6))
    for t in (1, 42, 100):
        expected = math.sqrt(1.0 - sched.alpha_bar[t]) * x
        assert np.allclose(predict_noise(x, 0, t, sched, models), expected, atol=1e-14)


def test_predictor_vanishes_at_scaled_mode():
    sched = make_cosine_schedule(100)
    models, _ = make_bump_dataset(2, 8, 8, 1.5, 0.25, seed=0, n_per_class=0)
    t = 37
    x = sched.signal(t) * models[1].mean
    eps = predict_noise(x, 1, t, sched, models)
    assert np.allclose(eps, 0.0, atol=1e-14)


def test_predictor_matches_fd_oracle_at_pinned_point():
    # two-class mixture at one frozen state: relative error <= 1e-5 at step 1e-4
    sched = make_cosine_schedule(1000)
    models, _ = make_bump_dataset(2, 8, 8, 1.5, 0.3, seed=0, n_per_class=0)
    t = 400
    rng = np.random.default_rng(123)
    x = sched.signal(t) * models[0].mean + sched.noise(t) * rng.standard_normal((8, 8))
    eps = predict_noise(x, None, t, sched, models)
    ref = oracle_fd_noise(x, t, sched, models, cond=None, h=1e-4)
    mask = np.abs(eps) > 1e-3
    assert mask.any()
    rel = np.abs(eps[mask] - ref[mask]) / np.abs(eps[mask])
    assert rel.max() <= 1e-5


def test_predictor_matches_fd_oracle_random_states():
    sched = make_cosine_schedule(1000)
    models, _ = make_bump_dataset(3, 8, 8, 1.5, 0.3, seed=1, n_per_class=0)
    rng = np.random.default_rng(7)
    for _ in range(10):
        t = int(rng.integers(1, 1001))
        cond = [None, 0, 1, 2][int(rng.integers(4))]
        x = rng.normal(scale=1.2, size=(8, 8))
        eps = predict_noise(x, cond, t, sched, models)
        ref = oracle_fd_noise(x, t, sched, models, cond=cond)
        mask = np.abs(eps) > 1e-3
        rel = np.abs(eps[mask] - ref[mask]) / np.abs(eps[mask])
        assert rel.max() <= 1e-4


def test_tweedie_matches_single_class_posterior_mean():
    sched = make_cosine_schedule(500)
    models, _ = make_bump_dataset(2, 8, 8, 1.5, 0.4, seed=2, n_per_class=0)
    m = models[0]
    rng = np.random.default_rng(3)
    for t in (1, 100, 500):
        ab = sched.alpha_bar[t]
        x = rng.standard_normal((8, 8))
        eps = predict_noise(x, 0, t, sched, models)
        x0_hat = (x - sched.noise(t) * eps) / sched.signal(t)
        v = ab * m.var + (1.0 - ab)
        posterior = m.mean + math.sqrt(ab) * m.var * (x - math.sqrt(ab) * m.mean) / v
        assert np.max(np.abs(x0_hat - posterior)) <= 1e-9


def test_unconditional_equals_conditional_for_one_class():
    sched = make_cosine_schedule(100)
    models = [ClassModel(class_id=0, mean=np.full((5, 5), 0.3), var=np.full((5, 5), 0.5))]
    x = np.random.default_rng(4).standard_normal((5, 5))
    assert np.array_equal(
        predict_noise(x, None, 50, sched, models), predict_noise(x, 0, 50, sched, models)
    )


def test_predictor_batched_axis_matches_loop():
    sched = make_cosine_schedule(200)
    models, _ = make_bump_dataset(2, 6, 6, 1.2, 0.3, seed=5, n_per_class=0)
    rng = np.random.default_rng(6)
    batch = rng.standard_normal((4, 6, 6))
    for cond in (None, 0):
        stacked = predict_noise(batch, cond, 77, sched, models)
        single = np.stack([predict_noise(batch[i], cond, 77, sched, models) for i in range(4)])
        assert np.allclose(stacked, single, atol=0, rtol=0)


def test_predictor_class_id_array_matches_int_calls():
    sched = make_cosine_schedule(200)
    models, _ = make_bump_dataset(3, 6, 6, 1.2, 0.3, seed=5, n_per_class=0)
    rng = np.random.default_rng(7)
    batch = rng.standard_normal((5, 6, 6))
    cond = np.array([2, 0, 1, 2, 0])
    for t in (1, 77, 200):
        stacked = predict_noise(batch, cond, t, sched, models)
        single = np.stack([predict_noise(batch[i], int(c), t, sched, models) for i, c in enumerate(cond)])
        assert np.array_equal(stacked, single)


def test_class_family_predicts_like_its_model_list():
    sched = make_cosine_schedule(200)
    models, _ = make_bump_dataset(3, 7, 5, 1.2, 0.3, seed=5, n_per_class=0)
    family = class_family(models)
    assert class_family(family) is family
    batch = np.random.default_rng(8).standard_normal((4, 5, 7))
    for cond in (None, 2, np.array([2, 0, 1, 2])):
        for t in (1, 77, 200):
            assert np.array_equal(predict_noise(batch, cond, t, sched, family),
                                  predict_noise(batch, cond, t, sched, models))


def test_spliced_family_predicts_each_cells_class():
    sched = make_cosine_schedule(200)
    models, _ = make_bump_dataset(3, 6, 6, 1.2, 0.3, seed=5, n_per_class=0)
    rng = np.random.default_rng(10)
    batch = rng.standard_normal((5, 6, 6))
    class_a, class_b = np.array([2, 0, 1, 2, 0]), np.array([0, 0, 2, 1, 1])
    for a, b, keep, classes in ((2, 0, rng.random((6, 6)) < 0.5, 1),
                                (class_a, class_b, rng.random((6, 6)) < 0.5, 5),
                                (1, 2, rng.random((5, 6, 6)) < 0.5, 5),
                                (class_a, class_b, rng.random((5, 6, 6)) < 0.5, 5)):
        family, cond = spliced_family(models, a, b, keep)
        assert family.means.shape == family.variances.shape == (classes, 6, 6)
        assert np.array_equal(cond, 0 if classes == 1 else np.arange(5))
        for t in (1, 77, 200):
            expected = np.where(keep, predict_noise(batch, a, t, sched, models),
                                predict_noise(batch, b, t, sched, models))
            assert np.array_equal(predict_noise(batch, cond, t, sched, family), expected)


def test_row_aligned_class_ids_predict_each_records_class():
    # arange(K) on a K-class family reads the family's rows as they are; any other
    # id array of that length still gathers
    sched = make_cosine_schedule(200)
    models, _ = make_bump_dataset(4, 6, 6, 1.2, 0.3, seed=6, n_per_class=0)
    batch = np.random.default_rng(11).standard_normal((4, 6, 6))
    for ids in (np.arange(4), np.array([1, 0, 2, 3]), np.array([3, 3, 0, 1])):
        for t in (1, 77, 200):
            expected = np.stack([predict_noise(x, int(c), t, sched, models) for x, c in zip(batch, ids)])
            assert np.array_equal(predict_noise(batch, ids, t, sched, models), expected)


def test_spliced_family_rejects_unknown_class_ids():
    models, _ = make_bump_dataset(3, 6, 6, 1.2, 0.3, seed=5, n_per_class=0)
    keep = np.ones((6, 6), dtype=bool)
    # -1 would otherwise splice in the last class
    for a, b, bad in ((0, 3, 3), (-1, 0, -1), (np.array([0, -2]), np.array([1, 1]), -2)):
        with pytest.raises(ValueError, match=f"^unknown class id {bad}$"):
            spliced_family(models, a, b, keep)


def test_class_family_rejects_bad_lists():
    grid = np.zeros((3, 3)), np.ones((3, 3))
    for models in ([], [ClassModel(1, *grid)], [ClassModel(1, *grid), ClassModel(0, *grid)]):
        with pytest.raises(ValueError, match="class ids 0..K-1 in order"):
            class_family(models)


def test_predictor_validation():
    sched = make_cosine_schedule(100)
    models = _standard_normal_model()
    x = np.zeros((6, 6))
    with pytest.raises(ValueError):
        predict_noise(x, 0, 73, sched, [])
    with pytest.raises(ValueError):
        predict_noise(x, 3, 73, sched, models)
    for cond in ([0, 0, 1], [3, 0, 0], [0, -1, 0]):  # an unknown id anywhere in an array
        with pytest.raises(ValueError, match="unknown class id"):
            predict_noise(np.zeros((3, 6, 6)), np.array(cond), 73, sched, models)
    # t = -1 would otherwise read abar_T through numpy's negative indexing
    for t in (0, -1, 101):
        with pytest.raises(ValueError, match=f"step index {t} outside"):
            predict_noise(x, 0, t, sched, models)


@pytest.mark.parametrize("num_steps", [60, 1000, 4000])
def test_schedule_accessors_are_the_square_roots_of_alpha_bar(num_steps):
    # predict_noise reads sqrt(abar_t) and sqrt(1 - abar_t) from the schedule
    sched = make_cosine_schedule(num_steps)
    for t in range(1, num_steps + 1):
        ab = float(sched.alpha_bar[t])
        assert (sched.signal(t), sched.noise(t)) == (math.sqrt(ab), math.sqrt(1.0 - ab))


def test_predictor_rejects_class_ids_of_another_length():
    sched = make_cosine_schedule(100)
    models, _ = make_bump_dataset(3, 6, 6, 1.2, 0.3, seed=5, n_per_class=0)
    batch = np.random.default_rng(9).standard_normal((5, 6, 6))
    # a 1-id array used to be broadcast over all 5 records
    for x, cond in ((batch, [1]), (batch, [1, 0, 2]), (batch, [[0], [1], [2], [0], [1]]), (batch[0], [1])):
        with pytest.raises(ValueError, match="must match x's records"):
            predict_noise(x, np.array(cond), 73, sched, models)
    # a 0-d id array is one class for every record, as an int id is
    assert np.array_equal(predict_noise(batch, np.array(2), 73, sched, models),
                          predict_noise(batch, 2, 73, sched, models))


def test_class_model_validation():
    with pytest.raises(ValueError):
        ClassModel(class_id=0, mean=np.zeros((2, 2)), var=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ClassModel(class_id=0, mean=np.full((2, 2), np.nan), var=np.ones((2, 2)))
    with pytest.raises(ValueError, match="same shape"):
        ClassModel(class_id=0, mean=np.zeros((2, 2)), var=np.ones((2, 3)))
    # a NaN variance used to pass the floor check, an inf one to zero every estimate
    for bad in (math.nan, math.inf):
        var = np.ones((2, 2))
        var[1, 0] = bad
        with pytest.raises(ValueError, match="variances must be finite"):
            ClassModel(class_id=0, mean=np.zeros((2, 2)), var=var)


# ---------------------------------------------------------------------------
# bit-exact reference: the predictor before its per-class constants were
# stacked once per call, which gives the same doubles
# ---------------------------------------------------------------------------


def _predict_noise_reference(x_t, cond, t, sched, models, out=None):
    family = class_family(models)
    x_t = np.asarray(x_t, dtype=np.float64)
    ab, sqrt_ab, sqrt_1mab = float(sched.alpha_bar[t]), sched.signal(t), sched.noise(t)

    if cond is None and len(family.means) == 1:
        # one-class mixture: responsibilities are identically 1
        cond = 0
    if cond is not None:
        ids = np.asarray(cond)
        if ids.ndim and ids.shape != x_t.shape[:-2]:
            # numpy would broadcast a 1-id array over every record
            raise ValueError(f"class-id array of shape {ids.shape} must match x's records {x_t.shape[:-2]}")
        unknown = ids[(ids < 0) | (ids >= len(family.means))]  # numpy would wrap -1
        if unknown.size:
            raise ValueError(f"unknown class id {unknown.flat[0]}")
        # one row per record for an id array, one (H, W) grid for an int id
        v = ab * family.variances[ids] + (1.0 - ab)
        eps = np.subtract(x_t, sqrt_ab * family.means[ids], out=out)
        np.multiply(sqrt_1mab, eps, out=eps)
        return np.divide(eps, v, out=eps)

    # log(1/K) + log N(x_t; sqrt(abar_t) mu_c, v_c) per class, totals over
    # the trailing (H, W) axes, shape (K,) + batch shape
    v = ab * family.variances + (1.0 - ab)
    log_w = math.log(1.0 / len(family.means))
    work = np.empty_like(x_t)
    log_dens = []
    for mean, v_c in zip(family.means, v):
        z = np.subtract(x_t, sqrt_ab * mean, out=work)
        np.multiply(z, z, out=z)
        np.divide(z, v_c, out=z)
        np.add(np.log(v_c) + LOG_2PI, z, out=z)
        ll = -0.5 * np.sum(z, axis=(-2, -1))
        log_dens.append(log_w + ll)
    log_dens = np.stack(log_dens, axis=0)
    log_dens -= log_dens.max(axis=0, keepdims=True)
    resp = np.exp(log_dens)
    resp /= resp.sum(axis=0, keepdims=True)

    eps = np.empty_like(x_t) if out is None else out
    eps.fill(0.0)
    for r_c, mean, v_c in zip(resp, family.means, v):
        term = np.subtract(x_t, sqrt_ab * mean, out=work)
        np.multiply(r_c[..., None, None], term, out=term)
        np.divide(term, v_c, out=term)
        np.add(eps, term, out=eps)
    return np.multiply(sqrt_1mab, eps, out=eps)


@pytest.mark.parametrize("num_classes", [1, 2, 4, 7])
@pytest.mark.parametrize("batch", [(), (9,), (2, 9)], ids=["HW", "NHW", "2NHW"])
def test_predictor_matches_reference_bit_for_bit(num_classes, batch):
    sched = make_cosine_schedule(40)
    rng = np.random.default_rng(num_classes)
    h, w = 6, 5
    family = ClassFamily(rng.standard_normal((num_classes, h, w)),
                         rng.uniform(0.05, 2.0, (num_classes, h, w)))
    # spread wide enough that responsibilities are neither all equal nor all 0/1
    x = 2.0 * rng.standard_normal(batch + (h, w))
    conds = [None, num_classes - 1]
    if batch:
        conds.append(rng.integers(num_classes, size=batch))
    for t in (1, 20, 40):
        for cond in conds:
            want = _predict_noise_reference(x, cond, t, sched, family)
            got = predict_noise(x, cond, t, sched, family)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            out, ref_out = np.full(x.shape, np.nan), np.full(x.shape, np.nan)
            assert predict_noise(x, cond, t, sched, family, out=out) is out
            _predict_noise_reference(x, cond, t, sched, family, out=ref_out)
            assert out.tobytes() == ref_out.tobytes() == want.tobytes()
            # the mixture's per-class terms in a given array, which the conditional branch leaves as it is
            out, work = np.full(x.shape, np.nan), np.full(x.shape, np.nan)
            assert predict_noise(x, cond, t, sched, family, out=out, work=work) is out
            assert out.tobytes() == want.tobytes()
            assert np.isnan(work).all() == (cond is not None or num_classes == 1)


def test_predictor_rejects_a_work_array_that_shares_memory():
    sched = make_cosine_schedule(40)
    models, _ = make_bump_dataset(2, 6, 6, 1.2, 0.3, seed=5, n_per_class=0)
    x = np.random.default_rng(3).standard_normal((4, 6, 6))
    out = np.empty_like(x)
    for work in (x, x[:], out, out[::-1]):
        with pytest.raises(ValueError, match="may share memory"):
            predict_noise(x, None, 20, sched, models, out=out, work=work)
    with pytest.raises(ValueError, match=r"scratch array of shape \(3, 6, 6\)"):
        predict_noise(x, None, 20, sched, models, work=np.empty((3, 6, 6)))
