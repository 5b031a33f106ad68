import math

import numpy as np
import pytest

from noisecutmix import (
    NumericalDivergence,
    SamplerConfig,
    forward_noise,
    generate_batch,
    make_bump_dataset,
    make_cosine_schedule,
    mask_from_rect,
    mix_labels,
    one_hot,
    regenerate,
    sample_noisecutmix_batch,
    sample_single_batch,
    step_ancestral,
    step_dpm_pp_2m,
    timestep_grid,
)
from noisecutmix.mixing import realized_lambda
from noisecutmix.samplers import child_rng, guided_eps_fn, tweedie_x0


@pytest.fixture(scope="module")
def sched():
    return make_cosine_schedule(1000)


@pytest.fixture(scope="module")
def bump_models():
    models, _ = make_bump_dataset(2, 8, 8, 1.5, 0.25, seed=0, n_per_class=0)
    return models


def test_timestep_grid_shape_and_monotonicity(sched):
    ts = timestep_grid(1000, 25)
    assert len(ts) == 26
    assert ts[0] == 1000 and ts[-1] == 0
    assert np.all(np.diff(ts) < 0)
    with pytest.raises(ValueError):
        timestep_grid(1000, 0)
    with pytest.raises(ValueError):
        timestep_grid(1000, 1001)


def test_ancestral_inverts_forward_map(sched):
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((6, 6))
    eps = rng.standard_normal((6, 6))
    for t in (1, 250, 1000):
        x_t = forward_noise(x0, eps, t, sched)
        rec = step_ancestral(x_t, eps, t, 0, sched, rng)
        assert np.max(np.abs(rec - x0)) <= 1e-9


def test_ancestral_zero_state(sched):
    rng = np.random.default_rng(1)
    z = np.zeros((4, 4))
    out = step_ancestral(z, z, 500, 0, sched, rng)
    assert np.array_equal(out, z)


def test_ancestral_rejects_nondecreasing_steps(sched):
    rng = np.random.default_rng(2)
    x = np.zeros((4, 4))
    with pytest.raises(ValueError):
        step_ancestral(x, x, 5, 5, sched, rng)
    with pytest.raises(ValueError):
        step_ancestral(x, x, 5, 9, sched, rng)


def test_dpm_equal_predictions_reduce_to_first_order(sched):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 5))
    c = np.full((5, 5), 0.7)
    two_step = step_dpm_pp_2m(x, c, c, (700, 600, 500), sched)
    first = step_dpm_pp_2m(x, c, None, (None, 600, 500), sched)
    assert np.array_equal(two_step, first)


def test_dpm_first_order_matches_ddim_form(sched):
    # independent form of the same exponential-integrator step:
    # x_s = a_s x0_hat + sigma_s eps_hat
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 6))
    eps_hat = rng.standard_normal((6, 6))
    t_from, t_to = 500, 480
    pred = tweedie_x0(x, eps_hat, t_from, sched)
    ours = step_dpm_pp_2m(x, pred, None, (None, t_from, t_to), sched)
    ddim = sched.signal(t_to) * pred + sched.noise(t_to) * eps_hat
    assert np.max(np.abs(ours - ddim)) <= 1e-9


def test_dpm_rejects_nonmonotone_triples(sched):
    x = np.zeros((3, 3))
    with pytest.raises(ValueError):
        step_dpm_pp_2m(x, x, None, (None, 5, 5), sched)
    with pytest.raises(ValueError):
        step_dpm_pp_2m(x, x, x, (4, 5, 3), sched)


def test_dpm_rejects_nonfinite_data_predictions(sched):
    x = np.zeros((3, 3))
    nan = np.full((3, 3), np.nan)
    with pytest.raises(NumericalDivergence):
        step_dpm_pp_2m(x, nan, None, (None, 5, 3), sched)
    with pytest.raises(NumericalDivergence):
        step_dpm_pp_2m(x, x, nan, (6, 5, 3), sched)


def test_terminal_steps_of_both_integrators_agree(sched):
    # with T-1 inference steps the final hop is 1 -> 0, where both the
    # posterior mean and the first-order solver reduce to the data estimate
    ts = timestep_grid(1000, 999)
    t_last, t_end = int(ts[-2]), int(ts[-1])
    assert t_end == 0
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 4))
    eps_hat = rng.standard_normal((4, 4))
    pred = tweedie_x0(x, eps_hat, t_last, sched)
    anc = step_ancestral(x, eps_hat, t_last, t_end, sched, rng)
    dpm = step_dpm_pp_2m(x, pred, None, (None, t_last, t_end), sched)
    assert np.max(np.abs(anc - dpm)) <= 1e-6


def test_generate_single_deterministic(sched, bump_models):
    cfg = SamplerConfig(kind="ancestral", num_inference_steps=20, guidance_scale=7.5)
    a_images, a_labels, _ = generate_batch([0], None, cfg, sched, bump_models, [9])
    b_images, b_labels, _ = generate_batch([0], None, cfg, sched, bump_models, [9])
    assert np.array_equal(a_images, b_images)
    assert np.array_equal(a_labels, b_labels)


@pytest.mark.parametrize("kind", ["ancestral", "dpm_solver_pp_2m"])
def test_collapse_to_single_class(sched, bump_models, kind):
    cfg = SamplerConfig(kind=kind, num_inference_steps=15, guidance_scale=7.5)
    ones = np.ones((8, 8), dtype=np.uint8)
    zeros = np.zeros((8, 8), dtype=np.uint8)
    for seed in (3, 17, 91):
        mix_a = sample_noisecutmix_batch(0, 1, ones, cfg, sched, bump_models, seed, 1)
        mix_b = sample_noisecutmix_batch(0, 1, zeros, cfg, sched, bump_models, seed, 1)
        single_a = sample_single_batch(0, cfg, sched, bump_models, seed, 1)
        single_b = sample_single_batch(1, cfg, sched, bump_models, seed, 1)
        assert np.array_equal(mix_a, single_a)
        assert np.array_equal(mix_b, single_b)
    # the all-zeros mask's area-ratio label is class B's one-hot label
    assert np.array_equal(mix_labels(0, 1, realized_lambda(zeros), 2), one_hot(1, 2))


def test_mixed_noise_is_pure_selection(sched, bump_models):
    cfg = SamplerConfig(kind="dpm_solver_pp_2m", num_inference_steps=10, guidance_scale=7.5)
    rng = np.random.default_rng(11)
    mask = (rng.random((8, 8)) < 0.5).astype(np.uint8)
    eps_fn = guided_eps_fn(0, 1, mask.astype(bool), cfg, sched, bump_models, (8, 8))
    from noisecutmix import cfg_combine, predict_noise

    for t in (1000, 512, 33):
        x = rng.standard_normal((8, 8))
        mixed = eps_fn(x, t)
        uncond = predict_noise(x, None, t, sched, bump_models)
        eps_a = cfg_combine(predict_noise(x, 0, t, sched, bump_models), uncond, 7.5)
        eps_b = cfg_combine(predict_noise(x, 1, t, sched, bump_models), uncond, 7.5)
        keep = mask.astype(bool)
        assert np.array_equal(mixed[keep], eps_a[keep])
        assert np.array_equal(mixed[~keep], eps_b[~keep])


def test_noisecutmix_label_uses_realized_lambda(sched, bump_models):
    cfg = SamplerConfig(kind="dpm_solver_pp_2m", num_inference_steps=10)
    _, labels, (prov,) = generate_batch([0], [1], cfg, sched, bump_models, [21], 1.0)
    mask = mask_from_rect(8, 8, prov.rect)
    zeros = int((mask == 0).sum())
    lam_real = 1.0 - zeros / mask.size
    assert prov.lambda_real == lam_real
    assert np.allclose(labels[0], [lam_real, 1.0 - lam_real], atol=1e-15)
    assert abs(labels[0].sum() - 1.0) <= 1e-12


def test_regenerate_is_bit_exact(sched, bump_models):
    cfg = SamplerConfig(kind="ancestral", num_inference_steps=12, guidance_scale=7.5)
    images, labels, (prov,) = generate_batch([1], [0], cfg, sched, bump_models, [5], 0.7)
    image, label = regenerate(prov, sched, bump_models)
    assert np.array_equal(images[0], image)
    assert np.array_equal(labels[0], label)
    images, labels, (prov,) = generate_batch([1], None, cfg, sched, bump_models, [6])
    image, label = regenerate(prov, sched, bump_models)
    assert np.array_equal(images[0], image)
    assert np.array_equal(labels[0], label)


def test_generate_rejects_unknown_class(sched, bump_models):
    cfg = SamplerConfig(num_inference_steps=5)
    with pytest.raises(ValueError):
        generate_batch([0], [5], cfg, sched, bump_models, [0], 1.0)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(kind="euler")
    with pytest.raises(ValueError):
        SamplerConfig(num_inference_steps=0)
    for scale in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SamplerConfig(guidance_scale=scale)


def test_bump_class_terminal_moments():
    # full ancestral chain on one bump class ends at N(mu, Sigma)
    sched = make_cosine_schedule(300)
    models, _ = make_bump_dataset(2, 8, 8, 1.5, 0.25, seed=0, n_per_class=0)
    single = [models[0]]
    cfg = SamplerConfig(kind="ancestral", num_inference_steps=300, guidance_scale=1.0)
    imgs = sample_single_batch(0, cfg, sched, single, seed=0, n=10_000)
    se = np.sqrt(0.25 / 10_000)
    assert np.all(np.abs(imgs.mean(axis=0) - models[0].mean) <= 3.0 * se)
    assert np.all(np.abs(imgs.var(axis=0) - 0.25) <= 0.1 * 0.25)


def test_dpm_agrees_with_ancestral_reference(sched):
    # 25-step solver vs the 1000-step ancestral chain as reference oracle
    models, _ = make_bump_dataset(2, 8, 8, 1.5, 0.04, seed=0, n_per_class=0)
    single = [models[0]]
    anc = sample_single_batch(
        0, SamplerConfig(kind="ancestral", num_inference_steps=1000, guidance_scale=1.0),
        sched, single, seed=0, n=5000,
    )
    dpm = sample_single_batch(
        0, SamplerConfig(kind="dpm_solver_pp_2m", num_inference_steps=25, guidance_scale=1.0),
        sched, single, seed=100, n=5000,
    )
    assert np.max(np.abs(anc.mean(axis=0) - dpm.mean(axis=0))) <= 0.02


def test_batched_path_matches_per_record_path(sched, bump_models):
    # the moment-test entry point must share the per-record dynamics
    cfg = SamplerConfig(kind="dpm_solver_pp_2m", num_inference_steps=10, guidance_scale=7.5)
    batch = sample_single_batch(0, cfg, sched, bump_models, seed=31, n=1)
    images, _, _ = generate_batch([0], None, cfg, sched, bump_models, [31])
    assert np.array_equal(batch, images)


def test_child_streams_are_independent():
    a = child_rng(42, 0).standard_normal(8)
    b = child_rng(42, 1).standard_normal(8)
    assert not np.allclose(a, b)
    assert np.array_equal(a, child_rng(42, 0).standard_normal(8))
