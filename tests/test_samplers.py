import concurrent.futures
import dataclasses
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from noisecutmix import samplers
from noisecutmix.classmodels import class_family
from noisecutmix.mixing import realized_lambda
from noisecutmix.samplers import _RecordStreams, child_rng, guided_eps_fn, run_reverse, tweedie_x0


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


def _check_grid(num_steps, n):
    ts = timestep_grid(num_steps, n)
    assert len(ts) == n + 1 and ts[0] == num_steps and ts[-1] == 0
    assert np.all(np.diff(ts) < 0), (num_steps, n)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 1200).flatmap(lambda t: st.tuples(st.just(t), st.integers(1, t))))
def test_timestep_grid_strictly_decreasing_for_every_n_up_to_t(grid):
    # timestep_grid keeps no decrease check: n <= T alone must give it
    _check_grid(*grid)


@pytest.mark.parametrize("num_steps", [1, 2, 3, 999, 1000, 1200])
def test_timestep_grid_every_n(num_steps):
    for n in range(1, num_steps + 1):
        _check_grid(num_steps, n)


def test_ancestral_inverts_forward_map(sched):
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((6, 6))
    eps = rng.standard_normal((6, 6))
    for t in (1, 250, 1000):
        x_t = forward_noise(x0, eps, t, sched)
        rec = step_ancestral(x_t, eps, t, 0, sched, None)
        assert np.max(np.abs(rec - x0)) <= 1e-9


def test_ancestral_zero_state(sched):
    z = np.zeros((4, 4))
    out = step_ancestral(z, z, 500, 0, sched, None)
    assert np.array_equal(out, z)


def test_ancestral_rejects_nondecreasing_steps(sched):
    x = np.zeros((4, 4))
    with pytest.raises(ValueError):
        step_ancestral(x, x, 5, 5, sched, x)
    with pytest.raises(ValueError):
        step_ancestral(x, x, 5, 9, sched, x)
    with pytest.raises(ValueError, match="exceeds schedule length 1000"):
        step_ancestral(x, x, 1001, 5, sched, x)


def test_ancestral_step_noise_must_fit_the_step(sched):
    x = np.zeros((4, 4))
    with pytest.raises(ValueError, match="terminal step takes no noise"):
        step_ancestral(x, x, 5, 0, sched, x)
    with pytest.raises(ValueError, match="needs its noise draw"):
        step_ancestral(x, x, 5, 3, sched, None)
    with pytest.raises(ValueError, match="noise of shape"):
        step_ancestral(x, x, 5, 3, sched, np.zeros((1, 4)))  # would broadcast


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
    with pytest.raises(ValueError, match="exceeds schedule length 1000"):
        step_dpm_pp_2m(x, x, None, (None, 1001, 5), sched)


def test_dpm_rejects_nonfinite_data_predictions(sched):
    x = np.zeros((3, 3))
    nan = np.full((3, 3), np.nan)
    with pytest.raises(NumericalDivergence):
        step_dpm_pp_2m(x, nan, None, (None, 5, 3), sched)
    with pytest.raises(NumericalDivergence):
        step_dpm_pp_2m(x, x, nan, (6, 5, 3), sched)


def test_dpm_rejects_a_nonfinite_state(sched):
    # a NaN in x with finite data predictions used to return a NaN state without an error
    x = np.zeros((3, 3))
    x[1, 2] = np.nan
    finite = np.ones((3, 3))
    for prev, times in ((None, (None, 5, 3)), (finite, (6, 5, 3))):
        out = np.empty((3, 3))
        with pytest.raises(NumericalDivergence):
            step_dpm_pp_2m(x, finite, prev, times, sched, out=out)
        # out holds the result the error refers to
        assert np.isnan(out[1, 2]) and np.isfinite(np.delete(out.ravel(), 5)).all()


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
    anc = step_ancestral(x, eps_hat, t_last, t_end, sched, None)
    dpm = step_dpm_pp_2m(x, pred, None, (None, t_last, t_end), sched)
    assert np.max(np.abs(anc - dpm)) <= 1e-6


@pytest.mark.parametrize("t_to", [480, 0])
def test_ancestral_step_scratch_array_keeps_the_bits(sched, t_to):
    rng = np.random.default_rng(6)
    x, eps_hat = rng.standard_normal((2, 3, 6, 6))
    noise = rng.standard_normal((3, 6, 6)) if t_to else None
    want = step_ancestral(x, eps_hat, 500, t_to, sched, noise)
    tmp = np.full(x.shape, np.nan)
    assert step_ancestral(x, eps_hat, 500, t_to, sched, noise, tmp=tmp).tobytes() == want.tobytes()
    # as the ancestral loop calls it: x's result into x, the temporaries into the estimate
    x_out, eps_out = x.copy(), eps_hat.copy()
    got = step_ancestral(x_out, eps_out, 500, t_to, sched, noise, out=x_out, tmp=eps_out)
    assert got is x_out and x_out.tobytes() == want.tobytes()


def test_ancestral_step_rejects_a_scratch_array_that_shares_memory(sched):
    rng = np.random.default_rng(7)
    base = rng.standard_normal((4, 6, 6))
    x, shifted = base[:3], base[1:]  # two views that overlap
    eps_hat, noise, out = rng.standard_normal((3, 3, 6, 6))
    for tmp, kwargs in [(x, {}), (shifted, {}), (noise, {}), (out, {"out": out}),
                        (eps_hat, {"out": eps_hat})]:
        with pytest.raises(ValueError, match="may share memory"):
            step_ancestral(x, eps_hat, 500, 480, sched, noise, tmp=tmp, **kwargs)


@pytest.mark.parametrize("times", [(None, 500, 480), (520, 500, 480), (520, 500, 0)],
                         ids=["first order", "second order", "terminal"])
def test_dpm_step_scratch_array_keeps_the_bits(sched, times):
    rng = np.random.default_rng(8)
    x, curr, prev = rng.standard_normal((3, 3, 6, 6))
    prev = None if times[0] is None else prev
    want = step_dpm_pp_2m(x, curr, prev, times, sched)
    tmp = np.full(x.shape, np.nan)
    assert step_dpm_pp_2m(x, curr, prev, times, sched, tmp=tmp).tobytes() == want.tobytes()
    # into the previous prediction, as run_reverse's rotation writes it
    if prev is not None:
        got = step_dpm_pp_2m(x, curr, prev.copy(), times, sched, out=prev, tmp=tmp)
        assert got is prev and prev.tobytes() == want.tobytes()


def test_dpm_step_rejects_a_scratch_array_that_shares_memory(sched):
    rng = np.random.default_rng(9)
    base = rng.standard_normal((4, 6, 6))
    x, shifted = base[:3], base[1:]  # two views that overlap
    curr, prev, out = rng.standard_normal((3, 3, 6, 6))
    for tmp in (x, shifted, curr, prev, out[::-1]):
        with pytest.raises(ValueError, match="may share memory"):
            step_dpm_pp_2m(x, curr, prev, (520, 500, 480), sched, out=out, tmp=tmp)
    with pytest.raises(ValueError, match=r"scratch array of shape \(6, 6\)"):
        step_dpm_pp_2m(x, curr, None, (None, 500, 480), sched, tmp=np.empty((6, 6)))


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
    eps_fn = guided_eps_fn(0, 1, mask.astype(bool), cfg, sched, bump_models)
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


@pytest.mark.parametrize("guidance", [0.0, 1.0, 7.5])
@pytest.mark.parametrize("per_record", [False, True], ids=["one (H, W) mask", "(N, H, W) masks"])
def test_mixed_noise_selects_each_records_guided_estimates(sched, guidance, per_record):
    # the paper's definition, literally: two guided estimates, selected by the mask
    from noisecutmix import cfg_combine, predict_noise

    models, _ = make_bump_dataset(3, 8, 8, 1.5, 0.25, seed=1, n_per_class=0)
    n = 6
    rng = np.random.default_rng(23)
    if per_record:
        class_a, class_b = rng.integers(0, 3, size=n), rng.integers(0, 3, size=n)
        keep = rng.random((n, 8, 8)) < 0.5
    else:
        class_a, class_b, keep = 2, 0, rng.random((8, 8)) < 0.5
    cfg = SamplerConfig(kind="dpm_solver_pp_2m", num_inference_steps=10, guidance_scale=guidance)
    eps_fn = guided_eps_fn(class_a, class_b, keep, cfg, sched, models)
    for t in (1000, 512, 33, 1):
        x = rng.standard_normal((n, 8, 8))
        uncond = predict_noise(x, None, t, sched, models)
        eps_a = cfg_combine(predict_noise(x, class_a, t, sched, models), uncond, guidance)
        eps_b = cfg_combine(predict_noise(x, class_b, t, sched, models), uncond, guidance)
        assert np.array_equal(eps_fn(x, t), np.where(keep, eps_a, eps_b))


@pytest.mark.parametrize("kind", ["ancestral", "dpm_solver_pp_2m"])
@pytest.mark.parametrize("class_a, class_b, bad", [(0, 2, 2), (2, 0, 2), (0, -1, -1), (-1, 1, -1)])
def test_noisecutmix_batch_rejects_unknown_class_ids(sched, bump_models, kind, class_a, class_b, bad):
    # -1 must not index the last class
    cfg = SamplerConfig(kind=kind, num_inference_steps=4, guidance_scale=7.5)
    mask = np.zeros((8, 8), dtype=np.uint8)
    mask[:, :4] = 1
    with pytest.raises(ValueError, match=f"^unknown class id {bad}$"):
        sample_noisecutmix_batch(class_a, class_b, mask, cfg, sched, bump_models, 3, 2)


@pytest.mark.parametrize("kind", ["ancestral", "dpm_solver_pp_2m"])
def test_noisecutmix_at_guidance_one_is_pixel_cutmix_of_single_records(sched, kind):
    # At guidance 1.0 the guided estimate is the conditional one, which acts cell by
    # cell, so each cell follows its class's single-class trajectory; at 3.0 the
    # unconditional mixture couples the cells and the identity fails.
    models, _ = make_bump_dataset(4, 8, 8, 1.5, 0.25, seed=3, n_per_class=0)
    rng = np.random.default_rng(17)
    pairs = [rng.choice(4, size=2, replace=False).tolist() for _ in range(8)]
    a, b = [p[0] for p in pairs], [p[1] for p in pairs]
    seeds = rng.integers(0, 2**63, size=8).tolist()
    for guidance, equal in ((1.0, True), (3.0, False)):
        cfg = SamplerConfig(kind=kind, num_inference_steps=12, guidance_scale=guidance)
        mixed, _, provs = generate_batch(a, b, cfg, sched, models, seeds, 1.0)
        only_a, _, _ = generate_batch(a, None, cfg, sched, models, seeds)
        only_b, _, _ = generate_batch(b, None, cfg, sched, models, seeds)
        masks = mask_from_rect(8, 8, [p.rect for p in provs]).astype(bool)
        assert 0 < masks.sum() < masks.size
        assert np.array_equal(mixed, np.where(masks, only_a, only_b)) is equal, guidance


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


@pytest.mark.parametrize("kind", ["ancestral", "dpm_solver_pp_2m"])
def test_ratio_one_record_is_its_class_a_record(sched, bump_models, kind):
    # alpha 0.01 puts some ratios at exactly 1.0: such a record stores the no-cut
    # rectangle and is, bit for bit, the single-class record of class_a from its seed
    cfg = SamplerConfig(kind=kind, num_inference_steps=6)
    seeds = list(range(300, 340))
    class_a = [s % 2 for s in seeds]
    images, labels, provs = generate_batch(
        class_a, [1 - a for a in class_a], cfg, sched, bump_models, seeds, 0.01)
    single_images, single_labels, _ = generate_batch(class_a, None, cfg, sched, bump_models, seeds)
    whole = [i for i, p in enumerate(provs) if p.lambda_sampled == 1.0]
    assert 0 < len(whole) < len(seeds)
    for i in whole:
        assert provs[i].rect == (0.0, 0.0, 0.0, 0.0) and provs[i].lambda_real == 1.0
        assert np.array_equal(images[i], single_images[i])
        assert np.array_equal(labels[i], single_labels[i])
        image, label = regenerate(provs[i], sched, bump_models)
        assert np.array_equal(image, images[i]) and np.array_equal(label, labels[i])


def test_regenerate_rejects_edited_provenance(sched, bump_models):
    # a rect, ratio or method its seed does not give, or an added or dropped class_b,
    # raises; it used to rebuild the seed's record and label, bit for bit, whatever
    # the other fields said
    cfg = SamplerConfig(num_inference_steps=4)
    _, _, (mixed,) = generate_batch([1], [0], cfg, sched, bump_models, [5], 0.7)
    _, _, (single,) = generate_batch([1], None, cfg, sched, bump_models, [6])
    edits = [
        (mixed, {"rect": (1.0, 2.0, 3.0, 3.0)}),
        (mixed, {"lambda_real": 0.5}),
        (mixed, {"lambda_sampled": 0.5}),
        (mixed, {"method": "single"}),
        (mixed, {"class_b": None}),
        (single, {"class_b": 0}),
        (single, {"method": "noisecutmix"}),
        (single, {"method": "pixel"}),
    ]
    for prov, edit in edits:
        with pytest.raises(ValueError):
            regenerate(dataclasses.replace(prov, **edit), sched, bump_models)


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


def _serial_ancestral(cond, cfg, sched, models, rng, n):
    """run_reverse's ancestral path as a plain loop: draw the step's noise, then step."""
    family = class_family(models)
    x = rng.standard_normal((n,) + family.means.shape[1:])
    eps_fn = guided_eps_fn(cond, None, None, cfg, sched, family)
    ts = timestep_grid(sched.num_steps, cfg.num_inference_steps).tolist()
    for t_from, t_to in zip(ts[:-1], ts[1:]):
        noise = rng.standard_normal(x.shape) if t_to > 0 else None
        x = step_ancestral(x, eps_fn(x, t_from), t_from, t_to, sched, noise)
    return x


def _generator_states(rng):
    return [g.bit_generator.state for g in getattr(rng, "rngs", [rng])]


@pytest.mark.parametrize("steps", [1, 2, 1000])
@pytest.mark.parametrize("streams", ["generator", "records"])
@pytest.mark.parametrize("ring", [2, 3], ids=["worker-ring2", "worker-ring3"])
def test_ancestral_run_matches_serial_draw_loop(sched, bump_models, steps, streams, ring, monkeypatch):
    # bit-equal images and the same generator states after the call, so the
    # worker's draws into its ring of noise buffers come in the serial order,
    # and the terminal step draws none
    monkeypatch.setattr(samplers, "_DRAW_AHEAD_BYTES", ring * 3 * 8 * 8 * 8)  # ring draws of (3, 8, 8)
    cfg = SamplerConfig(kind="ancestral", num_inference_steps=steps, guidance_scale=7.5)
    if streams == "generator":
        cond, make_rng = 1, lambda: child_rng(23, 1)
    else:
        cond, make_rng = np.array([0, 1, 1]), lambda: _RecordStreams([4, 8, 15])
    rng, ref_rng = make_rng(), make_rng()
    images = run_reverse(cond, None, None, cfg, sched, bump_models, rng, 3)
    assert np.array_equal(images, _serial_ancestral(cond, cfg, sched, bump_models, ref_rng, 3))
    assert _generator_states(rng) == _generator_states(ref_rng)


def _traced_peak(call):
    """Bytes above the start that call's allocations peak at, numpy's data buffers included."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("guidance", [1.0, 7.5])
@pytest.mark.parametrize("steps", [1, 2, 3, 20])
def test_ancestral_call_holds_x_eps_and_its_ring_only(sched, bump_models, steps, guidance):
    # the ring holds one buffer per draw up to its cap, and no step allocates a
    # batch-sized temporary: at its peak the call holds x, the estimate, the mixture
    # estimate when guiding and the ring, within half a batch array
    n = 1024  # 8x8 records, 512 KiB per batch array
    nbytes = n * 64 * 8
    cfg = SamplerConfig(kind="ancestral", num_inference_steps=steps, guidance_scale=guidance)
    ring = min(steps - 1, max(2, samplers._DRAW_AHEAD_BYTES // nbytes))
    assert ring * nbytes <= samplers._DRAW_AHEAD_BYTES
    working = (2 + (guidance != 1.0) + ring) * nbytes

    def call():
        run_reverse(0, None, None, cfg, sched, bump_models, child_rng(4, 1), n)

    call()  # imports and first-call caches
    assert working <= _traced_peak(call) <= working + nbytes // 2


class _ThreadRecordingRng:
    """A generator that notes the thread of every draw."""

    def __init__(self, rng):
        self.rng = rng
        self.threads = []

    def standard_normal(self, shape, out=None):
        self.threads.append(threading.get_ident())
        return self.rng.standard_normal(shape, out=out)


def test_ancestral_worker_is_joined_on_success_and_on_error(sched, bump_models):
    cfg = SamplerConfig(kind="ancestral", num_inference_steps=20, guidance_scale=7.5)
    n = 64
    caller, before = threading.get_ident(), threading.active_count()
    rng = _ThreadRecordingRng(child_rng(1, 1))
    run_reverse(0, None, None, cfg, sched, bump_models, rng, n)
    assert threading.active_count() == before
    # the initial noise is drawn by the caller, every step's noise by the worker
    assert len(rng.threads) == 20 and rng.threads[0] == caller and caller not in rng.threads[1:]

    # the first step's prediction raises while the next step's draw is in flight
    cond = np.zeros(n, dtype=np.int64)
    cond[1] = 7
    with pytest.raises(ValueError, match="^unknown class id 7$"):
        run_reverse(cond, None, None, cfg, sched, bump_models, _ThreadRecordingRng(child_rng(1, 1)), n)
    assert threading.active_count() == before


@pytest.mark.parametrize("entry", ["one class", "2-D mask"])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_small_ancestral_calls_draw_on_the_worker(sched, bump_models, n, entry, monkeypatch):
    # however small the batch, even an empty one, the caller draws the initial noise and
    # one other thread every step's noise, and that thread has ended when the call returns
    rngs = []

    def recording_child_rng(*args):
        rngs.append(_ThreadRecordingRng(child_rng(*args)))
        return rngs[-1]

    monkeypatch.setattr(samplers, "child_rng", recording_child_rng)
    cfg = SamplerConfig(kind="ancestral", num_inference_steps=10, guidance_scale=7.5)
    caller, before = threading.get_ident(), threading.active_count()
    if entry == "one class":
        images = sample_single_batch(0, cfg, sched, bump_models, 5, n)
    else:
        mask = np.zeros((8, 8), dtype=np.uint8)
        mask[2:7, :5] = 1
        images = sample_noisecutmix_batch(0, 1, mask, cfg, sched, bump_models, 5, n)
    assert images.shape == (n, 8, 8) and threading.active_count() == before
    (rng,) = rngs
    assert len(rng.threads) == 10 and rng.threads[0] == caller
    assert len(set(rng.threads[1:])) == 1 and caller not in rng.threads[1:]


@pytest.mark.parametrize("kind, n", [("dpm_solver_pp_2m", 0), ("dpm_solver_pp_2m", 4), ("dpm_solver_pp_2m", 1024)])
def test_no_worker_for_dpm_or_small_draws(sched, bump_models, kind, n, monkeypatch):
    # a DPM-Solver++(2M) call of one row block, an empty one too, starts no thread
    def no_executor(*args, **kwargs):
        raise AssertionError("an executor was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_executor)
    cfg = SamplerConfig(kind=kind, num_inference_steps=10, guidance_scale=7.5)
    before, rng = threading.active_count(), _ThreadRecordingRng(child_rng(2, 1))
    images = run_reverse(0, None, None, cfg, sched, bump_models, rng, n)
    assert images.shape == (n, 8, 8) and threading.active_count() == before
    assert set(rng.threads) == {threading.get_ident()}


# rows per forced DPM block on the 8x8 grid
BLOCK_ROWS = 4


def _force_blocks(monkeypatch, rows, threads):
    """DPM blocks of rows records of 8x8 on threads threads, through an affinity set of
    threads CPUs; logs each block's row count, the length of its first estimate's x."""
    monkeypatch.setattr(samplers, "_BLOCK_VALUES", rows * 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(threads)), raising=False)
    block_rows = []
    real = samplers.guided_eps_fn

    def logged(*args):
        eps_fn, steps = real(*args), []

        def logged_eps_fn(x, t, **kwargs):
            if not steps:
                block_rows.append(len(x))
            steps.append(t)
            return eps_fn(x, t, **kwargs)

        return logged_eps_fn

    monkeypatch.setattr(samplers, "guided_eps_fn", logged)
    return block_rows


def _dpm_entry(entry, n, cfg, sched, models):
    """The DPM images of one entry point over n records (seeded by n)."""
    seeds = [1000 * n + i for i in range(n)]
    ids = [i % 2 for i in range(n)]
    if entry == "int class":
        return sample_single_batch(1, cfg, sched, models, seeds[0], n)
    if entry == "id array":
        return generate_batch(ids, None, cfg, sched, models, seeds)[0]
    if entry == "2-D mask":
        mask = np.zeros((8, 8), dtype=np.uint8)
        mask[2:7, :5] = 1
        return sample_noisecutmix_batch(0, 1, mask, cfg, sched, models, seeds[0], n)
    # (N, H, W) masks, one drawn per record, and a class_b array
    return generate_batch(ids, [1 - a for a in ids], cfg, sched, models, seeds, alpha=1.0)[0]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("guidance", [1.0, 7.5])
@pytest.mark.parametrize("entry", ["int class", "id array", "2-D mask", "(N, H, W) masks"])
@pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5])
def test_dpm_row_blocks_keep_the_one_block_bits(sched, bump_models, n, entry, guidance, threads,
                                                monkeypatch):
    cfg = SamplerConfig(kind="dpm_solver_pp_2m", num_inference_steps=5, guidance_scale=guidance)
    one_block = _dpm_entry(entry, n, cfg, sched, bump_models)
    block_rows = _force_blocks(monkeypatch, BLOCK_ROWS, threads)
    blocked = _dpm_entry(entry, n, cfg, sched, bump_models)
    assert np.array_equal(blocked, one_block)
    # near-equal blocks of at most BLOCK_ROWS rows that cover the n rows
    assert len(block_rows) == -(-n // BLOCK_ROWS) and sum(block_rows) == n
    assert max(block_rows) - min(block_rows) <= 1 <= min(block_rows) <= max(block_rows) <= BLOCK_ROWS


def _logged_results(monkeypatch, name):
    """The result of each call to samplers.<name>, in call order."""
    results, real = [], getattr(samplers, name)

    def logged(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(samplers, name, logged)
    return results


@pytest.mark.parametrize("guidance, estimates, combines", [(7.5, 2, 1), (1.0, 1, 0)])
@pytest.mark.parametrize("entry", ["int class", "id array", "2-D mask", "(N, H, W) masks"])
def test_a_guided_step_makes_one_conditional_estimate(sched, bump_models, entry, guidance,
                                                      estimates, combines, monkeypatch):
    # single-class and mixed records alike: one conditional estimate per step, and
    # the mixture estimate and one combine unless the guidance is 1
    steps, n = 5, 2 * BLOCK_ROWS + 1
    cfg = SamplerConfig(kind="dpm_solver_pp_2m", num_inference_steps=steps, guidance_scale=guidance)
    block_rows = _force_blocks(monkeypatch, BLOCK_ROWS, 1)
    predicted = _logged_results(monkeypatch, "predict_noise")
    combined = _logged_results(monkeypatch, "cfg_combine")
    _dpm_entry(entry, n, cfg, sched, bump_models)
    assert len(block_rows) == 3
    assert len(predicted) == estimates * steps * len(block_rows)
    assert len(combined) == combines * steps * len(block_rows)


@pytest.mark.parametrize("entry", ["int class", "id array", "2-D mask", "(N, H, W) masks"])
def test_the_spliced_family_is_built_once_per_block_from_its_rows(sched, bump_models, entry,
                                                                  monkeypatch):
    n = 2 * BLOCK_ROWS + 1
    cfg = SamplerConfig(kind="dpm_solver_pp_2m", num_inference_steps=5, guidance_scale=7.5)
    block_rows = _force_blocks(monkeypatch, BLOCK_ROWS, 2)
    spliced = _logged_results(monkeypatch, "spliced_family")
    _dpm_entry(entry, n, cfg, sched, bump_models)
    shapes = sorted(family.means.shape for family in spliced)
    if entry in ("int class", "id array"):
        assert shapes == []
    elif entry == "2-D mask":  # one pair, one mask: one spliced class
        assert shapes == [(1, 8, 8)] * len(block_rows)
    else:  # one spliced class with a record axis of the block's rows
        assert shapes == sorted((1, rows, 8, 8) for rows in block_rows)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_dpm_blocks_reuse_one_workspace_per_thread(sched, bump_models, threads, monkeypatch):
    # every block's estimate buffers come from one of at most `threads` workspaces; four
    # threads with a short switch interval would interleave two blocks sharing one
    n = 5 * BLOCK_ROWS + 3
    cfg = SamplerConfig(kind="dpm_solver_pp_2m", num_inference_steps=5, guidance_scale=7.5)
    one_block = _dpm_entry("(N, H, W) masks", n, cfg, sched, bump_models)
    block_rows = _force_blocks(monkeypatch, BLOCK_ROWS, threads)
    # each block's first estimate and mixture buffers, held so that no freed array is reused
    firsts, works = [], []
    real = samplers.guided_eps_fn

    def logged(*args):
        eps_fn, calls = real(*args), []

        def logged_eps_fn(x, t, **kwargs):
            if not calls:
                firsts.append(kwargs["out"])
            calls.append(t)
            works.append(kwargs.get("work"))
            return eps_fn(x, t, **kwargs)

        return logged_eps_fn

    monkeypatch.setattr(samplers, "guided_eps_fn", logged)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        blocked = _dpm_entry("(N, H, W) masks", n, cfg, sched, bump_models)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(blocked, one_block)
    assert len(block_rows) == len(firsts) == 6 and len(works) == 5 * 6
    assert 1 <= len({a.ctypes.data for a in firsts}) <= threads
    assert 1 <= len({a.ctypes.data for a in works}) <= threads


@pytest.mark.parametrize("guidance", [1.0, 7.5])
@pytest.mark.parametrize("entry", ["one class", "2-D mask", "id array", "(N, H, W) masks"])
def test_dpm_steps_allocate_no_block_sized_array(sched, bump_models, entry, guidance, monkeypatch):
    # three blocks on one thread: at its peak the call holds x, the one workspace of three
    # block arrays and what a per-record condition holds of a block's size, within half a
    # block array. An id array's gathered means, then variances, are one such array at a
    # time; per-record masks hold the spliced model's means and variances, and a step's
    # scaled means and marginal variances: four
    rows = 1024
    n = 3 * rows
    cfg = SamplerConfig(kind="dpm_solver_pp_2m", num_inference_steps=6, guidance_scale=guidance)
    class_a = np.arange(n) % 2 if entry == "id array" else 0
    class_b = 1 if "mask" in entry else None
    keep_a = {"2-D mask": np.arange(64).reshape(8, 8) % 3 == 0,
              "(N, H, W) masks": child_rng(5, 0).random((n, 8, 8)) < 0.5}.get(entry)
    block_rows = _force_blocks(monkeypatch, rows, 1)
    block = rows * 64 * 8
    held = {"id array": 1, "(N, H, W) masks": 4}.get(entry, 0)
    working = 3 * block + 3 * block + held * block  # x, the estimate, free and mixture arrays

    def call():
        run_reverse(class_a, class_b, keep_a, cfg, sched, bump_models, child_rng(6, 1), n)

    call()  # imports and first-call caches
    assert working <= _traced_peak(call) <= working + block // 2
    assert block_rows == [rows] * 6


def _plain_dpm(class_a, class_b, keep_a, cfg, sched, models, rng, n):
    """run_reverse's DPM path as one plain step loop over all rows, allocating per call."""
    family = class_family(models)
    x = rng.standard_normal((n,) + family.means.shape[1:])
    eps_fn = guided_eps_fn(class_a, class_b, keep_a, cfg, sched, family)
    ts = timestep_grid(sched.num_steps, cfg.num_inference_steps).tolist()
    prev_pred, prev_t = None, None
    for t_curr, t_to in zip(ts[:-1], ts[1:]):
        pred = tweedie_x0(x, eps_fn(x, t_curr), t_curr, sched)
        x = step_dpm_pp_2m(x, pred, prev_pred, (prev_t, t_curr, t_to), sched)
        prev_pred, prev_t = pred, t_curr
    return x


# x, the estimate and the previous prediction rotate through three arrays, so
# 4, 5 and 6 steps end in each of them
@pytest.mark.parametrize("steps", [4, 5, 6])
@pytest.mark.parametrize("rows", [BLOCK_ROWS, 1 << 20], ids=["blocked", "one block"])
def test_dpm_run_matches_a_plain_step_loop(sched, bump_models, rows, steps, monkeypatch):
    n = 3 * BLOCK_ROWS + 5
    cfg = SamplerConfig(kind="dpm_solver_pp_2m", num_inference_steps=steps, guidance_scale=7.5)
    cond = np.arange(n) % 2
    keep = child_rng(9, 0).random((n, 8, 8)) < 0.5
    expected = _plain_dpm(cond, 1 - cond, keep, cfg, sched, bump_models, child_rng(3, 1), n)
    _force_blocks(monkeypatch, rows, 2)
    images = run_reverse(cond, 1 - cond, keep, cfg, sched, bump_models, child_rng(3, 1), n)
    assert np.array_equal(images, expected)


def test_dpm_blocks_keep_their_bits_with_more_threads_than_cores(sched, bump_models, monkeypatch):
    # every block writes its own rows of one shared x: one-row blocks on 8 threads,
    # switching between threads as often as the interpreter allows
    n = 37
    cfg = SamplerConfig(kind="dpm_solver_pp_2m", num_inference_steps=5, guidance_scale=7.5)
    one_block = _dpm_entry("(N, H, W) masks", n, cfg, sched, bump_models)
    block_rows = _force_blocks(monkeypatch, 1, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        blocked = _dpm_entry("(N, H, W) masks", n, cfg, sched, bump_models)
    finally:
        sys.setswitchinterval(interval)
    assert block_rows == [1] * n
    assert np.array_equal(blocked, one_block)


class _NanRowRng:
    """A generator whose draws hold NaN in one row."""

    def __init__(self, row):
        self.row = row

    def standard_normal(self, shape):
        x = child_rng(5, 1).standard_normal(shape)
        x[self.row] = np.nan
        return x


@pytest.mark.parametrize("row", [0, 7, 3 * BLOCK_ROWS + 4], ids=["first block", "middle block", "last row"])
@pytest.mark.parametrize("fault", ["unknown class id", "divergence"])
def test_a_failing_dpm_block_raises_the_one_block_error(sched, bump_models, fault, row, monkeypatch):
    n = 3 * BLOCK_ROWS + 5
    cfg = SamplerConfig(kind="dpm_solver_pp_2m", num_inference_steps=6, guidance_scale=7.5)
    if fault == "unknown class id":
        cond, make_rng, expected = np.zeros(n, dtype=np.int64), lambda: child_rng(5, 1), ValueError
        cond[row] = 7
    else:
        cond, make_rng, expected = 1, lambda: _NanRowRng(row), NumericalDivergence

    def error():
        with pytest.raises(expected) as excinfo:
            run_reverse(cond, None, None, cfg, sched, bump_models, make_rng(), n)
        return type(excinfo.value), str(excinfo.value)

    one_block = error()
    before = threading.active_count()
    block_rows = _force_blocks(monkeypatch, BLOCK_ROWS, 2)
    assert error() == one_block
    assert threading.active_count() == before
    assert block_rows and max(block_rows) <= BLOCK_ROWS


def test_dpm_run_rejects_per_record_arguments_of_other_lengths(sched, bump_models, monkeypatch):
    # a block takes its rows by slicing, which would cut a longer array short
    cfg = SamplerConfig(kind="dpm_solver_pp_2m", num_inference_steps=3, guidance_scale=7.5)
    _force_blocks(monkeypatch, BLOCK_ROWS, 2)
    n = 2 * BLOCK_ROWS
    for cond, keep_a in [(np.zeros(n + 1, dtype=np.int64), None),
                         (np.zeros((n, 1), dtype=np.int64), None),
                         (0, np.ones((n - 1, 8, 8), dtype=bool)),
                         (0, np.ones((8, 4), dtype=bool))]:
        with pytest.raises(ValueError, match=f"for {n} records of shape \\(8, 8\\)$"):
            run_reverse(cond, None if keep_a is None else 1, keep_a, cfg, sched, bump_models,
                        child_rng(1, 1), n)


def test_noisecutmix_batch_rejects_non_binary_mask(sched, bump_models):
    cfg = SamplerConfig(kind="dpm_solver_pp_2m", num_inference_steps=5, guidance_scale=7.5)
    # 0.7 used to be cast to 0 (all class B) and 2 to 1 (all class A)
    for value in (0.7, 2, -1, np.nan):
        with pytest.raises(ValueError, match="mask values must be 0 or 1"):
            sample_noisecutmix_batch(0, 1, np.full((8, 8), value), cfg, sched, bump_models, 3, 2)
    mask = np.zeros((8, 8), dtype=np.uint8)
    mask[:, :4] = 1
    as_uint8 = sample_noisecutmix_batch(0, 1, mask, cfg, sched, bump_models, 3, 2)
    for same in (mask.astype(bool), mask.astype(np.float64)):
        assert np.array_equal(sample_noisecutmix_batch(0, 1, same, cfg, sched, bump_models, 3, 2), as_uint8)


def test_noisecutmix_batch_rejects_a_mask_of_another_shape(sched, bump_models):
    cfg = SamplerConfig(kind="dpm_solver_pp_2m", num_inference_steps=5, guidance_scale=7.5)
    for shape in ((8, 4), (2, 8, 8), (8,)):
        with pytest.raises(ValueError, match=r"^mask must have shape \(8, 8\)$"):
            sample_noisecutmix_batch(0, 1, np.ones(shape), cfg, sched, bump_models, 3, 2)


def test_record_streams_draw_one_row_per_record():
    # zip would stop at the last stream and leave the draw's other rows unwritten
    streams = _RecordStreams([4, 8])
    with pytest.raises(ValueError, match="draw of 3 rows from 2 record streams"):
        streams.standard_normal((3, 4))
    with pytest.raises(ValueError, match="draw of 1 rows from 2 record streams"):
        streams.standard_normal((1, 4), out=np.empty((1, 4)))


def test_child_streams_are_independent():
    a = child_rng(42, 0).standard_normal(8)
    b = child_rng(42, 1).standard_normal(8)
    assert not np.allclose(a, b)
    assert np.array_equal(a, child_rng(42, 0).standard_normal(8))
