import numpy as np
import pytest

from noisecutmix import Schedule, cfg_combine, forward_noise, make_cosine_schedule


def test_alpha_bar_starts_at_one():
    sched = make_cosine_schedule(10)
    assert sched.alpha_bar[0] == 1.0


def test_alpha_bar_strictly_decreasing():
    sched = make_cosine_schedule(10)
    for t in range(10):
        assert sched.alpha_bar[t + 1] < sched.alpha_bar[t]


def test_alpha_bar_tail_matches_high_precision_formula():
    # independent re-evaluation with 50-digit arithmetic, including the clamp
    import mpmath

    mpmath.mp.dps = 50
    sched = make_cosine_schedule(1000)
    s = mpmath.mpf("0.008")
    norm = mpmath.cos(s / (1 + s) * mpmath.pi / 2) ** 2

    def raw(t):
        return mpmath.cos((mpmath.mpf(t) / 1000 + s) / (1 + s) * mpmath.pi / 2) ** 2 / norm

    # t = 1000: the raw value (~3.7e-33) is dominated by the 1e-5 lower clamp
    expected_end = max(raw(1000), mpmath.mpf("1e-5"))
    assert abs(sched.alpha_bar[1000] - float(expected_end)) <= 1e-12
    # mid-schedule value sits in the unclamped region
    assert abs(sched.alpha_bar[500] - float(raw(500))) <= 1e-12


def test_large_t_stays_strictly_decreasing_under_clamp():
    sched = make_cosine_schedule(1000)
    assert np.all(np.diff(sched.alpha_bar) < 0)
    assert 0 < sched.alpha_bar[-1] <= 0.01


def test_rejects_tiny_t():
    with pytest.raises(ValueError):
        make_cosine_schedule(1)


def test_round_trip_signal_noise_identity():
    sched = make_cosine_schedule(64)
    for t in range(65):
        a, s = sched.signal(t), sched.noise(t)
        assert abs(a * a + s * s - 1.0) <= 1e-12


def test_schedule_invariant_validation():
    with pytest.raises(ValueError):
        Schedule(num_steps=2, alpha_bar=np.array([1.0, 0.5, 0.5]))  # tie
    with pytest.raises(ValueError):
        Schedule(num_steps=2, alpha_bar=np.array([1.0, 0.6, 0.5]))  # tail too large
    with pytest.raises(ValueError):
        Schedule(num_steps=2, alpha_bar=np.array([0.9, 0.5, 0.01]))  # abar_0 != 1
    with pytest.raises(ValueError, match="length T\\+1=4"):
        Schedule(num_steps=3, alpha_bar=np.array([1.0, 0.5, 0.01]))  # valid for T=2
    # no range check of its own: the end values and the strict decrease reject these
    for bad in (1.5, 0.0, -0.3, np.nan, np.inf):
        for ab in ([1.0, bad, 0.2, 0.01], [1.0, 0.5, bad, 0.01]):
            with pytest.raises(ValueError):
                Schedule(num_steps=3, alpha_bar=np.array(ab))


def _toy_schedule():
    return Schedule(num_steps=2, alpha_bar=np.array([1.0, 0.25, 0.01]))


def test_forward_noise_zero_inputs():
    sched = make_cosine_schedule(10)
    z = np.zeros((4, 4))
    for t in (0, 3, 10):
        assert np.array_equal(forward_noise(z, z, t, sched), z)


def test_forward_noise_identity_at_t0():
    sched = make_cosine_schedule(10)
    rng = np.random.default_rng(0)
    x0, eps = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    assert np.array_equal(forward_noise(x0, eps, 0, sched), x0)


def test_forward_noise_hand_arithmetic():
    # abar = 0.25: ones in, ones noise -> 0.5 + sqrt(0.75)
    sched = _toy_schedule()
    ones = np.ones((2, 2))
    out = forward_noise(ones, ones, 1, sched)
    assert np.allclose(out, 0.5 + np.sqrt(0.75), atol=1e-12)


def test_forward_noise_shape_mismatch():
    sched = make_cosine_schedule(10)
    with pytest.raises(ValueError):
        forward_noise(np.zeros((2, 2)), np.zeros((3, 3)), 1, sched)
    with pytest.raises(ValueError):
        forward_noise(np.zeros((2, 2)), np.zeros((2, 2)), 11, sched)


def test_forward_noise_moments():
    # per-pixel mean sqrt(abar) x0 and variance 1 - abar, within 3 standard errors
    sched = make_cosine_schedule(100)
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal((4, 4))
    n = 20_000
    for t in (5, 50, 100):
        eps = rng.standard_normal((n, 4, 4))
        xt = forward_noise(np.broadcast_to(x0, (n, 4, 4)), eps, t, sched)
        var_true = 1.0 - sched.alpha_bar[t]
        se_mean = np.sqrt(var_true / n)
        assert np.all(np.abs(xt.mean(axis=0) - sched.signal(t) * x0) <= 3.0 * se_mean)
        se_var = var_true * np.sqrt(2.0 / n)
        assert np.all(np.abs(xt.var(axis=0) - var_true) <= 3.0 * se_var)


def test_cfg_combine_identities():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    assert np.array_equal(cfg_combine(a, b, 1.0), a)
    assert np.array_equal(cfg_combine(a, b, 0.0), b)


def test_cfg_combine_paper_scale():
    a = np.full((2, 2), 2.0)
    b = np.full((2, 2), 1.0)
    assert np.array_equal(cfg_combine(a, b, 7.5), np.full((2, 2), 8.5))


def test_cfg_combine_affine():
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    a2, b2 = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    lhs = cfg_combine(a, b, 3.3) + cfg_combine(a2, b2, 3.3)
    rhs = cfg_combine(a + a2, b + b2, 3.3)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_cfg_combine_shape_mismatch():
    with pytest.raises(ValueError):
        cfg_combine(np.zeros((2, 2)), np.zeros((2, 3)), 2.0)
