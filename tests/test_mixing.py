import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noisecutmix
from noisecutmix import mask_from_rect, mix_labels, one_hot, sample_lambda, sample_mask
from noisecutmix.mixing import NO_CUT, _gamma_marsaglia_tsang, realized_lambda
from noisecutmix.samplers import child_rng


def ks_uniform_statistic(samples):
    u = np.sort(samples)
    n = len(u)
    i = np.arange(1, n + 1)
    return max(np.max(i / n - u), np.max(u - (i - 1) / n))


# ---------------------------------------------------------------------------
# lambda sampling
# ---------------------------------------------------------------------------


def test_lambda_rejects_nonpositive_alpha():
    rng = child_rng(0, 0)
    for alpha in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            sample_lambda(alpha, rng)


def test_lambda_alpha_one_is_uniform():
    rng = child_rng(101, 0)
    draws = np.array([sample_lambda(1.0, rng) for _ in range(100_000)])
    assert ks_uniform_statistic(draws) < 0.01


@pytest.mark.parametrize("alpha", [0.2, 1.0, 5.0])
def test_lambda_symmetric_mean(alpha):
    rng = child_rng(55, 0)
    n = 100_000
    draws = np.array([sample_lambda(alpha, rng) for _ in range(n)])
    var = 1.0 / (4.0 * (2.0 * alpha + 1.0))
    assert abs(draws.mean() - 0.5) <= 3.0 * math.sqrt(var / n)


def test_lambda_variance_matches_beta_formula():
    rng = child_rng(56, 0)
    draws = np.array([sample_lambda(0.2, rng) for _ in range(100_000)])
    expected = 1.0 / (4.0 * (2.0 * 0.2 + 1.0))
    assert abs(draws.var() - expected) <= 0.05 * expected


def test_lambda_in_unit_interval_and_reproducible():
    d1 = [sample_lambda(0.5, child_rng(9, 0)) for _ in range(50)]
    d2 = [sample_lambda(0.5, child_rng(9, 0)) for _ in range(50)]
    assert d1 == d2
    assert all(0.0 <= v <= 1.0 for v in d1)


# the recursive Gamma sampler that the one-loop _gamma_marsaglia_tsang replaced,
# kept as its bit-exact reference
def _gamma_reference(shape: float, rng: np.random.Generator) -> float:
    """Gamma(shape, 1) variate via Marsaglia-Tsang squeeze rejection.

    For shape < 1 uses the boosting transform: draw Gamma(shape+1) and
    multiply by U^(1/shape).
    """
    if shape < 1.0:
        g = _gamma_reference(shape + 1.0, rng)
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


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), alpha=st.sampled_from([0.05, 0.2, 0.999, 1.0, 2.5]))
def test_gamma_matches_recursive_reference(seed, alpha):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = np.array([_gamma_marsaglia_tsang(alpha, rng) for _ in range(64)])
    want = np.array([_gamma_reference(alpha, ref) for _ in range(64)])
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


class _ScriptedRng:
    """Hands out scripted standard normal and uniform draws in order and logs each call."""

    def __init__(self, normals, uniforms):
        self.normals, self.uniforms, self.calls = list(normals), list(uniforms), []

    def standard_normal(self):
        self.calls.append("normal")
        return self.normals.pop(0)

    def random(self):
        self.calls.append("random")
        return self.uniforms.pop(0)


@pytest.mark.parametrize("alpha", [0.2, 0.999, 2.5])
@pytest.mark.parametrize("normals,uniforms", [
    # x = -50 makes v <= 0 (a retry that draws no uniform); x = 2 with u = 0.99
    # fails both tests; x = 0 with u = 0.5 passes the squeeze; a boosted shape then
    # draws u = 0.0, which is nudged to the smallest normal double
    ([-50.0, 2.0, 0.0], [0.99, 0.5, 0.0]),
    # x = 2 with u = 0.5 fails the squeeze and passes the log test
    ([2.0], [0.5, 0.3]),
], ids=["retry-reject-nudge", "log-accept"])
def test_gamma_rejection_paths_match_reference(alpha, normals, uniforms):
    rng, ref = _ScriptedRng(normals, uniforms), _ScriptedRng(normals, uniforms)
    got, want = _gamma_marsaglia_tsang(alpha, rng), _gamma_reference(alpha, ref)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert type(got) is type(want)
    assert rng.calls == ref.calls
    assert (rng.normals, rng.uniforms) == (ref.normals, ref.uniforms)
    assert rng.calls.count("normal") == len(normals)


# ---------------------------------------------------------------------------
# mask sampling
# ---------------------------------------------------------------------------


def _mask(width, height, lam, rng):
    """(rect, mask, lambda_real) of one sample_mask draw."""
    rect = sample_mask(width, height, lam, rng)
    mask = mask_from_rect(width, height, rect)
    return rect, mask, float(realized_lambda(mask))


def test_mask_lambda_one_is_all_ones():
    # a ratio of exactly 1.0 draws nothing and gives the no-cut rectangle
    rng = child_rng(3, 0)
    state = rng.bit_generator.state
    rect, mask, lambda_real = _mask(8, 8, 1.0, rng)
    assert rng.bit_generator.state == state
    assert rect == NO_CUT == (0.0, 0.0, 0.0, 0.0)
    assert all(type(v) is float for v in rect)
    assert mask.all()
    assert lambda_real == 1.0
    assert rect[2] == 0.0 and rect[3] == 0.0


def test_mask_rect_is_center_then_size():
    # x then y from rng, as Python floats, sized W sqrt(1 - lam) x H sqrt(1 - lam)
    rng = child_rng(5, 0)
    rect = sample_mask(12, 9, 0.36, child_rng(5, 0))
    assert rect == (rng.uniform(0.0, 12), rng.uniform(0.0, 9), 12 * 0.8, 9 * 0.8)
    assert all(type(v) is float for v in rect)


# the parent's rectangle center draw, kept as the bit-exact reference of
# sample_mask's width * random(), then height * random()
def _center_reference(width, height, rng):
    r_x = rng.uniform(0.0, width)
    r_y = rng.uniform(0.0, height)
    return r_x, r_y


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    width=st.integers(1, 64),
    height=st.integers(1, 64),
    lam=st.floats(0.0, 1.0, exclude_max=True),
)
def test_mask_center_matches_uniform_reference(seed, width, height, lam):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(32):
        r_x, r_y, _, _ = sample_mask(width, height, lam, rng)
        want_x, want_y = _center_reference(width, height, ref)
        assert np.array([r_x, r_y]).tobytes() == np.array([want_x, want_y]).tobytes()
        assert type(r_x) is type(want_x) and type(r_y) is type(want_y)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_mask_rect_width_formula():
    # W sqrt(1 - 0.75) = 8 * 0.5 = 4
    rect = sample_mask(8, 8, 0.75, child_rng(4, 0))
    assert rect[2] == 4.0
    assert rect[3] == 4.0


def test_mask_rejects_bad_lambda():
    with pytest.raises(ValueError):
        sample_mask(8, 8, -0.1, child_rng(0, 0))
    with pytest.raises(ValueError):
        sample_mask(8, 8, 1.1, child_rng(0, 0))
    for width, height in ((0, 8), (8, 0)):
        with pytest.raises(ValueError):
            sample_mask(width, height, 1.0, child_rng(0, 0))


def _expected_cut_fraction(width, height, lam):
    """Closed-form mean realized cut fraction for a center-anchored,
    border-clipped rectangle: per axis E[len] = (2cL - c^2)/L with
    c = half the cut size, valid while the cut fits the axis."""

    def axis(length):
        c = length * math.sqrt(1.0 - lam) / 2.0
        return (2.0 * c * length - c * c) / (length * length)

    return axis(width) * axis(height)


def test_mask_mean_cut_fraction_shrinks_under_clipping():
    # border clipping shrinks the realized cut below the nominal
    # 1 - lambda; the exact expectation for lambda = 0.5 on 16x16 is
    # 0.33885, frozen here from the closed-form oracle
    rng = child_rng(12, 0)
    fractions = [1.0 - _mask(16, 16, 0.5, rng)[2] for _ in range(10_000)]
    mean = float(np.mean(fractions))
    oracle = _expected_cut_fraction(16, 16, 0.5)
    assert abs(oracle - 0.33885) < 5e-4  # sanity-pin the oracle itself
    assert mean <= 0.5
    assert abs(mean - oracle) <= 0.012


def test_mask_lambda_real_exact_and_rectangular():
    rng = child_rng(21, 0)
    for _ in range(200):
        lam = sample_lambda(1.0, rng)
        _, mask, lambda_real = _mask(12, 9, lam, rng)
        zeros = int((mask == 0).sum())
        assert lambda_real == 1.0 - zeros / mask.size
        assert_zero_region_is_one_rectangle(mask)


def assert_zero_region_is_one_rectangle(mask):
    zero_rows = np.where((mask == 0).any(axis=1))[0]
    if zero_rows.size == 0:
        return
    assert np.array_equal(zero_rows, np.arange(zero_rows[0], zero_rows[-1] + 1))
    first = np.where(mask[zero_rows[0]] == 0)[0]
    assert np.array_equal(first, np.arange(first[0], first[-1] + 1))
    for r in zero_rows:
        assert np.array_equal(np.where(mask[r] == 0)[0], first)
    # rows outside the band hold no zeros
    others = np.setdiff1d(np.arange(mask.shape[0]), zero_rows)
    assert (mask[others] == 1).all()


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(4, 24),
    height=st.integers(4, 24),
    lam=st.floats(0.0, 1.0, allow_nan=False),
    seed=st.integers(0, 2**31 - 1),
)
def test_mask_properties_hold_for_any_draw(width, height, lam, seed):
    _, mask, lambda_real = _mask(width, height, lam, child_rng(seed, 0))
    zeros = int((mask == 0).sum())
    assert lambda_real == 1.0 - zeros / (width * height)
    assert_zero_region_is_one_rectangle(mask)


def test_mask_bit_reproducible():
    rect_a, mask_a, lambda_a = _mask(16, 16, 0.4, child_rng(77, 0))
    rect_b, mask_b, lambda_b = _mask(16, 16, 0.4, child_rng(77, 0))
    assert np.array_equal(mask_a, mask_b)
    assert rect_a == rect_b and lambda_a == lambda_b


def test_only_mixing_draws_rectangle_centers():
    # generation and apply_policy both take their CutMix rectangle from sample_mask
    for path in sorted(Path(noisecutmix.__file__).parent.glob("*.py")):
        if path.name == "mixing.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
                 and isinstance(n.func, ast.Attribute) and n.func.attr == "uniform"]
        assert calls == [], f"{path.name} calls .uniform( at lines {calls}"


# ---------------------------------------------------------------------------
# soft labels
# ---------------------------------------------------------------------------


def test_mix_labels_arithmetic():
    assert np.allclose(mix_labels(0, 1, 0.3, 3), [0.3, 0.7, 0.0], atol=1e-15)


def test_mix_labels_degenerate():
    assert np.array_equal(mix_labels(0, 1, 1.0, 3), one_hot(0, 3))
    assert np.array_equal(mix_labels(2, 2, 0.37, 3), one_hot(2, 3))


def test_mix_labels_validation():
    with pytest.raises(ValueError):
        mix_labels(0, 3, 0.5, 3)
    with pytest.raises(ValueError):
        mix_labels(0, 1, 1.5, 3)


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(2, 10),
    lam=st.floats(0.0, 1.0, allow_nan=False),
    data=st.data(),
)
def test_mix_labels_on_simplex(k, lam, data):
    y_a = data.draw(st.integers(0, k - 1))
    y_b = data.draw(st.integers(0, k - 1))
    label = mix_labels(y_a, y_b, lam, k)
    assert np.all(label >= 0.0)
    assert abs(label.sum() - 1.0) <= 1e-12
    assert int((label > 0).sum()) <= 2
