"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, not deferred; oracles (finite
differences, closed-form densities, recounts) are implemented in this
module independently of the library code paths they check.
"""

import hashlib
import json
import math
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from noisecutmix import (
    SamplerConfig,
    config_from_dict,
    make_bump_dataset,
    make_cosine_schedule,
    mask_from_rect,
    mix_labels,
    predict_noise,
    run_experiment,
    sample_lambda,
    sample_mask,
    sample_noisecutmix_batch,
    sample_single_batch,
)
from noisecutmix.classifier import _loss_and_grads, init_classifier
from noisecutmix.harness import format_result_table, parse_result_table
from noisecutmix.mixing import realized_lambda
from noisecutmix.samplers import child_rng


GOLDEN = Path(__file__).parent / "golden" / "default_experiment.json"


def _report(num, name, elapsed=None):
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"[ACCEPTANCE] criterion {num} PASS: {name}{suffix}")


# ---------------------------------------------------------------------------
# criterion 1: score identity against a finite-difference oracle
# ---------------------------------------------------------------------------


def _oracle_log_density(x, t, sched, models, cond):
    ab = sched.alpha_bar[t]
    logs = []
    for m in models:
        if cond is not None and m.class_id != cond:
            continue
        v = ab * m.var + (1.0 - ab)
        z = x - math.sqrt(ab) * m.mean
        ll = -0.5 * np.sum(np.log(2.0 * np.pi * v) + z * z / v)
        logs.append((math.log(1.0 / len(models)) if cond is None else 0.0) + ll)
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


def _oracle_fd_noise(x, t, sched, models, cond, h=1e-5):
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (
            _oracle_log_density(xp, t, sched, models, cond)
            - _oracle_log_density(xm, t, sched, models, cond)
        ) / (2.0 * h)
    return -math.sqrt(1.0 - sched.alpha_bar[t]) * grad


def test_criterion_1_score_identity():
    start = time.monotonic()
    sched = make_cosine_schedule(1000)
    models, _ = make_bump_dataset(3, 8, 8, 1.5, 0.3, seed=2, n_per_class=0)
    rng = np.random.default_rng(10)
    checked_pixels = 0
    for _ in range(100):
        t = int(rng.integers(1, 1001))
        cond = [None, 0, 1, 2][int(rng.integers(4))]
        base = models[int(rng.integers(3))].mean
        x = sched.signal(t) * base + max(sched.noise(t), 0.3) * rng.standard_normal((8, 8))
        eps = predict_noise(x, cond, t, sched, models)
        ref = _oracle_fd_noise(x, t, sched, models, cond)
        sel = np.abs(eps) > 1e-3
        if not sel.any():
            continue
        rel = np.abs(eps[sel] - ref[sel]) / np.abs(eps[sel])
        assert rel.max() <= 1e-4, f"relative error {rel.max():.2e} at t={t}, cond={cond}"
        checked_pixels += int(sel.sum())
    elapsed = time.monotonic() - start
    assert checked_pixels > 1000
    assert elapsed < 10.0
    _report(1, f"noise predictor matches FD score on 100 random states ({checked_pixels} px)", elapsed)


# ---------------------------------------------------------------------------
# criterion 2: mask-degenerate generation collapses bit-exactly
# ---------------------------------------------------------------------------


def test_criterion_2_collapse():
    start = time.monotonic()
    sched = make_cosine_schedule(1000)
    models, _ = make_bump_dataset(2, 8, 8, 1.5, 0.25, seed=0, n_per_class=0)
    ones = np.ones((8, 8), dtype=np.uint8)
    zeros = np.zeros((8, 8), dtype=np.uint8)
    for kind in ("ancestral", "dpm_solver_pp_2m"):
        cfg = SamplerConfig(kind=kind, num_inference_steps=10, guidance_scale=7.5)
        for seed in range(20):
            mix_a = sample_noisecutmix_batch(0, 1, ones, cfg, sched, models, seed, 1)
            single_a = sample_single_batch(0, cfg, sched, models, seed, 1)
            assert np.array_equal(mix_a, single_a), (kind, seed, "all-ones")
            mix_b = sample_noisecutmix_batch(0, 1, zeros, cfg, sched, models, seed, 1)
            single_b = sample_single_batch(1, cfg, sched, models, seed, 1)
            assert np.array_equal(mix_b, single_b), (kind, seed, "all-zeros")
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(2, "all-ones/all-zeros masks collapse bit-exactly, 20 seeds x 2 samplers", elapsed)


# ---------------------------------------------------------------------------
# criterion 3: mask/label consistency and Beta(1,1) uniformity
# ---------------------------------------------------------------------------


def _zero_region_is_one_rectangle(mask):
    zero_rows = np.where((mask == 0).any(axis=1))[0]
    if zero_rows.size == 0:
        return True
    if not np.array_equal(zero_rows, np.arange(zero_rows[0], zero_rows[-1] + 1)):
        return False
    first = np.where(mask[zero_rows[0]] == 0)[0]
    if not np.array_equal(first, np.arange(first[0], first[-1] + 1)):
        return False
    return all(np.array_equal(np.where(mask[r] == 0)[0], first) for r in zero_rows)


def test_criterion_3_mask_label_consistency():
    start = time.monotonic()
    rng = child_rng(33, 0)
    for _ in range(10_000):
        lam = sample_lambda(1.0, rng)
        mask = mask_from_rect(16, 16, sample_mask(16, 16, lam, rng))
        lambda_real = float(realized_lambda(mask))
        zeros = int((mask == 0).sum())
        assert lambda_real == 1.0 - zeros / 256
        assert _zero_region_is_one_rectangle(mask)
        label = mix_labels(int(rng.integers(4)), int(rng.integers(4)), lambda_real, 4)
        assert np.all(label >= 0.0)
        assert abs(label.sum() - 1.0) <= 1e-12

    draws = np.sort([sample_lambda(1.0, rng) for _ in range(100_000)])
    i = np.arange(1, 100_001)
    ks = max(np.max(i / 1e5 - draws), np.max(draws - (i - 1) / 1e5))
    assert ks < 0.01, f"KS statistic {ks:.4f}"
    elapsed = time.monotonic() - start
    _report(3, f"10k masks exact and rectangular; Beta(1,1) KS={ks:.4f} over 100k draws", elapsed)


# ---------------------------------------------------------------------------
# criterion 4: sampler stationarity on the unit Gaussian model
# ---------------------------------------------------------------------------


def test_criterion_4_sampler_stationarity():
    from noisecutmix import ClassModel

    start = time.monotonic()
    sched = make_cosine_schedule(1000)
    models = [ClassModel(class_id=0, mean=np.zeros((8, 8)), var=np.ones((8, 8)))]
    n = 20_000
    se3 = 3.0 / math.sqrt(n)
    for kind, steps in (("dpm_solver_pp_2m", 25), ("ancestral", 1000)):
        cfg = SamplerConfig(kind=kind, num_inference_steps=steps, guidance_scale=1.0)
        imgs = sample_single_batch(0, cfg, sched, models, seed=5, n=n)
        mean = imgs.mean(axis=0)
        var = imgs.var(axis=0)
        assert np.abs(mean).max() <= se3, f"{kind}: |mean| {np.abs(mean).max():.4f} > {se3:.4f}"
        assert var.min() >= 0.95 and var.max() <= 1.05, (
            f"{kind}: per-pixel variance range [{var.min():.4f}, {var.max():.4f}]"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(4, "25-step solver and 1000-step ancestral both keep N(0, I), 20k samples each", elapsed)


# ---------------------------------------------------------------------------
# criterion 5: half-plane mask concentrates each class's bump mass
# ---------------------------------------------------------------------------


def test_criterion_5_spatial_mix():
    start = time.monotonic()
    sched = make_cosine_schedule(1000)
    models, _ = make_bump_dataset(2, 16, 16, 2.0, 0.3, seed=0, n_per_class=0)
    mask = np.zeros((16, 16), dtype=np.uint8)
    mask[:, :8] = 1  # keep class A's noise on the left half
    cfg = SamplerConfig(kind="dpm_solver_pp_2m", num_inference_steps=25, guidance_scale=7.5)
    imgs = sample_noisecutmix_batch(0, 1, mask, cfg, sched, models, seed=20, n=5000)
    mean_img = imgs.mean(axis=0)
    keep = mask.astype(bool)

    def template_mass(template, region):
        return float((mean_img * template)[region].sum())

    a_in, a_out = template_mass(models[0].mean, keep), template_mass(models[0].mean, ~keep)
    b_in, b_out = template_mass(models[1].mean, ~keep), template_mass(models[1].mean, keep)
    assert a_in > 2.0 * a_out, f"class A mass ratio {a_in / a_out:.2f}"
    assert b_in > 2.0 * b_out, f"class B mass ratio {b_in / b_out:.2f}"
    elapsed = time.monotonic() - start
    _report(
        5,
        f"half-plane mix: class mass ratios {a_in / a_out:.0f}:1 and {b_in / b_out:.0f}:1",
        elapsed,
    )


# ---------------------------------------------------------------------------
# criterion 6: backpropagation against central finite differences
# ---------------------------------------------------------------------------


def test_criterion_6_gradient_check():
    start = time.monotonic()
    rng = np.random.default_rng(6)
    for trial in range(5):
        model = init_classifier(9, 6, 3, seed=trial + 50)
        batch = [(rng.standard_normal(9), rng.dirichlet(np.ones(3))) for _ in range(5)]
        x, y = (np.stack(column) for column in zip(*batch))
        _, grads = _loss_and_grads(model, x, y)
        h = 1e-5
        for name in ("w1", "b1", "w2", "b2"):
            param = getattr(model, name)
            flat = param.reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp, _ = _loss_and_grads(model, x, y)
                flat[i] = orig - h
                lm, _ = _loss_and_grads(model, x, y)
                flat[i] = orig
                fd = (lp - lm) / (2.0 * h)
                if abs(gflat[i]) > 1e-6:
                    rel = abs(gflat[i] - fd) / abs(gflat[i])
                    assert rel <= 1e-4, f"{name}[{i}] rel err {rel:.2e}"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(6, "backprop matches central differences across 5 random models/batches", elapsed)


# ---------------------------------------------------------------------------
# criteria 7 and 8: desk-scale benchmark table, direction of effect,
# and byte-identical reruns
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def benchmark_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    cfg = config_from_dict({})  # the desk-scale protocol: defaults
    start = time.monotonic()
    table = run_experiment(cfg, out)
    return out, cfg, table, time.monotonic() - start


def test_criterion_7_benchmark_table(benchmark_run):
    out, cfg, table, elapsed = benchmark_run
    assert elapsed < 300.0
    assert [row.method for row in table.rows] == [
        "original", "cutmix", "mixup", "gen_random",
        "gen_random+cutmix", "gen_random+mixup", "noisecutmix",
    ]
    for row in table.rows:
        assert len(row.accuracies) == 5
        assert abs(row.mean - float(np.mean(row.accuracies))) <= 1e-12
        assert abs(row.std - float(np.std(row.accuracies, ddof=1))) <= 1e-12
    by = {row.method: row for row in table.rows}
    orig, ncm = by["original"], by["noisecutmix"]
    pooled = math.sqrt((orig.std**2 + ncm.std**2) / 2.0)
    assert ncm.mean >= orig.mean - pooled, (
        f"noisecutmix {ncm.mean:.4f} < original {orig.mean:.4f} - pooled {pooled:.4f}"
    )
    stored = parse_result_table((out / "results.tsv").read_text())
    assert [r.method for r in stored.rows] == [r.method for r in table.rows]
    print()
    print(format_result_table(table))
    _report(
        7,
        f"7-row table; noisecutmix {ncm.mean:.4f} vs original {orig.mean:.4f} "
        f"(pooled sd {pooled:.4f})",
        elapsed,
    )


def test_criterion_8_byte_identical_rerun(benchmark_run, tmp_path_factory):
    out_a, cfg, _, _ = benchmark_run
    out_b = tmp_path_factory.mktemp("bench_rerun")
    start = time.monotonic()
    run_experiment(cfg, out_b)
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    elapsed = time.monotonic() - start
    _report(8, f"re-run produced byte-identical artifacts ({len(names_a)} files)", elapsed)


# ---------------------------------------------------------------------------
# golden digest: the default experiment's artifacts against committed hashes
# ---------------------------------------------------------------------------


def _environment():
    """What floating-point results may depend on: numpy, its BLAS, the CPU family."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_build = "unknown"
    return {"numpy": np.__version__, "blas": blas_build, "machine": platform.machine()}


def _artifact_digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def write_golden(out):
    run_experiment(config_from_dict({}), out)
    doc = {"environment": _environment(), "sha256": _artifact_digests(out)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="ascii")


def test_golden_digest(benchmark_run):
    """Every artifact of the default experiment matches its committed sha256.

    Criterion 8 only compares a run with a rerun, so a refactor that
    changes results passes it; this test does not. The hashes hold for
    the recorded environment only; elsewhere the test skips and names
    both. After an intended change of results, regenerate the file with

        PYTHONPATH=src python tests/test_acceptance.py
    """
    golden = json.loads(GOLDEN.read_text(encoding="ascii"))
    here = _environment()
    if golden["environment"] != here:
        pytest.skip(f"golden digest recorded under {golden['environment']}, running under {here}")
    out, _, _, _ = benchmark_run
    digests = _artifact_digests(out)
    differ = sorted(n for n in digests.keys() | golden["sha256"].keys()
                    if digests.get(n) != golden["sha256"].get(n))
    assert not differ, f"artifacts differ from the golden digest: {differ}"
    _report("golden", f"{len(digests)} artifacts match {GOLDEN.name}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_golden(Path(tmp))
