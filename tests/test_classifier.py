import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from noisecutmix import (
    AugmentPolicy,
    MlpClassifier,
    NumericalDivergence,
    TrainConfig,
    evaluate,
    init_classifier,
    one_hot,
    train,
)
from noisecutmix import classifier
from noisecutmix.classifier import (
    _SPLIT_STREAM, ADAM_BETA1, ADAM_BETA2, ADAM_EPS, _Adam, _loss_and_grads, validation_split,
)
from noisecutmix.samplers import child_rng


def _model(w1, b1, w2, b2):
    """The classifier holding these weights, built from one flat vector."""
    params = np.concatenate([np.ravel(a) for a in (w1, b1, w2, b2)], dtype=np.float64)
    return MlpClassifier(params, w1.shape[1], w1.shape[0], len(b2))


def _soft_ce(logits, target):
    """The trainer's loss on one sample whose logits are exactly `logits`:
    with zero weights the output bias alone sets them."""
    k = len(logits)
    model = _model(np.zeros((1, 1)), np.zeros(1), np.zeros((k, 1)), logits)
    loss, _ = _loss_and_grads(model, np.zeros((1, 1)), np.asarray(target)[None])
    return loss


def test_soft_ce_saturated_one_hot():
    assert _soft_ce(np.array([20.0, 0.0, 0.0]), one_hot(0, 3)) <= 1e-8


def test_soft_ce_uniform_entropy():
    logits = np.zeros(4)
    target = np.full(4, 0.25)
    assert abs(_soft_ce(logits, target) - math.log(4.0)) <= 1e-12


def test_soft_ce_matches_high_precision_reference():
    import mpmath

    mpmath.mp.dps = 40
    rng = np.random.default_rng(0)
    for _ in range(10):
        logits = rng.normal(scale=5.0, size=6)
        target = rng.dirichlet(np.ones(6))
        z = [mpmath.mpf(v) for v in logits]
        lse = mpmath.log(mpmath.fsum(mpmath.e**v for v in z))
        ref = mpmath.fsum(mpmath.mpf(t) * (lse - v) for t, v in zip(target, z))
        assert abs(_soft_ce(logits, target) - float(ref)) <= 1e-10


def test_soft_ce_lower_bound_is_target_entropy():
    # loss >= H(target) with equality iff softmax(logits) == target
    rng = np.random.default_rng(1)
    target = rng.dirichlet(np.ones(5))
    entropy = -np.sum(target * np.log(target))
    assert _soft_ce(np.log(target), target) - entropy <= 1e-9
    for _ in range(20):
        logits = rng.normal(size=5)
        assert _soft_ce(logits, target) >= entropy - 1e-12


def test_output_layer_gradient_closed_form():
    model = init_classifier(4, 3, 2, seed=0)
    img = np.random.default_rng(2).standard_normal((2, 2))
    target = one_hot(1, 2)
    _, grads = _loss_and_grads(model, img.reshape(1, -1), target[None])
    logits = model.logits(img.reshape(1, -1))[0]
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    assert np.allclose(grads["b2"], probs - target, atol=1e-12)


def test_symmetric_units_get_equal_bias_gradients():
    # identical w1 rows and w2 columns with zero inputs and active biases
    w1 = np.tile(np.array([[0.1, -0.2, 0.3]]), (4, 1))
    b1 = np.full(4, 0.5)
    w2 = np.tile(np.array([[0.7], [-0.4]]), (1, 4))
    model = _model(w1, b1, w2, np.zeros(2))
    _, grads = _loss_and_grads(model, np.zeros((4, 3)), np.full((4, 2), 0.5))
    assert np.allclose(grads["b1"], grads["b1"][0], atol=1e-15)


def _fd_gradient(model, x, y, h=1e-5):
    names = ("w1", "b1", "w2", "b2")
    out = {}
    for name in names:
        param = getattr(model, name)
        g = np.zeros_like(param)
        flat = param.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = _loss_and_grads(model, x, y)
            flat[i] = orig - h
            lm, _ = _loss_and_grads(model, x, y)
            flat[i] = orig
            gflat[i] = (lp - lm) / (2.0 * h)
        out[name] = g
    return out


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for trial in range(5):
        model = init_classifier(9, 6, 3, seed=trial)
        batch = [(rng.standard_normal(9), rng.dirichlet(np.ones(3))) for _ in range(4)]
        x, y = (np.stack(column) for column in zip(*batch))
        _, grads = _loss_and_grads(model, x, y)
        ref = _fd_gradient(model, x, y)
        for name in grads:
            g, r = grads[name], ref[name]
            sel = np.abs(g) > 1e-6
            if sel.any():
                rel = np.abs(g[sel] - r[sel]) / np.abs(g[sel])
                assert rel.max() <= 1e-4


def _separable_dataset(n_per_class=20, seed=4):
    """(images (2n, 3, 3), one-hot labels (2n, 2)), class 0 first."""
    rng = np.random.default_rng(seed)
    images = np.concatenate([
        rng.normal(loc=offset, scale=0.5, size=(n_per_class, 3, 3)) for offset in (-3.0, 3.0)
    ])
    return images, np.eye(2)[np.repeat([0, 1], n_per_class)]


def _perceptron_separable(images, labels, max_iter=2000):
    # oracle: the perceptron converges iff the set is linearly separable
    x = np.hstack([images.reshape(len(images), -1), np.ones((len(images), 1))])
    y = np.where(np.argmax(labels, axis=1) == 1, 1.0, -1.0)
    w = np.zeros(x.shape[1])
    for _ in range(max_iter):
        wrong = np.where(y * (x @ w) <= 0)[0]
        if wrong.size == 0:
            return True
        w += y[wrong[0]] * x[wrong[0]]
    return False


def test_train_fits_separable_data():
    images, labels = _separable_dataset()
    assert _perceptron_separable(images, labels)
    cfg = TrainConfig(batch_size=8, epochs=30, hidden=8, seed=0)
    model, history = train(images, labels, cfg)
    train_acc = evaluate(model, images, np.argmax(labels, axis=1))
    assert train_acc == 1.0
    assert len(history) == 30


def test_train_zero_epochs():
    model, history = train(*_separable_dataset(), TrainConfig(epochs=0, hidden=4, seed=1))
    fresh = init_classifier(9, 4, 2, seed=1)
    assert np.array_equal(model.w1, fresh.w1)
    assert history == []


def test_train_deterministic():
    data = _separable_dataset()
    cfg = TrainConfig(batch_size=8, epochs=5, hidden=8, seed=3)
    m1, h1 = train(*data, cfg, AugmentPolicy("mixup", 0.2, 0.5))
    m2, h2 = train(*data, cfg, AugmentPolicy("mixup", 0.2, 0.5))
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(m1, name), getattr(m2, name))
    assert h1 == h2


def test_best_epoch_selection():
    images, labels = _separable_dataset(n_per_class=15, seed=6)
    cfg = TrainConfig(batch_size=4, epochs=12, hidden=6, seed=5)
    model, history = train(images, labels, cfg)
    real = np.zeros(len(images), dtype=bool)
    _, val_idx = validation_split(real, cfg.val_fraction, child_rng(cfg.seed, 10))
    best = max(h.val_accuracy for h in history)
    assert evaluate(model, images[val_idx], np.argmax(labels[val_idx], axis=1)) == best


def test_adam_flat_step_matches_named_reference():
    # one in-place step over the flat vector equals the per-array update, bit for bit
    cfg = TrainConfig(learning_rate=0.01)
    model = init_classifier(6, 5, 3, seed=7)
    ref = {name: getattr(model, name).copy() for name in ("w1", "b1", "w2", "b2")}
    m = {name: np.zeros_like(p) for name, p in ref.items()}
    v = {name: np.zeros_like(p) for name, p in ref.items()}
    adam = _Adam(cfg, model.params.size)
    rng = np.random.default_rng(11)
    for t in range(1, 8):
        grads = {name: rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3) for name, p in ref.items()}
        adam.step(model.params, np.concatenate([g.ravel() for g in grads.values()]))
        for name, g in grads.items():
            m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
            v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * g * g
            m_hat = m[name] / (1.0 - ADAM_BETA1 ** t)
            v_hat = v[name] / (1.0 - ADAM_BETA2 ** t)
            ref[name] = ref[name] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        for name in ref:
            assert np.array_equal(getattr(model, name), ref[name])


def test_train_returns_best_epoch_snapshot():
    # the best epoch is not the last, so a view of the live parameters would score lower
    rng = np.random.default_rng(1)
    images = rng.normal(size=(60, 3, 3))
    labels = np.eye(2)[rng.integers(0, 2, 60)]
    images[labels[:, 1] == 1] += 0.4
    cfg = TrainConfig(batch_size=8, epochs=10, hidden=6, learning_rate=0.05, seed=1)
    model, history = train(images, labels, cfg)
    best = max(h.val_accuracy for h in history)
    assert history[-1].val_accuracy < best
    _, val_idx = validation_split(np.zeros(60, dtype=bool), cfg.val_fraction, child_rng(cfg.seed, 10))
    assert evaluate(model, images[val_idx], np.argmax(labels[val_idx], axis=1)) == best


def test_train_scores_validation_without_calling_evaluate(monkeypatch):
    # train checks the whole pool at entry, so its per-epoch score skips evaluate's checks
    calls = []
    real_evaluate = classifier.evaluate
    monkeypatch.setattr(classifier, "evaluate", lambda *a: calls.append(a) or real_evaluate(*a))
    images, labels = _separable_dataset(n_per_class=15, seed=6)
    synthetic = np.arange(len(images)) % 5 == 0
    cfg = TrainConfig(batch_size=4, epochs=12, hidden=6, seed=5)
    model, history = train(images, labels, cfg, AugmentPolicy("mixup", 0.2, 0.5), synthetic)
    assert calls == [] and len(history) == 12
    _, val_idx = validation_split(synthetic, cfg.val_fraction, child_rng(cfg.seed, _SPLIT_STREAM))
    best = max(h.val_accuracy for h in history)
    assert real_evaluate(model, images[val_idx], np.argmax(labels[val_idx], axis=1)) == best


def test_validation_split_excludes_synthetic():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(10, 60))
        synthetic = rng.random(n) < 0.5
        if np.count_nonzero(~synthetic) < 2:
            continue
        train_idx, val_idx = validation_split(synthetic, 0.2, child_rng(int(rng.integers(1e6)), 0))
        assert not synthetic[val_idx].any()
        assert np.array_equal(np.sort(np.concatenate([train_idx, val_idx])), np.arange(n))
    # one real sample would go to validation and leave training none
    with pytest.raises(ValueError, match="at least 2 real samples"):
        validation_split(np.arange(6) > 0, 0.2, child_rng(0, 0))


def test_train_names_the_classes_the_split_empties_as_setdiff1d_does():
    # one real sample each for classes 2..5: a 4-sample validation split empties some
    ids = np.array([0] * 6 + [1] * 6 + [2, 3, 4, 5])
    images = np.random.default_rng(0).standard_normal((len(ids), 2, 2))
    labels = np.eye(6)[ids]
    emptied = set()
    for seed in range(20):
        cfg = TrainConfig(epochs=1, val_fraction=0.25, seed=seed)
        train_idx, _ = validation_split(np.zeros(len(ids), bool), 0.25, child_rng(seed, _SPLIT_STREAM))
        missing = np.setdiff1d(np.unique(ids), ids[train_idx]).tolist()
        if missing:
            with pytest.raises(ValueError, match=re.escape(f"classes {missing} empty after validation split")):
                train(images, labels, cfg)
            emptied.add(len(missing))
        else:
            assert len(train(images, labels, cfg)[1]) == 1
    assert len(emptied) >= 2


def test_train_does_not_import_numpy_ma():
    # np.unique and np.setdiff1d import numpy.ma on first use: 14 ms in each fresh
    # process, and more in each forked experiment worker
    probe = ("import sys, numpy as np; from noisecutmix import TrainConfig, train; "
             "ids = np.arange(12) % 2; "
             "train(np.random.default_rng(0).standard_normal((12, 2, 2)), np.eye(2)[ids], "
             "TrainConfig(epochs=1)); print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_train_rejects_bad_datasets():
    images, labels = _separable_dataset(n_per_class=2)
    with pytest.raises(ValueError):
        train(images, labels, TrainConfig(epochs=1))
    with pytest.raises(ValueError):
        train(np.zeros((12, 2, 2)), np.tile(one_hot(0, 2), (12, 1)), TrainConfig(epochs=1))
    images, labels = _separable_dataset()
    for bad_labels, synthetic in ((labels[:-1], None), (labels, np.zeros(len(labels) - 1, bool))):
        with pytest.raises(ValueError, match="must match the number of images"):
            train(images, bad_labels, TrainConfig(epochs=1), synthetic=synthetic)


@pytest.mark.parametrize("bad", ["nan", "inf", "negative", "sum_above", "sum_below"])
def test_train_rejects_labels_off_the_simplex(bad):
    images, labels = _separable_dataset()
    labels[3] = {
        "nan": [math.nan, 1.0],
        "inf": [math.inf, 0.0],
        "negative": [-1.0, 2.0],  # sums to 1, so only the sign check catches it
        "sum_above": [0.5, 0.5 + 2e-9],
        "sum_below": [0.0, 1.0 - 2e-9],
    }[bad]
    with pytest.raises(ValueError, match="labels must be"):
        train(images, labels, TrainConfig(epochs=1))


def test_train_accepts_labels_within_the_sum_tolerance():
    images, labels = _separable_dataset()
    labels[3] = [0.3, 0.7 + 5e-10]
    _, history = train(images, labels, TrainConfig(epochs=1))
    assert len(history) == 1


def test_train_raises_on_nonfinite_loss():
    # a finite pixel this large overflows the forward pass; a non-finite one is bad input
    images, labels = _separable_dataset()
    images[0] = 1e308
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalDivergence):
        train(images, labels, TrainConfig(batch_size=64, epochs=2, seed=0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_train_and_evaluate_reject_non_finite_images(bad):
    images, labels = _separable_dataset()
    images[3, 0, 1] = bad
    with pytest.raises(ValueError, match="images must be finite"):
        train(images, labels, TrainConfig(epochs=1))
    model = init_classifier(images[0].size, 4, 2, seed=0)
    with pytest.raises(ValueError, match="images must be finite"):
        evaluate(model, images, np.argmax(labels, axis=1))


def test_constructor_binds_views_and_rejects_bad_vectors():
    n = 4 * 3 + 3 + 2 * 3 + 2
    params = np.arange(n, dtype=np.float64)
    model = MlpClassifier(params, 4, 3, 2, seed=7)
    assert (model.in_dim, model.hidden, model.num_classes, model.seed) == (4, 3, 2, 7)
    assert model.w1.shape == (3, 4) and model.w2.shape == (2, 3) and model.b2.shape == (2,)
    params[-1] = -1.0  # the weights are views of params, not copies
    assert model.params is params and model.b2[-1] == -1.0
    for bad in (np.zeros(n, dtype=np.float32), np.zeros(n - 1), np.zeros(n + 1)):
        with pytest.raises(ValueError, match=f"need {n} float64 parameters"):
            MlpClassifier(bad, 4, 3, 2)


def test_evaluate_constant_model_hits_chance():
    model = _model(np.zeros((2, 4)), np.zeros(2), np.zeros((3, 2)), np.array([1.0, 0.0, 0.0]))
    assert evaluate(model, np.zeros((15, 2, 2)), np.repeat([0, 1, 2], 5)) == pytest.approx(1.0 / 3.0)


def test_evaluate_single_correct_sample():
    model = _model(np.zeros((2, 4)), np.zeros(2), np.zeros((2, 2)), np.array([0.0, 2.0]))
    assert evaluate(model, np.zeros((1, 2, 2)), np.array([1])) == 1.0


def test_evaluate_matches_recount():
    rng = np.random.default_rng(9)
    model = init_classifier(4, 5, 3, seed=2)
    testset = [(rng.standard_normal((2, 2)), int(rng.integers(3))) for _ in range(40)]
    acc = evaluate(model, np.stack([g for g, _ in testset]), np.array([c for _, c in testset]))
    correct = 0
    for grid, c in testset:
        logits = model.logits(grid.reshape(1, -1))[0]
        if int(np.argmax(logits)) == c:
            correct += 1
    assert acc == correct / len(testset)


def test_evaluate_rejects_empty():
    model = init_classifier(4, 5, 3, seed=2)
    with pytest.raises(ValueError):
        evaluate(model, np.zeros((0, 2, 2)), np.zeros(0, dtype=int))


def test_evaluate_rejects_class_ids_that_do_not_pair_with_images():
    # a 1-id array used to score every image against one class, and an (N, 1)
    # array to average N^2 comparisons
    model = init_classifier(4, 5, 3, seed=2)
    images = np.random.default_rng(3).standard_normal((6, 2, 2))
    for bad in (np.array([1]), np.zeros((6, 1), dtype=int), np.zeros(5, dtype=int), np.array(1)):
        with pytest.raises(ValueError, match="one class id per image"):
            evaluate(model, images, bad)
    assert type(evaluate(model, images, np.zeros(6, dtype=int))) is float


def test_an_openblas_build_exposes_its_thread_count():
    # without the getter and setter, the one-thread policy does nothing and the
    # tests that read the count skip, so a symbol rename must fail here
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pytest.skip("numpy reports no BLAS build")
    if "openblas" not in name.lower():
        pytest.skip(f"numpy was built with {name}, not OpenBLAS")
    assert classifier._openblas_threads() is not None, name


def test_train_and_evaluate_run_on_one_blas_thread(blas_threads, monkeypatch):
    seen = []
    real_loss_and_grads = classifier._loss_and_grads

    def recording(*args, **kwargs):
        seen.append(blas_threads())
        return real_loss_and_grads(*args, **kwargs)

    monkeypatch.setattr(classifier, "_loss_and_grads", recording)
    images, labels = _separable_dataset()
    model, _ = train(images, labels, TrainConfig(batch_size=8, epochs=2, hidden=4))
    assert seen and set(seen) == {1}
    # left there: the next call, or a forked worker, calls no setter
    assert blas_threads() == 1

    seen.clear()
    classifier._openblas_threads()[1](2)
    model.logits = lambda x: (seen.append(blas_threads()), MlpClassifier.logits(model, x))[1]
    evaluate(model, images, np.argmax(labels, axis=1))
    assert seen == [1]
    assert blas_threads() == 1


def test_train_without_openblas_is_unchanged(monkeypatch):
    data = _separable_dataset()
    cfg = TrainConfig(batch_size=8, epochs=3, hidden=4, seed=2)
    m1, h1 = train(*data, cfg)
    monkeypatch.setattr(classifier, "_openblas_threads", lambda: None)
    m2, h2 = train(*data, cfg)
    assert np.array_equal(m1.params, m2.params) and h1 == h2


def test_one_blas_thread_calls_no_setter_at_a_count_of_one(monkeypatch):
    # a forked worker's OpenBLAS stopped its threads at the fork, and any setter
    # call, even to 1, would start them again to spin beside the unit
    count, calls = [1], []

    def set_(n):
        calls.append(n)
        count[0] = n

    monkeypatch.setattr(classifier, "_openblas_threads", lambda: (lambda: count[0], set_))
    images, labels = _separable_dataset()
    model, _ = train(images, labels, TrainConfig(batch_size=8, epochs=1, hidden=4))
    evaluate(model, images, np.argmax(labels, axis=1))
    assert calls == [] and count == [1]
    count[0] = 2
    evaluate(model, images, np.argmax(labels, axis=1))
    train(images, labels, TrainConfig(batch_size=8, epochs=1, hidden=4))
    assert calls == [1] and count == [1]
