"""Small feed-forward softmax classifier trained on soft labels.

One hidden rectified-linear layer, soft-label cross-entropy, Adam, and
best-validation-epoch parameter selection. Everything is float64 numpy
and single-threaded over the optimization sequence, so training is
bit-reproducible from the config seed.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .augment import AugmentPolicy, apply_policy
from .errors import NumericalDivergence
from .samplers import child_rng

_SPLIT_STREAM = 10
_INIT_STREAM = 11
_EPOCH_STREAM = 12
_POLICY_STREAM = 13
# how far a training label's row sum may sit from 1 (mixed labels round off)
LABEL_SUM_TOL = 1e-9
MIN_TRAIN_SAMPLES = 10
# Adam's b1, b2 and eps
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None,
    looked up on first use through numpy.linalg's extension, which links it."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):
        if hasattr(lib, name.format("get")):
            return (ctypes.CFUNCTYPE(ctypes.c_int)((name.format("get"), lib)),
                    ctypes.CFUNCTYPE(None, ctypes.c_int)((name.format("set"), lib)))


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread and restore the process-wide count
    after; a second thread only spins on products this small, saving no wall time."""
    get, set_ = _openblas_threads() or (lambda: None, lambda n: None)
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


@dataclass
class TrainConfig:
    batch_size: int = 64
    learning_rate: float = 0.001
    epochs: int = 30
    val_fraction: float = 0.2
    hidden: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0.0 < self.val_fraction < 1.0):
            raise ValueError("val_fraction must lie in (0, 1)")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be > 0")


class MlpClassifier:
    """One hidden rectified-linear layer, softmax output.

    The parameters live in one flat float64 vector, params, laid out as
    w1 (hidden, in_dim), b1 (hidden,), w2 (K, hidden), b2 (K,): the model
    file's payload order. w1, b1, w2 and b2 are views of it, so writing
    into params in place updates the model, and params.copy() snapshots it.
    """

    def __init__(self, params: np.ndarray, in_dim: int, hidden: int, num_classes: int,
                 seed: int = 0):
        e1 = hidden * in_dim
        e2 = e1 + hidden
        e3 = e2 + num_classes * hidden
        if params.dtype != np.float64 or params.shape != (e3 + num_classes,):
            raise ValueError(f"need {e3 + num_classes} float64 parameters, "
                             f"got {params.dtype}{params.shape}")
        self.w1, self.b1 = params[:e1].reshape(hidden, in_dim), params[e1:e2]
        self.w2, self.b2 = params[e2:e3].reshape(num_classes, hidden), params[e3:]
        self.params, self.seed = params, seed
        self.in_dim, self.hidden, self.num_classes = in_dim, hidden, num_classes

    def like(self, params: np.ndarray) -> MlpClassifier:
        """A model of this shape and seed whose parameters are views of params."""
        return MlpClassifier(params, self.in_dim, self.hidden, self.num_classes, self.seed)

    def logits(self, x_flat: np.ndarray) -> np.ndarray:
        """Logits for a (B, in_dim) batch of flattened grids."""
        z1 = x_flat @ self.w1.T + self.b1
        hidden = np.maximum(z1, 0.0)
        return hidden @ self.w2.T + self.b2


def init_classifier(in_dim: int, hidden: int, num_classes: int, seed: int) -> MlpClassifier:
    """He fan-in scaled initialization from the run seed; zero biases."""
    rng = child_rng(seed, _INIT_STREAM)
    w1 = rng.standard_normal((hidden, in_dim)) * np.sqrt(2.0 / in_dim)
    w2 = rng.standard_normal((num_classes, hidden)) * np.sqrt(2.0 / hidden)
    params = np.concatenate([w1.ravel(), np.zeros(hidden), w2.ravel(), np.zeros(num_classes)])
    return MlpClassifier(params, in_dim, hidden, num_classes, seed)


def _loss_and_grads(
    model: MlpClassifier, x: np.ndarray, y: np.ndarray, out: MlpClassifier | None = None
):
    """Mean soft-CE loss over the batch and its exact parameter gradient by
    name. The gradient is written into the parameters of out, a model of
    the same shape (allocated when None), and the named arrays are its views."""
    n = x.shape[0]
    z1 = x @ model.w1.T + model.b1
    hidden = np.maximum(z1, 0.0)
    logits = hidden @ model.w2.T + model.b2

    # np.add.reduce is the reduction np.sum and np.mean run, without their wrappers
    m = np.maximum.reduce(logits, axis=1, keepdims=True)
    lse = m + np.log(np.add.reduce(np.exp(logits - m), axis=1, keepdims=True))
    loss = float(np.add.reduce(lse[:, 0] - np.add.reduce(y * logits, axis=1)) / n)

    g = model.like(np.empty_like(model.params)) if out is None else out
    probs = np.exp(logits - lse)
    dlogits = (probs - y) / n
    np.matmul(dlogits.T, hidden, out=g.w2)
    np.add.reduce(dlogits, axis=0, out=g.b2)
    dhidden = dlogits @ model.w2
    dz1 = dhidden * (z1 > 0.0)
    np.matmul(dz1.T, x, out=g.w1)
    np.add.reduce(dz1, axis=0, out=g.b1)
    return loss, {"w1": g.w1, "b1": g.b1, "w2": g.w2, "b2": g.b2}


class _Adam:
    """Adam over one flat parameter vector, updated in place.

    Each step runs the elementwise expressions
    m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g,
    p -= (lr (m / (1 - b1^t))) / (sqrt(v / (1 - b2^t)) + eps)
    in that order, into buffers allocated once.
    """

    def __init__(self, cfg: TrainConfig, size: int):
        self.cfg = cfg
        self.m, self.v = np.zeros(size), np.zeros(size)
        self._a, self._b = np.empty(size), np.empty(size)
        self.t = 0

    def step(self, params: np.ndarray, g: np.ndarray):
        self.t += 1
        m, v, a, b = self.m, self.v, self._a, self._b
        np.multiply(m, ADAM_BETA1, out=m)
        np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, ADAM_BETA2, out=v)
        np.multiply(g, 1.0 - ADAM_BETA2, out=a)
        np.multiply(a, g, out=a)
        np.add(v, a, out=v)
        np.divide(m, 1.0 - ADAM_BETA1 ** self.t, out=a)
        np.multiply(a, self.cfg.learning_rate, out=a)
        np.divide(v, 1.0 - ADAM_BETA2 ** self.t, out=b)
        np.sqrt(b, out=b)
        np.add(b, ADAM_EPS, out=b)
        np.divide(a, b, out=a)
        np.subtract(params, a, out=params)


def validation_size(n_real: int, val_fraction: float) -> int:
    """validation_split's hold-out size: round(val_fraction * n_real), within [1, n_real - 1]."""
    return max(1, min(round(val_fraction * n_real), n_real - 1))


def validation_split(
    synthetic: np.ndarray, val_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending (train indices, val indices): the validation fraction is drawn
    from the real samples only; synthetic samples always land in training."""
    real_idx = np.flatnonzero(~synthetic)
    if real_idx.size < 2:
        raise ValueError("need at least 2 real samples for the validation split")
    order = real_idx[rng.permutation(real_idx.size)]
    val_idx = np.sort(order[:validation_size(real_idx.size, val_fraction)])
    assert not synthetic[val_idx].any(), "synthetic sample leaked into validation"
    return np.setdiff1d(np.arange(synthetic.size), val_idx), val_idx


@_one_blas_thread()
def evaluate(model: MlpClassifier, images: np.ndarray, class_ids: np.ndarray) -> float:
    """Top-1 accuracy against class ids, one per image; argmax ties break
    toward the lowest class index. Non-finite images and class ids of any
    shape but (len(images),) raise ValueError."""
    n = len(images)
    if n == 0:
        raise ValueError("testset must not be empty")
    if np.shape(class_ids) != (n,):
        # pred == class_ids would broadcast instead of pairing
        raise ValueError(f"need one class id per image, shape ({n},), got {np.shape(class_ids)}")
    if not np.all(np.isfinite(images)):
        raise ValueError("images must be finite")
    pred = np.argmax(model.logits(images.reshape(n, -1)), axis=1)
    return float(np.count_nonzero(pred == class_ids) / n)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float


@_one_blas_thread()
def train(
    images: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
    policy: AugmentPolicy | None = None,
    synthetic: np.ndarray | None = None,
) -> tuple[MlpClassifier, list[EpochStats]]:
    """Train on images (N, H, W) with soft labels (N, K), with a real-only
    validation split and best-epoch selection.

    The validation fraction is drawn from the real samples only (by
    seeded shuffle); synthetic samples always train. Validation is
    scored top-1 against hard (argmax) labels. Returns the parameter
    snapshot from the epoch with the highest validation accuracy (ties
    resolve to the earlier epoch) and the per-epoch history. Non-finite
    images and labels off the probability simplex raise ValueError.
    """
    if policy is None:
        policy = AugmentPolicy(kind="none")
    n = len(images)
    if n < MIN_TRAIN_SAMPLES:
        raise ValueError(f"dataset must have at least {MIN_TRAIN_SAMPLES} samples")
    if synthetic is None:
        synthetic = np.zeros(n, dtype=bool)
    if len(labels) != n or len(synthetic) != n:
        raise ValueError("labels and synthetic flags must match the number of images")
    if not np.all(np.isfinite(images)):
        raise ValueError("images must be finite")
    if not (np.all(np.isfinite(labels)) and np.all(labels >= 0.0)
            and np.all(np.abs(labels.sum(axis=1) - 1.0) <= LABEL_SUM_TOL)):
        raise ValueError(
            f"labels must be finite, non-negative and sum to 1 within {LABEL_SUM_TOL} per row"
        )

    labels_hard = np.argmax(labels, axis=1)
    classes = np.unique(labels_hard)
    if classes.size < 2:
        raise ValueError("dataset must contain at least 2 classes")

    split_rng = child_rng(cfg.seed, _SPLIT_STREAM)
    train_idx, val_idx = validation_split(synthetic, cfg.val_fraction, split_rng)
    missing = np.setdiff1d(classes, labels_hard[train_idx])
    if missing.size:
        raise ValueError(f"classes {missing.tolist()} empty after validation split")

    model = init_classifier(images[0].size, cfg.hidden, labels.shape[1], cfg.seed)
    history: list[EpochStats] = []
    if cfg.epochs == 0:
        return model, history

    adam = _Adam(cfg, model.params.size)
    grad = model.like(np.empty_like(model.params))
    epoch_rng = child_rng(cfg.seed, _EPOCH_STREAM)
    policy_rng = child_rng(cfg.seed, _POLICY_STREAM)
    best_acc = -1.0
    best_params = None

    for epoch in range(cfg.epochs):
        order = train_idx[epoch_rng.permutation(len(train_idx))]
        loss_sum = 0.0
        for start in range(0, len(order), cfg.batch_size):
            chunk = order[start : start + cfg.batch_size]
            x, y = images[chunk], labels[chunk]
            if policy.kind != "none" and len(chunk) >= 2:
                x, y = apply_policy((x, y), policy, policy_rng)
            loss, _ = _loss_and_grads(model, x.reshape(len(x), -1), y, grad)
            if not np.isfinite(loss):
                raise NumericalDivergence(f"non-finite training loss at epoch {epoch}")
            adam.step(model.params, grad.params)
            loss_sum += loss * len(chunk)
        val_acc = evaluate(model, images[val_idx], labels_hard[val_idx])
        history.append(EpochStats(epoch, loss_sum / len(train_idx), val_acc))
        if val_acc > best_acc:
            best_acc = val_acc
            best_params = model.params.copy()

    return model.like(best_params), history
