"""Experiment protocol: seven augmentation methods, repeated trials, tables.

Each (method, trial) pair gets a seed derived from (master seed,
method index, trial index); everything inside the trial, including
generation, training and evaluation, is a pure function of that seed,
so a full experiment is byte-reproducible.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .classifier import _one_blas_thread, evaluate, train
from .config import METHODS, ExperimentConfig, dump_config
from .mixing import NO_CUT, mask_from_rect
from .recordio import open_atomic, write_pgm, write_provenance, write_records
from .samplers import Provenance, _usable_cpus, child_rng, generate_batch

_TRAIN_DATA_STREAM = 20
_CLASS_PICK_STREAM = 21
_RECORD_SEED_STREAM = 22
_TRAIN_SEED_STREAM = 23
_TEST_DATA_STREAM = 99
# A run whose _work_estimate is below this runs its units here, one after another:
# forking the workers and warming each one cost more than a second CPU saves. On
# 2 CPUs, fresh `experiment` runs tied at 884 (the defaults at 1 trial, 0.47 s
# either way), the serial run won below about 550 and the pool won from 1,768
# (0.65 against 0.79 s); the defaults estimate 4,420.
_POOL_MIN_WORK = 1000
# array values one step passes that cost about what its calls do (fitted on unit timings)
_STEP_VALUES = 1 << 14


def derive_seed(*parts: int) -> int:
    """Stable integer seed from a tuple of integers."""
    ss = np.random.SeedSequence(tuple(int(p) for p in parts))
    return int(ss.generate_state(1, np.uint64)[0])


def trial_seed(master_seed: int, method: str, trial: int) -> int:
    return derive_seed(master_seed, list(METHODS).index(method), trial)


@dataclass
class ResultRow:
    method: str
    accuracies: list[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        if len(self.accuracies) < 2:
            return 0.0
        return float(np.std(self.accuracies, ddof=1))


@dataclass
class ResultTable:
    rows: list[ResultRow]
    trials: int


def generate_records(
    method: str, cfg: ExperimentConfig, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray, list[Provenance]]:
    """(images (N, H, W), labels (N, K), provenances) of count >= 1 generated
    records for a method with a generator in METHODS, from one
    generate_batch call under the config's schedule and class models,
    the ones its records' provenance regenerates under.

    The "single" generator draws one class per record uniformly; the
    mixing one draws the class pair uniformly without replacement. Each
    record's own seed derives from (seed, record index).
    """
    generator = METHODS.get(method, (None,))[0]
    if generator is None:
        raise ValueError(f"method {method!r} does not generate records")
    # the class models do not depend on the dataset seed
    models, sched, sampler_cfg = cfg.dataset(0, 0)[0], cfg.schedule(), cfg.sampler_config()
    pick_rng = child_rng(seed, _CLASS_PICK_STREAM)
    seeds = [derive_seed(seed, _RECORD_SEED_STREAM, i) for i in range(count)]
    if generator == "single":
        classes = [int(pick_rng.integers(cfg.num_classes)) for _ in seeds]
        return generate_batch(classes, None, sampler_cfg, sched, models, seeds)
    pairs = [pick_rng.choice(cfg.num_classes, size=2, replace=False).tolist() for _ in seeds]
    class_a, class_b = [p[0] for p in pairs], [p[1] for p in pairs]
    return generate_batch(class_a, class_b, sampler_cfg, sched, models, seeds, cfg.noisemix_alpha)


def build_training_pool(method: str, cfg: ExperimentConfig, seed: int):
    """(images (N, H, W), labels (N, K), synthetic flags (N,), provenances
    of the generated records) for one method and trial seed; the real samples come first."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; valid: {list(METHODS)}")
    data_seed = derive_seed(seed, _TRAIN_DATA_STREAM)
    _, (images, class_ids) = cfg.dataset(data_seed, cfg.n_train_per_class)
    labels = np.eye(cfg.num_classes)[class_ids]
    n_real = len(images)
    provs: list[Provenance] = []
    n_aug = cfg.augment_count()
    if n_aug and METHODS[method][0]:
        gen_images, gen_labels, provs = generate_records(method, cfg, n_aug, seed)
        images = np.concatenate([images, gen_images])
        labels = np.concatenate([labels, gen_labels])
    return images, labels, np.arange(len(images)) >= n_real, provs


def run_method(method: str, cfg: ExperimentConfig, seed: int, test_set: tuple):
    """Train one classifier under the method's protocol and score it on test_set;
    returns (test accuracy, generated images, their labels, their provenances)."""
    images, labels, synthetic, provs = build_training_pool(method, cfg, seed)
    policy = cfg.augment_policy(METHODS[method][1])
    train_cfg = cfg.train_config(derive_seed(seed, _TRAIN_SEED_STREAM))
    model, _ = train(images, labels, train_cfg, policy, synthetic)
    return evaluate(model, *test_set), images[synthetic], labels[synthetic], provs


def format_result_table(table: ResultTable) -> str:
    header = ["method"] + [f"trial{i}" for i in range(table.trials)] + ["mean", "std"]
    lines = ["# " + "\t".join(header)]
    for row in table.rows:
        cells = [row.method] + [f"{a:.6f}" for a in row.accuracies]
        cells += [f"{row.mean:.6f}", f"{row.std:.6f}"]
        lines.append("\t".join(cells))
    if table.trials == 1:
        lines.append("# single trial: std is 0 by convention")
    return "\n".join(lines) + "\n"


def parse_result_table(text: str) -> ResultTable:
    """Parse and check a format_result_table text: every row holds a
    method, at least one trial, mean and std; all rows hold the same
    number of trials; the stored mean and std match the trials within
    2e-6, the 6-decimal rounding of both sides. Raises ValueError."""
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        cells = line.split("\t")
        if len(cells) < 4:
            raise ValueError(f"result row {line!r} needs a method, trials, mean and std")
        row = ResultRow(method=cells[0], accuracies=[float(v) for v in cells[1:-2]])
        if rows and len(row.accuracies) != len(rows[0].accuracies):
            raise ValueError(f"result rows {rows[0].method} and {row.method} differ in trials")
        if not (abs(float(cells[-2]) - row.mean) <= 2e-6 and abs(float(cells[-1]) - row.std) <= 2e-6):
            raise ValueError(f"stored aggregates for {row.method} do not match the trials")
        rows.append(row)
    return ResultTable(rows=rows, trials=len(rows[0].accuracies) if rows else 0)


def export_grid(images: np.ndarray, provs: list[Provenance], path: str | Path) -> None:
    """PGM montage of images (N, H, W): per record one row holding the
    image tile and, beside it, the mask tile its provenance rebuilds;
    1-pixel separators; affine pixel mapping recorded in the header
    comment. Non-finite images raise ValueError before the file is opened:
    they have no pixel mapping."""
    if len(images) == 0 or len(images) != len(provs):
        raise ValueError(f"need one provenance per image, got {len(provs)} for {len(images)}")
    if not np.all(np.isfinite(images)):
        raise ValueError("montage images must be finite")
    _, h, w = images.shape
    lo, hi = float(images.min()), float(images.max())
    span = hi - lo
    if span > 0:
        tiles = np.round((images - lo) / span * 255.0).astype(np.uint8)
    else:
        tiles = np.zeros(images.shape, dtype=np.uint8)
    # a record without a rect keeps its one class everywhere, like a ratio of 1.0
    rects = [p.rect or NO_CUT for p in provs]
    mask_tiles = mask_from_rect(w, h, rects) * np.uint8(255)
    sep = np.uint8(128)
    rows = []
    comments = [f"image map: lo={lo!r} hi={hi!r} -> 0..255", "mask tile: 0=cut 255=keep"]
    for i, (tile, mask_tile, p) in enumerate(zip(tiles, mask_tiles, provs)):
        row = np.concatenate([tile, np.full((h, 1), sep), mask_tile], axis=1)
        rows.append(row)
        if i < len(provs) - 1:
            rows.append(np.full((1, row.shape[1]), sep))
        comments.append(
            f"rec {i}: method={p.method} class_a={p.class_a} class_b={p.class_b} "
            f"lambda_real={float(p.lambda_real)!r} seed={p.seed}"
        )
    write_pgm(path, np.concatenate(rows, axis=0), comments)


def _run_unit(inputs: tuple, unit: tuple[str, int]):
    """run_method of one (method, trial) unit of run_experiment over its shared
    inputs (cfg, test set). run_method is looked up per call, so a replaced one
    reaches forked workers too."""
    cfg, test_set = inputs
    method, trial = unit
    return run_method(method, cfg, trial_seed(cfg.master_seed, method, trial), test_set)


# a forked worker's (stop event, shared inputs), set once by _start_worker, never in the parent
_worker_state: tuple | None = None


def _start_worker(stop, *inputs) -> None:
    """A forked worker's initializer; as a multiprocessing child it counts one CPU."""
    import signal

    global _worker_state
    _worker_state = (stop, inputs)
    # the parent owns an interrupt: it stops the pool and waits for the running units
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _worker_unit(unit: tuple[str, int]):
    stop, inputs = _worker_state
    # a unit handed out before the run failed is skipped, not computed
    return None if stop.is_set() else _run_unit(inputs, unit)


def _work_estimate(cfg: ExperimentConfig) -> int:
    """A deterministic proxy for a run's serial time, in steps: per unit, the
    training batches over all epochs plus the reverse steps of a generating
    method, and one step more per _STEP_VALUES array values those steps pass."""
    n_real = cfg.num_classes * cfg.n_train_per_class
    work = 0
    for method in cfg.methods:
        n_gen = cfg.augment_count() if METHODS[method][0] else 0
        n_pool = n_real + n_gen
        steps = cfg.epochs * -(-n_pool // cfg.batch_size) + (cfg.num_inference_steps if n_gen else 0)
        values = cfg.width * cfg.height * (cfg.epochs * n_pool
                                           + cfg.num_inference_steps * n_gen * cfg.num_classes)
        work += cfg.trials * (steps + values // _STEP_VALUES)
    return work


@contextlib.contextmanager
def _unit_results(inputs: tuple, units: list[tuple[str, int]]):
    """_run_unit's results for units, in unit order, as an iterator: from a
    pool of forked workers, one per usable CPU, or computed here one by one
    when fork is missing, one CPU (a multiprocessing child counts one) or one
    unit would do, or the run is too small to pay for a pool. No worker
    outlives the block: on an exception, the units not yet started are
    cancelled or skipped, and the running ones are waited for."""
    workers = min(_usable_cpus(), len(units))
    if workers < 2 or not hasattr(os, "fork") or _work_estimate(inputs[0]) < _POOL_MIN_WORK:
        yield map(partial(_run_unit, inputs), units)
        return
    # imported here, so importing the package and a serial run pay nothing for it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork hands each worker the inputs and the package as they are here. No other
    # Python thread runs now (the sampler's threads live inside run_reverse calls),
    # and OpenBLAS stops its own threads around a fork (pthread_atfork); the next
    # thread-count setter call in a worker would start them again, to spin. So the
    # count goes to 1 before the fork, as train and evaluate would leave it: the
    # workers inherit it and call no setter.
    _one_blas_thread()
    context = multiprocessing.get_context("fork")
    stop = context.Event()
    pool = ProcessPoolExecutor(workers, context, initializer=_start_worker,
                               initargs=(stop, *inputs))
    try:
        yield pool.map(_worker_unit, units)
    except BaseException:
        # the pool has already handed the workers up to 2 * workers + 1 units
        stop.set()
        raise
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path) -> ResultTable:
    """Full protocol: every configured method over `trials` seeds.

    Writes, under out_dir: the resolved config, the result table, per
    trial record batches with provenance sidecars for the generating
    methods, and one montage per generating method, having first removed
    those of an earlier run, for any method. Fails on an
    unwritable output directory before any compute. A large enough run
    computes its units on a forked process pool (_unit_results); the
    parent writes the same files in the same order either way.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # results.tsv is written last; one left by an earlier run would make an
    # interrupted rerun look complete, and its other files would sit beside this run's
    (out / "results.tsv").unlink(missing_ok=True)
    for m in METHODS:
        for path in (*out.glob(f"{m}_t*.records"), *out.glob(f"{m}_t*.prov"), out / f"{m}_montage.pgm"):
            path.unlink(missing_ok=True)

    dump_config(cfg, out / "config.json")
    _, test_set = cfg.dataset(derive_seed(cfg.master_seed, _TEST_DATA_STREAM), cfg.n_test_per_class)
    units = [(method, i) for method in cfg.methods for i in range(cfg.trials)]
    accs: dict[str, list[float]] = {method: [] for method in cfg.methods}
    with _unit_results((cfg, test_set), units) as results:
        for (method, i), (acc, images, labels, provs) in zip(units, results):
            accs[method].append(acc)
            if provs:
                stem = f"{method}_t{i}"
                write_records(out / f"{stem}.records", images, labels)
                write_provenance(out / f"{stem}.prov", provs)
                if i == 0:
                    export_grid(images[:8], provs[:8], out / f"{method}_montage.pgm")
    table = ResultTable(rows=[ResultRow(m, a) for m, a in accs.items()], trials=cfg.trials)
    with open_atomic(out / "results.tsv") as f:
        f.write(format_result_table(table).encode("ascii"))
    return table
