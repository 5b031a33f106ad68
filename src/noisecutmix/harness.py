"""Experiment protocol: seven augmentation methods, repeated trials, tables.

Each (method, trial) pair gets a seed derived from (master seed,
method index, trial index); everything inside the trial, including
generation, training and evaluation, is a pure function of that seed,
so a full experiment is byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifier import evaluate, train
from .classmodels import ClassModel
from .config import METHODS, ExperimentConfig, dump_config
from .mixing import NO_CUT, mask_from_rect
from .recordio import open_atomic, write_pgm, write_provenance, write_records
from .samplers import Provenance, child_rng, generate_batch
from .schedule import Schedule, make_cosine_schedule

_TRAIN_DATA_STREAM = 20
_CLASS_PICK_STREAM = 21
_RECORD_SEED_STREAM = 22
_TRAIN_SEED_STREAM = 23
_TEST_DATA_STREAM = 99


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
    method: str,
    cfg: ExperimentConfig,
    models: list[ClassModel],
    sched: Schedule,
    count: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, list[Provenance]]:
    """(images (N, H, W), labels (N, K), provenances) of count >= 1 generated
    records for a method with a generator in METHODS, from one
    generate_batch call.

    The "single" generator draws one class per record uniformly; the
    mixing one draws the class pair uniformly without replacement. Each
    record's own seed derives from (seed, record index).
    """
    generator = METHODS.get(method, (None,))[0]
    if generator is None:
        raise ValueError(f"method {method!r} does not generate records")
    sampler_cfg = cfg.sampler_config()
    pick_rng = child_rng(seed, _CLASS_PICK_STREAM)
    seeds = [derive_seed(seed, _RECORD_SEED_STREAM, i) for i in range(count)]
    if generator == "single":
        classes = [int(pick_rng.integers(cfg.num_classes)) for _ in seeds]
        return generate_batch(classes, None, sampler_cfg, sched, models, seeds)
    pairs = [pick_rng.choice(cfg.num_classes, size=2, replace=False).tolist() for _ in seeds]
    class_a, class_b = [p[0] for p in pairs], [p[1] for p in pairs]
    return generate_batch(class_a, class_b, sampler_cfg, sched, models, seeds, cfg.noisemix_alpha)


def build_training_pool(method: str, cfg: ExperimentConfig, sched: Schedule, seed: int):
    """(images (N, H, W), labels (N, K), synthetic flags (N,), provenances
    of the generated records) for one method and trial seed; the real samples come first."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; valid: {list(METHODS)}")
    data_seed = derive_seed(seed, _TRAIN_DATA_STREAM)
    models, (images, class_ids) = cfg.dataset(data_seed, cfg.n_train_per_class)
    labels = np.eye(cfg.num_classes)[class_ids]
    n_real = len(images)
    provs: list[Provenance] = []
    n_aug = int(round(cfg.augment_ratio * n_real))
    if n_aug and METHODS[method][0]:
        gen_images, gen_labels, provs = generate_records(method, cfg, models, sched, n_aug, seed)
        images = np.concatenate([images, gen_images])
        labels = np.concatenate([labels, gen_labels])
    return images, labels, np.arange(len(images)) >= n_real, provs


def run_method(method: str, cfg: ExperimentConfig, sched: Schedule, seed: int, test_set: tuple):
    """Train one classifier under the method's protocol and score it on test_set;
    returns (test accuracy, the build_training_pool tuple it trained on)."""
    pool = build_training_pool(method, cfg, sched, seed)
    images, labels, synthetic, _ = pool
    policy = cfg.augment_policy(METHODS[method][1])
    train_cfg = cfg.train_config(derive_seed(seed, _TRAIN_SEED_STREAM))
    model, _ = train(images, labels, train_cfg, policy, synthetic)
    return evaluate(model, *test_set), pool


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
    comment."""
    if len(images) == 0 or len(images) != len(provs):
        raise ValueError(f"need one provenance per image, got {len(provs)} for {len(images)}")
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
            f"lambda_real={p.lambda_real!r} seed={p.seed}"
        )
    write_pgm(path, np.concatenate(rows, axis=0), comments)


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path) -> ResultTable:
    """Full protocol: every configured method over `trials` seeds.

    Writes, under out_dir: the resolved config, the result table, per
    trial record batches with provenance sidecars for the generating
    methods, and one montage per generating method. Fails on an
    unwritable output directory before any compute.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # results.tsv is written last; one left by an earlier run would make
    # an interrupted rerun look complete
    (out / "results.tsv").unlink(missing_ok=True)

    dump_config(cfg, out / "config.json")
    sched = make_cosine_schedule(cfg.schedule_steps)
    _, test_set = cfg.dataset(derive_seed(cfg.master_seed, _TEST_DATA_STREAM), cfg.n_test_per_class)
    rows = []
    for method in cfg.methods:
        accs = []
        for i in range(cfg.trials):
            seed = trial_seed(cfg.master_seed, method, i)
            acc, (images, labels, synthetic, provs) = run_method(method, cfg, sched, seed, test_set)
            accs.append(acc)
            if provs:
                stem = f"{method}_t{i}"
                write_records(out / f"{stem}.records", images[synthetic], labels[synthetic])
                write_provenance(out / f"{stem}.prov", provs)
                if i == 0:
                    export_grid(images[synthetic][:8], provs[:8], out / f"{method}_montage.pgm")
        rows.append(ResultRow(method=method, accuracies=accs))
    table = ResultTable(rows=rows, trials=cfg.trials)
    with open_atomic(out / "results.tsv") as f:
        f.write(format_result_table(table).encode("ascii"))
    return table
