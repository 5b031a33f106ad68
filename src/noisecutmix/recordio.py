"""File formats: record batches, provenance sidecars, PGM images, model files.

All binary payloads are little-endian float64 after a single ASCII
header line, so files are byte-reproducible across runs and platforms.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from .classifier import EpochStats, MlpClassifier
from .samplers import GenRecord, Provenance

RECORD_MAGIC = "NCMREC1"
MODEL_MAGIC = "NCMMLP1"
# longest header line a record reader accepts: the magic and four integers
_HEADER_MAX = 128


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        return repr(value)
    return str(value)


def write_records(path: str | Path, images: np.ndarray, labels: np.ndarray) -> None:
    """Flat binary matrix file: one header line (magic W H K count), then
    images (count, H, W) beside labels (count, K) as one (count, H*W + K)
    float64 little-endian matrix."""
    count, h, w = images.shape
    if min(images.shape + labels.shape) < 1:
        raise ValueError(f"no records to write in shapes {images.shape} and {labels.shape}")
    matrix = np.concatenate([images.reshape(count, h * w), labels], axis=1)
    with open(path, "wb") as f:
        f.write(f"{RECORD_MAGIC} {w} {h} {labels.shape[1]} {count}\n".encode("ascii"))
        f.write(np.ascontiguousarray(matrix, dtype="<f8").tobytes())


def read_records(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (images (count, H, W), labels (count, K)).

    The header is checked against the file size before the payload is
    read: a file with missing or trailing bytes is rejected.
    """
    with open(path, "rb") as f:
        line = f.readline(_HEADER_MAX)
        header = line.decode("ascii").split()  # UnicodeDecodeError is a ValueError
        if not line.endswith(b"\n") or len(header) != 5 or header[0] != RECORD_MAGIC:
            raise ValueError(f"not a record file: {path}")
        w, h, k, count = (int(v) for v in header[1:])
        if count < 0 or min(w, h, k) < 1:
            raise ValueError(f"bad record header W={w} H={h} K={k} count={count}: {path}")
        per = h * w + k
        payload = os.fstat(f.fileno()).st_size - f.tell()
        if payload != count * per * 8:
            raise ValueError(f"{path}: {payload} payload bytes, the header needs {count * per * 8}")
        data = np.frombuffer(f.read(payload), dtype="<f8").reshape(count, per)
    return data[:, : h * w].reshape(count, h, w).copy(), data[:, h * w :].copy()


_PROV_COLUMNS = (
    "idx method class_a class_b lambda_sampled lambda_real "
    "rect_x rect_y rect_w rect_h seed sampler steps guidance alpha"
).split()


def write_provenance(path: str | Path, records: list[GenRecord]) -> None:
    """Tab-delimited sidecar, one line per record, '-' for absent fields."""
    lines = ["# " + "\t".join(_PROV_COLUMNS)]
    for i, rec in enumerate(records):
        p = rec.provenance
        rect = p.rect if p.rect is not None else (None, None, None, None)
        fields = [
            i, p.method, p.class_a, p.class_b, p.lambda_sampled, p.lambda_real,
            rect[0], rect[1], rect[2], rect[3],
            p.seed, p.sampler, p.steps, p.guidance, p.alpha,
        ]
        lines.append("\t".join(_fmt(v) for v in fields))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _parse(value: str, kind):
    if value == "-":
        return None
    return kind(value)


def read_provenance(path: str | Path) -> list[Provenance]:
    out = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        if not line or line.startswith("#"):
            continue
        v = line.split("\t")
        if len(v) != len(_PROV_COLUMNS):
            raise ValueError(f"malformed provenance line: {line!r}")
        rect_vals = tuple(_parse(x, float) for x in v[6:10])
        rect = None if rect_vals[0] is None else rect_vals
        out.append(
            Provenance(
                method=v[1],
                class_a=int(v[2]),
                class_b=_parse(v[3], int),
                lambda_sampled=_parse(v[4], float),
                lambda_real=float(v[5]),
                rect=rect,
                seed=int(v[10]),
                sampler=v[11],
                steps=int(v[12]),
                guidance=float(v[13]),
                alpha=_parse(v[14], float),
            )
        )
    return out


def write_pgm(path: str | Path, pixels: np.ndarray, comments: list[str] | None = None) -> None:
    """Binary (P5) PGM with optional header comment lines."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 2 or pixels.dtype != np.uint8:
        raise ValueError("PGM writer expects a 2-d uint8 array")
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(b"P5\n")
        for c in comments or []:
            f.write(f"# {c}\n".encode("ascii"))
        f.write(f"{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())


def read_pgm(path: str | Path) -> tuple[np.ndarray, list[str]]:
    """Returns (pixels (H, W) uint8, comment lines)."""
    with open(path, "rb") as f:
        if f.readline().strip() != b"P5":
            raise ValueError(f"not a binary PGM: {path}")
        comments = []
        line = f.readline()
        while line.startswith(b"#"):
            comments.append(line[1:].strip().decode("ascii"))
            line = f.readline()
        w, h = (int(v) for v in line.split())
        maxval = int(f.readline())
        if maxval != 255:
            raise ValueError("only 8-bit PGM supported")
        pixels = np.frombuffer(f.read(w * h), dtype=np.uint8).reshape(h, w)
    return pixels.copy(), comments


def save_classifier(path: str | Path, model: MlpClassifier) -> None:
    """Flat binary model file: header (magic in_dim hidden K seed), then
    w1, b1, w2, b2 as float64 little-endian."""
    hidden, in_dim = model.w1.shape
    k = model.w2.shape[0]
    with open(path, "wb") as f:
        f.write(f"{MODEL_MAGIC} {in_dim} {hidden} {k} {model.seed}\n".encode("ascii"))
        for arr in (model.w1, model.b1, model.w2, model.b2):
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_classifier(path: str | Path) -> MlpClassifier:
    with open(path, "rb") as f:
        header = f.readline().decode("ascii").split()
        if len(header) != 5 or header[0] != MODEL_MAGIC:
            raise ValueError(f"not a model file: {path}")
        in_dim, hidden, k, seed = (int(v) for v in header[1:])
        raw = np.frombuffer(f.read(), dtype="<f8")
    sizes = [hidden * in_dim, hidden, k * hidden, k]
    if raw.size != sum(sizes):
        raise ValueError(f"truncated model file: {path}")
    parts = np.split(raw, np.cumsum(sizes)[:-1])
    return MlpClassifier(
        w1=parts[0].reshape(hidden, in_dim).copy(),
        b1=parts[1].copy(),
        w2=parts[2].reshape(k, hidden).copy(),
        b2=parts[3].copy(),
        seed=seed,
    )


def write_history(path: str | Path, history: list[EpochStats]) -> None:
    lines = ["# epoch\ttrain_loss\tval_accuracy"]
    for row in history:
        lines.append(f"{row.epoch}\t{row.train_loss!r}\t{row.val_accuracy!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
