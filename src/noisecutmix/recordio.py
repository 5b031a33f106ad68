"""File formats: record batches, provenance sidecars, PGM images, model files.

All binary payloads are little-endian float64 after a single ASCII
header line, so files are byte-reproducible across runs and platforms.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .classifier import EpochStats, MlpClassifier
from .samplers import Provenance

RECORD_MAGIC = "NCMREC1"
MODEL_MAGIC = "NCMMLP1"
# longest header line the record and model readers accept: the magic and four integers
_HEADER_MAX = 128


@contextmanager
def open_atomic(path: str | Path):
    """Binary write handle under which path only ever holds a complete file.

    The bytes go to a temporary file in the same directory, which replaces
    path when the block ends and is removed if the block raises (an
    interrupt included), so a failed write leaves neither a partial file
    at path nor a stray temporary one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_text(path: str | Path, lines: list[str]) -> None:
    with open_atomic(path) as f:
        f.write(("\n".join(lines) + "\n").encode("ascii"))


def _read_header(f, magic: str, path) -> list[int]:
    """The four integers after magic on a bounded, newline-terminated ASCII header line."""
    line = f.readline(_HEADER_MAX)
    header = line.decode("ascii").split()  # UnicodeDecodeError is a ValueError
    if not line.endswith(b"\n") or len(header) != 5 or header[0] != magic:
        raise ValueError(f"not a {magic} file: {path}")
    return [int(v) for v in header[1:]]


def _read_payload(f, nbytes: int, path) -> np.ndarray:
    """The rest of the file as float64, which must be exactly nbytes long."""
    payload = os.fstat(f.fileno()).st_size - f.tell()
    if payload != nbytes:
        raise ValueError(f"{path}: {payload} payload bytes, the header needs {nbytes}")
    return np.frombuffer(f.read(payload), dtype="<f8")


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite provenance value {value!r}")
        return repr(float(value))  # a numpy float's repr names its type
    return str(value)


def write_records(path: str | Path, images: np.ndarray, labels: np.ndarray) -> None:
    """Flat binary matrix file: one header line (magic W H K count), then
    images (count, H, W) beside labels (count, K) as one (count, H*W + K)
    float64 little-endian matrix."""
    count, h, w = images.shape
    if min(images.shape + labels.shape) < 1:
        raise ValueError(f"no records to write in shapes {images.shape} and {labels.shape}")
    matrix = np.concatenate([images.reshape(count, h * w), labels], axis=1)
    with open_atomic(path) as f:
        f.write(f"{RECORD_MAGIC} {w} {h} {labels.shape[1]} {count}\n".encode("ascii"))
        f.write(np.ascontiguousarray(matrix, dtype="<f8").tobytes())


def read_records(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (images (count, H, W), labels (count, K)).

    The header is checked against the file size before the payload is
    read: a file with missing or trailing bytes is rejected.
    """
    with open(path, "rb") as f:
        w, h, k, count = _read_header(f, RECORD_MAGIC, path)
        if count < 0 or min(w, h, k) < 1:
            raise ValueError(f"bad record header W={w} H={h} K={k} count={count}: {path}")
        per = h * w + k
        data = _read_payload(f, count * per * 8, path).reshape(count, per)
    return data[:, : h * w].reshape(count, h, w).copy(), data[:, h * w :].copy()


_PROV_COLUMNS = (
    "idx method class_a class_b lambda_sampled lambda_real "
    "rect_x rect_y rect_w rect_h seed sampler steps guidance alpha"
).split()


def write_provenance(path: str | Path, provs: list[Provenance]) -> None:
    """Tab-delimited sidecar, one line per record, '-' for absent fields.
    A non-finite float raises ValueError before the file is opened."""
    lines = ["# " + "\t".join(_PROV_COLUMNS)]
    for i, p in enumerate(provs):
        rect = p.rect if p.rect is not None else (None, None, None, None)
        fields = [
            i, p.method, p.class_a, p.class_b, p.lambda_sampled, p.lambda_real,
            rect[0], rect[1], rect[2], rect[3],
            p.seed, p.sampler, p.steps, p.guidance, p.alpha,
        ]
        lines.append("\t".join(_fmt(v) for v in fields))
    _write_text(path, lines)


def _parse(value: str, kind):
    if value == "-":
        return None
    return kind(value)


def _finite(value: str) -> float:
    """A float as write_provenance writes them: NaN and infinities raise ValueError."""
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"non-finite provenance value {value!r}")
    return out


def read_provenance(path: str | Path) -> list[Provenance]:
    """The provenance of each record line, whose idx is its position; a rect is
    given in full or not at all. A line that write_provenance could not have
    written, a NaN or infinite float included, raises ValueError naming it."""
    out = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        if not line or line.startswith("#"):
            continue
        v = line.split("\t")
        try:
            if len(v) != len(_PROV_COLUMNS):
                raise ValueError(f"{len(v)} fields, need {len(_PROV_COLUMNS)}")
            # report pairs each record with the provenance at its position
            if v[0] != str(len(out)):
                raise ValueError(f"idx {v[0]!r} on the line of record {len(out)}")
            rect = tuple(_parse(x, _finite) for x in v[6:10])
            if 0 < rect.count(None) < 4:
                raise ValueError("partly given rect")
            out.append(Provenance(
                method=v[1], class_a=int(v[2]), class_b=_parse(v[3], int),
                lambda_sampled=_parse(v[4], _finite), lambda_real=_finite(v[5]),
                rect=None if None in rect else rect, seed=int(v[10]), sampler=v[11],
                steps=int(v[12]), guidance=_finite(v[13]), alpha=_parse(v[14], _finite)))
        except ValueError as exc:
            raise ValueError(f"{exc} in provenance line {line!r}") from None
    return out


def write_pgm(path: str | Path, pixels: np.ndarray, comments: list[str] | None = None) -> None:
    """Binary (P5) PGM with optional header comment lines."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 2 or pixels.dtype != np.uint8:
        raise ValueError("PGM writer expects a 2-d uint8 array")
    h, w = pixels.shape
    with open_atomic(path) as f:
        f.write(b"P5\n")
        for c in comments or []:
            f.write(f"# {c}\n".encode("ascii"))
        f.write(f"{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())


def read_pgm(path: str | Path) -> tuple[np.ndarray, list[str]]:
    """Returns (pixels (H, W) uint8, comment lines).

    W and H must be at least 1, and the file must hold the W*H pixel
    bytes its header needs; the size is checked before they are read.
    """
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
        if min(w, h) < 1:
            raise ValueError(f"bad PGM size {w}x{h}: {path}")
        if os.fstat(f.fileno()).st_size - f.tell() < w * h:
            raise ValueError(f"{path}: fewer than the {w * h} pixel bytes its header needs")
        pixels = np.frombuffer(f.read(w * h), dtype=np.uint8).reshape(h, w)
    return pixels.copy(), comments


def save_classifier(path: str | Path, model: MlpClassifier) -> None:
    """Flat binary model file: header (magic in_dim hidden K seed), then
    the parameter vector w1, b1, w2, b2 as float64 little-endian."""
    header = f"{MODEL_MAGIC} {model.in_dim} {model.hidden} {model.num_classes} {model.seed}\n"
    with open_atomic(path) as f:
        f.write(header.encode("ascii"))
        f.write(np.ascontiguousarray(model.params, dtype="<f8").tobytes())


def load_classifier(path: str | Path) -> MlpClassifier:
    """The model stored at path; its parameter vector is one read of the payload.

    The header is bounded and checked against the file size before the
    payload is read; a dimension below 1 and a non-finite weight are
    rejected.
    """
    with open(path, "rb") as f:
        in_dim, hidden, k, seed = _read_header(f, MODEL_MAGIC, path)
        if min(in_dim, hidden, k) < 1:
            raise ValueError(f"bad model header in_dim={in_dim} hidden={hidden} K={k}: {path}")
        params = _read_payload(f, ((in_dim + 1 + k) * hidden + k) * 8, path).astype(np.float64)
    if not np.all(np.isfinite(params)):
        raise ValueError(f"non-finite weight in model file: {path}")
    return MlpClassifier(params, in_dim, hidden, k, seed)


def write_history(path: str | Path, history: list[EpochStats]) -> None:
    lines = ["# epoch\ttrain_loss\tval_accuracy"]
    for row in history:
        lines.append(f"{row.epoch}\t{row.train_loss!r}\t{row.val_accuracy!r}")
    _write_text(path, lines)
