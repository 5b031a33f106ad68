import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from noisecutmix import (
    Provenance,
    SamplerConfig,
    generate_batch,
    init_classifier,
    make_bump_dataset,
    make_cosine_schedule,
)
from noisecutmix.classifier import EpochStats
from noisecutmix.recordio import (
    load_classifier,
    read_pgm,
    read_provenance,
    read_records,
    save_classifier,
    write_history,
    write_pgm,
    write_provenance,
    write_records,
)


@pytest.fixture(scope="module")
def records():
    """(images, labels, provenances) of one single-class and two mixed records."""
    sched = make_cosine_schedule(200)
    models, _ = make_bump_dataset(2, 8, 8, 1.5, 0.25, seed=0, n_per_class=0)
    cfg = SamplerConfig(kind="dpm_solver_pp_2m", num_inference_steps=8)
    images, labels, provs = zip(
        generate_batch([0], None, cfg, sched, models, [1]),
        generate_batch([0], [1], cfg, sched, models, [2], 1.0),
        generate_batch([1], [0], cfg, sched, models, [3], 0.4),
    )
    return np.concatenate(images), np.concatenate(labels), [p for batch in provs for p in batch]


def test_records_round_trip(tmp_path, records):
    path = tmp_path / "batch.records"
    write_records(path, *records[:2])
    images, labels = read_records(path)
    assert images.shape == (3, 8, 8) and labels.shape == (3, 2)
    assert np.array_equal(images, records[0])
    assert np.array_equal(labels, records[1])


def test_records_header(tmp_path, records):
    path = tmp_path / "batch.records"
    write_records(path, *records[:2])
    header = path.read_bytes().split(b"\n", 1)[0]
    assert header == b"NCMREC1 8 8 2 3"


def test_records_writer_rejects_empty_shapes(tmp_path):
    # a count-0 header is a file read_records accepts but no run can use
    path = tmp_path / "empty.records"
    for images, labels in ((np.zeros((0, 4, 4)), np.zeros((0, 2))),
                           (np.zeros((2, 0, 4)), np.eye(2)),
                           (np.zeros((2, 4, 4)), np.zeros((2, 0)))):
        with pytest.raises(ValueError, match="no records to write"):
            write_records(path, images, labels)
    assert not path.exists()


def test_records_reject_garbage(tmp_path):
    path = tmp_path / "bad.records"
    path.write_bytes(b"WRONG 1 2 3 4\n")
    with pytest.raises(ValueError):
        read_records(path)


# a valid two-record file of 2x2 images with K=1: header, then 2 x 5 float64
_GOOD = b"NCMREC1 2 2 1 2\n" + np.arange(10, dtype="<f8").tobytes()


@pytest.mark.parametrize(
    "content",
    [
        _GOOD + b"\x00",                                        # trailing byte
        _GOOD + np.zeros(5, dtype="<f8").tobytes(),            # trailing record
        _GOOD[:-8],                                            # missing bytes
        b"NCMREC1 2 2 1 -1\n",                                 # negative count
        b"NCMREC1 2 2 1 100000000000000000\n" + _GOOD[16:],    # huge count
        b"NCMREC1 0 0 0 5\n",                                  # empty dimensions
        b"NCMREC1 0 2 1 2\n" + _GOOD[16:],                     # W below 1
        b"NCMREC1 2 0 1 2\n" + _GOOD[16:],                     # H below 1
        b"NCMREC1 2 2 0 2\n" + _GOOD[16:],                     # K below 1
        b"NCMREC1 2 2 1 2\xe2\x80\x83\n" + _GOOD[16:],            # non-ASCII header
        b"NCMREC1 2 2 1 2" + b" " * 200 + b"\n" + _GOOD[16:],  # header past its bound
        b"NCMREC1 2 2 1 2",                                    # header without newline
    ],
)
def test_records_reject_header_size_mismatch(tmp_path, content):
    path = tmp_path / "bad.records"
    path.write_bytes(content)
    with pytest.raises(ValueError):
        read_records(path)


def test_records_read_the_valid_fixture(tmp_path):
    path = tmp_path / "good.records"
    path.write_bytes(_GOOD)
    images, labels = read_records(path)
    assert np.array_equal(images.reshape(2, 4), [[0, 1, 2, 3], [5, 6, 7, 8]])
    assert np.array_equal(labels, [[4], [9]])


@settings(max_examples=50, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    data=st.data(),
)
def test_records_round_trip_random_arrays(tmp_path_factory, shape, data):
    count, h, w, k = shape
    images = data.draw(arrays(np.float64, (count, h, w)))
    labels = data.draw(arrays(np.float64, (count, k)))
    path = tmp_path_factory.getbasetemp() / "random.records"
    write_records(path, images, labels)
    back_images, back_labels = read_records(path)
    assert back_images.shape == images.shape and back_labels.shape == labels.shape
    # bit-level equality: NaN payloads and signed zeros survive too
    assert back_images.tobytes() == images.tobytes()
    assert back_labels.tobytes() == labels.tobytes()


def test_provenance_round_trip(tmp_path, records):
    path = tmp_path / "batch.prov"
    write_provenance(path, records[2])
    provs = read_provenance(path)
    assert len(provs) == 3
    assert provs == records[2]  # floats round-trip exactly via repr
    for p, again in zip(records[2], provs):
        for name, value in vars(p).items():
            assert type(getattr(again, name)) is type(value), name


def test_provenance_round_trips_numpy_floats(tmp_path, records):
    # numpy 2 writes repr(np.float64(0.5625)) as "np.float64(0.5625)", which no reader parses
    p = records[2][2]
    as_numpy = dataclasses.replace(
        p, lambda_sampled=np.float64(p.lambda_sampled), lambda_real=np.float64(p.lambda_real),
        rect=tuple(np.float64(v) for v in p.rect), guidance=np.float64(p.guidance),
        alpha=np.float64(p.alpha),
    )
    write_provenance(tmp_path / "numpy.prov", [as_numpy])
    write_provenance(tmp_path / "python.prov", [p])
    assert (tmp_path / "numpy.prov").read_bytes() == (tmp_path / "python.prov").read_bytes()
    assert read_provenance(tmp_path / "numpy.prov") == [p]


def test_provenance_rejects_partly_given_rect(tmp_path, records):
    path = tmp_path / "batch.prov"
    write_provenance(path, records[2])
    lines = path.read_text(encoding="ascii").splitlines()
    fields = lines[2].split("\t")
    assert "-" not in fields[6:10]
    fields[7] = "-"  # once parsed as rect=(x, None, w, h)
    path.write_text("\n".join(lines[:2] + ["\t".join(fields)]) + "\n", encoding="ascii")
    with pytest.raises(ValueError, match="partly given rect"):
        read_provenance(path)


@pytest.mark.parametrize("edit", ["swapped", "non-integer", "skipped"])
def test_provenance_reader_rejects_an_idx_off_its_position(tmp_path, records, edit):
    # report pairs image i with provenance i, so a line out of place drew
    # another record's mask tile and comment
    path = tmp_path / "batch.prov"
    write_provenance(path, records[2])
    header, *lines = path.read_text(encoding="ascii").splitlines()
    if edit == "swapped":
        lines[0], lines[1] = lines[1], lines[0]
    elif edit == "non-integer":
        lines[0] = "x" + lines[0][1:]
    else:
        lines[2] = "3" + lines[2][1:]  # no line holds idx 2
    path.write_text("\n".join([header, *lines]) + "\n", encoding="ascii")
    with pytest.raises(ValueError, match="idx .* on the line of record") as excinfo:
        read_provenance(path)
    assert "in provenance line" in str(excinfo.value)


def _parses_or_value_error(reader, path):
    try:
        reader(path)
    except ValueError:
        pass


_PROV_TOKENS = ["-", "0", "1", "-3", "0.25", "nan", "inf", "1e999", "", "x", "\u00e9", "9" * 5000]


@st.composite
def _provenance_bytes(draw):
    fields = ["0", "noisecutmix", "0", "1", "0.5", "0.5", "1.0", "2.0", "3.0", "4.0",
              "7", "ancestral", "25", "7.5", "1.0"]
    for _ in range(draw(st.integers(0, 4))):
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_PROV_TOKENS))
    fields = fields[: draw(st.integers(len(fields) - 1, len(fields)))] + draw(
        st.lists(st.sampled_from(_PROV_TOKENS), max_size=1))
    line = "\t".join(fields).encode("utf-8")
    return draw(st.sampled_from([b"", b"# header\n"])) + line + draw(st.binary(max_size=8))


@settings(max_examples=300, deadline=None)
@given(content=st.one_of(st.binary(max_size=200), _provenance_bytes()))
def test_provenance_reader_fuzz(tmp_path_factory, content):
    # arbitrary bytes parse or raise ValueError, never another exception type
    path = tmp_path_factory.getbasetemp() / "fuzz.prov"
    path.write_bytes(content)
    _parses_or_value_error(read_provenance, path)


@st.composite
def _pgm_bytes(draw):
    dims = draw(st.lists(st.sampled_from([b"0", b"1", b"3", b"-1", b"-3", b"99999999999", b"x"]),
                         min_size=1, max_size=3))
    head = b"P5\n" + b"".join(draw(st.lists(st.sampled_from([b"# c\n", b"#\xff\n"]), max_size=2)))
    maxval = draw(st.sampled_from([b"255\n", b"65535\n", b"\n", b""]))
    return head + b" ".join(dims) + b"\n" + maxval + draw(st.binary(max_size=16))


@settings(max_examples=300, deadline=None)
@given(content=st.one_of(st.binary(max_size=200), _pgm_bytes()))
def test_pgm_reader_fuzz(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
    path.write_bytes(content)
    _parses_or_value_error(read_pgm, path)


@st.composite
def _binary_header_bytes(draw):
    magic = draw(st.sampled_from([b"NCMREC1", b"NCMMLP1", b"P5", b""]))
    ints = draw(st.lists(st.sampled_from([b"0", b"1", b"2", b"-1", b"100000000000000000", b"x"]),
                         min_size=3, max_size=5))
    end = draw(st.sampled_from([b"\n", b"", b" \xff\n"]))
    payload = draw(st.one_of(st.binary(max_size=64), st.lists(st.floats(), max_size=8).map(
        lambda v: np.array(v, dtype="<f8").tobytes())))
    return b" ".join([magic, *ints]) + end + payload


@settings(max_examples=300, deadline=None)
@given(content=st.one_of(st.binary(max_size=200), _binary_header_bytes()))
@pytest.mark.parametrize("reader", [read_records, load_classifier], ids=["records", "model"])
def test_binary_reader_fuzz(tmp_path_factory, reader, content):
    path = tmp_path_factory.getbasetemp() / "fuzz.bin"
    path.write_bytes(content)
    _parses_or_value_error(reader, path)


def test_pgm_rejects_bad_sizes(tmp_path):
    path = tmp_path / "bad.pgm"
    for content in (b"P5\n-1 3\n255\n" + bytes(6), b"P5\n0 0\n255\n", b"P5\n2 2\n255\n" + bytes(3),
                    b"P5\n99999999999 99999999999\n255\n"):
        path.write_bytes(content)
        with pytest.raises(ValueError):
            read_pgm(path)


def test_pgm_round_trip(tmp_path):
    pixels = np.arange(48, dtype=np.uint8).reshape(6, 8)
    path = tmp_path / "img.pgm"
    write_pgm(path, pixels, comments=["hello", "world"])
    back, comments = read_pgm(path)
    assert np.array_equal(back, pixels)
    assert comments == ["hello", "world"]


def test_pgm_rejects_non_uint8(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.zeros((4, 4)))


def test_classifier_round_trip(tmp_path):
    model = init_classifier(16, 8, 3, seed=9)
    path = tmp_path / "model.bin"
    save_classifier(path, model)
    back = load_classifier(path)
    assert back.seed == 9
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(back, name), getattr(model, name))


# a valid model file with in_dim=2, hidden=1, K=1: header, then w1 (2), b1, w2, b2
_MODEL = b"NCMMLP1 2 1 1 7\n" + np.arange(5, dtype="<f8").tobytes()


def test_classifier_reads_the_valid_fixture(tmp_path):
    path = tmp_path / "good.bin"
    path.write_bytes(_MODEL)
    model = load_classifier(path)
    assert model.seed == 7
    assert np.array_equal(model.w1, [[0.0, 1.0]]) and np.array_equal(model.b2, [4.0])
    # the named arrays are views of the one parameter vector
    model.params[:] = -1.0
    assert np.all(model.w1 == -1.0) and np.all(model.b2 == -1.0)


@pytest.mark.parametrize(
    "content",
    [
        _MODEL + b"\x00",                                               # trailing byte
        _MODEL[:-8],                                                    # missing weight
        b"NCMMLP1 0 1 1 7\n",                                           # in_dim below 1
        b"NCMMLP1 2 0 1 7\n" + np.zeros(1, dtype="<f8").tobytes(),      # hidden below 1
        b"NCMMLP1 2 1 0 7\n" + np.zeros(3, dtype="<f8").tobytes(),      # K below 1
        b"NCMMLP1 2 1 1 7\n" + np.array([0, 1, np.nan, 3, 4], dtype="<f8").tobytes(),  # NaN weight
        b"NCMMLP1 2 1 1 7\n" + np.array([0, 1, 2, 3, -np.inf], dtype="<f8").tobytes(),  # infinite weight
        b"NCMMLP1 2 1 1 7" + b" " * 200 + b"\n" + _MODEL[16:],           # header past its bound
        b"NCMMLP1 2 1 1 7",                                             # header without newline
        b"NCMMLP1 2 1 1 7\xe2\x80\x83\n" + _MODEL[16:],                  # non-ASCII header
        b"NCMREC1 2 1 1 7\n" + _MODEL[16:],                              # wrong magic
    ],
)
def test_classifier_rejects_bad_files(tmp_path, content):
    path = tmp_path / "bad.bin"
    path.write_bytes(content)
    with pytest.raises(ValueError):
        load_classifier(path)


@pytest.mark.parametrize("writer", ["pgm", "provenance"])
def test_failed_write_leaves_no_file(tmp_path, records, writer):
    # the non-ASCII text fails to encode once the write has begun (for the PGM, mid-payload)
    path = tmp_path / "artifact"
    good = records[2][0]
    bad = Provenance(**{**vars(good), "method": "caf\u00e9"})

    def write():
        if writer == "pgm":
            write_pgm(path, np.zeros((2, 2), dtype=np.uint8), comments=["ok", "caf\u00e9"])
        else:
            write_provenance(path, [good, bad])

    with pytest.raises(UnicodeEncodeError):
        write()
    assert list(tmp_path.iterdir()) == []
    path.write_bytes(b"old")
    with pytest.raises(UnicodeEncodeError):
        write()
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"old"


@pytest.mark.parametrize("field", ["lambda_sampled", "lambda_real", "rect", "guidance", "alpha"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_provenance_rejects_non_finite_before_writing(tmp_path, records, field, bad):
    # NaN used to be written as '-', so a NaN lambda_real made the file unreadable
    path = tmp_path / "batch.prov"
    mixed = records[2][1]
    value = (bad, *mixed.rect[1:]) if field == "rect" else bad
    edited = Provenance(**{**vars(mixed), field: value})
    path.write_bytes(b"old")
    with pytest.raises(ValueError, match="non-finite provenance value"):
        write_provenance(path, [edited])
    with pytest.raises(ValueError, match="non-finite provenance value"):
        write_provenance(tmp_path / "new.prov", [mixed, edited])
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"old"


@pytest.mark.parametrize(
    "column", ["lambda_sampled", "lambda_real", "rect_x", "rect_y", "rect_w", "rect_h",
               "guidance", "alpha"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_provenance_reader_rejects_non_finite(tmp_path, records, column, bad):
    # the reader once took the floats write_provenance refuses, and report drew a montage
    path = tmp_path / "batch.prov"
    write_provenance(path, records[2])
    lines = path.read_text(encoding="ascii").splitlines()
    fields = lines[2].split("\t")
    fields[lines[0][2:].split("\t").index(column)] = bad
    edited = "\t".join(fields)
    path.write_text("\n".join(lines[:2] + [edited]) + "\n", encoding="ascii")
    with pytest.raises(ValueError, match="non-finite provenance value") as excinfo:
        read_provenance(path)
    assert repr(edited) in str(excinfo.value)


def test_history_file(tmp_path):
    hist = [EpochStats(0, 1.25, 0.5), EpochStats(1, 0.75, 0.625)]
    path = tmp_path / "history.tsv"
    write_history(path, hist)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "0\t1.25\t0.5"


def test_offline_record_construction(tmp_path):
    prov = Provenance(
        method="offline", class_a=1, class_b=None, lambda_sampled=None,
        lambda_real=1.0, rect=None, seed=0, sampler="-", steps=0, guidance=0.0, alpha=None,
    )
    write_records(tmp_path / "one.records", np.zeros((1, 4, 4)), np.array([[0.0, 1.0]]))
    write_provenance(tmp_path / "one.prov", [prov])
    assert read_provenance(tmp_path / "one.prov")[0].method == "offline"
