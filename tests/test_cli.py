import json
import math

import numpy as np
import pytest

from noisecutmix.cli import main
from noisecutmix.recordio import read_pgm, read_provenance, read_records


@pytest.fixture()
def cfg_path(tmp_path):
    cfg = dict(
        num_classes=2,
        width=8,
        height=8,
        bump_sigma=1.5,
        noise_var=0.4,
        n_train_per_class=6,
        n_test_per_class=8,
        schedule_steps=60,
        num_inference_steps=6,
        epochs=3,
        hidden_units=8,
        trials=2,
        master_seed=1,
        methods=["original", "noisecutmix"],
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_generate_subcommand(tmp_path, cfg_path, capsys):
    out = tmp_path / "gen"
    code = main([
        "generate", "--config", str(cfg_path), "--method", "noisecutmix",
        "--count", "5", "--seed", "3", "--out", str(out), "--pgm",
    ])
    assert code == 0
    images, labels = read_records(f"{out}.records")
    assert images.shape == (5, 8, 8) and labels.shape == (5, 2)
    assert len(read_provenance(f"{out}.prov")) == 5
    pixels, _ = read_pgm(f"{out}.pgm")
    assert pixels.shape[1] == 17


def test_generate_rejects_pixel_methods(cfg_path, tmp_path):
    # argparse rejects non-generating methods with the invalid-config exit code
    with pytest.raises(SystemExit) as excinfo:
        main([
            "generate", "--config", str(cfg_path), "--method", "cutmix",
            "--count", "2", "--out", str(tmp_path / "x"),
        ])
    assert excinfo.value.code == 2


def test_generate_rejects_empty_count(cfg_path, tmp_path):
    out = tmp_path / "x"
    assert main(["generate", "--config", str(cfg_path), "--method", "noisecutmix",
                 "--count", "0", "--out", str(out)]) == 2
    assert not (tmp_path / "x.records").exists()


def test_augment_subcommand(tmp_path, cfg_path):
    src = tmp_path / "src"
    main(["generate", "--config", str(cfg_path), "--method", "gen_random",
          "--count", "6", "--out", str(src)])
    out = tmp_path / "aug.records"
    code = main([
        "augment", "--policy", "mixup", "--alpha", "0.2", "--probability", "1.0",
        "--seed", "4", "--input", f"{src}.records", "--out", str(out),
    ])
    assert code == 0
    images, labels = read_records(out)
    assert images.shape == (6, 8, 8)
    assert np.all(np.abs(labels.sum(axis=1) - 1.0) <= 1e-12)


def test_augment_rejects_non_finite_alpha(tmp_path):
    from noisecutmix.recordio import write_records

    data = tmp_path / "in.records"
    write_records(data, np.zeros((4, 4, 4)), np.eye(2)[np.arange(4) % 2])
    for alpha in ("nan", "inf"):
        out = tmp_path / f"{alpha}.records"
        assert main(["augment", "--policy", "mixup", "--alpha", alpha, "--probability", "1",
                     "--input", str(data), "--out", str(out)]) == 2
        assert not out.exists()


def test_train_and_evaluate_subcommands(tmp_path, cfg_path):
    data = tmp_path / "data"
    main(["generate", "--config", str(cfg_path), "--method", "gen_random",
          "--count", "24", "--seed", "8", "--out", str(data)])
    model = tmp_path / "model.bin"
    history = tmp_path / "history.tsv"
    code = main([
        "train", "--config", str(cfg_path), "--input", f"{data}.records",
        "--seed", "5", "--model-out", str(model), "--history-out", str(history),
    ])
    assert code == 0
    assert model.exists() and history.exists()
    code = main(["evaluate", "--model", str(model), "--input", f"{data}.records"])
    assert code == 0


def test_evaluate_rejects_bad_models(tmp_path, cfg_path, capsys):
    from noisecutmix import init_classifier
    from noisecutmix.recordio import save_classifier

    data = tmp_path / "data"
    main(["generate", "--config", str(cfg_path), "--method", "gen_random",
          "--count", "4", "--seed", "8", "--out", str(data)])
    records = f"{data}.records"
    nan_model = tmp_path / "nan.bin"
    save_classifier(nan_model, init_classifier(64, 8, 2, seed=0))
    payload = bytearray(nan_model.read_bytes())
    payload[-8:] = np.array([np.nan], dtype="<f8").tobytes()
    nan_model.write_bytes(bytes(payload))
    assert main(["evaluate", "--model", str(nan_model), "--input", records]) == 2
    # a model for 4x4 images and 3 classes against 8x8 records with K=2
    wrong = tmp_path / "wrong.bin"
    save_classifier(wrong, init_classifier(16, 8, 3, seed=0))
    capsys.readouterr()
    assert main(["evaluate", "--model", str(wrong), "--input", records]) == 2
    err = capsys.readouterr().err
    assert "in_dim=16 and K=3" in err and "8x8 images (in_dim=64) and K=2" in err


def test_experiment_and_report_subcommands(tmp_path, cfg_path, capsys):
    out = tmp_path / "exp"
    code = main(["experiment", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "noisecutmix" in stdout and "original" in stdout
    montage_before = (out / "noisecutmix_montage.pgm").read_bytes()

    code = main(["report", "--dir", str(out)])
    assert code == 0
    assert "re-rendered" in capsys.readouterr().out
    # montage re-rendered from stored artifacts is byte-identical
    assert (out / "noisecutmix_montage.pgm").read_bytes() == montage_before


def test_report_rejects_short_provenance(tmp_path, cfg_path, capsys):
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    prov = out / "noisecutmix_t0.prov"
    prov.write_text(prov.read_text().splitlines()[0] + "\n")  # header line only
    assert main(["report", "--dir", str(out)]) == 2
    assert "has 0 lines for 12 records" in capsys.readouterr().err


def test_report_rejects_malformed_tables(tmp_path, capsys):
    good = "# method\ttrial0\ttrial1\tmean\tstd\na\t0.500000\t0.700000\t0.600000\t0.141421\n"
    for i, table in enumerate([
        good + "foo\n",  # fewer than 4 cells
        good + "b\t0.500000\t0.500000\t0.000000\n",  # 1 trial beside 2
        good.replace("0.600000", "0.650000"),  # stored mean off
        good.replace("0.141421", "0.100000"),  # stored std off
        good.replace("0.141421", "nan"),
    ]):
        run = tmp_path / f"r{i}"
        run.mkdir()
        (run / "results.tsv").write_text(table)
        assert main(["report", "--dir", str(run)]) == 2, table
    (run / "results.tsv").write_text(good)
    capsys.readouterr()
    assert main(["report", "--dir", str(run)]) == 0
    assert capsys.readouterr().out == good


def test_exit_code_invalid_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"trails": 2}))
    assert main(["experiment", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_bad_config_exits_before_writing(tmp_path):
    for i, raw in enumerate([
        {"trials": 2.5},
        {"width": 3},
        {"batch_size": 0},
        {"augment_probability": 2.0},
        {"val_fraction": 1.5},
        {"n_train_per_class": -1},
        {"hidden_units": 0},
        {"output_dir": 5},
        {"schedule_steps": 1, "num_inference_steps": 1},
        {"n_test_per_class": 0},
        {"n_train_per_class": 2},
        {"num_classes": 10, "n_train_per_class": 1, "methods": ["original"], "trials": 1},
        {"num_classes": 2, "n_train_per_class": 5, "val_fraction": 0.9,
         "methods": ["original"], "trials": 1},
        {"augment_ratio": math.inf, "methods": ["gen_random"], "trials": 1},
        {"augment_ratio": math.nan, "methods": ["gen_random"], "trials": 1},
        {"noise_var": math.nan, "methods": ["original"], "trials": 1},
        {"guidance_scale": math.inf, "methods": ["noisecutmix"], "trials": 1},
        {"cutmix_alpha": math.inf, "methods": ["cutmix"], "trials": 1},
    ]):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / f"o{i}"
        assert main(["experiment", "--config", str(bad), "--out", str(out)]) == 2, raw
        assert not out.exists(), raw


def test_exit_code_io_failure(tmp_path, cfg_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = main(["experiment", "--config", str(cfg_path), "--out", str(blocker / "sub")])
    assert code == 3


def test_exit_code_missing_input(tmp_path):
    assert main(["evaluate", "--model", str(tmp_path / "no.bin"),
                 "--input", str(tmp_path / "no.records")]) == 3


def test_exit_code_malformed_records(tmp_path):
    # a header count of 1e17 once escaped as OverflowError (exit 1)
    data = tmp_path / "huge.records"
    data.write_bytes(b"NCMREC1 2 2 1 100000000000000000\n" + bytes(40))
    assert main(["augment", "--policy", "mixup", "--input", str(data),
                 "--out", str(tmp_path / "o.records")]) == 2


def test_exit_code_numerical_failure(tmp_path, cfg_path):
    from noisecutmix.recordio import write_records

    images = np.stack([np.random.default_rng(i).standard_normal((4, 4)) for i in range(12)])
    images[0] = np.inf
    data = tmp_path / "diverge.records"
    write_records(data, images, np.eye(2)[np.arange(12) % 2])
    with np.errstate(invalid="ignore"):
        code = main(["train", "--config", str(cfg_path), "--input", str(data),
                     "--seed", "0", "--model-out", str(tmp_path / "m.bin")])
    assert code == 4


def test_train_rejects_labels_off_the_simplex(tmp_path, cfg_path, capsys):
    from noisecutmix.recordio import write_records

    images = np.stack([np.random.default_rng(i).standard_normal((4, 4)) for i in range(12)])
    labels = np.eye(2)[np.arange(12) % 2] * 3.0 - 1.0  # one-hot rows mapped to -1 and 2
    data = tmp_path / "offsimplex.records"
    write_records(data, images, labels)
    model = tmp_path / "m.bin"
    code = main(["train", "--config", str(cfg_path), "--input", str(data),
                 "--seed", "0", "--model-out", str(model)])
    assert code == 2
    assert "labels must be" in capsys.readouterr().err
    assert not model.exists()


def test_output_dir_env_default(tmp_path, cfg_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("NOISECUTMIX_OUTDIR", str(target))
    cfg = json.loads(cfg_path.read_text())
    cfg["methods"] = ["original"]
    cfg["trials"] = 1
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(cfg_path)]) == 0
    assert (target / "results.tsv").exists()
