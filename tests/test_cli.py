import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from noisecutmix import ExperimentConfig, config
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


def test_a_shell_sees_the_exit_codes(tmp_path, cfg_path):
    # main() returns the code; only the module's sys.exit(main()) hands it to the shell
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"trials": 1, "trails": 2}))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    for args, code in [
        (["generate", "--config", str(cfg_path), "--method", "gen_random", "--count", "1",
          "--out", str(tmp_path / "one")], 0),
        (["experiment", "--config", str(bad), "--out", str(tmp_path / "never")], 2),
        (["generate", "--count", "1"], 2),  # argparse: --method and --out missing
        (["report", "--dir", str(tmp_path / "missing")], 3),
    ]:
        run = subprocess.run([sys.executable, "-m", "noisecutmix.cli", *args], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == code, (args, run.stderr)
    assert (tmp_path / "one.records").exists() and not (tmp_path / "never").exists()


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


def test_train_takes_its_policy_from_the_config(tmp_path, cfg_path):
    # train's --alpha and --probability used to shadow the config's mixup_alpha and
    # augment_probability; the experiment's mixup method always read the config
    from noisecutmix import AugmentPolicy, load_config, train
    from noisecutmix.recordio import save_classifier

    data, model = tmp_path / "data", tmp_path / "model.bin"
    main(["generate", "--config", str(cfg_path), "--method", "gen_random",
          "--count", "24", "--seed", "8", "--out", str(data)])
    assert main(["train", "--config", str(cfg_path), "--input", f"{data}.records", "--seed", "5",
                 "--policy", "mixup", "--model-out", str(model)]) == 0
    cfg = load_config(cfg_path)
    assert cfg.augment_policy("mixup") == AugmentPolicy("mixup", 0.2, 0.5)
    images, labels = read_records(f"{data}.records")
    expected = {}
    for name, policy in (("config", cfg.augment_policy("mixup")), ("old flags", AugmentPolicy("mixup", 1.0, 0.5))):
        save_classifier(tmp_path / name, train(images, labels, cfg.train_config(5), policy)[0])
        expected[name] = (tmp_path / name).read_bytes()
    assert model.read_bytes() == expected["config"] != expected["old flags"]
    for flag in ("--alpha", "--probability"):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--config", str(cfg_path), "--input", f"{data}.records", "--policy", "mixup",
                  flag, "0.2", "--model-out", str(tmp_path / "x.bin")])
        assert excinfo.value.code == 2


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


def test_report_rejects_non_finite_records(tmp_path, cfg_path, capsys):
    # a NaN pixel used to re-render the montage as all-zero tiles headed lo=nan hi=nan
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    montage = out / "noisecutmix_montage.pgm"
    montage_before = montage.read_bytes()
    records = out / "noisecutmix_t0.records"
    data = bytearray(records.read_bytes())
    payload = data.index(b"\n") + 1
    data[payload:payload + 8] = np.array([np.nan], dtype="<f8").tobytes()
    records.write_bytes(bytes(data))
    assert np.isnan(read_records(records)[0][0, 0, 0])
    capsys.readouterr()
    assert main(["report", "--dir", str(out)]) == 2
    assert "montage images must be finite" in capsys.readouterr().err
    assert montage.read_bytes() == montage_before


def test_report_renders_only_the_tables_methods(tmp_path, cfg_path, capsys):
    # a gen_random_t0.records beside a table without gen_random was re-rendered; an
    # experiment removes an earlier run's artifacts, so they are moved in afterwards
    first, out = tmp_path / "first", tmp_path / "exp"
    raw = json.loads(cfg_path.read_text())
    for run, methods in ((first, ["gen_random"]), (out, ["original"])):
        path = tmp_path / f"{run.name}.json"
        path.write_text(json.dumps({**raw, "trials": 1, "methods": methods}))
        assert main(["experiment", "--config", str(path), "--out", str(run)]) == 0
    for name in ("gen_random_t0.records", "gen_random_t0.prov", "gen_random_montage.pgm"):
        (first / name).rename(out / name)
    stale = out / "gen_random_montage.pgm"
    stale_before = stale.read_bytes()
    capsys.readouterr()
    assert main(["report", "--dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "original" in stdout and "gen_random" not in stdout
    assert stale.read_bytes() == stale_before


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
        {"mixup_alpha": -0.2, "methods": ["original"], "trials": 1},
        {"methods": {"original": 1}, "trials": 1},
        {"methods": "original"},
        # sample_lambda rejects it too, but only once the run has written config.json
        {"noisemix_alpha": 0.0, "methods": ["noisecutmix"], "trials": 1},
        # make_cosine_schedule and timestep_grid own these rules; the config calls both
        {"schedule_steps": 1},
        {"schedule_steps": 10**19},
        {"num_inference_steps": 0},
        {"num_inference_steps": 1001},
        {"schedule_steps": 10, "num_inference_steps": 11},
        # ints too large for a float once escaped as OverflowError (exit 1)
        *({field: sign * 10**400} for sign in (1, -1) for field in (
            "noise_var", "guidance_scale", "learning_rate", "augment_probability",
            "augment_ratio", "bump_sigma", "val_fraction", "cutmix_alpha", "mixup_alpha",
            "noisemix_alpha", "width", "height", "num_classes", "n_train_per_class")),
    ]):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / f"o{i}"
        assert main(["experiment", "--config", str(bad), "--out", str(out)]) == 2, raw
        assert not out.exists(), raw


def test_config_rejects_arrays_numpy_cannot_allocate(tmp_path, capsys):
    # each once passed the config and wrote config.json; the run then failed in
    # numpy or, for the augment_ratio, began a list of 4e301 record seeds
    for i, raw in enumerate([
        {"hidden_units": 10**19, "methods": ["original"], "trials": 1},
        {"n_test_per_class": 10**19, "methods": ["original"], "trials": 1},
        {"hidden_units": 10**18},
        {"n_train_per_class": 10**19},
        {"augment_ratio": 1e300, "methods": ["gen_random"], "trials": 1},
        # numpy's own limit: the first hidden_units whose (hidden, 16 * 16) float64
        # weights numpy refuses ("array is too big")
        {"hidden_units": sys.maxsize // (8 * 256) + 1},
    ]):
        bad = tmp_path / f"big{i}.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / f"o{i}"
        capsys.readouterr()
        assert main(["experiment", "--config", str(bad), "--out", str(out)]) == 2, raw
        assert "more than numpy can allocate" in capsys.readouterr().err, raw
        assert not out.exists(), raw
    ExperimentConfig(hidden_units=sys.maxsize // (8 * 256))  # one fewer passes


@pytest.mark.parametrize("message", ["Unable to allocate 74.5 GiB for an array", ""])
def test_a_grid_too_large_to_build_exits_2_before_writing(tmp_path, capsys, monkeypatch, message):
    # the grid is never allocated: make_bump_dataset fails as numpy would on a
    # 100000x100000 grid, at load time, when the config builds its dataset
    built = []

    def out_of_memory(num_classes, width, height, *args):
        built.append((width, height))
        raise MemoryError(message)

    monkeypatch.setattr(config, "make_bump_dataset", out_of_memory)
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps({"width": 100000, "height": 100000}))
    out = tmp_path / "o"
    assert main(["experiment", "--config", str(bad), "--out", str(out)]) == 2
    assert built == [(100000, 100000)]
    assert (message or "out of memory") in capsys.readouterr().err
    assert not out.exists()


def test_report_without_a_results_table_exits_3(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--dir", str(empty)]) == 3
    assert list(empty.iterdir()) == []
    a_file = tmp_path / "a_file"
    a_file.write_text("not a directory")
    assert main(["report", "--dir", str(a_file)]) == 3
    assert "i/o failure" in capsys.readouterr().err


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
    images[0] = 1e308  # finite, but it overflows the forward pass
    data = tmp_path / "diverge.records"
    write_records(data, images, np.eye(2)[np.arange(12) % 2])
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--config", str(cfg_path), "--input", str(data),
                     "--seed", "0", "--model-out", str(tmp_path / "m.bin")])
    assert code == 4


@pytest.mark.parametrize("kind", ["ancestral", "dpm_solver_pp_2m"])
@pytest.mark.parametrize("command", ["generate", "experiment"])
def test_sampler_divergence_exits_4_and_writes_no_records(tmp_path, cfg_path, capsys, kind, command):
    # the ancestral sampler used to write all-NaN records here (generate exited 0)
    cfg = json.loads(cfg_path.read_text())
    cfg.update(sampler_kind=kind, guidance_scale=1e300, num_inference_steps=5,
               schedule_steps=60, methods=["gen_random", "noisecutmix"])
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    args = ["--config", str(cfg_path), "--out", str(out)]
    if command == "generate":
        args += ["--method", "noisecutmix", "--count", "3", "--pgm"]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([command] + args) == 4
    assert "numerical failure" in capsys.readouterr().err
    assert list(tmp_path.glob("**/*.records")) == []
    assert list(tmp_path.glob("**/*.pgm")) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_train_and_evaluate_reject_non_finite_images(tmp_path, cfg_path, capsys, bad):
    # an all-NaN record file used to score accuracy 0.25 and one inf pixel to exit 4
    from noisecutmix import init_classifier
    from noisecutmix.recordio import save_classifier, write_records

    images = np.stack([np.random.default_rng(i).standard_normal((8, 8)) for i in range(12)])
    labels = np.eye(2)[np.arange(12) % 2]
    data, all_bad, model = tmp_path / "bad.records", tmp_path / "all_bad.records", tmp_path / "m.bin"
    images[0, 2, 3] = bad
    write_records(data, images, labels)
    write_records(all_bad, np.full_like(images, bad), labels)
    for path in (data, all_bad):
        assert main(["train", "--config", str(cfg_path), "--input", str(path),
                     "--seed", "0", "--model-out", str(model)]) == 2
        assert "images must be finite" in capsys.readouterr().err
        assert not model.exists()
    good = tmp_path / "good.bin"
    save_classifier(good, init_classifier(64, 8, 2, seed=0))
    for path in (data, all_bad):
        assert main(["evaluate", "--model", str(good), "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert "images must be finite" in captured.err and "accuracy" not in captured.out
    # all-NaN labels used to exit 0 with an accuracy: argmax read every row as class 0
    bad_labels = tmp_path / "bad_labels.records"
    write_records(bad_labels, np.nan_to_num(images, posinf=0.0), np.full_like(labels, bad))
    assert main(["train", "--config", str(cfg_path), "--input", str(bad_labels),
                 "--seed", "0", "--model-out", str(model)]) == 2
    assert "labels must be finite" in capsys.readouterr().err
    assert not model.exists()
    assert main(["evaluate", "--model", str(good), "--input", str(bad_labels)]) == 2
    captured = capsys.readouterr()
    assert "labels must be finite" in captured.err and "accuracy" not in captured.out


def test_augment_rejects_non_finite_images(tmp_path, capsys):
    # an all-NaN file used to exit 0 and write 6 all-NaN mixed records
    from noisecutmix.recordio import write_records

    images = np.stack([np.random.default_rng(i).standard_normal((4, 4)) for i in range(6)])
    labels = np.eye(2)[np.arange(6) % 2]
    one_inf = images.copy()
    one_inf[3, 1, 2] = math.inf
    for name, bad in (("all_nan", np.full_like(images, math.nan)), ("one_inf", one_inf)):
        src, out = tmp_path / f"{name}.records", tmp_path / f"{name}_aug.records"
        write_records(src, bad, labels)
        for policy in ("cutmix", "mixup"):
            assert main(["augment", "--policy", policy, "--input", str(src), "--out", str(out)]) == 2
            assert "images must be finite" in capsys.readouterr().err
            assert not out.exists()
    # all-NaN labels used to exit 0 and write 6 records with NaN labels
    one_inf_label = labels.copy()
    one_inf_label[2, 0] = math.inf
    for name, bad in (("nan_labels", np.full_like(labels, math.nan)), ("inf_label", one_inf_label)):
        src, out = tmp_path / f"{name}.records", tmp_path / f"{name}_aug.records"
        write_records(src, images, bad)
        for policy in ("cutmix", "mixup"):
            assert main(["augment", "--policy", policy, "--input", str(src), "--out", str(out)]) == 2
            assert "labels must be finite" in capsys.readouterr().err
            assert not out.exists()


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
