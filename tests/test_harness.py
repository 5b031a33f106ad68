import ast
import dataclasses
import json
import math
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noisecutmix
from noisecutmix import (
    AugmentPolicy,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    load_config,
    make_cosine_schedule,
    run_experiment,
    run_method,
)
from noisecutmix import cli, harness, samplers
from noisecutmix.augment import POLICY_KINDS
from noisecutmix.config import METHODS, OUTPUT_DIR_ENV
from noisecutmix.harness import (
    build_training_pool,
    export_grid,
    format_result_table,
    generate_records,
    parse_result_table,
    trial_seed,
)
from noisecutmix.recordio import read_pgm, read_provenance, read_records
from noisecutmix.samplers import regenerate


def tiny_config(**over):
    base = dict(
        num_classes=2,
        width=8,
        height=8,
        bump_sigma=1.5,
        noise_var=0.4,
        n_train_per_class=6,
        n_test_per_class=10,
        schedule_steps=60,
        sampler_kind="dpm_solver_pp_2m",
        num_inference_steps=6,
        guidance_scale=7.5,
        epochs=4,
        hidden_units=8,
        trials=2,
        master_seed=5,
    )
    base.update(over)
    return config_from_dict(base)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"trials": 3, "trails": 5})


def test_config_rejects_unknown_method():
    with pytest.raises(ConfigError, match="unknown methods"):
        config_from_dict({"methods": ["noisecutmix", "fancymix"]})


def test_config_rejects_bad_values():
    for bad in (
        {"trials": 0},
        {"augment_ratio": -1.0},
        {"sampler_kind": "euler"},
        {"num_inference_steps": 2000},
        {"trials": 2.5},
        {"epochs": True},
        {"width": "16"},
        {"guidance_scale": False},
        {"num_classes": 1},
        {"cutmix_alpha": 0.0},
        {"mixup_alpha": -0.2},
        {"noisemix_alpha": float("nan")},
        {"guidance_scale": -1.0},
        {"methods": ["original", "noisecutmix", "original"]},
        {"width": 3},
        {"batch_size": 0},
        {"augment_probability": 2.0},
        {"val_fraction": 1.5},
        {"n_train_per_class": -1},
        {"hidden_units": 0},
        {"learning_rate": -1.0},
        {"output_dir": 5},
        {"schedule_steps": 1, "num_inference_steps": 1},
        {"n_test_per_class": 0},
        {"n_train_per_class": 2},
        # the validation split leaves fewer real training samples than classes
        {"num_classes": 10, "n_train_per_class": 1},
        {"num_classes": 2, "n_train_per_class": 5, "val_fraction": 0.9},
        # JSON's NaN and Infinity parse to non-finite floats
        {"augment_ratio": math.inf},
        {"augment_ratio": math.nan},
        {"noise_var": math.nan},
        {"guidance_scale": math.inf},
        {"cutmix_alpha": math.inf},
        # a policy the methods do not use is still checked
        {"mixup_alpha": -0.2, "methods": ["original"]},
        # methods must be a list, not an object, a string or a tuple
        {"methods": {"original": 1}, "trials": 1},
        {"methods": "original"},
        {"methods": ("original",)},
        {"methods": []},
        {"epochs": -1},
        {"master_seed": -1},
        {"noisemix_alpha": 0.0},
        # a JSON document that is not an object
        [],
    ):
        with pytest.raises(ConfigError):
            config_from_dict(bad)


def test_config_errors_name_what_is_wrong():
    with pytest.raises(ConfigError, match="cutmix alpha"):
        config_from_dict({"cutmix_alpha": 0.0})
    with pytest.raises(ConfigError, match="mixup alpha"):
        config_from_dict({"mixup_alpha": -0.2, "methods": ["original"]})
    with pytest.raises(ConfigError, match="methods must be of type list"):
        config_from_dict({"methods": "original"})


# JSON values of every kind, at sizes whose valid configs allocate no large array
_FUZZ_VALUES = st.one_of(
    st.integers(-1, 64),
    st.sampled_from([10**19, -10**19, 10**400, -10**400, 0.5, math.nan, math.inf, -math.inf,
                     True, False, None]),
    st.text(max_size=6),
    st.sampled_from(["ancestral", "dpm_solver_pp_2m", "original", "noisecutmix"]),
    st.lists(st.sampled_from([*METHODS, "fancymix", 0, None]), max_size=3),
    st.dictionaries(st.sampled_from(["original", "trials"]), st.integers(-1, 2), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(ExperimentConfig.__dataclass_fields__)),
                       _FUZZ_VALUES, min_size=1, max_size=3))
def test_config_from_dict_gives_a_config_or_a_config_error(raw):
    try:
        assert isinstance(config_from_dict(raw), ExperimentConfig)
    except ConfigError:
        pass


def test_config_rejects_unhashable_method():
    with pytest.raises(ConfigError, match="unknown methods"):
        ExperimentConfig(methods=[["original"]])


@pytest.mark.parametrize("override, output_dir, env, expected", [
    ("cli", "cfg", "env", "cli"),
    (None, "cfg", "env", "cfg"),
    ("", "cfg", "env", "cfg"),
    (None, None, "env", "env"),
    (None, "", "env", "env"),
    (None, None, None, "noisecutmix_out"),
    (None, None, "", "noisecutmix_out"),
])
def test_output_dir_precedence(monkeypatch, override, output_dir, env, expected):
    # --out, then the config's output_dir, then the environment, then the default;
    # an empty string counts as unset
    if env is None:
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    else:
        monkeypatch.setenv(OUTPUT_DIR_ENV, env)
    cfg = ExperimentConfig(output_dir=output_dir)
    assert cfg.resolved_output_dir(override) == Path(expected)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"trials": 3, "width": 12}))
    cfg = load_config(path)
    assert cfg.trials == 3 and cfg.width == 12 and cfg.height == 16


def test_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_method_registry_is_the_seven_rows():
    # name -> (generator, pixel policy), in the order trial_seed seeds by
    assert list(METHODS.items()) == [
        ("original", (None, "none")),
        ("cutmix", (None, "cutmix")),
        ("mixup", (None, "mixup")),
        ("gen_random", ("single", "none")),
        ("gen_random+cutmix", ("single", "cutmix")),
        ("gen_random+mixup", ("single", "mixup")),
        ("noisecutmix", ("noisecutmix", "none")),
    ]


def test_method_policies_take_the_config_alphas():
    cfg = ExperimentConfig(cutmix_alpha=0.7, mixup_alpha=0.3, augment_probability=0.25)
    for method, (_, kind) in METHODS.items():
        alpha = {"cutmix": 0.7, "mixup": 0.3}.get(kind, 1.0)
        assert cfg.augment_policy(kind) == AugmentPolicy(kind, alpha, 0.25), method


def _component_settings(cfg):
    """(class, field, position) -> value of every field of every component cfg builds."""
    built = [cfg.train_config(), cfg.sampler_config(), *map(cfg.augment_policy, POLICY_KINDS)]
    return {(type(c).__name__, f.name, i): getattr(c, f.name)
            for i, c in enumerate(built) for f in dataclasses.fields(c)}


def _another_value(name, value):
    """A valid value of config field name other than value."""
    other = {"sampler_kind": "ancestral", "methods": ["original"], "output_dir": "elsewhere"}
    if name in other:
        return other[name]
    return value / 2.0 if isinstance(value, float) else value + 1


def test_every_component_setting_has_a_config_source():
    # a component field no config field reaches is a setting with no source but its
    # default; the Adam constants used to be TrainConfig fields of that kind
    base = ExperimentConfig()
    before = _component_settings(base)
    reached = {}
    for f in dataclasses.fields(ExperimentConfig):
        cfg = dataclasses.replace(base, **{f.name: _another_value(f.name, getattr(base, f.name))})
        for key, value in _component_settings(cfg).items():
            if value != before[key]:
                reached.setdefault(key[:2], set()).add(f.name)
    unreached = {key[:2] for key in before if key[1] not in ("seed", "kind")} - set(reached)
    assert not unreached, f"component fields no config field sets: {sorted(unreached)}"
    assert reached[("AugmentPolicy", "alpha")] == {"cutmix_alpha", "mixup_alpha"}


def test_all_is_the_public_names():
    public = {name for name, value in vars(noisecutmix).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(noisecutmix.__all__) == sorted(public)


def test_harness_and_cli_name_no_method():
    # methods are data: both modules read METHODS instead of naming a method
    for module in (harness, cli):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        named = [n.value for n in ast.walk(tree)
                 if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value in METHODS]
        assert named == [], module.__name__


# ---------------------------------------------------------------------------
# training pools and methods
# ---------------------------------------------------------------------------


def test_gen_random_pool_size_counts():
    # ratio 1.0 doubles a 2-class 10-per-class set to 40 before the split
    cfg = tiny_config(n_train_per_class=10, augment_ratio=1.0)
    images, labels, synthetic, provs = build_training_pool("gen_random", cfg, seed=3)
    assert images.shape == (40, 8, 8) and labels.shape == (40, 2)
    assert np.array_equal(synthetic, np.arange(40) >= 20) and len(provs) == 20
    assert all(label.sum() == 1.0 and (label == 1.0).sum() == 1 for label in labels[20:])


def test_noisecutmix_pool_has_soft_labels_and_distinct_pairs():
    cfg = tiny_config()
    _, labels, synthetic, provs = build_training_pool("noisecutmix", cfg, seed=4)
    assert len(provs) == 12
    for prov, label in zip(provs, labels[synthetic], strict=True):
        assert prov.class_a != prov.class_b
        assert abs(label.sum() - 1.0) <= 1e-12


def test_unknown_method_fails_fast():
    cfg = tiny_config()
    with pytest.raises(ValueError, match="unknown method"):
        build_training_pool("fancymix", cfg, seed=0)


def _test_set(cfg):
    return cfg.dataset(99, cfg.n_test_per_class)[1]


def test_method_determinism():
    cfg = tiny_config()
    acc1, *_ = run_method("original", cfg, 11, _test_set(cfg))
    acc2, *_ = run_method("original", cfg, 11, _test_set(cfg))
    assert acc1 == acc2


def test_zero_ratio_noisecutmix_equals_original():
    cfg = tiny_config(augment_ratio=0.0)
    acc_orig, *_ = run_method("original", cfg, 12, _test_set(cfg))
    acc_ncm, *_, provs = run_method("noisecutmix", cfg, 12, _test_set(cfg))
    assert provs == []
    assert acc_orig == acc_ncm


@pytest.mark.parametrize("method", ["gen_random", "noisecutmix"])
def test_ancestral_batch_records_regenerate_bit_exactly(method):
    # each record of a batch draws its step noise from its own stream
    cfg = tiny_config(sampler_kind="ancestral", num_classes=3)
    sched = make_cosine_schedule(cfg.schedule_steps)
    models, _ = cfg.dataset(0, 0)
    images, labels, provs = generate_records(method, cfg, 7, seed=9)
    assert images.shape == (7, 8, 8) and labels.shape == (7, 3)
    for image, label, prov in zip(images, labels, provs, strict=True):
        again_image, again_label = regenerate(prov, sched, models)
        assert np.array_equal(again_image, image)
        assert np.array_equal(again_label, label)


@pytest.mark.parametrize("method", ["gen_random", "noisecutmix"])
def test_an_empty_batch_is_rejected_before_any_draw(method, monkeypatch):
    # np.stack of no labels, or the unpacking of no masks, used to fail instead
    def drew(*args, **kwargs):
        raise AssertionError("an empty batch drew")

    monkeypatch.setattr(samplers, "child_rng", drew)
    monkeypatch.setattr(samplers, "run_reverse", drew)
    for count in (0, -1):
        with pytest.raises(ValueError, match="at least one record"):
            generate_records(method, tiny_config(), count, seed=9)


def test_only_a_generating_method_generates_records():
    # without the check, a method with no generator ran the mixing generator
    for method in ("original", "cutmix", "mixup", "fancymix"):
        with pytest.raises(ValueError, match=f"method {method!r} does not generate records"):
            generate_records(method, tiny_config(), 2, seed=9)


def test_trial_seeds_differ_by_method_and_index():
    seeds = {trial_seed(0, m, i) for m in METHODS for i in range(3)}
    assert len(seeds) == len(METHODS) * 3


# ---------------------------------------------------------------------------
# experiment runs and artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def experiment_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = tiny_config(methods=["original", "gen_random", "noisecutmix"])
    table = run_experiment(cfg, out)
    return out, cfg, table


def test_experiment_writes_table_and_sidecars(experiment_dir):
    out, cfg, table = experiment_dir
    assert (out / "results.tsv").exists()
    assert (out / "config.json").exists()
    assert len(table.rows) == 3
    for method in ("gen_random", "noisecutmix"):
        for i in range(cfg.trials):
            assert (out / f"{method}_t{i}.records").exists()
            assert (out / f"{method}_t{i}.prov").exists()
        assert (out / f"{method}_montage.pgm").exists()


def test_experiment_aggregates_recomputable(experiment_dir):
    out, _, table = experiment_dir
    parsed = parse_result_table((out / "results.tsv").read_text())
    for row, stored in zip(table.rows, parsed.rows):
        assert abs(np.mean(row.accuracies) - row.mean) <= 1e-12
        assert abs(np.std(row.accuracies, ddof=1) - row.std) <= 1e-12
        assert stored.method == row.method


def test_experiment_provenance_regenerates_bit_exactly(experiment_dir):
    # every stored record, image and label, from its provenance line alone
    out, cfg, _ = experiment_dir
    sched = make_cosine_schedule(cfg.schedule_steps)
    models, _ = cfg.dataset(0, 0)
    for stem in ("noisecutmix_t0", "gen_random_t0"):
        images, labels = read_records(out / f"{stem}.records")
        provs = read_provenance(out / f"{stem}.prov")
        assert len(provs) == len(images) > 0
        for image, label, prov in zip(images, labels, provs, strict=True):
            again_image, again_label = regenerate(prov, sched, models)
            assert np.array_equal(again_image, image), (stem, prov)
            assert np.array_equal(again_label, label), (stem, prov)


def test_experiment_byte_identical_rerun(tmp_path):
    cfg = tiny_config(methods=["original", "noisecutmix"], trials=1)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_a)
    run_experiment(cfg, out_b)
    files_a = sorted(p.name for p in out_a.iterdir())
    assert files_a == sorted(p.name for p in out_b.iterdir())
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_an_integer_for_a_float_field_writes_the_floats_bytes(tmp_path):
    # stored as given, a JSON 1 reached config.json as 1 and ended every .prov line
    # as alpha 1, and a guidance of 7 did the same to the guidance column
    ints = dict(noisemix_alpha=1, guidance_scale=7, bump_sigma=2, augment_ratio=1, cutmix_alpha=1)
    cfg = tiny_config(methods=["gen_random", "noisecutmix"], trials=1, **ints)
    floats = tiny_config(methods=["gen_random", "noisecutmix"], trials=1,
                         **{k: float(v) for k, v in ints.items()})
    assert all(type(getattr(cfg, f.name)) is float for f in dataclasses.fields(cfg) if f.type == "float")
    run_experiment(cfg, tmp_path / "ints")
    run_experiment(floats, tmp_path / "floats")
    written = [{p.name: p.read_bytes() for p in sorted((tmp_path / d).iterdir())} for d in ("ints", "floats")]
    assert written[0] == written[1]
    assert "noisecutmix_t0.prov" in written[0]


def test_single_trial_std_convention(tmp_path):
    cfg = tiny_config(methods=["original"], trials=1)
    table = run_experiment(cfg, tmp_path / "one")
    assert table.rows[0].std == 0.0
    text = (tmp_path / "one" / "results.tsv").read_text()
    assert "single trial" in text


def test_interrupted_rerun_leaves_no_results_table(tmp_path, monkeypatch):
    out = tmp_path / "exp"
    cfg = tiny_config(methods=["original"], trials=1)
    run_experiment(cfg, out)
    assert (out / "results.tsv").exists()

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "run_method", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(cfg, out)
    assert not (out / "results.tsv").exists()
    assert sorted(p.name for p in out.iterdir()) == ["config.json"]


def test_rerun_into_one_directory_leaves_only_its_own_artifacts(tmp_path):
    out = tmp_path / "exp"
    run_experiment(tiny_config(methods=["gen_random"], trials=1), out)
    assert (out / "gen_random_t0.records").exists()
    (out / "notes.txt").write_text("not an artifact")
    run_experiment(tiny_config(methods=["original"], trials=1), out)
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "notes.txt", "results.tsv"]
    assert (out / "notes.txt").read_text() == "not an artifact"


def test_experiment_fails_fast_on_unwritable_dir(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a dir")
    cfg = tiny_config(methods=["original"], trials=1)
    with pytest.raises(OSError):
        run_experiment(cfg, blocker / "sub")


def test_result_table_format_round_trip():
    from noisecutmix.harness import ResultRow, ResultTable

    table = ResultTable(
        rows=[ResultRow("original", [0.5, 0.625]), ResultRow("noisecutmix", [0.75, 0.8125])],
    )
    assert table.trials == 2
    parsed = parse_result_table(format_result_table(table))
    assert [r.method for r in parsed.rows] == ["original", "noisecutmix"]
    assert parsed.rows[1].accuracies == [0.75, 0.8125]


# ---------------------------------------------------------------------------
# montage rendering
# ---------------------------------------------------------------------------


def test_montage_single_record_layout(tmp_path):
    sched = make_cosine_schedule(60)
    from noisecutmix import SamplerConfig, generate_batch, make_bump_dataset

    models, _ = make_bump_dataset(2, 8, 8, 1.5, 0.25, seed=0, n_per_class=0)
    images, _, provs = generate_batch([0], None, SamplerConfig(num_inference_steps=6), sched,
                                      models, [0])
    path = tmp_path / "one.pgm"
    export_grid(images, provs, path)
    pixels, comments = read_pgm(path)
    # image tile + 1px separator + mask tile
    assert pixels.shape == (8, 17)
    mask_tile = pixels[:, 9:]
    assert set(np.unique(mask_tile)) == {255}  # all-ones mask renders uniform white
    assert any("image map" in c for c in comments)


def test_montage_layout_arithmetic(tmp_path):
    sched = make_cosine_schedule(60)
    from noisecutmix import SamplerConfig, generate_batch, make_bump_dataset, mask_from_rect

    models, _ = make_bump_dataset(2, 8, 8, 1.5, 0.25, seed=0, n_per_class=0)
    cfg = SamplerConfig(num_inference_steps=6)
    images, _, provs = generate_batch([0] * 4, [1] * 4, cfg, sched, models, list(range(4)), 1.0)
    path = tmp_path / "four.pgm"
    export_grid(images, provs, path)
    pixels, _ = read_pgm(path)
    n, h, w = 4, 8, 8
    assert pixels.shape == (n * h + (n - 1), 2 * w + 1)
    # mask tiles carry at most the two mask gray levels
    for i, prov in enumerate(provs):
        tile = pixels[i * (h + 1) : i * (h + 1) + h, w + 1 :]
        assert set(np.unique(tile)) <= {0, 255}
        assert np.array_equal(tile == 255, mask_from_rect(w, h, prov.rect).astype(bool))


def test_montage_maps_constant_images_to_black_tiles(tmp_path):
    # a zero span has no affine map onto 0..255; dividing by it would warn and cast NaN
    cfg = tiny_config()
    _, _, provs = generate_records("noisecutmix", cfg, 2, seed=0)
    path = tmp_path / "flat.pgm"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        export_grid(np.full((2, 8, 8), 0.75), provs, path)
    pixels, comments = read_pgm(path)
    assert comments[0] == "image map: lo=0.75 hi=0.75 -> 0..255"
    for i in range(2):
        assert not pixels[i * 9 : i * 9 + 8, :8].any()


def test_montage_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        export_grid(np.empty((0, 4, 4)), [], tmp_path / "never.pgm")
    cfg = tiny_config()
    images, _, provs = generate_records("gen_random", cfg, 2, seed=0)
    with pytest.raises(ValueError, match="one provenance per image"):
        export_grid(images, provs[:1], tmp_path / "never.pgm")
    assert not (tmp_path / "never.pgm").exists()
