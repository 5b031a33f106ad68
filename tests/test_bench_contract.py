"""The benchmark's use of the package, at small sizes.

bench/ reaches into the package by name: its workloads call the public
API and the CLI, and its tracer wraps functions in the modules that call
them. A name the benchmark uses that the package drops would otherwise
show only as failed benchmark operations or per-layer metrics that read
zero; here it fails a test. The bench files are imported as they are.
"""

import importlib.util
import inspect
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str, as_name: str):
    spec = importlib.util.spec_from_file_location(as_name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[as_name] = module
    spec.loader.exec_module(module)
    return module


# bench/run.py imports these two by their bare names
workloads = _load("workloads", "workloads")
tracer = _load("tracer", "tracer")
PKG = _load("run", "bench_run").load_package()

# spans the tiny experiment below must record, by the tracer's names
TRACED_SPANS = (
    "classmodels.predict_noise.cond",
    "classmodels.predict_noise.mixture",
    "samplers.step_dpm_pp_2m",
    "mixing.sample_mask",
    "mixing.sample_lambda",
    "augment.apply_policy",
    "classifier.train",
    "classifier.evaluate",
    "harness.run_method",
    "recordio.write",
)


class SmallSampleBatch(workloads.SampleBatch):
    n_stationary = 8
    n_mixed = 8


class TinyExperiment(workloads.CliExperiment):
    config = {
        "num_classes": 2, "width": 8, "height": 8, "bump_sigma": 1.5, "noise_var": 0.4,
        "n_train_per_class": 6, "n_test_per_class": 10, "schedule_steps": 60,
        "num_inference_steps": 6, "epochs": 2, "hidden_units": 8, "trials": 1,
        "methods": ["original", "cutmix", "gen_random", "noisecutmix"],
    }


def test_sample_batch_prepares_and_runs(tmp_path):
    workload = SmallSampleBatch(PKG, 0, tmp_path)
    workload.prepare()
    stationary, mixed = workload.run(tmp_path / "out")
    assert stationary.shape == (8, 8, 8) and mixed.shape == (8, 16, 16)
    assert np.all(np.isfinite(stationary)) and np.all(np.isfinite(mixed))
    assert set(workload.digest(tmp_path / "out", (stationary, mixed))) == {"stationary", "mixed"}


def test_cli_experiment_runs_passes_checks_and_is_traced(tmp_path):
    workload = TinyExperiment(PKG, 0, tmp_path)
    workload.prepare()
    out = tmp_path / "out"
    spans = tracer.Tracer()
    spans.install(tracer.targets(PKG))
    try:
        result = workload.run(out, spans.span)
    finally:
        spans.uninstall()
    checks = workload.check(out, result)
    assert result == 0
    assert [name for name, ok in checks if not ok] == []
    names = {name for name, _ in checks}
    assert {"results_aggregates", "gen_random_t0.records:labels",
            "noisecutmix_t0.records:labels"} <= names
    assert "results.tsv" in workload.digest(out, result)
    summary = spans.summary()
    assert [s for s in TRACED_SPANS if summary.get(s, {"calls": 0})["calls"] == 0] == []


def test_every_traced_name_resolves_to_a_callable_but_the_two_known_stale_ones():
    # the tracer wraps each (module, name) it can find; a renamed function silently reads 0 in
    # its per-layer metric. harness.generate_single and generate_noisecutmix are gone already
    # (samplers.generate.* reads 0), so any further unresolved name fails here
    unresolved = {
        (module.__name__.rpartition(".")[2], attr)
        for module, attr, _ in tracer.targets(PKG)
        if not callable(getattr(module, attr, None))
    }
    assert unresolved == {("harness", "generate_single"), ("harness", "generate_noisecutmix")}


def test_every_harness_writer_takes_the_path_it_writes_first():
    # the tracer wraps each harness.write_* as a recordio.write span and sizes its first
    # argument (or its `path` keyword) as the file written; a writer taking, say, a
    # directory first would change recordio.write.bytes without failing anything else
    harness = PKG["harness"]
    writers = sorted(name for name in vars(harness) if name.startswith("write_"))
    assert writers
    for name in writers:
        first = next(iter(inspect.signature(getattr(harness, name)).parameters.values()))
        assert (first.name, first.kind) == ("path", first.POSITIONAL_OR_KEYWORD), name


def test_sample_batchs_mixed_call_runs_several_dpm_row_blocks(tmp_path, monkeypatch):
    # the workload's guided, masked call is the benchmark's only DPM-Solver++(2M) batch
    # larger than one row block: it measures the block threads and their workspaces
    samplers = PKG["samplers"]
    calls = []

    def recorded(class_a, class_b, keep_a, cfg, sched, models, rng, n):
        grid = samplers.class_family(models).means.shape[1:]
        calls.append((cfg.kind, n, grid))
        return np.zeros((n,) + grid)

    monkeypatch.setattr(samplers, "run_reverse", recorded)
    workload = workloads.SampleBatch(PKG, 0, tmp_path)
    workload.prepare()
    workload.run(tmp_path / "out")
    dpm = [(n, grid) for kind, n, grid in calls if kind == samplers.DPM_PP_2M]
    assert len(calls) == 2 and len(dpm) == 1
    assert samplers._row_blocks(*dpm[0]) > 1


class _StopDrawing(Exception):
    pass


def test_sample_batchs_ancestral_call_draws_ahead_into_a_bounded_ring(tmp_path, monkeypatch):
    # the workload's 1000-step ancestral call is the benchmark's only run of the draw-ahead
    # ring: its step draws go to the worker thread, into at least two and at most
    # _DRAW_AHEAD_BYTES of buffers. The first 40 step draws cycle through a ring of up to 40
    # buffers; the 41st stops the call.
    samplers = PKG["samplers"]
    caller, draws = threading.get_ident(), []
    real_child_rng = samplers.child_rng

    class Recording:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, shape, out=None):
            if out is not None:
                draws.append((threading.get_ident(), out.ctypes.data, out.nbytes))
                if len(draws) > 40:
                    raise _StopDrawing
            return self.rng.standard_normal(shape, out=out)

    monkeypatch.setattr(samplers, "child_rng", lambda *args: Recording(real_child_rng(*args)))
    workload = workloads.SampleBatch(PKG, 0, tmp_path)
    workload.prepare()
    with pytest.raises(_StopDrawing):
        workload.run(tmp_path / "out")
    ring = {(data, nbytes) for _, data, nbytes in draws}
    assert len(draws) > 40 and caller not in {thread for thread, _, _ in draws}
    assert len(ring) >= 2
    assert sum(nbytes for _, nbytes in ring) <= samplers._DRAW_AHEAD_BYTES
