"""run_experiment's (method, trial) units on a forked process pool.

A run takes the pool only when its work estimate reaches
harness._POOL_MIN_WORK, so these tests lower the cut to force the pool on
a tiny config and raise it out of reach for the serial run they compare
with. Each unit is logged by a wrapped run_method, which reaches the
workers through fork: the log names the units that started and the
process that ran each.
"""

import concurrent.futures
import itertools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from noisecutmix import ExperimentConfig, NumericalDivergence, classifier, harness, samplers
from noisecutmix.cli import main

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")

SRC = Path(__file__).resolve().parent.parent / "src"

TINY = dict(
    num_classes=2, width=8, height=8, bump_sigma=1.5, noise_var=0.4, n_train_per_class=6,
    n_test_per_class=8, schedule_steps=60, num_inference_steps=6, epochs=3, hidden_units=8,
    master_seed=3,
)
REAL_RUN_METHOD = harness.run_method
# how long each unit after the failing one takes: long enough that the parent
# cancels the units not yet handed to a worker before any worker is free
SLOW_UNIT_S = 0.3


def log_units(monkeypatch, log: Path, fail=None, exc=None):
    """Wrap run_method so each unit touches log/<method>_t<trial>.<pid> as it
    starts; the unit fail raises exc, if given, and the units after it run slowly."""
    log.mkdir()

    def logged(method, cfg, seed, test_set):
        units = [(m, i) for m in cfg.methods for i in range(cfg.trials)]
        unit = next(u for u in units if harness.trial_seed(cfg.master_seed, *u) == seed)
        (log / f"{unit[0]}_t{unit[1]}.{os.getpid()}").touch()
        if unit == fail and exc is not None:
            raise exc(f"unit {unit} failed")
        if fail is not None and units.index(unit) > units.index(fail):
            time.sleep(SLOW_UNIT_S)
        return REAL_RUN_METHOD(method, cfg, seed, test_set)

    monkeypatch.setattr(harness, "run_method", logged)


def experiment(tmp_path, monkeypatch, name, raw, pooled):
    """Run the CLI on raw with the pool forced on or off; (exit code or the
    exception's type, output dir, {unit: pid that ran it})."""
    monkeypatch.setattr(harness, "_POOL_MIN_WORK", 0 if pooled else 1 << 62)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / name
    try:
        result = main(["experiment", "--config", str(cfg_path), "--out", str(out)])
    except KeyboardInterrupt as exc:
        result = type(exc)
    log = tmp_path / f"{name}_log"
    started = {p.stem: int(p.suffix[1:]) for p in log.iterdir()} if log.is_dir() else {}
    return result, out, started


def files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("sampler", ["dpm_solver_pp_2m", "ancestral"])
def test_pooled_run_writes_the_serial_runs_bytes(tmp_path, monkeypatch, sampler):
    raw = {**TINY, "sampler_kind": sampler, "methods": ["original", "gen_random", "noisecutmix"], "trials": 2}
    code, serial, _ = experiment(tmp_path, monkeypatch, "serial", raw, pooled=False)
    assert code == 0
    log_units(monkeypatch, tmp_path / "pooled_log")
    code, pooled, started = experiment(tmp_path, monkeypatch, "pooled", raw, pooled=True)
    assert code == 0
    assert len(started) == 6 and os.getpid() not in started.values()
    assert multiprocessing.active_children() == []
    assert files(pooled) == files(serial)
    assert {"results.tsv", "noisecutmix_t1.records", "gen_random_montage.pgm"} <= set(files(pooled))


def test_pooled_workers_run_their_sampler_blocks_on_their_own_thread(tmp_path, monkeypatch):
    # each unit's 12 generated 8x8 records run as 3 DPM blocks of 4 rows; the
    # serial run counts 2 CPUs and gives them 2 threads, a worker, a multiprocessing
    # child, counts one whatever its inherited affinity set: its own thread alone
    monkeypatch.setattr(samplers, "_BLOCK_VALUES", 5 * 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    blocks = tmp_path / "blocks"
    blocks.mkdir()
    real = samplers.guided_eps_fn
    calls = itertools.count()

    def logged(*args):
        eps_fn, steps = real(*args), []

        def logged_eps_fn(x, t, **kwargs):
            if not steps:  # a block's first estimate
                (blocks / f"{os.getpid()}.{next(calls)}.{len(x)}").touch()
            steps.append(t)
            return eps_fn(x, t, **kwargs)

        return logged_eps_fn

    monkeypatch.setattr(samplers, "guided_eps_fn", logged)
    raw = {**TINY, "methods": ["original", "gen_random", "noisecutmix"], "trials": 2}
    code, serial, _ = experiment(tmp_path, monkeypatch, "serial", raw, pooled=False)
    assert code == 0
    serial_blocks = sorted(p.name for p in blocks.iterdir())
    assert len(serial_blocks) == 12 and {name.split(".")[0] for name in serial_blocks} == {str(os.getpid())}

    def no_threads(*args, **kwargs):
        raise AssertionError("a sampler block thread started in a worker")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_threads)
    for p in blocks.iterdir():
        p.unlink()
    code, pooled, _ = experiment(tmp_path, monkeypatch, "pooled", raw, pooled=True)
    assert code == 0
    assert files(pooled) == files(serial)
    pooled_blocks = [p.name.split(".") for p in blocks.iterdir()]
    assert len(pooled_blocks) == 12 and {rows for _, _, rows in pooled_blocks} == {"4"}
    assert str(os.getpid()) not in {pid for pid, _, _ in pooled_blocks}


def in_fork_child(target):
    """(exit code, pid) of a fork-context multiprocessing child that runs target();
    a child still running after a minute is killed and reads as a failure."""
    child = multiprocessing.get_context("fork").Process(target=target)
    child.start()
    child.join(60)
    if child.exitcode is None:
        child.kill()
        child.join(10)
        return None, child.pid
    return child.exitcode, child.pid


def test_a_multiprocessing_child_runs_its_dpm_blocks_on_its_own_thread(tmp_path, monkeypatch):
    # 12 records of 8x8 in 3 blocks of 4 rows: this process counts 2 CPUs and runs
    # the blocks on 2 threads; a forked child counts one, so it starts no thread
    monkeypatch.setattr(samplers, "_BLOCK_VALUES", 4 * 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = ExperimentConfig(**TINY)
    models, sched = cfg.dataset(0, 0)[0], cfg.schedule()
    sampler_cfg = samplers.SamplerConfig("dpm_solver_pp_2m", 5, 7.5)

    def call():
        return samplers.run_reverse(1, None, None, sampler_cfg, sched, models, samplers.child_rng(7, 1), 12)

    pools, real_pool = [], concurrent.futures.ThreadPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda threads: pools.append(threads) or real_pool(threads))
    here = call()
    assert pools == [2]

    def no_threads(*args, **kwargs):
        raise AssertionError("a sampler block thread started in a multiprocessing child")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_threads)
    out = tmp_path / "child.bytes"
    code, _ = in_fork_child(lambda: out.write_bytes(call().tobytes()))
    assert code == 0
    assert out.read_bytes() == here.tobytes()


def test_a_run_inside_a_multiprocessing_child_runs_its_units_there(tmp_path, monkeypatch):
    # the pool forced on, this process would fork 2 workers; a child counts one CPU,
    # so it runs every unit itself and forks no nested pool
    raw = {**TINY, "methods": ["original", "gen_random", "noisecutmix"], "trials": 2}
    code, serial, _ = experiment(tmp_path, monkeypatch, "serial", raw, pooled=False)
    assert code == 0
    monkeypatch.setattr(harness, "_POOL_MIN_WORK", 0)
    monkeypatch.setattr(harness, "_usable_cpus", samplers._usable_cpus)  # the rule, not experiment's 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert harness._usable_cpus() == 2
    log_units(monkeypatch, tmp_path / "child_log")

    def run():
        def no_fork():
            raise AssertionError("a multiprocessing child forked a nested pool")

        os.fork = no_fork  # in the child only, which exits without restoring it
        harness.run_experiment(ExperimentConfig(**raw), tmp_path / "child")

    code, pid = in_fork_child(run)
    assert code == 0
    started = {p.stem: int(p.suffix[1:]) for p in (tmp_path / "child_log").iterdir()}
    assert len(started) == 6 and set(started.values()) == {pid}
    assert files(tmp_path / "child") == files(serial)


def test_pooled_workers_inherit_one_blas_thread_and_start_none(tmp_path, monkeypatch, blas_threads):
    # OpenBLAS stops its threads at a fork, and a worker that set its count, even
    # to 1, started one again, to spin beside the units: 2 threads per worker
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc to count a worker's threads")
    log = tmp_path / "threads"
    log.mkdir()

    def counted(method, cfg, seed, test_set):
        result = REAL_RUN_METHOD(method, cfg, seed, test_set)
        (log / f"{seed}.{len(os.listdir('/proc/self/task'))}").touch()
        return result

    monkeypatch.setattr(harness, "run_method", counted)
    raw = {**TINY, "methods": ["original", "gen_random", "noisecutmix"], "trials": 2}
    code, _, _ = experiment(tmp_path, monkeypatch, "pooled", raw, pooled=True)
    assert code == 0
    assert sorted(p.suffix for p in log.iterdir()) == [".1"] * 6


def test_a_pooled_run_leaves_the_caller_on_one_blas_thread(tmp_path, monkeypatch, blas_threads):
    raw = {**TINY, "methods": ["original", "gen_random"], "trials": 2}
    code, _, _ = experiment(tmp_path, monkeypatch, "pooled", raw, pooled=True)
    assert code == 0
    # set before the fork and left there: a restore would restart the threads here
    assert blas_threads() == 1


def test_a_serial_run_leaves_the_caller_on_one_blas_thread(tmp_path, monkeypatch, blas_threads):
    raw = {**TINY, "methods": ["original", "gen_random"]}
    assert blas_threads() == 2
    code, _, _ = experiment(tmp_path, monkeypatch, "serial", raw, pooled=False)
    assert code == 0
    # left where its train and evaluate put it, as a pooled run leaves it
    assert blas_threads() == 1


def test_a_pooled_run_without_openblas_writes_the_serial_runs_bytes(tmp_path, monkeypatch):
    raw = {**TINY, "methods": ["original", "gen_random", "noisecutmix"], "trials": 2}
    code, serial, _ = experiment(tmp_path, monkeypatch, "serial", raw, pooled=False)
    assert code == 0
    # reaches the workers through fork, like a numpy whose BLAS is not OpenBLAS
    monkeypatch.setattr(classifier, "_openblas_threads", lambda: None)
    code, pooled, _ = experiment(tmp_path, monkeypatch, "pooled", raw, pooled=True)
    assert code == 0
    assert files(pooled) == files(serial)


@pytest.mark.parametrize("where, exc, expected", [
    ("worker", NumericalDivergence, 4),
    ("worker", KeyboardInterrupt, KeyboardInterrupt),
    # the parent's write of the failing unit's records
    ("parent", OSError, 3),
])
def test_a_failing_unit_fails_a_pooled_run_like_a_serial_one(tmp_path, monkeypatch, where, exc, expected):
    raw = {**TINY, "methods": ["gen_random", "noisecutmix"], "trials": 6}
    fail = ("gen_random", 2)
    if where == "parent":
        real_write = harness.write_records

        def write_records(path, *args):
            if Path(path).stem == "gen_random_t2":
                raise exc("disk full")
            return real_write(path, *args)

        monkeypatch.setattr(harness, "write_records", write_records)
    worker_exc = exc if where == "worker" else None
    log_units(monkeypatch, tmp_path / "serial_log", fail, worker_exc)
    code, serial, _ = experiment(tmp_path, monkeypatch, "serial", raw, pooled=False)
    assert code == expected
    log_units(monkeypatch, tmp_path / "pooled_log", fail, worker_exc)
    code, pooled, started = experiment(tmp_path, monkeypatch, "pooled", raw, pooled=True)
    assert code == expected
    assert os.getpid() not in started.values()
    # after the failing unit 2, the 2 workers start units 3 and 4; the 3 units
    # queued for them are skipped and the parent cancels the rest
    assert not {"gen_random_t5", *(f"noisecutmix_t{i}" for i in range(6))} & set(started), sorted(started)
    assert multiprocessing.active_children() == []
    assert "results.tsv" not in files(pooled)
    # the units before the failing one, as the serial run wrote them
    assert files(pooled) == files(serial)
    assert {"gen_random_t1.records", "gen_random_t1.prov", "gen_random_montage.pgm"} <= set(files(pooled))


def test_work_estimate_takes_the_pool_for_the_defaults_only():
    assert harness._work_estimate(ExperimentConfig()) >= harness._POOL_MIN_WORK
    # a tiny config, as the bench contract's experiment and most tests run it
    tiny = ExperimentConfig(**TINY, methods=["original", "cutmix", "gen_random", "noisecutmix"], trials=2)
    assert harness._work_estimate(tiny) < harness._POOL_MIN_WORK


def test_importing_the_package_loads_no_process_pool():
    probe = ("import sys, noisecutmix, noisecutmix.cli; "
             "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_a_serial_run_and_a_one_block_call_load_no_process_pool(tmp_path):
    # both count CPUs, and telling a multiprocessing child imports nothing
    probe = ("import json, sys\n"
             "from noisecutmix import ExperimentConfig, run_experiment, samplers\n"
             "cfg = ExperimentConfig(**json.loads(sys.argv[1]))\n"
             "run_experiment(cfg, sys.argv[2])\n"
             "samplers.sample_single_batch(0, cfg.sampler_config(), cfg.schedule(), cfg.dataset(0, 0)[0], 1, 4)\n"
             "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    raw = {**TINY, "methods": ["original", "gen_random"], "trials": 1}
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(raw), str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    assert (tmp_path / "out" / "gen_random_t0.records").exists()


# a pooled run whose units log their worker's pid and take SLOW_UNIT_S each
INTERRUPTED_RUN = """
import os, sys, time
from noisecutmix import harness
from noisecutmix.cli import main

real = harness.run_method
def slow(method, cfg, seed, test_set):
    open(os.path.join(sys.argv[1], f"start.{seed}.{os.getpid()}"), "w").close()
    time.sleep(%r)
    result = real(method, cfg, seed, test_set)
    open(os.path.join(sys.argv[1], f"end.{seed}.{os.getpid()}"), "w").close()
    return result

harness.run_method = slow
harness._POOL_MIN_WORK = 0
harness._usable_cpus = lambda: 2
sys.exit(main(["experiment", "--config", sys.argv[2], "--out", sys.argv[3]]))
""" % SLOW_UNIT_S


def test_ctrl_c_stops_a_pooled_run_and_its_workers(tmp_path):
    log, out, cfg_path = tmp_path / "log", tmp_path / "out", tmp_path / "cfg.json"
    log.mkdir()
    cfg_path.write_text(json.dumps({**TINY, "methods": ["gen_random", "noisecutmix"], "trials": 6}))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    # a session of its own, so the signal reaches the run and its workers as a
    # terminal's Ctrl-C reaches its foreground group, and nothing else
    run = subprocess.Popen([sys.executable, "-c", INTERRUPTED_RUN, str(log), str(cfg_path), str(out)],
                           env=env, start_new_session=True, stderr=subprocess.PIPE)
    deadline = time.monotonic() + 60
    while len(list(log.glob("start.*"))) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    os.killpg(run.pid, signal.SIGINT)
    _, err = run.communicate(timeout=60)
    assert run.returncode == -signal.SIGINT, err.decode()
    # the parent's traceback alone: the workers ignore the signal
    assert err.count(b"Traceback (most recent call last)") == 1, err.decode()
    assert b"KeyboardInterrupt" in err
    started = {p.name[len("start."):] for p in log.glob("start.*")}
    # the parent owns the interrupt: the workers finish the 2 units they run, then
    # skip the 3 queued for them (5 would start without the skip)
    assert {p.name[len("end."):] for p in log.glob("end.*")} == started
    assert 2 <= len(started) <= 4
    for pid in {int(name.split(".")[1]) for name in started}:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert not (out / "results.tsv").exists()
