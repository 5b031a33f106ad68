"""The repository's benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/`` and nowhere else, so a directory without the source
exits non-zero before printing a result.

With ``--trace 0`` the run measures set-up in separate processes, then
repeats the workload's timed call until ``--seconds`` have passed and
reports the medians of set-up, wall and CPU time, each scaled to a
nominal machine speed by a short fixed computation timed around set-up
and during every repetition.
With ``--trace 1`` it alternates untraced and traced repetitions and
reports the per-layer metrics from the traced ones, plus the tracing
overhead between the two.
Every repetition's outputs are checked; a failed check or a non-zero exit
counts as a failed operation. All repetitions of one run use the same
inputs, so their output bytes must agree, traced or not.

The metric names and units are read from BENCHMARK.json. The second to
last line of stdout is a JSON record of the environment and the sha256 of
every output; the last line is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, targets
from workloads import WORKLOADS, nullspan

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 11
SETUP_PROBE_TICKS = 5
PROBE_INTERVAL_S = 0.2
MODULES = ("augment", "classifier", "cli", "config", "harness", "mixing", "recordio", "samplers")
# units of per-layer values that are pure functions of the inputs and so must repeat exactly
EXACT_UNITS = ("count", "bytes", "ratio")


def load_package() -> dict:
    init = SRC / "noisecutmix" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: no package source at {init}")
    sys.path.insert(0, str(SRC))
    import noisecutmix

    if Path(noisecutmix.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported noisecutmix from {noisecutmix.__file__}, not {init}")
    pkg = {m: importlib.import_module(f"noisecutmix.{m}") for m in MODULES}
    pkg["api"] = noisecutmix
    return pkg


class Tally:
    """Operations attempted and failed; failures are named on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: FAILED {name}", file=sys.stderr)


def run_rep(workload, out: Path, tally: Tally, expected: dict, tracer: Tracer | None = None,
            probe: SpeedProbe | None = None):
    """One timed call plus its checks; returns (wall s, cpu s, output digest).

    With a ``probe``, the probe's own time is taken out of wall and CPU time.
    """
    span = tracer.span if tracer else nullspan
    with probe or contextlib.nullcontext():
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = workload.run(out, span)
        except Exception:
            traceback.print_exc()
            result = None
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if probe:
        wall -= sum(probe.walls)
        cpu -= sum(probe.cpus)
    try:
        checks = workload.check(out, result, span) if result is not None else [("run", False)]
        digest = workload.digest(out, result) if result is not None else {}
    except Exception:
        traceback.print_exc()
        checks, digest = [("check", False)], {}
    for name, ok in checks:
        tally.add(name, ok)
    if expected:
        tally.add("outputs_repeat_bytes", digest == expected)
    shutil.rmtree(out, ignore_errors=True)
    return wall, cpu, digest


class SpeedProbe:
    """Times a short fixed computation of the workload's kind once before a
    repetition and then every ``PROBE_INTERVAL_S`` while it runs; ``walls``
    and ``cpus`` hold the runs during the repetition.

    The computation runs from a SIGALRM handler, so between two bytecodes of
    the program in the program's own thread; it shares no state with the
    program, and ``run_rep`` takes its time out of the repetition's. Its mean
    time is the machine's speed during that very repetition.
    """

    def __init__(self, work):
        self.work = work
        self.walls: list = []
        self.cpus: list = []

    def tick(self, *_):
        t0, c0 = time.perf_counter(), time.process_time()
        self.work()
        self.walls.append(time.perf_counter() - t0)
        self.cpus.append(time.process_time() - c0)

    def sample(self, n: int) -> float:
        """Mean time of ``n`` computations run back to back now."""
        self.walls, self.cpus = [], []
        for _ in range(n):
            self.tick()
        return statistics.fmean(self.walls)

    def mean_s(self) -> float:
        """Mean time of the computation over the last repetition, the run before it included."""
        return statistics.fmean([self.lead, *self.walls])

    def __enter__(self):
        self.lead = self.sample(1)
        self.walls, self.cpus = [], []
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def measure_untraced(workload, seconds: float, work: Path, tally: Tally):
    """Set-up, wall and CPU medians, scaled to a nominal machine speed.

    Every set-up probe and every repetition is multiplied by ``probe_s`` over
    the mean time of the workload's speed probe measured around it (between
    set-up processes) or during it (repetitions). A shared machine's slow and
    fast phases, which last from under a second to minutes, so cancel within
    each repetition instead of shifting whole runs.
    """
    probe = SpeedProbe(workload.probe)
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(SRC), str(workload.cfg_path)]
    setup = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        tally.add("setup_probe", proc.returncode == 0)
        setup.append((wall, probe.sample(SETUP_PROBE_TICKS)))
    workload.prepare()
    reps, expected = [], {}
    deadline = time.perf_counter() + seconds
    # stop when the next repetition would more likely end after the deadline than before it
    while not reps or time.perf_counter() + reps[-1][0] / 2 < deadline:
        wall, cpu, digest = run_rep(workload, work / f"rep{len(reps)}", tally, expected, probe=probe)
        expected = expected or digest
        reps.append((wall, cpu, probe.mean_s(), len(probe.walls)))
    nominal = workload.probe_s
    values = {
        "setup_s": statistics.median(w * nominal / p for w, p in setup),
        "wall_s": statistics.median(w * nominal / p for w, _, p, _ in reps),
        "cpu_s": statistics.median(c * nominal / p for _, c, p, _ in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": [w for w, _ in setup], "setup_probe_s": [p for _, p in setup],
               "wall_s": [r[0] for r in reps], "cpu_s": [r[1] for r in reps],
               "probe_s": [r[2] for r in reps], "probe_ticks": [r[3] for r in reps]}
    return values, expected, samples


def layer_values(summary: dict, wall: float) -> dict:
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "attrs": []}

    def s(name):
        return summary.get(name, empty)

    def per_call(name, scale):
        x = s(name)
        return x["total_s"] / x["calls"] * scale if x["calls"] else 0.0

    mix, cond = "classmodels.predict_noise.mixture", "classmodels.predict_noise.cond"
    gen, train, policy = s("samplers.generate"), s("classifier.train"), s("augment.apply_policy")
    epochs = sum(a["epochs"] for a in train["attrs"])
    useful = [(a["best_epoch"] + 1) / a["epochs"] for a in train["attrs"] if a["epochs"]]
    methods = s("harness.run_method")
    return {
        "classmodels.predict_noise.mixture_us": per_call(mix, 1e6),
        "classmodels.predict_noise.mixture_calls": s(mix)["calls"],
        "classmodels.predict_noise.cond_us": per_call(cond, 1e6),
        "classmodels.predict_noise.cond_calls": s(cond)["calls"],
        "samplers.generate.ms_per_record": per_call("samplers.generate", 1e3),
        "samplers.generate.records": gen["calls"],
        "samplers.generate.self_s": gen["self_s"],
        "samplers.generate.share": gen["total_s"] / wall,
        "samplers.step_dpm_pp_2m.us_per_call": per_call("samplers.step_dpm_pp_2m", 1e6),
        "samplers.step_dpm_pp_2m.calls": s("samplers.step_dpm_pp_2m")["calls"],
        "samplers.step_ancestral.us_per_call": per_call("samplers.step_ancestral", 1e6),
        "samplers.step_ancestral.calls": s("samplers.step_ancestral")["calls"],
        "samplers.sample_batch.s": s("samplers.sample_batch")["total_s"],
        "mixing.sample_mask.us_per_call": per_call("mixing.sample_mask", 1e6),
        "mixing.sample_mask.calls": s("mixing.sample_mask")["calls"],
        "mixing.sample_lambda.us_per_call": per_call("mixing.sample_lambda", 1e6),
        "mixing.sample_lambda.calls": s("mixing.sample_lambda")["calls"],
        "augment.apply_policy.ms_per_call": per_call("augment.apply_policy", 1e3),
        "augment.apply_policy.calls": policy["calls"],
        "augment.apply_policy.fired_ratio": (
            sum(a["fired"] for a in policy["attrs"]) / policy["calls"] if policy["calls"] else 0.0
        ),
        "classifier.train.ms_per_epoch": train["total_s"] / epochs * 1e3 if epochs else 0.0,
        "classifier.train.epochs": epochs,
        "classifier.train.self_s": train["self_s"],
        "classifier.train.share": train["total_s"] / wall,
        "classifier.evaluate.us_per_call": per_call("classifier.evaluate", 1e6),
        "classifier.evaluate.calls": s("classifier.evaluate")["calls"],
        "classifier.useful_epoch_ratio": statistics.fmean(useful) if useful else 0.0,
        "recordio.write.bytes": sum(a["bytes"] for a in s("recordio.write")["attrs"]),
        "recordio.write.s": s("recordio.write")["total_s"],
        "recordio.read.s": s("recordio.read")["total_s"],
        "harness.run_method.p50_s": statistics.median(methods["durations"]) if methods["durations"] else 0.0,
        "harness.self_s": s("harness.experiment")["self_s"] + methods["self_s"],
    }


def measure_traced(workload, seconds: float, work: Path, tally: Tally, pkg: dict, units: dict):
    """Alternate untraced and traced repetitions; per-layer values are medians over the traced ones."""
    workload.prepare()
    plain, traced, layers, expected = [], [], [], {}
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() + (plain[-1] + traced[-1]) / 2 < deadline:
        wall, _, digest = run_rep(workload, work / f"plain{len(plain)}", tally, expected)
        expected = expected or digest
        plain.append(wall)
        tracer = Tracer()
        tracer.install(targets(pkg))
        try:
            wall, _, _ = run_rep(workload, work / f"traced{len(traced)}", tally, expected, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        layers.append(layer_values(tracer.summary(), wall))
    values = {}
    for name in layers[0]:
        samples = [lv[name] for lv in layers]
        if units.get(name) in EXACT_UNITS:
            tally.add(f"{name}_repeats", len(set(samples)) == 1)
            values[name] = samples[0]
        else:
            values[name] = statistics.median(samples)
    values["trace.untraced_wall_s"] = statistics.median(plain)
    values["trace.traced_wall_s"] = statistics.median(traced)
    values["trace.overhead"] = values["trace.traced_wall_s"] / values["trace.untraced_wall_s"] - 1.0
    return values, expected, {"untraced_wall_s": plain, "traced_wall_s": traced}


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {
        "git_sha": git_sha(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "process_threads": threads,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="ascii").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pkg = load_package()
    work = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    try:
        workload = WORKLOADS[args.workload](pkg, args.seed, work)
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values, digest, samples = measure_traced(workload, args.seconds, work, tally, pkg, units)
        else:
            values, digest, samples = measure_untraced(workload, args.seconds, work, tally)
            values["success_ratio"] = 1.0 - tally.failed / tally.attempted
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported}
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment(), "samples": samples, "outputs_sha256": digest}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
