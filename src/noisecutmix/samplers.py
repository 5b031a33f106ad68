"""Reverse-process generation: ancestral DDPM and DPM-Solver++(2M).

One core, run_reverse, integrates a batch over a leading record axis.
A record follows one class condition (random generation) or two whose
guided noise estimates are mixed through a fixed binary mask at every
step (NoiseCutMix), which is the guided estimate of one spliced class
model (classmodels.spliced_family). generate_batch makes records and
their provenance; regenerate and sample_*_batch are thin wrappers.

Every record derives its randomness from an integer seed through two
independent child streams, one for mask/ratio draws and one for the
trajectory, so a record is reproducible bit-exactly from its
provenance, alone or in any batch.

Threads live only inside a run_reverse call, and neither changes a bit
(see run_reverse). DPM-Solver++(2M) runs a batch larger than one row
block as blocks on one thread per usable CPU (_usable_cpus: one in a
multiprocessing child). Every ancestral call starts one worker that
only draws, overlapping the steps' noise draws with their arithmetic.
"""

from __future__ import annotations

import collections
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .classmodels import (
    ClassFamily, ClassModel, _scratch, class_family, predict_noise, spliced_family,
)
from .errors import NumericalDivergence
from .mixing import (
    mask_from_rect, mix_labels, one_hot, realized_lambda, sample_lambda, sample_mask,
)
from .schedule import Schedule, cfg_combine

ANCESTRAL = "ancestral"
DPM_PP_2M = "dpm_solver_pp_2m"
SAMPLER_KINDS = (ANCESTRAL, DPM_PP_2M)

_MASK_STREAM = 0
_TRAJ_STREAM = 1

# The worker may draw this many bytes of noise ahead of the step loop, in
# a ring of at least two buffers and never more than the call draws. With
# two, the threads wait on each other every step, and where the host gives
# the second core only part of the time each wait costs a host reschedule.
# Under such contention the 1000-step call at n=2000 (1 MiB per draw) took
# 4.0-4.2 s serially, 4.0-5.3 s with two buffers and 3.2-3.4 s with eight.
# The ring sets the ancestral call's memory: in one process alternating
# the sample_batch workload's ancestral and guided calls (2-vCPU x86_64
# VM), rings of 3, 4, 5, 6 and 8 MiB peaked at 46.1, 46.2, 46.5, 47.3 and
# 48.9 MB. At 4 MiB and below the guided call sets the peak; 5 MiB keeps
# five draws ahead for 0.3 MB more.
_DRAW_AHEAD_BYTES = 5 << 20
# DPM-Solver++(2M) runs a batch in row blocks of at most this many array
# values, each block through every step on its own working arrays, sized to
# a core's L2 cache: a 2^16-value block's arrays are 512 KiB each, and its
# four (its rows of x and its thread's three workspace arrays) fill the
# 2 MiB of L2 per core of a 2-vCPU x86_64 VM. The sample_batch workload's
# guided, masked 2000x16x16 call on that VM, medians of 9,
# one thread / two: 2^15 values 378 / 316 ms, 2^16 402 / 256 ms, 2^17
# 430 / 270 ms, 2^18 500 / 296 ms, unblocked 522 ms. At 2^13 two threads
# lost to one (795 against 536 ms): the per-step calls contend for the
# interpreter lock.
_BLOCK_VALUES = 1 << 16


def _usable_cpus() -> int:
    """The CPUs this process counts, for the experiment pool and the DPM row blocks: one
    in a multiprocessing child, whose parent's pool shares them, else its affinity set."""
    mp = sys.modules.get("multiprocessing")  # None: never imported, so no child of it
    if mp is not None and mp.parent_process() is not None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


@dataclass
class SamplerConfig:
    kind: str = DPM_PP_2M
    num_inference_steps: int = 25
    guidance_scale: float = 7.5

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.num_inference_steps < 1:
            raise ValueError("num_inference_steps must be >= 1")
        if not 0.0 <= self.guidance_scale < math.inf:
            raise ValueError("guidance_scale must be finite and >= 0")


@dataclass
class Provenance:
    """Everything needed to regenerate a record bit-exactly (given the
    schedule and class models from the experiment config)."""

    method: str
    class_a: int
    class_b: int | None
    lambda_sampled: float | None
    lambda_real: float
    rect: tuple[float, float, float, float] | None
    seed: int
    sampler: str
    steps: int
    guidance: float
    alpha: float | None


def child_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream), stable across runs."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(stream))))


def timestep_grid(num_steps: int, num_inference_steps: int) -> np.ndarray:
    """n+1 step indices from T down to 0, uniformly spaced in t and rounded;
    strictly decreasing, as n <= T puts the unrounded points at least 1 apart."""
    if not (1 <= num_inference_steps <= num_steps):
        raise ValueError(
            f"num_inference_steps must lie in [1, {num_steps}], got {num_inference_steps}"
        )
    return np.round(np.linspace(num_steps, 0, num_inference_steps + 1)).astype(np.int64)


def tweedie_x0(
    x_t: np.ndarray, eps_hat: np.ndarray, t: int, sched: Schedule, out: np.ndarray | None = None
) -> np.ndarray:
    """Data estimate (x_t - sigma_t eps) / a_t, into out if given (which may
    be eps_hat, not x_t)."""
    x0 = np.multiply(sched.noise(t), eps_hat, out=out)
    np.subtract(x_t, x0, out=x0)
    return np.divide(x0, sched.signal(t), out=x0)


def step_ancestral(
    x_t: np.ndarray,
    eps_hat: np.ndarray,
    t_from: int,
    t_to: int,
    sched: Schedule,
    noise: np.ndarray | None,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray:
    """One DDPM posterior step from t_from to t_to (skip steps allowed).

    Returns the posterior mean toward t_to plus posterior-variance
    noise: noise is the step's standard normal draw, of x_t's shape.
    The terminal step t_to = 0 takes noise None, because the posterior
    collapses onto the data estimate there. The step is a pure function
    of its arguments and writes none of them but out, which may be x_t
    or eps_hat, and tmp. The data estimate and then the scaled noise
    share one array: tmp if given, which may be eps_hat (read first) but
    not x_t, out or noise, else one allocated per call. With out and tmp
    given, a step holds x_t, eps_hat, noise and those two, and allocates
    nothing of x_t's size.
    """
    if not (t_from > t_to >= 0):
        raise ValueError(f"need t_from > t_to >= 0, got {t_from} -> {t_to}")
    if t_from > sched.num_steps:
        raise ValueError(f"t_from {t_from} exceeds schedule length {sched.num_steps}")
    if t_to == 0 and noise is not None:
        raise ValueError("the terminal step takes no noise")
    if t_to > 0 and noise is None:
        raise ValueError(f"step {t_from} -> {t_to} needs its noise draw")
    if noise is not None and np.shape(noise) != np.shape(x_t):
        raise ValueError(f"noise of shape {np.shape(noise)} for a state of shape {np.shape(x_t)}")
    ab_t = float(sched.alpha_bar[t_from])
    ab_s = float(sched.alpha_bar[t_to])
    x0 = tweedie_x0(x_t, eps_hat, t_from, sched, out=_scratch(tmp, x_t, x_t, out, noise))
    u = ab_t / ab_s
    coef_x0 = math.sqrt(ab_s) * (1.0 - u) / (1.0 - ab_t)
    coef_xt = math.sqrt(u) * (1.0 - ab_s) / (1.0 - ab_t)
    np.multiply(coef_x0, x0, out=x0)
    mean = np.multiply(coef_xt, x_t, out=out)
    np.add(x0, mean, out=mean)
    if noise is None:
        return mean
    post_var = (1.0 - ab_s) * (1.0 - u) / (1.0 - ab_t)
    scaled = np.multiply(math.sqrt(post_var), noise, out=x0)
    return np.add(mean, scaled, out=mean)


def step_dpm_pp_2m(
    x: np.ndarray,
    datapred_curr: np.ndarray,
    datapred_prev: np.ndarray | None,
    times: tuple[int | None, int, int],
    sched: Schedule,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray:
    """DPM-Solver++(2M) update in the data-prediction parametrization.

    times is (t_prev, t_curr, t_to): the step of the previous data
    prediction (None on the first step, which falls back to first
    order), the current step, and the target step. With l = log(a/sigma),
    h = l(t_to) - l(t_curr), h_prev = l(t_curr) - l(t_prev), r = h_prev/h:

        D = (1 + 1/(2r)) x0_curr - 1/(2r) x0_prev
        x_to = (sigma_to / sigma_curr) x - a_to (exp(-h) - 1) D

    The update is deterministic. A target of t_to = 0 has infinite h;
    the update limit there is the current data prediction, which is
    returned directly (the standard lower-order terminal step). The
    result goes into out if given, which may be either data prediction
    but not x. A step before the terminal one needs one more array of
    x's shape: tmp if given, which may share memory with none of x, out
    and the data predictions, else one allocated per call. So with out
    and tmp given, a step holds x, the data predictions, out and tmp,
    and allocates nothing of x's size but its finiteness scan's bool mask.

    A non-finite result raises NumericalDivergence, after out is written.
    A strictly decreasing schedule gives every input a nonzero coefficient
    (the terminal step reads the current prediction alone), so a
    non-finite input raises too.
    """
    t_prev, t_curr, t_to = times
    if not (t_curr > t_to >= 0):
        raise ValueError(f"need t_curr > t_to >= 0, got {t_curr} -> {t_to}")
    if t_curr > sched.num_steps:
        raise ValueError(f"t_curr {t_curr} exceeds schedule length {sched.num_steps}")
    if datapred_prev is not None and (t_prev is None or not (t_prev > t_curr)):
        raise ValueError("previous data prediction requires t_prev > t_curr")

    if t_to == 0:
        result = np.positive(np.asarray(datapred_curr, dtype=np.float64), out=out)  # a copy
    else:
        l_curr = sched.log_snr_half(t_curr)
        l_to = sched.log_snr_half(t_to)
        h = l_to - l_curr
        coef_d = sched.signal(t_to) * math.expm1(-h)
        tmp = _scratch(tmp, x, x, out, datapred_curr, datapred_prev)
        if datapred_prev is None:
            d = np.multiply(coef_d, datapred_curr, out=out)
        else:
            h_prev = l_curr - sched.log_snr_half(t_prev)
            r = h_prev / h
            # datapred_prev is read before out, which may hold it, is written
            np.multiply(1.0 / (2.0 * r), datapred_prev, out=tmp)
            d = np.multiply(1.0 + 1.0 / (2.0 * r), datapred_curr, out=out)
            np.subtract(d, tmp, out=d)
            np.multiply(coef_d, d, out=d)
        sigma_ratio = sched.noise(t_to) / sched.noise(t_curr)
        scaled = np.multiply(sigma_ratio, x, out=tmp)
        result = np.subtract(scaled, d, out=d)
    if not np.all(np.isfinite(result)):
        raise NumericalDivergence("DPM-Solver++(2M) step result must be finite")
    return result


class _RecordStreams:
    """Per-record trajectory generators behind one generator's draw: row i
    of every (N, ...) draw comes from record i's own stream, so a record
    gets the same noise alone as in any batch."""

    def __init__(self, seeds: list[int]):
        self.rngs = [child_rng(s, _TRAJ_STREAM) for s in seeds]

    def standard_normal(self, shape, out: np.ndarray | None = None) -> np.ndarray:
        """A (N, ...) draw, row i from record i's stream, into out if given."""
        if shape[0] != len(self.rngs):
            raise ValueError(f"draw of {shape[0]} rows from {len(self.rngs)} record streams")
        out = np.empty(shape) if out is None else out
        for r, row in zip(self.rngs, out):
            r.standard_normal(out=row)
        return out


def guided_eps_fn(class_a, class_b, keep_a, cfg: SamplerConfig, sched: Schedule, models):
    """eps_fn(x, t, out=None, work=None): the guided noise estimate of one class or of a masked pair.

    class_a and class_b are class ids or (N,) arrays of them. With class_b
    None this is class_a's guided estimate; otherwise each cell takes
    class_a's where keep_a ((H, W) or (N, H, W) bool) is set and class_b's
    elsewhere. Guidance is affine cell by cell, so that is the guided
    estimate of the spliced model (classmodels.spliced_family: one class,
    cond 0), built here once: each step makes one conditional estimate
    and, unless the guidance is 1, one mixture estimate and one cfg_combine.

    The returned estimate goes into out if given (not x), else into a
    new array. A guided step first computes the mixture estimate into
    work if given (an array of x's shape, not x or out), else into one
    array per call, with out as the mixture's per-class term array; then
    the conditional estimate into out, and the combine into out. The two
    estimates read only x, so the order changes no bit. With out and
    work given, a step holds x, out and work, and allocates nothing of
    x's size unless the condition is per record (an id array, or masks
    per record): predict_noise then gathers, or builds, that step's
    per-record means and variances.
    """
    scale = cfg.guidance_scale
    family = class_family(models)
    cond_family, cond = (
        (family, class_a) if class_b is None else (spliced_family(family, class_a, class_b, keep_a), 0)
    )

    def eps_fn(x, t, out=None, work=None):
        if scale == 1.0:
            return predict_noise(x, cond, t, sched, cond_family, out=out)
        uncond = predict_noise(x, None, t, sched, family, out=work, work=out)
        eps = predict_noise(x, cond, t, sched, cond_family, out=out)
        return cfg_combine(eps, uncond, scale, out=eps)

    return eps_fn


def run_reverse(class_a, class_b, keep_a, cfg: SamplerConfig, sched: Schedule, models, rng, n):
    """The reverse-process core: n terminal images (n, H, W) following
    guided_eps_fn(class_a, class_b, keep_a) from step T down to 0.

    class_a and class_b are class ids or (n,) arrays of them, keep_a None,
    one (H, W) mask or (n, H, W) masks; any other shape raises ValueError.

    rng draws the initial noise on the calling thread. On the ancestral path
    it then draws each step's noise, in step order and nothing for the
    terminal step, on one worker thread scoped to the call, which draws ahead
    into a ring of buffers while this thread steps. DPM-Solver++(2M) draws no
    more, and runs its row blocks on min(blocks, _usable_cpus()) threads.

    The images are bit-equal to a serial loop's over the whole batch:
    the draws come in that loop's order, never depending on x, and every
    row sees the same ufuncs in the same order, whatever the DPM row
    blocks and threads. README's "Generation" section gives the
    mechanism and the memory each path holds.

    A non-finite terminal batch raises NumericalDivergence, as a
    non-finite step result does on the DPM-Solver++(2M) path. An error
    raised in a step propagates once every thread the call started has
    ended. If DPM row blocks fail differently, the first block's error
    propagates, which can be another error than one block of all rows
    would raise first.
    """
    family = class_family(models)
    x = rng.standard_normal((n,) + family.means.shape[1:])
    grid = x.shape[1:]
    # per-record arguments: shared ones are passed whole, the rest sliced per block
    per_record = (class_a, ()), (class_b, ()), (keep_a, grid)
    for name, (arg, shared) in zip(("class_a", "class_b", "keep_a"), per_record):
        if arg is not None and np.shape(arg) not in (shared, (n,) + shared):
            raise ValueError(f"{name} of shape {np.shape(arg)} for {n} records of shape {grid}")
    ts = timestep_grid(sched.num_steps, cfg.num_inference_steps)
    if cfg.kind == ANCESTRAL:
        # imported here, so importing the package and the DPM path pay nothing for it
        from concurrent.futures import ThreadPoolExecutor

        eps_fn = guided_eps_fn(class_a, class_b, keep_a, cfg, sched, family)
        eps = np.empty_like(x)
        work = np.empty_like(x) if cfg.guidance_scale != 1.0 else None  # the mixture estimate
        draws = len(ts) - 2  # one per step but the terminal one
        depth = max(2, _DRAW_AHEAD_BYTES // max(1, x.nbytes))  # an empty batch draws 0 bytes
        noise = [np.empty_like(x) for _ in range(min(depth, draws))]  # one buffer per draw at most
        with ThreadPoolExecutor(max_workers=1) as worker:
            def draw(k):
                """Step k's noise as a call that waits for the worker's draw."""
                if k >= draws:
                    return lambda: None
                return worker.submit(rng.standard_normal, x.shape, out=noise[k % depth]).result

            # step k + depth - 1 reuses step k - 1's buffer, so it is queued once step k - 1 ran
            pending = collections.deque(draw(j) for j in range(depth - 1))
            for k in range(len(ts) - 1):
                pending.append(draw(k + depth - 1))
                step_noise = pending.popleft()()
                eps_fn(x, int(ts[k]), out=eps, work=work)
                # the data estimate reads eps first, which then holds the step's temporaries
                step_ancestral(x, eps, int(ts[k]), int(ts[k + 1]), sched, step_noise, out=x, tmp=eps)
        # each step is affine in x, so a value that turned non-finite on the way stays so
        if not np.all(np.isfinite(x)):
            raise NumericalDivergence("ancestral trajectory ended non-finite")
        return x

    def run_block(lo, hi, space):
        """Rows lo:hi of x through every step to t=0, on the first hi - lo rows of space."""
        rows = [a if a is None or np.shape(a) == shared else a[lo:hi] for a, shared in per_record]
        cur = x[lo:hi]
        eps_fn = guided_eps_fn(*rows, cfg, sched, family)
        eps, free, work = space[:, : hi - lo]
        prev_pred, prev_t = None, None
        for k in range(len(ts) - 1):
            t_curr, t_to = int(ts[k]), int(ts[k + 1])
            eps_fn(cur, t_curr, out=eps, work=work)
            pred = tweedie_x0(cur, eps, t_curr, sched, out=eps)
            dest = free if prev_pred is None else prev_pred
            times = (prev_t, t_curr, t_to)
            # work, the mixture estimate's array, is free once the combine has read it
            cur, eps = step_dpm_pp_2m(cur, pred, prev_pred, times, sched, out=dest, tmp=work), cur
            prev_pred, prev_t = pred, t_curr
        x[lo:hi] = cur

    blocks = _row_blocks(n, grid)
    bounds = [n * i // blocks for i in range(blocks + 1)]
    threads = min(blocks, _usable_cpus())
    # one workspace per thread, allocated here: what a block thread frees stays in its malloc
    # arena; the third array, the mixture estimate's, stays untouched without guidance
    spaces = [np.empty((3, -(-n // blocks)) + grid) for _ in range(threads)]

    def block(lo, hi):
        """run_block on a free workspace: a thread runs one block at a time, so one is free."""
        space = spaces.pop()
        try:
            run_block(lo, hi, space)
        finally:
            spaces.append(space)

    if threads < 2:
        for _ in map(block, bounds[:-1], bounds[1:]):
            pass
        return x
    # imported here, so importing the package and a one-thread call pay nothing for it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads) as pool:
        # in block order: the first failing block raises, and the blocks not started are cancelled
        for _ in pool.map(block, bounds[:-1], bounds[1:]):
            pass
    return x


def _row_blocks(n: int, grid: tuple[int, ...]) -> int:
    """How many near-equal row blocks of at most _BLOCK_VALUES array values
    run_reverse's DPM-Solver++(2M) path splits n records of shape grid into."""
    return max(1, -(-n // max(1, _BLOCK_VALUES // math.prod(grid))))


def generate_batch(
    class_a: list[int],
    class_b: list[int] | None,
    cfg: SamplerConfig,
    sched: Schedule,
    models: ClassFamily | list[ClassModel],
    seeds: list[int],
    alpha: float | None = None,
) -> tuple[np.ndarray, np.ndarray, list[Provenance]]:
    """One record per seed from one core call: (images (N, H, W), labels
    (N, K), provenances).

    With class_b None, record i is conditioned on class_a[i] alone and
    has a one-hot label. Otherwise it mixes the noise estimates of
    class_a[i] and class_b[i] through a mask drawn once from its seed's
    mask stream (a Beta(alpha, alpha) ratio, then sample_mask's
    rectangle, mixing.NO_CUT for a ratio of exactly 1.0) and held fixed
    across all steps; its soft label uses the realized (post-clipping)
    area ratio. Each provenance regenerates its record. An empty batch
    raises ValueError before any draw.
    """
    if len(seeds) == 0:
        raise ValueError("a batch needs at least one record, one per seed; got no seeds")
    family = class_family(models)
    k, h, w = family.means.shape
    settings = dict(sampler=cfg.kind, steps=cfg.num_inference_steps,
                    guidance=cfg.guidance_scale, alpha=alpha)
    if class_b is None:
        provs = [Provenance("single", a, None, None, 1.0, None, s, **settings)
                 for a, s in zip(class_a, seeds)]
        labels = np.stack([one_hot(a, k) for a in class_a])
        keep_a = None
    else:
        lams, rects = [], []
        for s in seeds:
            rng = child_rng(s, _MASK_STREAM)
            lams.append(sample_lambda(alpha, rng))
            rects.append(sample_mask(w, h, lams[-1], rng))
        keep_a = mask_from_rect(w, h, rects)
        provs = [Provenance("noisecutmix", a, b, lam, float(lam_real), rect, s, **settings)
                 for a, b, lam, lam_real, rect, s
                 in zip(class_a, class_b, lams, realized_lambda(keep_a), rects, seeds)]
        labels = np.stack([mix_labels(p.class_a, p.class_b, p.lambda_real, k) for p in provs])
        class_b = np.asarray(class_b)
    images = run_reverse(np.asarray(class_a), class_b, keep_a, cfg, sched, family,
                         _RecordStreams(seeds), len(seeds))
    return images, labels, provs


def regenerate(
    prov: Provenance, sched: Schedule, models: ClassFamily | list[ClassModel]
) -> tuple[np.ndarray, np.ndarray]:
    """A record's (image (H, W), label (K,)), rebuilt bit-exactly from its provenance.

    The record follows from its method, classes, seed, sampler settings
    and alpha; its ratios and rect must be the ones these give, and a
    noisecutmix record needs its class_b, else ValueError. The class ids
    are inputs (drawn from the trial's pick stream, not from the seed),
    so an edited id regenerates the edited pair's record without error.
    """
    cfg = SamplerConfig(
        kind=prov.sampler, num_inference_steps=prov.steps, guidance_scale=prov.guidance
    )
    if prov.method == "single":
        class_b = None
    elif prov.method == "noisecutmix":
        if prov.class_b is None or prov.alpha is None:
            raise ValueError("noisecutmix provenance requires class_b and alpha")
        class_b = [prov.class_b]
    else:
        raise ValueError(f"unknown generation method {prov.method!r}")
    images, labels, (again,) = generate_batch(
        [prov.class_a], class_b, cfg, sched, models, [prov.seed], prov.alpha
    )
    if again != prov:
        raise ValueError(f"provenance {prov} does not match its seed's record {again}")
    return images[0], labels[0]


def sample_single_batch(
    cond: int,
    cfg: SamplerConfig,
    sched: Schedule,
    models: list[ClassModel],
    seed: int,
    n: int,
) -> np.ndarray:
    """n terminal images for one class condition, shape (n, H, W), drawn
    from one trajectory stream; for moment-level distribution tests where
    per-record provenance is not needed."""
    return run_reverse(cond, None, None, cfg, sched, models, child_rng(seed, _TRAJ_STREAM), n)


def sample_noisecutmix_batch(
    class_a: int,
    class_b: int,
    mask: np.ndarray,
    cfg: SamplerConfig,
    sched: Schedule,
    models: ClassFamily | list[ClassModel],
    seed: int,
    n: int,
) -> np.ndarray:
    """n terminal mixed images sharing one fixed mask, shape (n, H, W).

    mask is (H, W) with 1 where class_a's estimate is kept and 0 where
    class_b's is; any other value raises ValueError."""
    family = class_family(models)
    mask = np.asarray(mask)
    if mask.shape != family.means.shape[1:]:
        raise ValueError(f"mask must have shape {family.means.shape[1:]}")
    if not np.all((mask == 0) | (mask == 1)):
        raise ValueError("mask values must be 0 or 1")
    rng = child_rng(seed, _TRAJ_STREAM)
    return run_reverse(class_a, class_b, mask.astype(bool), cfg, sched, family, rng, n)
