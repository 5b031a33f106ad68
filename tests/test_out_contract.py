"""The out= contract of the reverse-process functions.

Each function that takes out= runs one body with or without it: the
result written into out is bit-identical to the freshly allocated one,
a call without out leaves its inputs unmodified, and the aliasing that
run_reverse uses (out is one of the inputs) gives the same bits again.
"""

import numpy as np
import pytest

from noisecutmix import (
    SamplerConfig,
    cfg_combine,
    make_bump_dataset,
    make_cosine_schedule,
    predict_noise,
    step_ancestral,
    step_dpm_pp_2m,
)
from noisecutmix.samplers import _RecordStreams, guided_eps_fn, tweedie_x0

SCHED = make_cosine_schedule(1000)
MODELS, _ = make_bump_dataset(3, 8, 8, 1.5, 0.3, seed=4, n_per_class=0)
N = 5
SHAPE = (N, 8, 8)
KEEP = np.random.default_rng(8).random(SHAPE) < 0.5
GUIDED = SamplerConfig(kind="dpm_solver_pp_2m", num_inference_steps=25, guidance_scale=7.5)
SINGLE = guided_eps_fn(1, None, None, GUIDED, SCHED, MODELS)
MIXED = guided_eps_fn(np.array([0, 1, 2, 0, 1]), np.array([1, 2, 0, 2, 0]), KEEP, GUIDED, SCHED, MODELS)


def _work(out):
    """A caller's mixture array, holding NaN, beside out; none without out."""
    return None if out is None else np.full(SHAPE, np.nan)


# name: (call(inputs, out), number of inputs, index of the input run_reverse passes as out)
CASES = {
    "predict_noise-class": (lambda a, out: predict_noise(a[0], 1, 600, SCHED, MODELS, out=out), 1, None),
    "predict_noise-ids": (
        lambda a, out: predict_noise(a[0], np.array([0, 2, 1, 2, 0]), 600, SCHED, MODELS, out=out),
        1, None,
    ),
    "predict_noise-mixture": (lambda a, out: predict_noise(a[0], None, 600, SCHED, MODELS, out=out), 1, None),
    "cfg_combine-7.5": (lambda a, out: cfg_combine(a[0], a[1], 7.5, out=out), 2, 0),
    "cfg_combine-1": (lambda a, out: cfg_combine(a[0], a[1], 1.0, out=out), 2, 0),
    "cfg_combine-0": (lambda a, out: cfg_combine(a[0], a[1], 0.0, out=out), 2, 0),
    "tweedie_x0": (lambda a, out: tweedie_x0(a[0], a[1], 600, SCHED, out=out), 2, 1),
    # the step noise is an input too: the third array, or a fresh per-record draw
    "step_ancestral": (lambda a, out: step_ancestral(a[0], a[1], 600, 560, SCHED, a[2], out=out), 3, 0),
    "step_ancestral-records": (
        lambda a, out: step_ancestral(
            a[0], a[1], 600, 560, SCHED, _RecordStreams([1, 2, 3, 4, 5]).standard_normal(SHAPE), out=out
        ),
        2, 0,
    ),
    "step_ancestral-terminal": (lambda a, out: step_ancestral(a[0], a[1], 40, 0, SCHED, None, out=out), 2, 0),
    "step_dpm_pp_2m-first": (
        lambda a, out: step_dpm_pp_2m(a[0], a[1], None, (None, 600, 560), SCHED, out=out), 2, None,
    ),
    "step_dpm_pp_2m-second": (
        lambda a, out: step_dpm_pp_2m(a[0], a[1], a[2], (640, 600, 560), SCHED, out=out), 3, 2,
    ),
    "step_dpm_pp_2m-terminal": (
        lambda a, out: step_dpm_pp_2m(a[0], a[1], a[2], (80, 40, 0), SCHED, out=out), 3, 2,
    ),
    "record_streams": (
        lambda a, out: _RecordStreams([3, 9, 27, 81, 243]).standard_normal(SHAPE, out=out), 0, None,
    ),
    "guided_eps_fn-single": (lambda a, out: SINGLE(a[0], 600, out=out), 1, None),
    "guided_eps_fn-mixed": (lambda a, out: MIXED(a[0], 600, out=out), 1, None),
    # with out, the caller's work array too, against the fresh result without either
    "guided_eps_fn-single-work": (lambda a, out: SINGLE(a[0], 600, out=out, work=_work(out)), 1, None),
    "guided_eps_fn-mixed-work": (lambda a, out: MIXED(a[0], 600, out=out, work=_work(out)), 1, None),
}


def _inputs(count):
    rng = np.random.default_rng(17)
    return [rng.standard_normal(SHAPE) for _ in range(count)]


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_out_is_bit_identical_to_fresh_result(name):
    call, count, _ = CASES[name]
    fresh = call(_inputs(count), None)
    args = _inputs(count)
    out = np.full(SHAPE, np.nan)
    result = call(args, out)
    assert result is out
    assert _bits(out) == _bits(fresh)
    assert all(_bits(a) == _bits(b) for a, b in zip(args, _inputs(count))), "an input was written"


@pytest.mark.parametrize("name", sorted(CASES))
def test_call_without_out_leaves_inputs_unmodified(name):
    call, count, _ = CASES[name]
    args = _inputs(count)
    result = call(args, None)
    assert all(_bits(a) == _bits(b) for a, b in zip(args, _inputs(count)))
    assert all(result is not a for a in args)


@pytest.mark.parametrize("name", sorted(n for n, case in CASES.items() if case[2] is not None))
def test_out_aliased_as_in_the_run_loop(name):
    call, count, alias = CASES[name]
    fresh = call(_inputs(count), None)
    args = _inputs(count)
    result = call(args, args[alias])
    assert result is args[alias]
    assert _bits(result) == _bits(fresh)
