"""Golden digests and moment summaries of the reverse-process outputs.

test_golden_digest in test_acceptance.py pins the guided DPM-Solver++(2M)
path through the default experiment's artifacts; these digests also pin
the 1000-step ancestral path, the batch samplers and a batch of ancestral
records with their own seeds and masks, byte for byte. The sha256 digests
hold for the recorded environment only (the same rule as
test_golden_digest). The samplers make no BLAS call, so each output's
images also have a float summary (mean, sd and five quantiles) that is
checked at rtol 1e-9 on every machine. After an intended change of
results, regenerate both files with

    PYTHONPATH=src python tests/test_sampler_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from noisecutmix import (
    ClassModel,
    SamplerConfig,
    generate_batch,
    make_bump_dataset,
    make_cosine_schedule,
    mask_from_rect,
    sample_noisecutmix_batch,
    sample_single_batch,
)
from test_acceptance import _environment

GOLDEN = Path(__file__).parent / "golden" / "samplers.json"
SUMMARY = Path(__file__).parent / "golden" / "sampler_summary.json"
QUANTILES = (0.01, 0.25, 0.5, 0.75, 0.99)


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _ancestral_single():
    """1000 ancestral steps toward a unit Gaussian on an 8x8 grid, n=64."""
    sched = make_cosine_schedule(1000)
    unit = [ClassModel(class_id=0, mean=np.zeros((8, 8)), var=np.ones((8, 8)))]
    cfg = SamplerConfig(kind="ancestral", num_inference_steps=1000, guidance_scale=1.0)
    return (sample_single_batch(0, cfg, sched, unit, seed=11, n=64),)


def _dpm_mixed():
    """DPM-Solver++(2M) at guidance 7.5, K=2 bumps on 16x16, half-plane mask, n=64."""
    sched = make_cosine_schedule(1000)
    bumps, _ = make_bump_dataset(2, 16, 16, 2.0, 0.3, seed=0, n_per_class=0)
    mask = np.zeros((16, 16), dtype=np.uint8)
    mask[:, :8] = 1
    cfg = SamplerConfig(kind="dpm_solver_pp_2m", num_inference_steps=25, guidance_scale=7.5)
    return (sample_noisecutmix_batch(0, 1, mask, cfg, sched, bumps, seed=12, n=64),)


def _ancestral_records():
    """Ancestral noisecutmix records, each with its own seed and mask, K=4."""
    sched = make_cosine_schedule(1000)
    models, _ = make_bump_dataset(4, 16, 16, 2.0, 0.3, seed=3, n_per_class=0)
    cfg = SamplerConfig(kind="ancestral", num_inference_steps=100, guidance_scale=3.0)
    class_a, class_b = [0, 1, 2, 3, 0, 2], [1, 3, 0, 2, 3, 1]
    images, labels, provs = generate_batch(
        class_a, class_b, cfg, sched, models, seeds=[5, 17, 29, 41, 53, 65], alpha=1.0
    )
    masks = np.stack([mask_from_rect(16, 16, p.rect) for p in provs])
    return images, labels, masks


# name: the arrays the digest covers, images first
OUTPUTS = {
    "sample_single_batch": _ancestral_single,
    "sample_noisecutmix_batch": _dpm_mixed,
    "generate_batch_ancestral": _ancestral_records,
}


def _summary(images):
    """The images' mean, sd and QUANTILES, as one list of floats."""
    return [float(images.mean()), float(images.std()), *map(float, np.quantile(images, QUANTILES))]


def write_golden():
    outputs = {n: f() for n, f in OUTPUTS.items()}
    doc = {"environment": _environment(), "sha256": {n: _sha256(*a) for n, a in outputs.items()}}
    summary = {"quantiles": list(QUANTILES), "mean_sd_quantiles": {n: _summary(a[0]) for n, a in outputs.items()}}
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, content in ((GOLDEN, doc), (SUMMARY, summary)):
        path.write_text(json.dumps(content, indent=2, sort_keys=True) + "\n", encoding="ascii")


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_sampler_golden_digest(name):
    golden = json.loads(GOLDEN.read_text(encoding="ascii"))
    here = _environment()
    if golden["environment"] != here:
        pytest.skip(f"sampler digests recorded under {golden['environment']}, running under {here}")
    assert _sha256(*OUTPUTS[name]()) == golden["sha256"][name], f"{name} differs from {GOLDEN.name}"


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_sampler_golden_summary(name):
    golden = json.loads(SUMMARY.read_text(encoding="ascii"))
    assert golden["quantiles"] == list(QUANTILES)
    np.testing.assert_allclose(
        _summary(OUTPUTS[name]()[0]), golden["mean_sd_quantiles"][name], rtol=1e-9, atol=0.0,
        err_msg=f"{name} differs from {SUMMARY.name}",
    )


if __name__ == "__main__":
    write_golden()
