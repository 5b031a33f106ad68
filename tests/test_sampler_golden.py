"""Golden sha256 digests of the reverse-process outputs.

test_golden_digest in test_acceptance.py pins the guided DPM-Solver++(2M)
path through the default experiment's artifacts; these digests also pin
the 1000-step ancestral path, the batch samplers and a batch of ancestral
records with their own seeds and masks, byte for byte. They hold for the
recorded environment only (the same rule as test_golden_digest); after an
intended change of results, regenerate the file with

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
    return _sha256(sample_single_batch(0, cfg, sched, unit, seed=11, n=64))


def _dpm_mixed():
    """DPM-Solver++(2M) at guidance 7.5, K=2 bumps on 16x16, half-plane mask, n=64."""
    sched = make_cosine_schedule(1000)
    bumps, _ = make_bump_dataset(2, 16, 16, 2.0, 0.3, seed=0, n_per_class=0)
    mask = np.zeros((16, 16), dtype=np.uint8)
    mask[:, :8] = 1
    cfg = SamplerConfig(kind="dpm_solver_pp_2m", num_inference_steps=25, guidance_scale=7.5)
    return _sha256(sample_noisecutmix_batch(0, 1, mask, cfg, sched, bumps, seed=12, n=64))


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
    return _sha256(images, labels, masks)


OUTPUTS = {
    "sample_single_batch": _ancestral_single,
    "sample_noisecutmix_batch": _dpm_mixed,
    "generate_batch_ancestral": _ancestral_records,
}


def write_golden():
    doc = {"environment": _environment(), "sha256": {n: f() for n, f in OUTPUTS.items()}}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="ascii")


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_sampler_golden_digest(name):
    golden = json.loads(GOLDEN.read_text(encoding="ascii"))
    here = _environment()
    if golden["environment"] != here:
        pytest.skip(f"sampler digests recorded under {golden['environment']}, running under {here}")
    assert OUTPUTS[name]() == golden["sha256"][name], f"{name} differs from {GOLDEN.name}"


if __name__ == "__main__":
    write_golden()
