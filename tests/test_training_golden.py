"""Golden digests of the trained classifiers, bit for bit.

test_golden_digest in test_acceptance.py sees training only through the
6-decimal test accuracies in results.tsv, so a change that moves the
trained parameters of many trials can still pass it. This file pins, for
trial 0 of every method of the default config, the sha256 of the chosen
parameters' bytes and the whole epoch history (loss and validation
accuracy as exact floats). That covers the 64+8-row batches of the
generating methods and both pixel policies. The digests hold for the
recorded environment only (the same rule as test_golden_digest); after
an intended change of results, regenerate the file with

    PYTHONPATH=src python tests/test_training_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from noisecutmix import config_from_dict
from noisecutmix.classifier import train
from noisecutmix.config import METHODS
from noisecutmix.harness import _TRAIN_SEED_STREAM, build_training_pool, derive_seed, trial_seed
from test_acceptance import _environment

GOLDEN = Path(__file__).parent / "golden" / "training.json"


def _trained(method):
    """Trial 0 of method at the default config, trained as run_method trains it."""
    cfg = config_from_dict({})
    seed = trial_seed(cfg.master_seed, method, 0)
    images, labels, synthetic, _ = build_training_pool(method, cfg, seed)
    train_cfg = cfg.train_config(derive_seed(seed, _TRAIN_SEED_STREAM))
    model, history = train(images, labels, train_cfg, cfg.augment_policy(METHODS[method][1]), synthetic)
    return {
        "params_sha256": hashlib.sha256(model.params.tobytes()).hexdigest(),
        "history": [[h.epoch, h.train_loss, h.val_accuracy] for h in history],
    }


def write_golden():
    doc = {"environment": _environment(), "trial0": {m: _trained(m) for m in METHODS}}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="ascii")


@pytest.mark.parametrize("method", list(METHODS))
def test_training_golden_digest(method):
    golden = json.loads(GOLDEN.read_text(encoding="ascii"))
    here = _environment()
    if golden["environment"] != here:
        pytest.skip(f"training digests recorded under {golden['environment']}, running under {here}")
    assert _trained(method) == golden["trial0"][method], f"{method} differs from {GOLDEN.name}"


if __name__ == "__main__":
    write_golden()
