"""Golden provenance text of one generated batch per generator, on every machine.

A `.prov` sidecar holds each record's seed, class pair, mask rectangle
and ratios as Python-float `repr` of PCG64 draws. None of it goes
through BLAS, so unlike the sha256 digests (which hold for their
recorded environment only) this text is compared as is, with no
environment skip: a change that moves the class picks, the record seeds
or the mask stream fails here on any machine. After an intended change
of results, regenerate the files with

    PYTHONPATH=src python tests/test_prov_golden.py
"""

from pathlib import Path

import pytest

from noisecutmix import config_from_dict
from noisecutmix.harness import generate_records
from noisecutmix.recordio import write_provenance

GOLDEN = Path(__file__).parent / "golden"
METHODS = ("gen_random", "noisecutmix")
# a small config: the text depends on the grid and the classes, not on the step count
CONFIG = {"width": 8, "height": 8, "schedule_steps": 100, "num_inference_steps": 5}
COUNT, SEED = 12, 7


def _prov_text(method, tmp_dir):
    cfg = config_from_dict(CONFIG)
    _, _, provs = generate_records(method, cfg, COUNT, SEED)
    path = Path(tmp_dir) / f"{method}.prov"
    write_provenance(path, provs)
    return path.read_text(encoding="ascii")


def write_golden():
    for method in METHODS:
        _prov_text(method, GOLDEN)  # writes GOLDEN/<method>.prov


@pytest.mark.parametrize("method", METHODS)
def test_prov_golden_text(method, tmp_path):
    golden = (GOLDEN / f"{method}.prov").read_text(encoding="ascii")
    assert _prov_text(method, tmp_path) == golden, f"{method} provenance differs from golden/{method}.prov"


if __name__ == "__main__":
    write_golden()
