"""One process's set-up, timed from outside: imports, config file, schedule, class models.

Usage: python3 bench/setup_probe.py SRC_DIR CONFIG_JSON
"""

import sys

sys.path.insert(0, sys.argv[1])

import noisecutmix  # noqa: E402
from noisecutmix import cli  # noqa: E402

cfg = noisecutmix.load_config(sys.argv[2])
cli.build_parser()
noisecutmix.make_cosine_schedule(cfg.schedule_steps)
noisecutmix.make_bump_dataset(
    cfg.num_classes, cfg.width, cfg.height, cfg.bump_sigma, cfg.noise_var, seed=0, n_per_class=0
)
