"""Command-line interface.

Subcommands: generate, augment, train, evaluate, experiment, report.
Exit codes: 0 success, 2 invalid config/arguments, 3 I/O failure,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .augment import POLICY_KINDS, AugmentPolicy, apply_policy
from .classifier import evaluate, train
from .config import METHODS, ExperimentConfig, load_config
from .errors import ConfigError, NumericalDivergence
from .harness import (
    export_grid,
    format_result_table,
    generate_records,
    parse_result_table,
    run_experiment,
)
from .recordio import (
    load_classifier,
    read_provenance,
    read_records,
    save_classifier,
    write_history,
    write_provenance,
    write_records,
)
from .samplers import child_rng
from .schedule import make_cosine_schedule


def _load_cfg(path: str | None) -> ExperimentConfig:
    return load_config(path) if path else ExperimentConfig()


def _cmd_generate(args) -> int:
    cfg = _load_cfg(args.config)
    if args.count < 1:
        raise ConfigError("--count must be >= 1")
    models, _ = cfg.dataset(0, 0)
    sched = make_cosine_schedule(cfg.schedule_steps)
    seed = cfg.master_seed if args.seed is None else args.seed
    images, labels, provs = generate_records(args.method, cfg, models, sched, args.count, seed)
    write_records(f"{args.out}.records", images, labels)
    write_provenance(f"{args.out}.prov", provs)
    if args.pgm:
        export_grid(images, provs, f"{args.out}.pgm")
    print(f"wrote {len(provs)} records to {args.out}.records")
    return 0


def _cmd_augment(args) -> int:
    policy = AugmentPolicy(kind=args.policy, alpha=args.alpha, probability=args.probability)
    batch = read_records(args.input)
    if not np.all(np.isfinite(batch[0])):
        # train and evaluate refuse non-finite images, so write none
        raise ValueError("images must be finite")
    images, labels = apply_policy(batch, policy, child_rng(args.seed, 0))
    write_records(args.out, images, labels)
    print(f"wrote {len(images)} augmented records to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_cfg(args.config)
    images, labels = read_records(args.input)
    train_cfg = cfg.train_config(cfg.master_seed if args.seed is None else args.seed)
    model, history = train(images, labels, train_cfg, cfg.augment_policy(args.policy))
    save_classifier(args.model_out, model)
    if args.history_out:
        write_history(args.history_out, history)
    best = max((h.val_accuracy for h in history), default=float("nan"))
    print(f"trained {len(history)} epochs; best validation accuracy {best:.6f}")
    return 0


def _cmd_evaluate(args) -> int:
    model = load_classifier(args.model)
    images, labels = read_records(args.input)
    _, h, w = images.shape
    if (model.in_dim, model.num_classes) != (h * w, labels.shape[1]):
        raise ValueError(
            f"model takes in_dim={model.in_dim} and K={model.num_classes}, but the records "
            f"hold {h}x{w} images (in_dim={h * w}) and K={labels.shape[1]}"
        )
    acc = evaluate(model, images, np.argmax(labels, axis=1))
    print(f"accuracy {acc:.6f}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = _load_cfg(args.config)
    out = cfg.resolved_output_dir(args.out)
    table = run_experiment(cfg, out)
    sys.stdout.write(format_result_table(table))
    print(f"artifacts written to {out}")
    return 0


def _cmd_report(args) -> int:
    out = Path(args.dir)
    table_path = out / "results.tsv"
    if not table_path.exists():
        raise FileNotFoundError(f"no results.tsv under {out}")
    table = parse_result_table(table_path.read_text(encoding="ascii"))
    sys.stdout.write(format_result_table(table))
    for records_path in sorted(out.glob("*_t0.records")):
        stem = records_path.name[: -len(".records")]
        images, _ = read_records(records_path)
        provs = read_provenance(out / f"{stem}.prov")
        if len(provs) != len(images):
            raise ValueError(f"{stem}.prov has {len(provs)} lines for {len(images)} records")
        method = stem[: -len("_t0")]
        export_grid(images[:8], provs[:8], out / f"{method}_montage.pgm")
        print(f"re-rendered {method}_montage.pgm")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog=__package__, description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit generated records for a method")
    g.add_argument("--config", help="experiment config JSON")
    # the generating methods that apply no pixel policy on top
    g.add_argument("--method", required=True,
                   choices=[m for m, (gen, policy) in METHODS.items() if gen and policy == "none"])
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", required=True, help="output prefix")
    g.add_argument("--pgm", action="store_true", help="also write a montage PGM")
    g.set_defaults(func=_cmd_generate)

    a = sub.add_parser("augment", help="apply a pixel policy to stored records")
    a.add_argument("--policy", required=True, choices=[k for k in POLICY_KINDS if k != "none"])
    a.add_argument("--alpha", type=float, default=1.0)
    a.add_argument("--probability", type=float, default=1.0)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--input", required=True)
    a.add_argument("--out", required=True)
    a.set_defaults(func=_cmd_augment)

    t = sub.add_parser("train", help="train the classifier on stored records")
    t.add_argument("--config", help="experiment config JSON")
    t.add_argument("--input", required=True)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--policy", default="none", choices=POLICY_KINDS,
                   help="pixel policy, at the config's alpha and augment_probability")
    t.add_argument("--model-out", required=True)
    t.add_argument("--history-out")
    t.set_defaults(func=_cmd_train)

    e = sub.add_parser("evaluate", help="accuracy of a stored model on stored records")
    e.add_argument("--model", required=True)
    e.add_argument("--input", required=True)
    e.set_defaults(func=_cmd_evaluate)

    x = sub.add_parser("experiment", help="full multi-method, multi-trial run")
    x.add_argument("--config", help="experiment config JSON")
    x.add_argument("--out", help="output directory (default: config, then env)")
    x.set_defaults(func=_cmd_experiment)

    r = sub.add_parser("report", help="re-render tables and montages from artifacts")
    r.add_argument("--dir", required=True)
    r.set_defaults(func=_cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3
    except NumericalDivergence as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
