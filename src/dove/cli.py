"""Command-line interface.

Exit codes: 0 success, 1 check failure or internal error, 2 usage/config
error, 3 I/O or format error, 4 numeric abort.  Config values resolve
flag > config file > built-in default.  All stdout is deterministic for
identical inputs and seed (timings go only to the JSON train log).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import __version__
from .autograd import DimensionError
from .batching import split_dataset
from .checks import GRADCHECK_TOLERANCE, gradcheck_report
from .config import (CHOICES, FIELD_TYPES, ConfigError, TrainConfig,
                     config_hash, load_config_file)
from .dataio import (BankFormatError, BankPayloadError, CaptionFormatError,
                     atomic_write, load_dataset, read_bank_header)
from .evaluation import (DegenerateEmbeddingError, build_report,
                         embedding_distances, load_subset_file, render_table)
from .optimizer import NumericAbort
from .synth import SynthError, synth_dataset, write_dataset
from .train import (CheckpointFormatError, load_checkpoint,
                    model_from_checkpoint, train)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# the bool fields, each switched on by ``--ablate``
ABLATIONS = tuple(key for key, kind in FIELD_TYPES.items() if kind is bool)


def _add_config_flags(p: argparse.ArgumentParser):
    """``--config``, ``--<key>`` for each non-bool field, and ``--ablate``."""
    p.add_argument("--config", help="key = value config file")
    for key, kind in FIELD_TYPES.items():
        if kind is not bool:
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                           choices=CHOICES.get(key))
    p.add_argument("--ablate", action="append", choices=ABLATIONS, default=None,
                   help="disable a component (repeatable)")


def resolve_config(args: argparse.Namespace) -> TrainConfig:
    cfg = load_config_file(args.config) if args.config else TrainConfig()
    overrides = {key: getattr(args, key) for key in FIELD_TYPES
                 if getattr(args, key, None) is not None}
    overrides.update(dict.fromkeys(args.ablate or (), True))
    return replace(cfg, **overrides).validate()


def _split_images(ds, cfg, which: str) -> list[int]:
    if which == "all":
        return list(range(ds.n_images))
    split = split_dataset(ds, cfg.val_fraction, cfg.seed)
    return split.train_images if which == "train" else split.val_images


# ----------------------------------------------------------------- actions

def cmd_synth(args) -> int:
    ds = synth_dataset(seed=args.seed, n_images=args.images,
                       n_clusters=args.clusters, n_m=args.n_m, n_r=args.n_r,
                       d_in=args.d_in,
                       d_r=args.d_r if args.d_r else max(1, args.d_in // 2),
                       caption_len_range=(args.len_min, args.len_max),
                       captions_per_image=args.captions_per_image)
    manifest = write_dataset(ds, args.out)
    lines = [f"{name}  {digest}" for name, digest in manifest.items()]
    with atomic_write(os.path.join(args.out, "manifest.txt")) as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(manifest)} files to {args.out}")
    for line in lines:
        print(line)
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    ds = load_dataset(args.data)
    if ds.unknown_tokens:
        print(f"warning: {ds.unknown_tokens} caption tokens fell back to <unk>")

    def progress(stats):
        print(f"epoch {stats.epoch:3d}  loss_final={stats.loss_final:.6f}  "
              f"loss_global={stats.loss_global:.6f}  lr={stats.lr:.8f}  "
              f"val_mr={stats.val_mr:.2f}")

    result = train(cfg, ds, args.out, progress=progress)
    print(f"best epoch {result.best_epoch}  val_mr={result.best_val_mr:.2f}")
    print(f"checkpoint {result.checkpoint_path}")
    print(f"config {config_hash(cfg)}")
    return EXIT_OK


def _load_split(args):
    """(dataset, model, image indices) for a checkpoint's ``--split``."""
    ckpt = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.data)
    model = model_from_checkpoint(ckpt, ds)
    return ds, model, _split_images(ds, ckpt.cfg, args.split)


def cmd_eval(args) -> int:
    # a subset is named by its file's base name, so the report's bytes do
    # not depend on the directory the path was spelled from
    paths = args.subset or []
    names = [os.path.basename(path) for path in paths]
    shared = sorted({name for name in names if names.count(name) > 1})
    if shared:
        raise ValueError(f"--subset files must differ in base name; "
                         f"{', '.join(shared)} is given more than once")
    ds, model, images = _load_split(args)
    subsets = [(name, load_subset_file(path))
               for name, path in zip(names, paths)]
    report = build_report(model, ds, images, args.split, subsets,
                          with_distances=not args.no_distances)
    sys.stdout.write(render_table(report))
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(report.to_json())
        print(f"report {args.out}")
    return EXIT_OK


def cmd_distances(args) -> int:
    ds, model, images = _load_split(args)
    stats = embedding_distances(model, ds, images)
    for key in sorted(stats):
        s = stats[key]
        print(f"{key:<12} mean={s['mean']:.6f} median={s['median']:.6f} "
              f"stddev={s['stddev']:.6f} n={s['n_pairs']}")
    if args.out:
        with atomic_write(args.out) as fh:
            json.dump(stats, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"report {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    report = gradcheck_report(seed=args.seed, max_coords=args.max_coords)
    failed = False
    for module, err in report.items():
        status = "ok" if err < GRADCHECK_TOLERANCE else "FAIL"
        print(f"{module:<22} max_rel_err={err:.3e}  {status}")
        failed = failed or err >= GRADCHECK_TOLERANCE
    return EXIT_CHECK if failed else EXIT_OK


def cmd_inspect(args) -> int:
    n, rows, cols = read_bank_header(args.path)
    print(f"feature bank {args.path}")
    print(f"samples {n}  rows {rows}  cols {cols}  payload_floats {n * rows * cols}")
    return EXIT_OK


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dove",
        description="cross-modal embedding engine (desk-scale, deterministic)")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--images", type=int, required=True)
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--n-m", dest="n_m", type=int, default=4)
    p.add_argument("--n-r", dest="n_r", type=int, default=36)
    p.add_argument("--d-in", dest="d_in", type=int, default=512)
    p.add_argument("--d-r", dest="d_r", type=int, default=0,
                   help="region width (default: d_in // 2)")
    p.add_argument("--len-min", dest="len_min", type=int, default=4)
    p.add_argument("--len-max", dest="len_max", type=int, default=8)
    p.add_argument("--captions-per-image", dest="captions_per_image",
                   type=int, default=5)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="retrieval metrics from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("all", "train", "val"), default="all")
    p.add_argument("--subset", action="append",
                   help="file of image indices (repeatable)")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--no-distances", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("distances", help="embedding distance statistics")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("all", "train", "val"), default="all")
    p.add_argument("--out")
    p.set_defaults(func=cmd_distances)

    p = sub.add_parser("gradcheck", help="finite-difference verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-coords", dest="max_coords", type=int, default=24,
                   help="coordinates sampled per large parameter")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("inspect", help="dump a feature-bank header")
    p.add_argument("path")
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SynthError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BankFormatError, BankPayloadError, CaptionFormatError,
            CheckpointFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericAbort, DegenerateEmbeddingError) as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DimensionError as exc:  # a ValueError that only a defect raises
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
