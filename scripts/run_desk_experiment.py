#!/usr/bin/env python3
"""End-to-end desk experiment: corpus -> iterative training -> report.

Generates a synthetic paired corpus, runs the full iterative schedule in
both directions, prints a per-stage validation table, picks the optimal
checkpoint per direction, and renders contact sheets of its outputs.

The defaults (``DESK_DEFAULTS``) finish in about a minute on a laptop.
Every training key of ``sgs train-iterative`` is taken too, as a flag or
from a ``--config`` file, in that order of precedence over the defaults;
pass --stages 4 --epochs 16 --base-channels 16 --si-hidden 32 for the
configuration the conformance tests exercise.  A failure exits with
``sgs``'s code and one ``error: <kind>: <message>`` line: a bad option 2,
an unreadable corpus or unwritable output 3, a non-finite loss 4.
"""
import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sgs.cli import _add_train_flags, _split_corpus, build_train_config, run_command
from sgs.cli import main as cli_main
from sgs.cycletrain import DIRECTIONS, run_iterative, select_optimal
from sgs.datagen import generate_corpus
from sgs.numerics import atomic_open


# Quick settings that override TrainConfig's defaults for this script.
DESK_DEFAULTS = {"epochs": 6, "image_size": 32, "depth": 4, "base_channels": 8,
                 "si_hidden": 8, "stages": 2, "val_count": 2}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default="desk_run", help="output directory")
    p.add_argument("--samples", type=int, default=8)
    _add_train_flags(p)
    return p.parse_args(argv)


def main(argv=None):
    return run_command(run, parse_args(argv))


def run(args):
    cfg = build_train_config(args, DESK_DEFAULTS)
    os.makedirs(args.out, exist_ok=True)

    corpus_dir = os.path.join(args.out, "corpus")
    manifest = generate_corpus(corpus_dir, args.samples, cfg.image_size,
                               seed=cfg.seed)
    train, val = _split_corpus(manifest, cfg)
    print(f"corpus: {len(train) + len(val)} paired samples at {cfg.image_size}px "
          f"in {corpus_dir}")

    run_dir = os.path.join(args.out, "run")
    result = run_iterative(train, val, cfg, run_dir)

    print(f"\n{'stage':>5} {'dir':>3} {'ssim':>8} {'fsim':>8} "
          f"{'frechet':>10} {'last-ict':>10}")
    for direction in DIRECTIONS:
        for ckpt in result["checkpoints"][direction]:
            ict = result["stages"][ckpt.stage][direction].epoch_ict[-1]
            print(f"{ckpt.stage:>5} {direction:>3} "
                  f"{ckpt.val['ssim_mean']:>8.4f} "
                  f"{ckpt.val['fsim_mean']:>8.4f} "
                  f"{ckpt.val['frechet_proxy']:>10.4f} "
                  f"{ict:>10.5f}")

    report = {}
    for direction, label in zip(DIRECTIONS, ("photo->sketch", "sketch->photo")):
        best = select_optimal(result["checkpoints"][direction])
        report[direction] = {"stage": best.stage, "path": best.path,
                             "val": best.val}
        print(f"\noptimal {label}: stage {best.stage} ({best.path})")
        sheet_dir = os.path.join(args.out, f"sheet_{direction}")
        rc = cli_main(["synthesize", "--model", best.path,
                       "--data", manifest, "--out", sheet_dir])
        if rc != 0:
            return rc
    with atomic_open(os.path.join(args.out, "report.json")) as f:
        f.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nreport written to {os.path.join(args.out, 'report.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
