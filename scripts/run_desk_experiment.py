#!/usr/bin/env python3
"""End-to-end desk experiment: corpus -> iterative training -> report.

Generates a synthetic paired corpus, runs the full iterative schedule in
both directions, prints a per-stage validation table, picks the optimal
checkpoint per direction, and renders contact sheets of its outputs.

The defaults finish in about a minute on a laptop; pass --stages 4
--epochs 16 --base-channels 16 --si-hidden 32 for the configuration the
conformance tests exercise.  A bad option or corpus exits 2 or 3 with one
``error: <kind>: <message>`` line, as ``sgs`` does.
"""
import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sgs.cli import _fail, _split_corpus
from sgs.cli import main as cli_main
from sgs.cycletrain import ConfigError, TrainConfig, run_iterative, select_optimal
from sgs.datagen import generate_corpus
from sgs.layout import DataError


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default="desk_run", help="output directory")
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--size", type=int, default=32, choices=(32, 64, 128, 256))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--stages", type=int, default=2)
    p.add_argument("--epochs", type=int, default=6)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--base-channels", type=int, default=8)
    p.add_argument("--si-hidden", type=int, default=8)
    p.add_argument("--val-count", type=int, default=2)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        return run(args)
    except DataError as err:
        return _fail(3, "data", err)
    except ConfigError as err:
        return _fail(2, "config", err)


def run(args):
    cfg = TrainConfig(epochs=args.epochs, image_size=args.size,
                      depth=args.depth, base_channels=args.base_channels,
                      si_hidden=args.si_hidden, stages=args.stages,
                      val_count=args.val_count, seed=args.seed).validate()
    os.makedirs(args.out, exist_ok=True)

    corpus_dir = os.path.join(args.out, "corpus")
    manifest = generate_corpus(corpus_dir, args.samples, args.size,
                               seed=args.seed)
    train, val = _split_corpus(manifest, cfg.val_count)
    print(f"corpus: {len(train) + len(val)} paired samples at {args.size}px "
          f"in {corpus_dir}")

    run_dir = os.path.join(args.out, "run")
    result = run_iterative(train, val, cfg, run_dir)

    print(f"\n{'stage':>5} {'dir':>3} {'ssim':>8} {'fsim':>8} "
          f"{'frechet':>10} {'last-ict':>10}")
    for direction in ("k", "o"):
        for ckpt in result["checkpoints"][direction]:
            ict = result["stages"][ckpt.stage][direction].epoch_ict[-1]
            print(f"{ckpt.stage:>5} {direction:>3} "
                  f"{ckpt.val['ssim_mean']:>8.4f} "
                  f"{ckpt.val['fsim_mean']:>8.4f} "
                  f"{ckpt.val['frechet_proxy']:>10.4f} "
                  f"{ict:>10.5f}")

    report = {}
    for direction, label in (("k", "photo->sketch"), ("o", "sketch->photo")):
        best = select_optimal(result["checkpoints"][direction])
        report[direction] = {"stage": best.stage, "path": best.path,
                             "val": best.val}
        print(f"\noptimal {label}: stage {best.stage} ({best.path})")
        sheet_dir = os.path.join(args.out, f"sheet_{direction}")
        rc = cli_main(["synthesize", "--model", best.path,
                       "--data", manifest, "--out", sheet_dir])
        if rc != 0:
            return rc
    with open(os.path.join(args.out, "report.json"), "w",
              encoding="utf-8") as f:
        f.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nreport written to {os.path.join(args.out, 'report.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
