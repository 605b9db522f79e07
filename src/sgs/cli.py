"""Command-line entry point.

Subcommands: ``datagen``, ``train``, ``train-iterative``, ``synthesize``,
``eval``, ``graph-dump``.  Exit codes: 0 success, 2 configuration error,
3 data error, 4 numerical failure.  Training options may come from a
key=value config file (``--config``) with command-line flags taking
precedence; every piece of randomness derives from ``--seed``.  The
``SGS_THREADS`` environment variable sizes ``eval``'s one metric worker
pool (default 1).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields as dc_fields

import numpy as np

from .cycletrain import (
    DIRECTIONS,
    ConfigError,
    NumericalError,
    TrainConfig,
    eval_report,
    feature_extractor,
    load_generator,
    run_iterative,
    size_text,
    synthesize_sample,
    train_direction,
    write_manifest,
)
from .datagen import generate_corpus
from .graphs import graph_dump
from .layout import DataError, load_corpus, write_gray, write_photo
from .losses import LossWeights
from .numerics import atomic_open

_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}

# Training config surface: key -> the dataclass field that declares it,
# whose default gives the key's type and whose metadata its help text.
_TRAIN_KEYS = {f.name: f for f in dc_fields(TrainConfig) if f.name != "weights"}
_TRAIN_KEYS.update({f"weight_{f.name}": f for f in dc_fields(LossWeights)})


def _coerce(key, text):
    """``text``, a flag's or a config line's value, as ``key``'s type."""
    if key not in _TRAIN_KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    typ = type(_TRAIN_KEYS[key].default)
    if typ is tuple:
        return tuple(p.strip() for p in text.split(",") if p.strip())
    try:
        return _BOOL_WORDS[text.strip().lower()] if typ is bool else typ(text)
    except (KeyError, ValueError) as err:
        shown = text if len(text) <= 40 else text[:40] + "..."
        raise ConfigError(f"{key}: cannot parse {shown!r} as {typ.__name__}") from err


def read_config_file(path):
    """Parse a key = value config file (comments with '#')."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        values[key] = _coerce(key, val)
    return values


def build_train_config(args, defaults=None):
    """Merge TrainConfig defaults <- ``defaults`` <- config file <-
    command-line flags."""
    merged = dict(defaults or {})
    if args.config:
        merged.update(read_config_file(args.config))
    for key in _TRAIN_KEYS:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = _coerce(key, cli_val)
    weights = {k.removeprefix("weight_"): v for k, v in merged.items()
               if k.startswith("weight_")}
    cfg_kwargs = {k: v for k, v in merged.items() if not k.startswith("weight_")}
    cfg = TrainConfig(weights=LossWeights(**weights), **cfg_kwargs)
    return cfg.validate()


def _add_train_flags(parser):
    parser.add_argument("--config", help="key = value config file")
    for key, f in _TRAIN_KEYS.items():
        parser.add_argument("--" + key.replace("_", "-"), help=f.metadata["help"])


def _split_corpus(manifest, cfg):
    """(train, val) samples of a corpus, the last ``cfg.val_count`` held
    out; ``train_direction`` checks their size against ``cfg``."""
    samples = load_corpus(manifest)
    if cfg.val_count < 2:
        raise ConfigError(f"val_count must be >= 2, got {cfg.val_count}")
    if cfg.val_count >= len(samples):
        raise ConfigError(f"val_count {cfg.val_count} leaves no training data "
                          f"(corpus has {len(samples)})")
    return samples[:-cfg.val_count], samples[-cfg.val_count:]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_datagen(args):
    manifest = generate_corpus(args.out, args.n, args.size, args.seed,
                               mode=args.mode, glasses_frac=args.glasses_frac)
    print(f"wrote {args.n} samples to {manifest}")
    return 0


def cmd_train(args):
    cfg = build_train_config(args)
    train, val = _split_corpus(args.data, cfg)
    out_dir = os.path.join(args.out, f"stage0_{args.direction}")
    result = train_direction(train, val, cfg, args.direction, 0, None, out_dir)
    write_manifest(args.out, cfg, {args.direction: [result.checkpoint]})
    print(f"stage0_{args.direction}: val {json.dumps(result.checkpoint.val, sort_keys=True)}")
    return 0


def cmd_train_iterative(args):
    cfg = build_train_config(args)
    train, val = _split_corpus(args.data, cfg)
    out = run_iterative(train, val, cfg, args.out)
    for d, ckpts in out["checkpoints"].items():
        last = ckpts[-1]
        print(f"direction {d}: {len(ckpts)} checkpoints, "
              f"final val {json.dumps(last.val, sort_keys=True)}")
    return 0


def _load_model_and_data(args):
    gen = load_generator(args.model)
    direction = "k" if gen.in_channels == 3 else "o"  # the input channels fix it
    samples = load_corpus(args.data)  # one image size throughout
    h, w = samples[0].photo.data.shape[1:]
    if (h, w) != (gen.image_size, gen.image_size):
        raise DataError(f"corpus images are {size_text(h, w)} but the model was "
                        f"trained at {gen.image_size}px")
    return gen, direction, samples


def cmd_synthesize(args):
    gen, direction, samples = _load_model_and_data(args)
    if args.ids:
        wanted = set(args.ids.split(","))
        samples = [s for s in samples if s.id in wanted]
        missing = wanted - {s.id for s in samples}
        if missing:
            raise DataError(f"ids not in corpus: {sorted(missing)}")
    os.makedirs(args.out, exist_ok=True)
    tiles = []
    for s in samples:
        fake = synthesize_sample(gen, s, direction)
        if fake.shape[0] == 1:
            path = os.path.join(args.out, f"{s.id}_fake.pgm")
            write_gray(path, fake[0])
            tiles.append(np.repeat(fake, 3, axis=0))
        else:
            path = os.path.join(args.out, f"{s.id}_fake.ppm")
            write_photo(path, fake)
            tiles.append(fake)
    _write_contact_sheet(os.path.join(args.out, "contact_sheet.ppm"), tiles)
    print(f"synthesized {len(samples)} images into {args.out}")
    return 0


def _write_contact_sheet(path, tiles, columns=8):
    if not tiles:
        raise DataError("no images to compose into a contact sheet")
    h, w = tiles[0].shape[1:]
    cols = min(columns, len(tiles))
    rows = (len(tiles) + cols - 1) // cols
    sheet = np.ones((3, rows * h, cols * w))
    for i, tile in enumerate(tiles):
        r, c = divmod(i, cols)
        sheet[:, r * h:(r + 1) * h, c * w:(c + 1) * w] = tile
    write_photo(path, sheet)


def cmd_eval(args):
    gen, direction, samples = _load_model_and_data(args)
    # model.json keeps the generator's seed list; the run seed leads it.
    seed = gen.seed[0] if isinstance(gen.seed, list) else gen.seed
    raw = os.environ.get("SGS_THREADS", "")
    try:
        threads = int(raw) if raw else 1
    except ValueError as err:
        raise ConfigError(f"SGS_THREADS must be an integer, got {raw!r}") from err
    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        report = eval_report(gen, samples, direction,
                             feature_extractor(seed, direction), map_fn=pool.map)

    os.makedirs(args.out, exist_ok=True)
    with atomic_open(os.path.join(args.out, "val_metrics.json")) as f:
        f.write(json.dumps(report.summary(), sort_keys=True) + "\n")
    with atomic_open(os.path.join(args.out, "per_sample.csv")) as f:
        f.write("id,ssim,fsim\n")
        for s, s_v, f_v in zip(samples, report.ssim_values, report.fsim_values):
            f.write(f"{s.id},{s_v!r},{f_v!r}\n")
    print(json.dumps(report.summary(), sort_keys=True))
    return 0


def cmd_graph_dump(args):
    samples = load_corpus(args.data)
    match = [s for s in samples if s.id == args.id]
    if not match:
        raise DataError(f"sample id {args.id!r} not found in {args.data}")
    s = match[0]
    if args.side == "photo":
        dump = graph_dump(s.photo, s.layout_photo)
    else:
        dump = graph_dump(s.sketch, s.layout_sketch)
    text = json.dumps(dump, sort_keys=True, indent=2)
    if args.out:
        with atomic_open(args.out) as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sgs",
        description="Semantic-driven photo/sketch synthesis at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a procedural paired corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--size", type=int, default=64, help="square image side")
    p.add_argument("--seed", type=int, default=7, help="corpus seed")
    p.add_argument("--mode", choices=["aligned", "deformed"], default="aligned",
                   help="sketch-side geometry mode")
    p.add_argument("--glasses-frac", type=float, default=0.5,
                   help="fraction of samples wearing glasses")
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("train", help="train one direction, stage 0 only")
    p.add_argument("--data", required=True, help="corpus manifest")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--direction", choices=DIRECTIONS, default="k",
                   help="k: photo->sketch, o: sketch->photo")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-iterative", help="full iterative cycle training")
    p.add_argument("--data", required=True, help="corpus manifest")
    p.add_argument("--out", required=True, help="run directory")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train_iterative)

    p = sub.add_parser("synthesize", help="run a checkpoint over a corpus")
    p.add_argument("--model", required=True, help="checkpoint directory")
    p.add_argument("--data", required=True, help="corpus manifest")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--ids", default=None, help="comma-separated sample ids")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("eval", help="score a checkpoint against targets")
    p.add_argument("--model", required=True, help="checkpoint directory")
    p.add_argument("--data", required=True, help="corpus manifest")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("graph-dump", help="emit graph nodes/edges for a sample")
    p.add_argument("--data", required=True, help="corpus manifest")
    p.add_argument("--id", required=True, help="sample id")
    p.add_argument("--side", choices=["photo", "sketch"], default="sketch")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_graph_dump)
    return parser


def _fail(code, kind, err):
    msg = "; ".join(str(err).splitlines())
    print(f"error: {kind}: {msg}", file=sys.stderr)
    return code


def run_command(fn, args):
    """``fn(args)``'s exit code, or a failure's code after one ``error:
    <kind>: <message>`` line: data 3, numerical 4, config or
    ``ValueError`` 2, ``OSError`` 3."""
    try:
        return fn(args)
    except DataError as err:
        return _fail(3, "data", err)
    except NumericalError as err:
        return _fail(4, "numerical", err)
    except (ConfigError, ValueError) as err:
        return _fail(2, "config", err)
    except OSError as err:
        return _fail(3, "data", err)


def main(argv=None):
    args = build_parser().parse_args(argv)
    return run_command(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
