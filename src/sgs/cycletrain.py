"""Biphasic training: independent stages plus iterative cycle refinement.

Direction "k" synthesizes sketches from photos, direction "o" photos
from sketches.  Stage 0 trains each direction alone.  Every later stage
re-initializes both networks from scratch and adds a distillation term:
the candidate (real or synthesized) target image is pushed through the
*frozen* opposite-direction generator from the previous stage, and L1
differences over five tapped activations (encoder bottleneck plus the
first four decoder blocks) tie the two branches together.  Frozen
generators only ever shape gradients that flow through them; their own
weights are never stepped.

The checkpoint is the only hand-off between stages: each cycle stage
reads its teacher back with ``load_generator`` from the checkpoint the
previous stage recorded, digest checked, so a run holds one teacher at a
time rather than every generator it trained.
"""
from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, dataclass, field

import numpy as np

from .layout import DataError
from .losses import (
    FeatureExtractor,
    LossLog,
    LossWeights,
    ParsingOracle,
    config_key,
    discriminator_loss,
    objective,
    target_record,
)
from .metrics import evaluate_pairs
from .network import Generator, PatchDiscriminator
from .numerics import (
    Adam,
    adam_step,
    atomic_open,
    checkpoint_entry,
    load_checkpoint,
    lr_at_epoch,
    restore_params,
    save_checkpoint,
)

DIRECTIONS = ("k", "o")  # k: photo -> sketch, o: sketch -> photo
DEFAULT_ICT_TAPS = (
    "enc_bottleneck", "dec_block1", "dec_block2", "dec_block3", "dec_block4",
)

# Upper bound of ``base_channels`` and ``si_hidden``, checked before any
# weight is drawn, so a mistyped width is one config error rather than an
# allocation failure.  A base of 1024 already gives the generator 3x3
# convs of 8192 x 8192 channels, 4.5 GiB of weights each.
MAX_WIDTH = 1024

MODEL_JSON_KEYS = (
    "depth", "base_channels", "si_hidden", "in_channels", "out_channels",
    "use_saliency", "image_size", "seed",
)


class ConfigError(ValueError):
    """Configuration that cannot be trained with."""


class NumericalError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class TrainConfig:
    """Everything one run needs; all randomness derives from ``seed``."""

    epochs: int = config_key(40, "training epochs per stage (>= 2)")
    lr: float = config_key(2e-4, "initial Adam learning rate")
    beta1: float = config_key(0.5, "Adam beta1")
    beta2: float = config_key(0.999, "Adam beta2")
    weights: LossWeights = field(default_factory=LossWeights)
    seed: int = config_key(7, "master seed for all randomness")
    image_size: int = config_key(64, "square image side in pixels")
    depth: int = config_key(5, "encoder/decoder depth")
    base_channels: int = config_key(16, "channel width of the first encoder conv")
    si_hidden: int = config_key(32, "hidden width of the SI modulation convs")
    use_saliency: bool = config_key(True, "concatenate the saliency channel")
    stages: int = config_key(4, "iterative cycle stages after stage 0")
    variance_mode: str = config_key("literal", "variance node form: literal or masked")
    val_count: int = config_key(8, "samples held out for validation")
    ict_taps: tuple = config_key(DEFAULT_ICT_TAPS,
                                 "comma-separated tap names for the cycle term")

    def validate(self):
        if self.epochs < 2:
            raise ConfigError(f"epochs must be >= 2, got {self.epochs}")
        if self.stages < 1:
            raise ConfigError(f"stages must be >= 1, got {self.stages}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.lr <= 0 or not np.isfinite(self.lr):
            raise ConfigError(f"lr must be positive, got {self.lr}")
        for name in ("beta1", "beta2"):
            beta = getattr(self, name)
            if not 0.0 <= beta < 1.0:  # also rejects NaN
                raise ConfigError(f"{name} must be in [0, 1), got {beta}")
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.image_size < 32:
            # The patch discriminator's five k=4 convolutions shrink the
            # map below 1x1 for anything smaller.
            raise ConfigError(f"image_size must be >= 32, got {self.image_size}")
        # Bounded before the shift: 2**depth above image_size cannot divide it.
        if self.depth >= self.image_size.bit_length() or self.image_size % (1 << self.depth):
            raise ConfigError(
                f"image_size {self.image_size} must divide by 2**depth, got depth {self.depth}"
            )
        for name in ("base_channels", "si_hidden"):
            width = getattr(self, name)
            if not 1 <= width <= MAX_WIDTH:
                raise ConfigError(f"{name} must be in [1, {MAX_WIDTH}], got {width}")
        if self.variance_mode not in ("literal", "masked"):
            raise ConfigError(f"unknown variance mode {self.variance_mode!r}")
        try:
            self.weights.validate()
        except ValueError as err:
            raise ConfigError(str(err)) from err
        return self

    def validate_taps(self):
        """Check ``ict_taps``; needed only where a cycle stage will run."""
        if len(self.ict_taps) != 5:
            raise ConfigError(
                f"cycle distillation needs exactly 5 taps, got {len(self.ict_taps)}"
            )
        for name in self.ict_taps:
            if name != "enc_bottleneck":
                if not name.startswith("dec_block") or not name[9:].isdigit():
                    raise ConfigError(f"unknown tap name {name!r}")
                if int(name[9:]) > self.depth:
                    raise ConfigError(
                        f"tap {name!r} exceeds decoder depth {self.depth}"
                    )
        return self


@dataclass
class Checkpoint:
    stage: int
    direction: str
    path: str
    val: dict
    digest: str


@dataclass
class StageResult:
    checkpoint: Checkpoint
    epoch_total: list
    epoch_ict: list


def _dir_index(direction):
    if direction not in DIRECTIONS:
        raise ConfigError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    return DIRECTIONS.index(direction)


def _other(direction):
    return "o" if direction == "k" else "k"


def direction_channels(direction):
    """(source channels, target channels) for a direction."""
    return (3, 1) if _dir_index(direction) == 0 else (1, 3)


def sample_views(sample, direction):
    """(source, source saliency, source layout, target, target saliency,
    target layout) for one direction.

    The generator and the graph terms condition on the source-side
    layout; the frozen opposite generator, whose own source is the
    target image, conditions on the target-side saliency and layout.
    """
    if _dir_index(direction) == 0:
        return (sample.photo, sample.saliency_photo, sample.layout_photo,
                sample.sketch, sample.saliency_sketch, sample.layout_sketch)
    return (sample.sketch, sample.saliency_sketch, sample.layout_sketch,
            sample.photo, sample.saliency_photo, sample.layout_photo)


def size_text(h, w):
    """An image size as messages print it: ``32px`` if square, else ``32x64px``."""
    return f"{h}px" if h == w else f"{h}x{w}px"


def save_generator(gen, out_dir):
    """Write ``model.bin`` (the weights, by :func:`save_checkpoint`) and
    ``model.json`` (the constructor arguments) into ``out_dir``; returns
    the sha256 of the ``model.bin`` bytes written."""
    os.makedirs(out_dir, exist_ok=True)
    digest = save_checkpoint(os.path.join(out_dir, "model.bin"),
                             [(name, p.data) for name, p in gen.named_params()])
    cfg = {k: getattr(gen, k) for k in MODEL_JSON_KEYS}
    if not isinstance(gen.seed, int):
        cfg["seed"] = list(gen.seed)
    with atomic_open(os.path.join(out_dir, "model.json")) as f:
        f.write(json.dumps(cfg, sort_keys=True, indent=2) + "\n")
    return digest


def _checkpoint_widths(blob, bin_path):
    """The widths of ``MODEL_JSON_KEYS`` that ``model.bin``'s entries fix:
    ``depth`` counts the ``enc.<i>.w`` entries, the first encoder conv
    holds ``base_channels`` and ``in_channels`` + 1 (the saliency plane),
    the first SI module's shared conv ``si_hidden`` and the output conv
    ``out_channels``."""
    base, cin = checkpoint_entry(blob, "enc.0.w", bin_path).shape[:2]
    return {"depth": sum(re.fullmatch(r"enc\.\d+\.w", name) is not None for name in blob),
            "base_channels": base, "in_channels": cin - 1,
            "si_hidden": checkpoint_entry(blob, "blocks.0.si1.shared.w", bin_path).shape[0],
            "out_channels": checkpoint_entry(blob, "out.w", bin_path).shape[0]}


def load_generator(model_dir, digest=None):
    """Rebuild a generator from model.json + model.bin.

    ``model.json`` holds every constructor argument (``MODEL_JSON_KEYS``),
    so the generator is built from it alone, without drawing the weights
    (:meth:`Generator.unweighted`); ``model.bin``, read once by
    :func:`load_checkpoint`, then supplies them, and the generator is
    returned frozen.  The widths ``model.json`` declares are first
    checked against ``model.bin``'s entry shapes, so no generator wider
    than its weights is built.  Anything missing, mistyped or
    inconsistent, such as a checkpoint saved by an older version, an
    empty seed list or channel counts that are neither direction's,
    raises ``DataError``, as does a ``model.bin`` whose sha256 differs
    from ``digest`` when one is given: a flipped byte inside finite
    weights passes every other check.  The digest is that of the bytes
    the weights were parsed from, so a file replaced during the load
    cannot pass unchecked.
    """
    json_path = os.path.join(model_dir, "model.json")
    bin_path = os.path.join(model_dir, "model.bin")
    for p in (json_path, bin_path):
        if not os.path.exists(p):
            raise DataError(f"missing checkpoint file {p}")
    with open(json_path, "r", encoding="utf-8") as f:
        try:
            cfg = json.load(f)
        except ValueError as err:
            raise DataError(f"{json_path}: not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise DataError(f"{json_path}: expected a JSON object, got {type(cfg).__name__}")
    missing = [k for k in MODEL_JSON_KEYS if k not in cfg]
    if missing:
        raise DataError(f"{json_path}: missing keys {missing}")
    # The seed may also be a non-empty list, whose entries the generator's
    # rng checks.
    mistyped = [k for k in MODEL_JSON_KEYS
                if type(cfg[k]) is not (bool if k == "use_saliency" else int)
                and not (k == "seed" and type(cfg[k]) is list and cfg[k])]
    if mistyped:
        raise DataError(f"{json_path}: wrong value type for {mistyped}")
    try:
        blob, found = load_checkpoint(bin_path)
    except ValueError as err:
        raise DataError(f"corrupt checkpoint in {model_dir}: {err}") from err
    if digest is not None and found != digest:
        raise DataError(f"{bin_path}: sha256 differs from the recorded digest {digest}")
    try:
        wrong = [f"{k} {cfg[k]} (model.bin: {v})"
                 for k, v in _checkpoint_widths(blob, bin_path).items() if cfg[k] != v]
        if wrong:
            raise ValueError(f"{json_path}: widths differ from model.bin: {', '.join(wrong)}")
        gen = Generator.unweighted(**{k: cfg[k] for k in MODEL_JSON_KEYS})
        restore_params(blob, gen.named_params(), bin_path)
    except (KeyError, IndexError, TypeError, ValueError) as err:
        # str() of a KeyError quotes its message; print the message itself.
        msg = err.args[0] if isinstance(err, KeyError) and err.args else err
        raise DataError(f"corrupt checkpoint in {model_dir}: {msg}") from err
    if (gen.in_channels, gen.out_channels) not in (direction_channels("k"),
                                                   direction_channels("o")):
        raise DataError(f"{json_path}: in_channels {gen.in_channels} and out_channels "
                        f"{gen.out_channels} map neither photo (3) to sketch (1) nor back")
    gen.freeze()
    return gen


def synthesize_sample(gen, sample, direction):
    """Run one sample through a generator; returns the fake as numpy."""
    src, m_src, lay_src, _, _, _ = sample_views(sample, direction)
    return gen.forward(src, m_src, lay_src).data


def feature_extractor(seed, direction):
    """The fixed extractor of a run's direction: the perceptual term and
    the Frechet proxy's embedding both go through it."""
    return FeatureExtractor(direction_channels(direction)[1],
                            seed=[seed, 91, _dir_index(direction)])


def eval_report(gen, samples, direction, extractor, map_fn=map):
    """Score ``gen`` on (target, synthesized) pairs of ``samples``."""
    reals = [sample_views(s, direction)[3].data for s in samples]
    fakes = [synthesize_sample(gen, s, direction) for s in samples]
    return evaluate_pairs(reals, fakes, embed=extractor.embed, map_fn=map_fn)


def evaluate_direction(gen, val_samples, direction, extractor):
    """Pairwise SSIM/FSIM plus the embedding Frechet proxy on a val set."""
    return eval_report(gen, val_samples, direction, extractor).summary()


def train_direction(train_samples, val_samples, cfg, direction, stage,
                    frozen_opp, out_dir):
    """Train one direction for one stage; writes the checkpoint directory.

    ``frozen_opp`` is the opposite-direction generator from the previous
    stage (None at stage 0, where the cycle term is absent).  Both sample
    lists must be non-empty and every sample ``cfg.image_size`` square;
    that and the config are checked before anything is written.  The
    trained generator, its discriminator and their Adam state live only
    for the call: the checkpoint directory holds the weights, and the
    returned records name it with its digest.
    """
    cfg.validate()
    if not train_samples:
        raise ConfigError("no training samples")
    if not val_samples:
        raise ConfigError("no validation samples")
    for s in (*train_samples, *val_samples):
        h, w = s.photo.data.shape[1:]
        if (h, w) != (cfg.image_size, cfg.image_size):
            raise ConfigError(f"image_size {cfg.image_size} does not match corpus "
                              f"images ({size_text(h, w)})")
    didx = _dir_index(direction)
    in_ch, out_ch = direction_channels(direction)
    if frozen_opp is not None:
        cfg.validate_taps()
        if (frozen_opp.in_channels, frozen_opp.out_channels) != (out_ch, in_ch):
            raise ConfigError(
                f"frozen opposite generator maps {frozen_opp.in_channels}->"
                f"{frozen_opp.out_channels} channels; direction {direction!r} "
                f"needs {out_ch}->{in_ch}"
            )
        frozen_opp.freeze()

    gen = Generator(in_ch, out_ch, depth=cfg.depth, base_channels=cfg.base_channels,
                    si_hidden=cfg.si_hidden, use_saliency=cfg.use_saliency,
                    image_size=cfg.image_size, seed=[cfg.seed, stage, didx, 0])
    disc = PatchDiscriminator(in_ch, out_ch, base_channels=cfg.base_channels,
                              use_saliency=cfg.use_saliency,
                              seed=[cfg.seed, stage, didx, 1])
    extractor = feature_extractor(cfg.seed, direction)
    oracle = ParsingOracle(out_ch, seed=[cfg.seed, 92, didx])
    d_opt = Adam(disc.params(), cfg.beta1, cfg.beta2)
    g_opt = Adam(gen.params(), cfg.beta1, cfg.beta2)
    shuffle_rng = np.random.default_rng([cfg.seed, stage, didx, 4])
    targets = [target_record(sample_views(s, direction), extractor, oracle,
                             cfg.variance_mode, frozen_opp, cfg.ict_taps)
               for s in train_samples]

    os.makedirs(out_dir, exist_ok=True)
    log = LossLog(os.path.join(out_dir, "losses.csv"))
    step = 0
    epoch_total, epoch_ict = [], []

    for epoch in range(cfg.epochs):
        lr = lr_at_epoch(cfg.lr, epoch, cfg.epochs)
        epoch_vals = []

        for i in shuffle_rng.permutation(len(train_samples)):
            target = targets[i]
            src, m_src, lay_src, tgt, _, _ = target.views

            # Discriminator phase: the fake is detached so only D learns here.
            # Every gradient is None: adam_step releases those it applies.
            fake = gen.forward(src, m_src, lay_src)
            loss_d = discriminator_loss(disc, src, m_src, tgt, fake)
            if not np.isfinite(loss_d.data):
                raise NumericalError(
                    f"non-finite discriminator loss at stage {stage} "
                    f"direction {direction} step {step}"
                )
            loss_d.backward()
            adam_step(d_opt, lr)

            # Generator phase, scored by the discriminator just updated.
            # D is frozen for it: its convs compute input gradients only.
            disc.freeze()
            terms = objective(fake, disc, target, cfg.weights)
            if not np.isfinite(terms["l_total"].data):
                raise NumericalError(
                    f"non-finite generator loss at stage {stage} "
                    f"direction {direction} step {step}"
                )
            terms["l_total"].backward()
            adam_step(g_opt, lr)
            disc.freeze(False)

            step += 1
            vals = {key: t.item() for key, t in terms.items()}
            vals["l_gan_d"] = loss_d.item()
            log.append(step, vals)
            epoch_vals.append(vals)

        epoch_total.append(sum(v["l_total"] for v in epoch_vals) / len(epoch_vals))
        epoch_ict.append(sum(v["l_ict"] for v in epoch_vals) / len(epoch_vals))

    gen.freeze()  # the val forwards record no graph
    digest = save_generator(gen, out_dir)
    val = evaluate_direction(gen, val_samples, direction, extractor)
    with atomic_open(os.path.join(out_dir, "val_metrics.json")) as f:
        f.write(json.dumps(val, sort_keys=True) + "\n")
    ckpt = Checkpoint(stage=stage, direction=direction, path=out_dir, val=val,
                      digest=digest)
    return StageResult(checkpoint=ckpt, epoch_total=epoch_total, epoch_ict=epoch_ict)


def write_manifest(out_root, cfg, checkpoints):
    """Write ``manifest.json``: the run config plus the checkpoints, as
    lists keyed by direction."""
    manifest = {
        "config": asdict(cfg),
        "checkpoints": {d: [asdict(c) for c in ckpts] for d, ckpts in checkpoints.items()},
    }
    with atomic_open(os.path.join(out_root, "manifest.json")) as f:
        f.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def run_iterative(train_samples, val_samples, cfg, out_root):
    """Full iterative schedule: stage 0 plus ``cfg.stages`` cycle stages.

    Every stage trains both directions from scratch; stage i+1 distills
    through the stage-i generator of the opposite direction, read back
    from the checkpoint stage i recorded and checked against its digest.
    Only that teacher is alive while a task trains.  ``manifest.json`` is
    rewritten after every task, so a run stopped part way lists the tasks
    it finished.  Returns per-direction checkpoint lists plus per-stage
    results.
    """
    cfg.validate().validate_taps()
    checkpoints = {d: [] for d in DIRECTIONS}
    stage_results = []

    def teacher(direction, stage):
        if stage == 0:  # stage 0 has no cycle term
            return None
        prev = checkpoints[_other(direction)][stage - 1]
        return load_generator(prev.path, prev.digest)

    for stage in range(cfg.stages + 1):
        results = {}
        for d in DIRECTIONS:
            out_dir = os.path.join(out_root, f"stage{stage}_{d}")
            results[d] = train_direction(train_samples, val_samples, cfg, d, stage,
                                         teacher(d, stage), out_dir)
            checkpoints[d].append(results[d].checkpoint)
            write_manifest(out_root, cfg, checkpoints)
        stage_results.append(results)

    return {"checkpoints": checkpoints, "stages": stage_results}


def select_optimal(checkpoints):
    """Lowest Frechet proxy wins, and a missing (None) proxy ranks last;
    ties break toward higher mean SSIM."""
    if not checkpoints:
        raise ValueError("select_optimal needs at least one checkpoint")

    def rank(c):
        proxy = c.val["frechet_proxy"]
        return (float("inf") if proxy is None else proxy, -c.val["ssim_mean"])

    return min(checkpoints, key=rank)
