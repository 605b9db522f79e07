"""Tests for biphasic cycle training: config validation, direction
routing, checkpoint round-trips, the cycle-distillation term as
``objective`` computes it, and small end-to-end training runs with
determinism and frozen-weight checks.
"""
import dataclasses
import gc
import hashlib
import json
import os
import tempfile
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgs.cycletrain import (
    DEFAULT_ICT_TAPS,
    DIRECTIONS,
    Checkpoint,
    ConfigError,
    TrainConfig,
    direction_channels,
    evaluate_direction,
    feature_extractor,
    load_generator,
    run_iterative,
    sample_views,
    save_generator,
    select_optimal,
    synthesize_sample,
    train_direction,
)
from sgs.datagen import generate_corpus
from sgs.layout import DataError, SaliencyMap, SemanticLayout, load_corpus
from sgs.losses import (
    FeatureExtractor,
    LossWeights,
    ParsingOracle,
    discriminator_loss,
    objective,
    tap_l1,
    target_record,
)
from sgs.network import Generator, PatchDiscriminator
from sgs.numerics import Tensor, _toposort, load_checkpoint

TINY = dict(epochs=2, image_size=32, depth=4, base_channels=4, si_hidden=4,
            stages=1, val_count=2, seed=3)


def tiny_config(**over):
    kw = dict(TINY)
    kw.update(over)
    return TrainConfig(**kw)


def rand_layout(rng, size):
    return SemanticLayout(rng.integers(0, 12, size=(size, size)).astype(np.uint8))


class TestTrainConfig:
    def test_defaults_validate(self):
        cfg = TrainConfig()
        assert cfg.validate() is cfg
        assert cfg.epochs == 40 and cfg.lr == 2e-4 and cfg.seed == 7
        assert cfg.stages == 4 and cfg.image_size == 64 and cfg.depth == 5

    @pytest.mark.parametrize("field,value,hint", [
        ("epochs", 1, "epochs"),
        ("stages", 0, "stages"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("lr", 0.0, "lr"),
        ("lr", float("nan"), "lr"),
        ("beta1", -1.0, "beta1"),
        ("beta1", 1.5, "beta1"),
        ("beta1", float("nan"), "beta1"),
        ("beta2", 1.0, "beta2"),
        ("beta2", float("inf"), "beta2"),
        ("depth", 0, "depth must be >= 1"),
        ("image_size", 40, "2\\*\\*depth"),
        ("base_channels", 0, "base_channels"),
        ("si_hidden", 0, "si_hidden"),
        ("variance_mode", "robust", "variance"),
    ])
    def test_rejections(self, field, value, hint):
        with pytest.raises(ConfigError, match=hint):
            tiny_config(**{field: value}).validate()

    def test_image_size_floor(self):
        with pytest.raises(ConfigError, match=">= 32"):
            tiny_config(image_size=16, depth=4).validate()

    def test_tap_count_must_be_five(self):
        with pytest.raises(ConfigError, match="5 taps"):
            tiny_config(ict_taps=("enc_bottleneck",)).validate_taps()

    def test_unknown_tap_name(self):
        bad = ("enc_bottleneck", "dec_block1", "dec_block2", "dec_block3", "foo")
        with pytest.raises(ConfigError, match="foo"):
            tiny_config(ict_taps=bad).validate_taps()

    def test_tap_beyond_depth(self):
        bad = ("enc_bottleneck", "dec_block1", "dec_block2", "dec_block3",
               "dec_block5")
        with pytest.raises(ConfigError, match="dec_block5"):
            tiny_config(depth=4, ict_taps=bad).validate_taps()

    def test_taps_unchecked_without_cycle_stage(self):
        """Stage 0 has no cycle term, so a depth below the default taps'
        validates; only the cycle-stage check rejects it."""
        cfg = tiny_config(depth=3)
        assert cfg.validate() is cfg
        with pytest.raises(ConfigError, match="dec_block4"):
            cfg.validate_taps()

    def test_default_taps_fit_default_depth(self):
        TrainConfig().validate().validate_taps()
        assert all(t == "enc_bottleneck" or int(t[9:]) <= 5
                   for t in DEFAULT_ICT_TAPS)

    def test_bad_weights_become_config_errors(self):
        from sgs.losses import LossWeights
        with pytest.raises(ConfigError, match="content"):
            tiny_config(weights=LossWeights(content=-1.0)).validate()


class TestDirectionPlumbing:
    def test_direction_channels(self):
        assert direction_channels("k") == (3, 1)
        assert direction_channels("o") == (1, 3)

    def test_unknown_direction(self):
        with pytest.raises(ConfigError, match="'x'"):
            direction_channels("x")

    def test_sample_views_photo_to_sketch(self, tiny_corpus):
        s = tiny_corpus["samples"][0]
        src, m_src, lay_src, tgt, m_tgt, lay_tgt = sample_views(s, "k")
        assert src is s.photo and tgt is s.sketch
        assert m_src is s.saliency_photo and m_tgt is s.saliency_sketch
        assert lay_src is s.layout_photo and lay_tgt is s.layout_sketch

    def test_sample_views_sketch_to_photo(self, tiny_corpus):
        s = tiny_corpus["samples"][0]
        src, m_src, lay_src, tgt, m_tgt, lay_tgt = sample_views(s, "o")
        assert src is s.sketch and tgt is s.photo
        assert m_src is s.saliency_sketch and m_tgt is s.saliency_photo
        assert lay_src is s.layout_sketch and lay_tgt is s.layout_photo


class TestCycleDistillation:
    """The cycle term ``l_ict`` of ``objective`` in a direction-k cycle stage."""

    @staticmethod
    def frozen_gen():
        gen = Generator(1, 3, depth=4, base_channels=2, si_hidden=2,
                        image_size=32, seed=5)
        gen.freeze()
        return gen

    @staticmethod
    def cycle_term(gen, rng, y, y_fake):
        m = SaliencyMap(rng.uniform(size=(32, 32)))
        lay = rand_layout(rng, 32)
        src = Tensor(rng.uniform(size=(3, 32, 32)))
        target = target_record((src, m, lay, y, m, lay), FeatureExtractor(1, seed=0),
                               ParsingOracle(1, seed=0), teacher=gen,
                               tap_names=DEFAULT_ICT_TAPS)
        disc = PatchDiscriminator(3, 1, base_channels=2, seed=0)
        return objective(y_fake, disc, target, LossWeights())["l_ict"]

    def test_zero_when_fake_equals_real(self):
        gen = self.frozen_gen()
        rng = np.random.default_rng(0)
        y = Tensor(rng.uniform(size=(1, 32, 32)))
        loss = self.cycle_term(gen, rng, y, Tensor(y.data.copy()))
        assert loss.item() == 0.0

    def test_positive_when_different(self):
        gen = self.frozen_gen()
        rng = np.random.default_rng(1)
        y = Tensor(rng.uniform(size=(1, 32, 32)))
        y_fake = Tensor(rng.uniform(size=(1, 32, 32)))
        assert self.cycle_term(gen, rng, y, y_fake).item() > 0

    def test_requires_exactly_five_taps(self, tiny_corpus, tmp_path):
        """A cycle stage checks the taps before it trains."""
        cfg = tiny_config(ict_taps=("enc_bottleneck", "dec_block1"))
        with pytest.raises(ConfigError, match="5 taps"):
            train_direction(tiny_corpus["samples"][:2], tiny_corpus["samples"][2:4],
                            cfg, "k", 1, self.frozen_gen(), str(tmp_path / "r"))
        assert not (tmp_path / "r").exists()

    def test_gradient_reaches_fake_only(self):
        gen = self.frozen_gen()
        rng = np.random.default_rng(3)
        y = Tensor(rng.uniform(size=(1, 32, 32)), requires_grad=True)
        y_fake = Tensor(rng.uniform(size=(1, 32, 32)), requires_grad=True)
        self.cycle_term(gen, rng, y, y_fake).backward()
        assert y.grad is None or not np.any(y.grad)
        assert y_fake.grad is not None and np.any(y_fake.grad)
        for p in gen.params():
            assert p.grad is None or not np.any(p.grad)


class TestCheckpointRoundTrip:
    def make_gen(self, **over):
        kw = dict(in_channels=3, out_channels=1, depth=4, base_channels=4,
                  si_hidden=3, image_size=32, seed=21)
        kw.update(over)
        return Generator(**kw)

    def test_forward_replay_is_bit_identical(self, tmp_path, tiny_corpus):
        gen = self.make_gen()
        save_generator(gen, str(tmp_path))
        loaded = load_generator(str(tmp_path))
        s = tiny_corpus["samples"][0]
        a = synthesize_sample(gen, s, "k")
        b = synthesize_sample(loaded, s, "k")
        assert np.array_equal(a, b)

    def test_loaded_generator_is_frozen(self, tmp_path, tiny_corpus):
        save_generator(self.make_gen(), str(tmp_path))
        loaded = load_generator(str(tmp_path))
        assert not any(p.requires_grad for p in loaded.params())
        src, m_src, lay_src = sample_views(tiny_corpus["samples"][0], "k")[:3]
        assert not loaded.forward(src, m_src, lay_src).requires_grad

    def test_si_hidden_round_trips(self, tmp_path):
        gen = self.make_gen(si_hidden=3)
        save_generator(gen, str(tmp_path))
        with open(tmp_path / "model.json") as f:
            assert json.load(f)["si_hidden"] == 3
        loaded = load_generator(str(tmp_path))
        assert loaded.si_hidden == 3
        assert loaded.blocks[0].si1.shared.w.data.shape[0] == 3

    def test_model_bin_holds_one_entry_per_parameter(self, tmp_path):
        gen = self.make_gen()
        save_generator(gen, str(tmp_path))
        blob = load_checkpoint(str(tmp_path / "model.bin"))
        assert list(blob) == [n for n, _ in gen.named_params()]

    def test_model_json_keys(self, tmp_path):
        save_generator(self.make_gen(), str(tmp_path))
        with open(tmp_path / "model.json") as f:
            cfg = json.load(f)
        assert set(cfg) == {"depth", "base_channels", "si_hidden", "in_channels",
                            "out_channels", "use_saliency", "image_size", "seed"}

    def test_missing_files_rejected(self, tmp_path):
        with pytest.raises(DataError, match="model.json"):
            load_generator(str(tmp_path / "nope"))
        save_generator(self.make_gen(), str(tmp_path))
        os.remove(tmp_path / "model.bin")
        with pytest.raises(DataError, match="model.bin"):
            load_generator(str(tmp_path))

    def test_missing_json_key_rejected(self, tmp_path):
        save_generator(self.make_gen(), str(tmp_path))
        with open(tmp_path / "model.json") as f:
            cfg = json.load(f)
        del cfg["depth"]
        with open(tmp_path / "model.json", "w") as f:
            json.dump(cfg, f)
        with pytest.raises(DataError, match="depth"):
            load_generator(str(tmp_path))

    def test_digest_is_checked(self, tmp_path):
        """A recorded digest that matches loads; one that differs from
        ``model.bin``'s sha256 is a DataError naming the file."""
        save_generator(self.make_gen(), str(tmp_path))
        digest = hashlib.sha256((tmp_path / "model.bin").read_bytes()).hexdigest()
        load_generator(str(tmp_path), digest)
        with pytest.raises(DataError, match=r"model\.bin: sha256 differs"):
            load_generator(str(tmp_path), "0" * 64)

    def test_list_seed_round_trips(self, tmp_path):
        gen = self.make_gen(seed=[3, 0, 1, 0])
        save_generator(gen, str(tmp_path))
        loaded = load_generator(str(tmp_path))
        rng = np.random.default_rng(9)
        x = Tensor(rng.uniform(size=(3, 32, 32)))
        m = SaliencyMap(rng.uniform(size=(32, 32)))
        lay = rand_layout(rng, 32)
        assert np.array_equal(gen.forward(x, m, lay).data,
                              loaded.forward(x, m, lay).data)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """The model.json and model.bin bytes of a depth-1 generator."""
    out = tmp_path_factory.mktemp("small_checkpoint")
    save_generator(Generator(3, 1, depth=1, base_channels=2, si_hidden=2,
                             image_size=8, seed=5), str(out))
    return {name: (out / name).read_bytes() for name in ("model.json", "model.bin")}


def load_with_model_bin(files, model_bin):
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, "model.json"), "wb") as f:
            f.write(files["model.json"])
        with open(os.path.join(d, "model.bin"), "wb") as f:
            f.write(model_bin)
        return load_generator(d)


class TestTruncatedCheckpoint:
    def test_intact_checkpoint_loads(self, small_checkpoint):
        load_with_model_bin(small_checkpoint, small_checkpoint["model.bin"])

    def test_cut_before_last_step_entry_is_data_error(self, small_checkpoint, tmp_path):
        """The last entry is the last parameter, the output bias ``out.b``
        of shape [1]: u32 name length, the name, u32 rank 1, u32 dim, one
        float64.  A file cut just before it is missing that parameter."""
        blob = small_checkpoint["model.bin"]
        (tmp_path / "model.bin").write_bytes(blob)
        last = list(load_checkpoint(str(tmp_path / "model.bin")))[-1]
        assert last == "out.b"
        cut = len(blob) - (4 + len(last.encode("utf-8")) + 4 + 4 + 8)
        with pytest.raises(DataError, match="missing parameter 'out.b'"):
            load_with_model_bin(small_checkpoint, blob[:cut])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_truncation_is_data_error(self, small_checkpoint, data):
        blob = small_checkpoint["model.bin"]
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        with pytest.raises(DataError):
            load_with_model_bin(small_checkpoint, blob[:cut])


class TestSynthesizeAndEvaluate:
    def test_synthesize_shapes(self, tiny_corpus):
        s = tiny_corpus["samples"][0]
        gen_k = Generator(3, 1, depth=4, base_channels=2, si_hidden=2,
                          image_size=32, seed=1)
        gen_o = Generator(1, 3, depth=4, base_channels=2, si_hidden=2,
                          image_size=32, seed=2)
        out_k = synthesize_sample(gen_k, s, "k")
        out_o = synthesize_sample(gen_o, s, "o")
        assert out_k.shape == (1, 32, 32) and out_o.shape == (3, 32, 32)
        assert out_k.min() >= 0.0 and out_k.max() <= 1.0

    def test_evaluate_direction_summary(self, tiny_corpus):
        from sgs.losses import FeatureExtractor
        gen = Generator(3, 1, depth=4, base_channels=2, si_hidden=2,
                        image_size=32, seed=4)
        ext = FeatureExtractor(1, seed=44)
        val = evaluate_direction(gen, tiny_corpus["samples"][:3], "k", ext)
        assert set(val) == {"ssim_mean", "fsim_mean", "frechet_proxy", "n"}
        assert val["n"] == 3
        assert np.isfinite(val["ssim_mean"]) and np.isfinite(val["frechet_proxy"])


class TestTrainDirection:
    def test_stage0_smoke(self, tiny_corpus, tmp_path):
        cfg = tiny_config()
        train = tiny_corpus["samples"][:4]
        val = tiny_corpus["samples"][4:]
        res = train_direction(train, val, cfg, "k", 0, None, str(tmp_path / "r"))
        assert len(res.epoch_total) == cfg.epochs
        assert all(np.isfinite(v) for v in res.epoch_total)
        assert res.epoch_ict == [0.0, 0.0]
        lines = (tmp_path / "r" / "losses.csv").read_text().splitlines()
        assert len(lines) == 1 + cfg.epochs * len(train)
        assert lines[0].startswith("step,l_gan_d,l_gan_g,")
        assert os.path.exists(tmp_path / "r" / "model.bin")
        assert os.path.exists(tmp_path / "r" / "val_metrics.json")

    def test_empty_training_set_is_config_error(self, tiny_corpus, tmp_path):
        with pytest.raises(ConfigError, match="no training samples"):
            train_direction([], tiny_corpus["samples"][:2], tiny_config(), "k", 0,
                            None, str(tmp_path / "r"))
        assert not (tmp_path / "r").exists()

    def test_empty_val_set_is_config_error(self, tiny_corpus, tmp_path):
        """No val sample means no val metrics: refused before anything is
        written, rather than recorded as NaN in the JSON files."""
        for train in (lambda out: train_direction(tiny_corpus["samples"][:2], [],
                                                  tiny_config(), "k", 0, None, out),
                      lambda out: run_iterative(tiny_corpus["samples"][:2], [],
                                                tiny_config(), out)):
            with pytest.raises(ConfigError, match="no validation samples"):
                train(str(tmp_path / "r"))
            assert not (tmp_path / "r").exists()

    def test_deterministic_given_seed(self, tiny_corpus, tmp_path):
        cfg = tiny_config()
        train = tiny_corpus["samples"][:3]
        val = tiny_corpus["samples"][3:5]
        a = train_direction(train, val, cfg, "o", 0, None, str(tmp_path / "a"))
        b = train_direction(train, val, cfg, "o", 0, None, str(tmp_path / "b"))
        assert a.checkpoint.digest == b.checkpoint.digest
        assert (tmp_path / "a" / "losses.csv").read_bytes() == \
            (tmp_path / "b" / "losses.csv").read_bytes()

    def test_checkpoint_digest_matches_file(self, tiny_corpus, tmp_path):
        cfg = tiny_config()
        res = train_direction(tiny_corpus["samples"][:3],
                              tiny_corpus["samples"][3:5], cfg, "k", 0, None,
                              str(tmp_path / "r"))
        with open(tmp_path / "r" / "model.bin", "rb") as f:
            assert res.checkpoint.digest == hashlib.sha256(f.read()).hexdigest()

    def test_saved_model_replays_final_generator(self, tiny_corpus, tmp_path):
        """The checkpoint is the trained generator: reloaded, it scores the
        val set exactly as training recorded."""
        cfg = tiny_config()
        val = tiny_corpus["samples"][3:5]
        res = train_direction(tiny_corpus["samples"][:3], val, cfg, "k", 0, None,
                              str(tmp_path / "r"))
        loaded = load_generator(str(tmp_path / "r"))
        assert evaluate_direction(loaded, val, "k",
                                  feature_extractor(cfg.seed, "k")) == res.checkpoint.val

    @pytest.mark.parametrize("held_out", [False, True])
    def test_image_size_mismatch_is_config_error(self, tiny_corpus, tmp_path, held_out):
        """A train or val sample that is not ``image_size`` square is refused
        before anything is written, rather than trained into a model.json
        that declares another size."""
        samples = tiny_corpus["samples"]
        big = load_corpus(generate_corpus(str(tmp_path / "c"), 1, 64, seed=1))
        train, val = (samples[:2], big) if held_out else (big, samples[2:4])
        with pytest.raises(ConfigError,
                           match=r"image_size 32 does not match corpus images \(64px\)"):
            train_direction(train, val, tiny_config(), "k", 0, None, str(tmp_path / "r"))
        assert not (tmp_path / "r").exists()

    def test_generator_phase_leaves_discriminator_grads_unset(self, tiny_corpus,
                                                              tmp_path, monkeypatch):
        """D is frozen for the G phase: at every generator update each D
        parameter's ``.grad`` is None, and D trains again in the next D
        phase."""
        import sgs.cycletrain as cycletrain
        adam, updates, d_unset = cycletrain.adam_step, [], []

        def recording(opt, *args):
            if len(updates) % 2:  # a generator update, after D's
                d_unset.append(all(p.grad is None for p in updates[-1]))
            updates.append(opt.params)
            adam(opt, *args)

        monkeypatch.setattr(cycletrain, "adam_step", recording)
        cfg = tiny_config()
        train_direction(tiny_corpus["samples"][:2], tiny_corpus["samples"][2:4], cfg,
                        "k", 0, None, str(tmp_path / "r"))
        assert len(d_unset) == cfg.epochs * 2 and all(d_unset)
        assert all(p.requires_grad for p in updates[0])

    def test_each_step_scores_one_sample(self, tiny_corpus, tmp_path, monkeypatch):
        """D's real image and the target the fake is scored against come
        from the same sample at every step, even when two samples share an
        id."""
        import sgs.cycletrain as cycletrain
        d_loss, g_objective, reals, scored = (cycletrain.discriminator_loss,
                                              cycletrain.objective, [], [])

        def recording_d(d, source, m, y_real, y_fake):
            reals.append(y_real.data)
            return d_loss(d, source, m, y_real, y_fake)

        def recording_g(fake, d, target, weights):
            scored.append(target.views[3].data)
            return g_objective(fake, d, target, weights)

        monkeypatch.setattr(cycletrain, "discriminator_loss", recording_d)
        monkeypatch.setattr(cycletrain, "objective", recording_g)
        first, second = tiny_corpus["samples"][:2]
        train = [first, dataclasses.replace(second, id=first.id)]
        train_direction(train, tiny_corpus["samples"][2:4], tiny_config(), "k", 0,
                        None, str(tmp_path / "r"))
        assert len(reals) == len(scored) == 4
        assert len({r.tobytes() for r in reals}) == 2
        assert all(np.array_equal(r, t) for r, t in zip(reals, scored))

    def test_frozen_opp_channel_validation(self, tiny_corpus, tmp_path):
        cfg = tiny_config()
        wrong = Generator(3, 1, depth=4, base_channels=2, si_hidden=2,
                          image_size=32, seed=0)
        with pytest.raises(ConfigError, match="frozen opposite"):
            train_direction(tiny_corpus["samples"][:2],
                            tiny_corpus["samples"][2:4], cfg, "k", 1, wrong,
                            str(tmp_path / "r"))


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_every_bias_gets_a_gradient(tmp_path, direction):
    """At desk widths and init, one D-loss backward and one ``objective``
    backward with D frozen give every conv bias of G and D a gradient on
    its kernel's scale: no bias feeds a norm that cancels it."""
    sample = load_corpus(generate_corpus(str(tmp_path), 1, 64, seed=1))[0]
    cfg = TrainConfig()
    in_ch, out_ch = direction_channels(direction)
    gen = Generator(in_ch, out_ch, depth=cfg.depth, base_channels=cfg.base_channels,
                    si_hidden=cfg.si_hidden, image_size=64, seed=1)
    disc = PatchDiscriminator(in_ch, out_ch, base_channels=cfg.base_channels, seed=2)
    views = sample_views(sample, direction)
    src, m_src, lay_src, tgt, _, _ = views
    fake = gen.forward(src, m_src, lay_src)
    discriminator_loss(disc, src, m_src, tgt, fake).backward()
    disc.freeze()
    target = target_record(views, FeatureExtractor(out_ch, seed=3),
                           ParsingOracle(out_ch, seed=4))
    objective(fake, disc, target, cfg.weights)["l_total"].backward()
    dead = []
    for net in (gen, disc):
        params = dict(net.named_params())
        for name, b in params.items():
            if name.endswith(".b"):
                ratio = np.abs(b.grad).max() / np.abs(params[name[:-1] + "w"].grad).max()
                if not ratio > 1e-6:
                    dead.append((name, ratio))
    assert not dead


def desk_generator_phase(tmp_path, teacher=False):
    """Direction k at desk widths and 64 px: a trainable generator's fake,
    a frozen discriminator and the sample's target record, with a frozen
    opposite-direction teacher when ``teacher``."""
    sample = load_corpus(generate_corpus(str(tmp_path), 1, 64, seed=1))[0]
    cfg = TrainConfig()
    in_ch, out_ch = direction_channels("k")
    widths = dict(depth=cfg.depth, base_channels=cfg.base_channels,
                  si_hidden=cfg.si_hidden, image_size=64)
    gen = Generator(in_ch, out_ch, seed=1, **widths)
    disc = PatchDiscriminator(in_ch, out_ch, base_channels=cfg.base_channels, seed=2)
    disc.freeze()
    opp = None
    if teacher:
        opp = Generator(out_ch, in_ch, seed=5, **widths)
        opp.freeze()
    views = sample_views(sample, "k")
    target = target_record(views, FeatureExtractor(out_ch, seed=3),
                           ParsingOracle(out_ch, seed=4), teacher=opp,
                           tap_names=cfg.ict_taps if teacher else ())
    return gen.forward(*views[:3]), disc, target, cfg.weights


def test_generator_phase_graph_size(tmp_path):
    """One desk G-phase ``l_total`` graph (64 px, depth 5, D frozen) has
    163 nodes.  The generator's graph is 116: 73 parameters and 43 ops,
    with every relu and leaky relu fused into the op that produces its
    input and each of the ten SI modules one node.  The content term adds
    3, the two graph terms 29 (``compute_nodes`` one of them, the stacked
    mean and variance statistics) and the weighted sum 12.  The
    adversarial, perceptual and parsing terms add one node each:
    ``objective`` has already walked their scorers' graphs and left one
    node over the fake.  The count is tied to the current op set."""
    fake, disc, target, weights = desk_generator_phase(tmp_path)
    total = objective(fake, disc, target, weights)["l_total"]
    assert len(_toposort(total)) == 163


def captured_tensors(fn):
    """The tensors a backward closure reaches: through its cells, and the
    cells of closures, containers and objects it captures."""
    found, seen, stack = [], set(), [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            found.append(obj)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        elif hasattr(obj, "__dict__") and not isinstance(obj, (type, types.ModuleType)):
            stack.extend(vars(obj).values())
    return found


@pytest.mark.parametrize("graph", ["generator_phase", "discriminator_phase", "teacher_taps"])
def test_closures_capture_no_tensor(tmp_path, graph):
    """No backward closure of a desk training graph captures a tensor:
    each keeps its parents' nodes and the arrays its formula reads, so a
    value no closure reads is freed when the forward drops it.  The
    graphs are the G phase (generator forward plus ``objective``), the D
    phase (``discriminator_loss`` with D trainable) and a cycle stage's
    frozen teacher run with ``want_taps`` over a fake that records
    gradients, under ``tap_l1``."""
    fake, disc, target, weights = desk_generator_phase(tmp_path,
                                                       teacher=graph == "teacher_taps")
    src, m_src, _, tgt, m_tgt, lay_tgt = target.views
    if graph == "generator_phase":
        root, at_least = objective(fake, disc, target, weights)["l_total"], 80
    elif graph == "discriminator_phase":
        disc.freeze(False)
        root, at_least = discriminator_loss(disc, src, m_src, tgt, fake), 20
    else:
        leaf = fake.detach()
        leaf.requires_grad = True
        taps = target.teacher.forward(leaf, m_tgt, lay_tgt, want_taps=target.tap_names)
        root, at_least = tap_l1(target.teacher_taps, taps, target.tap_names), 50
    closures = [node.backward for node in _toposort(root) if node.backward is not None]
    assert len(closures) > at_least
    assert [captured_tensors(fn) for fn in closures] == [[]] * len(closures)


def test_objective_leaves_no_scorer_activation(tmp_path):
    """Between ``objective`` and ``l_total``'s backward, a cycle stage's
    loss graph holds six fake-sized arrays: the kept gradients of the
    adversarial, perceptual, parsing and cycle terms, and the content
    term's difference and its absolute value.  The graph terms keep
    ``[2, 12, Cf]``-sized arrays, which with every node's Python objects
    get a fixed 96 KiB.  No activation of D, the extractor, the parser or
    the teacher is left; holding them until the backward left about 286
    times the fake's size."""
    fake, disc, target, weights = desk_generator_phase(tmp_path, teacher=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        terms = objective(fake, disc, target, weights)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert terms["l_ict"].item() > 0.0
    assert held <= 6 * fake.data.nbytes + 96 * 1024


@pytest.fixture(scope="module")
def run(tiny_corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("iter")
    cfg = tiny_config()
    out = run_iterative(tiny_corpus["samples"][:3],
                        tiny_corpus["samples"][3:5], cfg, str(root))
    return {"root": root, "out": out, "cfg": cfg}


class TestRunIterative:
    def test_checkpoint_counts(self, run):
        ckpts = run["out"]["checkpoints"]
        for d in DIRECTIONS:
            assert len(ckpts[d]) == run["cfg"].stages + 1
            assert [c.stage for c in ckpts[d]] == [0, 1]

    def test_stage_directories_exist(self, run):
        for stage in (0, 1):
            for d in DIRECTIONS:
                assert (run["root"] / f"stage{stage}_{d}" / "model.bin").exists()

    def test_manifest_json(self, run):
        with open(run["root"] / "manifest.json") as f:
            manifest = json.load(f)
        assert set(manifest) == {"config", "checkpoints"}
        assert manifest["config"]["stages"] == 1
        assert "batch_size" not in manifest["config"]
        assert len(manifest["checkpoints"]["k"]) == 2

    def test_frozen_stage0_untouched_by_stage1(self, run):
        """Cycle distillation must never update the frozen generator."""
        for d in DIRECTIONS:
            recorded = run["out"]["checkpoints"][d][0].digest
            with open(run["root"] / f"stage0_{d}" / "model.bin", "rb") as f:
                assert hashlib.sha256(f.read()).hexdigest() == recorded

    def test_cycle_term_active_in_stage1(self, run):
        for d in DIRECTIONS:
            stage1 = run["out"]["stages"][1][d]
            assert all(v > 0 for v in stage1.epoch_ict)
            assert all(np.isfinite(v) for v in stage1.epoch_ict)

    def test_stage0_has_no_cycle_term(self, run):
        for d in DIRECTIONS:
            assert run["out"]["stages"][0][d].epoch_ict == [0.0, 0.0]


def test_run_holds_one_teacher(tiny_corpus, tmp_path, monkeypatch):
    """Each task starts with no generator alive but its teacher: none at
    stage 0, the opposite direction's previous checkpoint afterwards."""
    import sgs.cycletrain as cycletrain

    def live():
        gc.collect()
        return sum(type(o) is Generator for o in gc.get_objects())

    train, counts = cycletrain.train_direction, []

    def counting(*args):
        counts.append(live() - before)
        return train(*args)

    monkeypatch.setattr(cycletrain, "train_direction", counting)
    before = live()
    run_iterative(tiny_corpus["samples"][:3], tiny_corpus["samples"][3:5],
                  tiny_config(stages=2), str(tmp_path / "r"))
    assert counts == [0, 0, 1, 1, 1, 1]


def test_flipped_teacher_byte_is_data_error(tiny_corpus, tmp_path, flipped_teacher):
    """Stage 1 reads its teacher back only if ``model.bin`` still has the
    digest stage 0 recorded."""
    with pytest.raises(DataError, match=r"stage0_o[/\\]model\.bin: sha256 differs"):
        run_iterative(tiny_corpus["samples"][:3], tiny_corpus["samples"][3:5],
                      tiny_config(), str(tmp_path / "r"))
    assert not (tmp_path / "r" / "stage1_k").exists()


def test_stopped_run_manifest_lists_finished_tasks(tiny_corpus, tmp_path, monkeypatch):
    """The manifest is written after each task: a run stopped inside stage
    1 k lists both stage-0 checkpoints, with the digests of their files."""
    import sgs.cycletrain as cycletrain

    train = cycletrain.train_direction

    def stopping(*args):
        if args[3:5] == ("k", 1):
            raise KeyboardInterrupt
        return train(*args)

    monkeypatch.setattr(cycletrain, "train_direction", stopping)
    root = tmp_path / "r"
    with pytest.raises(KeyboardInterrupt):
        run_iterative(tiny_corpus["samples"][:3], tiny_corpus["samples"][3:5],
                      tiny_config(), str(root))
    with open(root / "manifest.json") as f:
        ckpts = json.load(f)["checkpoints"]
    assert {d: [c["stage"] for c in ckpts[d]] for d in ckpts} == {"k": [0], "o": [0]}
    for d in DIRECTIONS:
        with open(root / f"stage0_{d}" / "model.bin", "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == ckpts[d][0]["digest"]


def test_size_mismatch_leaves_no_run_directory(tiny_corpus, tmp_path):
    with pytest.raises(ConfigError, match="image_size 64 does not match"):
        run_iterative(tiny_corpus["samples"][:3], tiny_corpus["samples"][3:5],
                      tiny_config(image_size=64), str(tmp_path / "r"))
    assert not (tmp_path / "r").exists()


class TestSelectOptimal:
    @staticmethod
    def ckpt(stage, frechet, ssim_mean):
        return Checkpoint(stage=stage, direction="k", path=f"s{stage}",
                          val={"frechet_proxy": frechet, "ssim_mean": ssim_mean},
                          digest="")

    def test_lowest_frechet_wins(self):
        best = select_optimal([self.ckpt(0, 5.0, 0.2), self.ckpt(1, 1.0, 0.1),
                               self.ckpt(2, 3.0, 0.9)])
        assert best.stage == 1

    def test_tie_breaks_toward_higher_ssim(self):
        best = select_optimal([self.ckpt(0, 2.0, 0.3), self.ckpt(1, 2.0, 0.8)])
        assert best.stage == 1

    def test_missing_proxy_ranks_last(self):
        """A val split below two pairs has a None proxy (null in JSON)."""
        best = select_optimal([self.ckpt(0, None, 0.9), self.ckpt(1, 4.0, 0.1),
                               self.ckpt(2, None, 0.95)])
        assert best.stage == 1
        assert select_optimal([self.ckpt(0, None, 0.3), self.ckpt(1, None, 0.8)]).stage == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_optimal([])
