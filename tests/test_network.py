"""Generator, discriminator, and SI-module behavior tests."""
import tracemalloc
import weakref

import numpy as np
import pytest

from sgs import layout as layout_mod
from sgs import numerics
from sgs.datagen import generate_corpus
from sgs.layout import N_CLASSES, SaliencyMap, SemanticLayout, load_corpus
from sgs.network import Generator, Module, PatchDiscriminator, SIModule, SIResBlock
from sgs.numerics import Parameter, ShapeError, Tensor, activate, conv2d, normalize

from conftest import relative_error, spot_check_param


def rand_layout(size, seed=0, hi=N_CLASSES):
    return np.random.default_rng(seed).integers(0, hi, size=(size, size))


class TestModuleBase:
    def test_named_params_use_dotted_paths(self):
        si = SIModule(4, np.random.default_rng(0), hidden=3)
        names = [n for n, _ in si.named_params()]
        assert "shared.w" in names and "heads.b" in names

    def test_zero_grad_resets(self):
        si = SIModule(2, np.random.default_rng(0), hidden=2)
        for p in si.params():
            p.grad = np.zeros_like(p.data)
        si.zero_grad()
        assert all(p.grad is None for p in si.params())

    def test_freeze_blocks_parameter_grads_but_not_input_grads(self):
        si = SIModule(2, np.random.default_rng(1), hidden=2)
        si.freeze()
        x = Tensor(np.random.default_rng(2).random((1, 2, 4, 4)), requires_grad=True)
        out = si.forward(x, SemanticLayout(rand_layout(4)))
        (out * out).sum().backward()
        assert x.grad is not None
        assert all(p.grad is None for p in si.params())


class TestSIModule:
    def test_zero_heads_give_zero_output(self):
        si = SIModule(3, np.random.default_rng(0), hidden=4)
        for p in (si.heads.w, si.heads.b):
            p.data = np.zeros_like(p.data)
        x = Tensor(np.random.default_rng(1).random((1, 3, 6, 6)))
        out = si.forward(x, SemanticLayout(rand_layout(6)))
        assert np.array_equal(out.data, np.zeros((1, 3, 6, 6)))

    def test_constant_heads_reproduce_affine_normalization(self):
        """With zeroed conv weights the module is gamma_b*norm(x)+beta_b,
        the heads bias holding gamma first."""
        si = SIModule(2, np.random.default_rng(2), hidden=3)
        for p in (si.shared.w, si.shared.b, si.heads.w):
            p.data = np.zeros_like(p.data)
        si.heads.b.data = np.array([2.0, -1.0, 0.5, 3.0])
        x = Tensor(np.random.default_rng(3).random((1, 2, 5, 5)))
        out = si.forward(x, SemanticLayout(rand_layout(5, seed=1)))
        ref = normalize(x).data * np.array([2.0, -1.0])[None, :, None, None] \
            + np.array([0.5, 3.0])[None, :, None, None]
        assert np.allclose(out.data, ref, atol=1e-12)

    def test_layout_influence_is_local(self):
        """Flipping one layout pixel moves outputs only within radius 2.

        The layout passes through two 3x3 convolutions before modulating,
        so its receptive field is a 5x5 neighborhood.
        """
        si = SIModule(1, np.random.default_rng(4), hidden=4)
        x = Tensor(np.random.default_rng(5).random((1, 1, 9, 9)))
        base_classes = rand_layout(9, seed=2)
        moved = base_classes.copy()
        moved[4, 4] = (moved[4, 4] + 1) % N_CLASSES
        a = si.forward(x, SemanticLayout(base_classes)).data[0, 0]
        b = si.forward(x, SemanticLayout(moved)).data[0, 0]
        diff = np.abs(a - b) > 1e-14
        ii, jj = np.nonzero(diff)
        assert diff.any()
        assert np.max(np.abs(ii - 4)) <= 2 and np.max(np.abs(jj - 4)) <= 2

    def test_channel_mismatch_rejected(self):
        si = SIModule(3, np.random.default_rng(0), hidden=2)
        with pytest.raises(ShapeError):
            si.forward(Tensor(np.ones((1, 2, 4, 4))), SemanticLayout(rand_layout(4)))

    def test_resolution_mismatch_rejected(self):
        si = SIModule(2, np.random.default_rng(0), hidden=2)
        with pytest.raises(ShapeError):
            si.forward(Tensor(np.ones((1, 2, 4, 4))), SemanticLayout(rand_layout(8)))

    def test_gradient_through_module(self):
        si = SIModule(2, np.random.default_rng(6), hidden=3)
        layout = SemanticLayout(rand_layout(4, seed=3))
        x = Tensor(np.random.default_rng(7).random((1, 2, 4, 4)), requires_grad=True)
        loss = (si.forward(x, layout) ** 2).sum()
        loss.backward()

        def loss_fn():
            return float((si.forward(x.detach(), layout) ** 2).sum().data)

        spot_check_param(loss_fn, si.heads.w, n_probe=4)
        spot_check_param(loss_fn, si.shared.w, n_probe=4)


    def test_fused_heads_match_separate_convs(self):
        """The one heads conv equals running its gamma and beta halves as
        two convs, in value and in every gradient."""
        si = SIModule(3, np.random.default_rng(8), hidden=4)
        rng = np.random.default_rng(9)
        for p in si.params():
            p.data = rng.normal(size=p.data.shape)
        layout = SemanticLayout(rand_layout(6, seed=4))
        planes = Tensor(layout.one_hot()[None, :, :, :])
        x0 = rng.random((1, 3, 6, 6))
        w = Tensor(rng.normal(size=(1, 3, 6, 6)))

        hw, hb = si.heads.w.data, si.heads.b.data
        gamma_w, gamma_b, beta_w, beta_b = (
            Parameter(a.copy()) for a in (hw[:3], hb[:3], hw[3:], hb[3:]))

        def separate(x):
            h = activate(conv2d(planes, si.shared.w, si.shared.b, 1, 1), 0.0)
            gamma = conv2d(h, gamma_w, gamma_b, 1, 1)
            beta = conv2d(h, beta_w, beta_b, 1, 1)
            return gamma * normalize(x) + beta

        def fused_head_grads():
            return [si.heads.w.grad, si.heads.b.grad]

        def separate_head_grads():
            return [np.concatenate([gamma_w.grad, beta_w.grad]),
                    np.concatenate([gamma_b.grad, beta_b.grad])]

        results = []
        for fn, head_grads in ((lambda x: si.forward(x, layout), fused_head_grads),
                               (separate, separate_head_grads)):
            si.zero_grad()
            x = Tensor(x0, requires_grad=True)
            out = fn(x)
            (out * w).sum().backward()
            results.append([out.data, x.grad, si.shared.w.grad, si.shared.b.grad]
                           + head_grads())
        for fused, ref in zip(*results):
            assert np.allclose(fused, ref, rtol=0.0, atol=1e-12)

    def test_one_node_after_head_conv(self):
        """The module records one node, whose parents are the input and
        the four SI parameters themselves."""
        si = SIModule(2, np.random.default_rng(10), hidden=3)
        x = Tensor(np.random.default_rng(11).random((1, 2, 4, 4)), requires_grad=True)
        out = si.forward(x, SemanticLayout(rand_layout(4, seed=5)))
        assert out._node.parents == tuple(
            t._node for t in (x, si.shared.w, si.shared.b, si.heads.w, si.heads.b))
        assert len(numerics._toposort(out)) == 6

    def test_param_names_and_order_unchanged(self):
        """Checkpoints are keyed by these names, in this order."""
        si_names = ["shared.w", "shared.b", "heads.w", "heads.b"]
        si = SIModule(2, np.random.default_rng(0), hidden=3)
        assert [n for n, _ in si.named_params()] == si_names
        gen = Generator(in_channels=3, out_channels=1, depth=1, base_channels=4,
                        si_hidden=3, image_size=32)
        assert [n for n, _ in gen.named_params()] == (
            ["enc.0.w", "enc.0.b"]
            + [f"blocks.0.si1.{n}" for n in si_names]
            + ["blocks.0.conv1.w"]
            + [f"blocks.0.si2.{n}" for n in si_names]
            + ["blocks.0.conv2.w", "blocks.0.conv2.b", "out.w", "out.b"]
        )


def reference_heads(layout, si):
    """The SI heads field as the explicit conv stack over one-hot planes:
    ``conv2d(one_hot) -> relu -> heads conv``."""
    planes = Tensor(layout.one_hot()[None, :, :, :])
    return si.heads.forward(si.shared.forward(planes))


def reference_si(x, layout, si):
    """:meth:`SIModule.forward` from plain ops: the field of
    :func:`reference_heads`, split into gamma and beta, and ``gamma *
    normalize(x) + beta``."""
    heads = reference_heads(layout, si)
    c = si.channels
    # 1x1 convs that pick gamma's channels and beta's out of the field
    pick = np.eye(2 * c)[:, :, None, None]
    gamma = conv2d(heads, Tensor(pick[:c]))
    beta = conv2d(heads, Tensor(pick[c:]))
    return gamma * normalize(x) + beta


class TestLayoutHeads:
    """The layout-driven gamma/beta heads inside :meth:`SIModule.forward`
    against the plain-op stack they replace, in value, in the input
    gradient and in all four parameter gradients."""

    def check_against_convs(self, layout, channels=3, hidden=4, seed=0):
        rng = np.random.default_rng(seed)
        si = SIModule(channels, rng, hidden=hidden)
        for p in si.params():
            p.data = rng.normal(size=p.data.shape)
        shape = (1, channels, layout.height, layout.width)
        x0 = rng.normal(size=shape)
        w = Tensor(rng.normal(size=shape))
        results = []
        for fn in (si.forward, lambda x, lay: reference_si(x, lay, si)):
            si.zero_grad()
            x = Tensor(x0, requires_grad=True)
            out = fn(x, layout)
            (out * w).sum().backward()
            results.append([out.data, x.grad] + [p.grad for p in si.params()])
        for got, ref in zip(*results):
            assert got.shape == ref.shape
            assert np.allclose(got, ref, rtol=0.0, atol=1e-12 * max(1.0, np.abs(ref).max()))

    @pytest.mark.parametrize("size,seed", [(5, 0), (6, 1), (8, 2)])
    def test_random_layouts_every_neighbourhood_distinct(self, size, seed):
        layout = SemanticLayout(rand_layout(size, seed=seed))
        assert len(layout.si_tables()[1]) == size * size  # the worst case, U5 = HW
        self.check_against_convs(layout, seed=seed)

    @pytest.mark.parametrize("size", [64, 256])
    def test_generated_faces(self, tmp_path, size):
        layout = load_corpus(generate_corpus(str(tmp_path), 1, size, seed=1))[0].layout_photo
        assert len(layout.si_tables()[1]) < size * size // 4
        self.check_against_convs(layout, channels=2, hidden=3)

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_tiny_maps(self, size):
        self.check_against_convs(SemanticLayout(rand_layout(size, seed=size)))

    def test_absent_classes(self):
        classes = rand_layout(7, seed=3, hi=3)
        classes[2:5, 1:6] = N_CLASSES - 1
        self.check_against_convs(SemanticLayout(classes), seed=4)

    def test_frozen_parameters_record_no_graph(self):
        si = SIModule(2, np.random.default_rng(5), hidden=3)
        si.freeze()
        layout = SemanticLayout(rand_layout(4))
        x0 = np.random.default_rng(6).normal(size=(1, 2, 4, 4))
        out = si.forward(Tensor(x0), layout)
        assert not out.requires_grad and out._node.parents == () and out._node.backward is None
        x = Tensor(x0, requires_grad=True)
        (si.forward(x, layout) * 1.0).sum().backward()
        assert x.grad is not None and all(p.grad is None for p in si.params())

    @pytest.mark.parametrize("channels", [1, 8])
    def test_forward_keeps_no_field(self, tmp_path, channels):
        """After one forward at 128 px the module holds, beyond its
        output, the instance norm's ``[1, C, 1, 1]`` statistics and the
        per-neighbourhood gamma/beta table: under half of one ``[1, C, h,
        w]`` array, where a kept normalized input would be one and a kept
        [1, 2C, h, w] gamma/beta field two."""
        layout = load_corpus(generate_corpus(str(tmp_path), 1, 128, seed=1))[0].layout_photo
        layout.si_tables()  # cached on the layout, not held by the module
        si = SIModule(channels, np.random.default_rng(7), hidden=16)
        x = Tensor(np.random.default_rng(8).normal(size=(1, channels, 128, 128)),
                   requires_grad=True)
        tracemalloc.start()
        try:
            out = si.forward(x, layout)
            held = tracemalloc.get_traced_memory()[0] - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert held < 0.5 * channels * 128 * 128 * 8

    def test_generator_forward_builds_no_one_hot(self, monkeypatch):
        def refuse(layout):
            raise AssertionError("one_hot called")

        monkeypatch.setattr(SemanticLayout, "one_hot", refuse)
        gen = tiny_generator()
        x, m, layout = gen_inputs(32)
        (gen.forward(x, m, layout) * 1.0).sum().backward()

    def test_second_forward_builds_no_table(self, monkeypatch):
        built = []
        tables = layout_mod.neighbourhood_tables

        def counting(classes):
            built.append(classes.shape)
            return tables(classes)

        monkeypatch.setattr(layout_mod, "neighbourhood_tables", counting)
        gen = tiny_generator()
        x, m, layout = gen_inputs(32)
        first = gen.forward(x, m, layout)
        assert built == [(8, 8), (16, 16), (32, 32)]
        second = gen.forward(x, m, layout)
        assert len(built) == 3
        assert np.array_equal(first.data, second.data)


class TestSIResBlock:
    def test_zero_convs_reduce_to_identity_skip(self):
        block = SIResBlock(3, 3, np.random.default_rng(0), hidden=2)
        assert block.skip is None
        block.conv2.w.data = np.zeros_like(block.conv2.w.data)
        block.conv2.b.data = np.zeros_like(block.conv2.b.data)
        x = Tensor(np.random.default_rng(1).random((1, 3, 4, 4)))
        out = block.forward(x, SemanticLayout(rand_layout(4)))
        assert np.allclose(out.data, x.data, atol=1e-15)

    def test_channel_change_uses_projection_skip(self):
        block = SIResBlock(3, 5, np.random.default_rng(2), hidden=2)
        assert block.skip is not None
        x = Tensor(np.random.default_rng(3).random((1, 3, 4, 4)))
        out = block.forward(x, SemanticLayout(rand_layout(4)))
        assert out.data.shape == (1, 5, 4, 4)


def tiny_generator(seed=0, **kw):
    args = dict(in_channels=3, out_channels=1, depth=3, base_channels=4,
                si_hidden=4, image_size=32, seed=seed)
    args.update(kw)
    return Generator(**args)


def gen_inputs(size, seed=0, channels=3):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.random((channels, size, size)))
    m = SaliencyMap(rng.random((size, size)))
    layout = SemanticLayout(rand_layout(size, seed=seed + 1))
    return x, m, layout


class TestGenerator:
    def test_output_shape_and_range(self):
        gen = tiny_generator()
        x, m, layout = gen_inputs(32)
        out = gen.forward(x, m, layout)
        assert out.data.shape == (1, 32, 32)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_same_seed_same_output(self):
        x, m, layout = gen_inputs(32)
        a = tiny_generator(seed=5).forward(x, m, layout)
        b = tiny_generator(seed=5).forward(x, m, layout)
        assert np.array_equal(a.data, b.data)

    def test_different_seed_different_output(self):
        x, m, layout = gen_inputs(32)
        a = tiny_generator(seed=5).forward(x, m, layout)
        b = tiny_generator(seed=6).forward(x, m, layout)
        assert not np.array_equal(a.data, b.data)

    def test_taps_cover_bottleneck_and_every_block(self):
        gen = tiny_generator()
        x, m, layout = gen_inputs(32)
        names = ("enc_bottleneck", "dec_block1", "dec_block2", "dec_block3")
        taps = gen.forward(x, m, layout, want_taps=names)
        assert list(taps) == list(names)
        assert taps["enc_bottleneck"].data.shape[2:] == (4, 4)
        assert taps["dec_block3"].data.shape[2:] == (32, 32)

    def test_named_taps_stop_after_the_deepest(self, monkeypatch):
        """Asked for taps by name, the generator returns them equal to a
        full forward's and runs no block past the deepest, nor the output
        conv."""
        gen = tiny_generator()
        x, m, layout = gen_inputs(32)
        full = gen.forward(x, m, layout, want_taps=("enc_bottleneck", "dec_block1",
                                                    "dec_block2", "dec_block3"))
        ran = []
        forward = SIResBlock.forward

        def counting(block, *args):
            ran.append(block)
            return forward(block, *args)

        monkeypatch.setattr(SIResBlock, "forward", counting)
        monkeypatch.setattr(gen, "out", None)
        taps = gen.forward(x, m, layout, want_taps=("dec_block2", "enc_bottleneck"))
        assert ran == gen.blocks[:2]
        assert list(taps) == ["dec_block2", "enc_bottleneck"]
        for name in taps:
            assert np.array_equal(taps[name].data, full[name].data)

    def test_untapped_block_outputs_are_freed(self, monkeypatch):
        """A forward without ``want_taps`` holds no block's output: each is
        freed by the time the next block runs, as ``upsample_nearest``
        keeps none of its input's values."""
        gen = tiny_generator()
        x, m, layout = gen_inputs(32)
        outputs, alive = [], []
        forward = SIResBlock.forward

        def tracking(block, *args):
            alive.append([ref() is not None for ref in outputs])
            out = forward(block, *args)
            outputs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(SIResBlock, "forward", tracking)
        gen.forward(x, m, layout)
        assert alive == [[], [False], [False, False]]

    def test_layout_pyramid_resolutions_double(self):
        gen = tiny_generator()
        x, m, layout = gen_inputs(32)
        # SIModule.forward rejects a layout of any other size than its
        # activation, so a block's tap has the layout resolution it consumed.
        taps = gen.forward(x, m, layout, want_taps=("dec_block1", "dec_block2", "dec_block3"))
        assert taps["dec_block1"].data.shape[2:] == (8, 8)
        assert taps["dec_block2"].data.shape[2:] == (16, 16)
        assert taps["dec_block3"].data.shape[2:] == (32, 32)

    def test_saliency_disabled_ignores_map(self):
        gen = tiny_generator(use_saliency=False)
        x, _, layout = gen_inputs(32)
        m1 = SaliencyMap(np.zeros((32, 32)))
        m2 = SaliencyMap(np.ones((32, 32)))
        a = gen.forward(x, m1, layout)
        b = gen.forward(x, m2, layout)
        assert np.array_equal(a.data, b.data)

    def test_saliency_enabled_uses_map(self):
        gen = tiny_generator()
        x, _, layout = gen_inputs(32)
        a = gen.forward(x, SaliencyMap(np.zeros((32, 32))), layout)
        b = gen.forward(x, SaliencyMap(np.ones((32, 32))), layout)
        assert not np.array_equal(a.data, b.data)

    def test_wrong_channel_count_rejected(self):
        gen = tiny_generator()
        x, m, layout = gen_inputs(32, channels=1)
        with pytest.raises(ShapeError):
            gen.forward(x, m, layout)

    def test_indivisible_size_rejected(self):
        with pytest.raises(ShapeError):
            tiny_generator(image_size=24, depth=4)

    def test_huge_depth_rejected_by_name(self):
        """A depth whose 2**depth exceeds the image size is named, not
        printed as 2**depth."""
        with pytest.raises(ShapeError, match="depth 20000$"):
            Generator(3, 1, depth=20000, image_size=64)

    def test_layout_size_mismatch_rejected(self):
        gen = tiny_generator()
        x, m, _ = gen_inputs(32)
        with pytest.raises(ShapeError):
            gen.forward(x, m, SemanticLayout(rand_layout(16)))

    def test_desk_parameter_count(self):
        """Desk widths: per block SI shared/heads twice, conv1's kernel,
        conv2's kernel and bias, and a projection skip's two when channels
        change; plus the five encoder convs and the output conv."""
        assert len(Generator(3, 1).params()) == 73

    def test_weight_gradients_match_finite_differences(self):
        gen = Generator(in_channels=1, out_channels=1, depth=2, base_channels=2,
                        si_hidden=2, image_size=8, seed=9)
        x, m, layout = gen_inputs(8, seed=4, channels=1)
        tgt = Tensor(np.random.default_rng(5).random((1, 8, 8)))

        def compute():
            d = gen.forward(x, m, layout) - tgt
            return (d * d).sum()

        compute().backward()

        def loss_fn():
            return float(compute().data)

        spot_check_param(loss_fn, gen.enc[0].w, n_probe=3)
        spot_check_param(loss_fn, gen.blocks[0].si1.heads.w, n_probe=3)
        spot_check_param(loss_fn, gen.out.w, n_probe=3)


class TestPatchDiscriminator:
    def _inputs(self, size, seed=0):
        rng = np.random.default_rng(seed)
        src = Tensor(rng.random((3, size, size)))
        m = SaliencyMap(rng.random((size, size)))
        cand = Tensor(rng.random((1, size, size)))
        return src, m, cand

    def test_64_input_gives_6x6_patch_map(self):
        d = PatchDiscriminator(3, 1, base_channels=4, seed=0)
        logits = d.forward(*self._inputs(64))
        assert logits.data.shape == (1, 1, 6, 6)

    def test_32_input_gives_2x2_patch_map(self):
        d = PatchDiscriminator(3, 1, base_channels=4, seed=0)
        logits = d.forward(*self._inputs(32))
        assert logits.data.shape == (1, 1, 2, 2)

    def test_only_unnormalized_convs_have_biases(self):
        d = PatchDiscriminator(3, 1, base_channels=4, seed=0)
        assert [n for n, _ in d.named_params()] == (
            ["convs.0.w", "convs.0.b", "convs.1.w", "convs.2.w", "convs.3.w",
             "final.w", "final.b"])

    def test_final_bias_shifts_logits_uniformly(self):
        d = PatchDiscriminator(3, 1, base_channels=4, seed=1)
        src, m, cand = self._inputs(32, seed=2)
        before = d.forward(src, m, cand).data
        d.final.b.data = d.final.b.data + 1.5
        after = d.forward(src, m, cand).data
        assert np.allclose(after - before, 1.5, atol=1e-12)

    def test_candidate_channel_mismatch_rejected(self):
        d = PatchDiscriminator(3, 1, base_channels=4, seed=0)
        src, m, _ = self._inputs(32)
        with pytest.raises(ShapeError):
            d.forward(src, m, Tensor(np.ones((3, 32, 32))))

    def test_source_candidate_size_mismatch_rejected(self):
        d = PatchDiscriminator(3, 1, base_channels=4, seed=0)
        src, m, _ = self._inputs(32)
        with pytest.raises(ShapeError):
            d.forward(src, m, Tensor(np.ones((1, 16, 16))))

    def test_saliency_disabled_ignores_map(self):
        d = PatchDiscriminator(3, 1, base_channels=4, use_saliency=False, seed=3)
        src, _, cand = self._inputs(32, seed=4)
        a = d.forward(src, SaliencyMap(np.zeros((32, 32))), cand)
        b = d.forward(src, SaliencyMap(np.ones((32, 32))), cand)
        assert np.array_equal(a.data, b.data)

    def test_candidate_gradient_flows(self):
        d = PatchDiscriminator(1, 1, base_channels=2, seed=5)
        rng = np.random.default_rng(6)
        src = Tensor(rng.random((1, 32, 32)))
        m = SaliencyMap(rng.random((32, 32)))
        cand = Tensor(rng.random((1, 32, 32)), requires_grad=True)
        d.forward(src, m, cand).sum().backward()
        assert cand.grad is not None and np.isfinite(cand.grad).all()
