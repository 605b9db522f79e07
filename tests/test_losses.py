"""Tests for the training losses and the weighted total objective.

Scalar losses are checked against per-element numpy oracles, the
adversarial identities at zero logits are exact, and every loss that
feeds the generator is finite-difference checked through its fake-image
argument.  Generator-side terms are read from the dict ``objective``
returns, the same one training logs and steps on.
"""
import tracemalloc

import numpy as np
import pytest

from conftest import gradcheck, numerical_grad, relative_error

from sgs.graphs import compute_nodes, graph_loss, inter_graph, intra_graph
from sgs.losses import (
    LOSS_CSV_COLUMNS,
    PROB_EPS,
    FeatureExtractor,
    LossLog,
    LossWeights,
    ParsingOracle,
    content_loss,
    discriminator_loss,
    gan_term,
    objective,
    softmax_bce,
    tap_l1,
    tap_mse,
    target_record,
)
from sgs.layout import SaliencyMap, SemanticLayout
from sgs.network import Generator, PatchDiscriminator
from sgs.numerics import ShapeError, Tensor, _accumulate, _result, softmax

LN2 = float(np.log(2.0))


def rand_image(rng, channels, size):
    return Tensor(rng.uniform(0.0, 1.0, size=(channels, size, size)))


def rand_saliency(rng, size):
    return SaliencyMap(rng.uniform(0.0, 1.0, size=(size, size)))


def zeroed_discriminator(channels=3, size=32):
    """A patch discriminator with every weight and bias forced to zero.

    Zero parameters make every patch logit exactly zero regardless of
    the input, which pins the sigmoid cross-entropy losses at 2*ln 2
    (discriminator) and ln 2 (generator).
    """
    d = PatchDiscriminator(source_channels=channels, candidate_channels=channels,
                           base_channels=4, seed=0)
    for p in d.params():
        p.data[...] = 0.0
    return d


def make_target(rng, channels=1, size=8, image=None, seed=0, teacher=None):
    """Target record of one random sample (or of ``image``), scored by
    extractor and parser seeded with ``seed``.  A ``teacher`` adds the
    cycle term over its bottleneck and first two decoder taps."""
    src = rand_image(rng, channels, size)
    m = rand_saliency(rng, size)
    layout = SemanticLayout(rng.integers(0, 12, size=(size, size)).astype(np.uint8))
    tgt = rand_image(rng, channels, size) if image is None else image
    return target_record((src, m, layout, tgt, m, layout),
                         FeatureExtractor(channels, seed=seed),
                         ParsingOracle(channels, seed=seed), teacher=teacher,
                         tap_names=("enc_bottleneck", "dec_block1", "dec_block2"))


def frozen_teacher(channels=1, size=8):
    gen = Generator(channels, channels, depth=2, base_channels=2, si_hidden=2,
                    image_size=size, seed=9)
    gen.freeze()
    return gen


class AffineStubD:
    """Minimal discriminator stand-in: logits are an affine map of the candidate.

    ``forward`` ignores the source and saliency and returns
    ``scale * candidate + shift`` reshaped to a patch map, so the exact
    logits (and their gradients) are trivial to reproduce in numpy.
    """

    def __init__(self, scale=3.0, shift=-1.0):
        self.scale = scale
        self.shift = shift

    def forward(self, source, m, candidate):
        return candidate.reshape((1,) + candidate.data.shape) * self.scale + self.shift


class TestLossWeights:
    def test_defaults(self):
        w = LossWeights()
        assert (w.content, w.perceptual, w.parsing) == (100.0, 10.0, 15.0)
        assert (w.intra_graph, w.inter_graph, w.cycle) == (100.0, 100.0, 5.0)

    def test_validate_returns_self(self):
        w = LossWeights()
        assert w.validate() is w

    @pytest.mark.parametrize("field,value", [
        ("content", -1.0),
        ("perceptual", float("nan")),
        ("cycle", float("inf")),
    ])
    def test_validate_rejects(self, field, value):
        w = LossWeights(**{field: value})
        with pytest.raises(ValueError, match=field):
            w.validate()

    def test_zero_weights_allowed(self):
        LossWeights(content=0.0, perceptual=0.0, parsing=0.0,
                    intra_graph=0.0, inter_graph=0.0, cycle=0.0).validate()


class TestFeatureExtractor:
    def test_tap_shapes(self):
        ext = FeatureExtractor(in_channels=3, seed=5)
        img = rand_image(np.random.default_rng(0), 3, 16)
        t1, t2 = ext.features(img)
        assert t1.data.shape == (1, 8, 8, 8)
        assert t2.data.shape == (1, 16, 4, 4)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(1)
        img = rand_image(rng, 3, 8)
        a = FeatureExtractor(3, seed=7).features(img)
        b = FeatureExtractor(3, seed=7).features(img)
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[1].data, b[1].data)

    def test_different_seeds_differ(self):
        img = rand_image(np.random.default_rng(2), 3, 8)
        a = FeatureExtractor(3, seed=7).features(img)[1]
        b = FeatureExtractor(3, seed=8).features(img)[1]
        assert not np.allclose(a.data, b.data)

    def test_weights_not_trainable(self):
        ext = FeatureExtractor(3, seed=0)
        for w in (ext.w1, ext.w2):
            assert not w.requires_grad

    def test_channel_mismatch(self):
        ext = FeatureExtractor(3, seed=0)
        with pytest.raises(ShapeError):
            ext.features(rand_image(np.random.default_rng(0), 1, 8))

    def test_embed_vector(self):
        ext = FeatureExtractor(1, seed=3)
        img = rand_image(np.random.default_rng(4), 1, 8)
        e = ext.embed(img)
        assert e.shape == (16,)
        _, t2 = ext.features(img)
        assert np.allclose(e, t2.data.mean(axis=(2, 3)).ravel(), atol=1e-15)

    def test_embed_accepts_plain_arrays(self):
        ext = FeatureExtractor(1, seed=3)
        arr = np.random.default_rng(5).uniform(size=(1, 8, 8))
        assert np.array_equal(ext.embed(arr), ext.embed(Tensor(arr)))


class TestParsingOracle:
    def test_probs_shape_and_simplex(self):
        oracle = ParsingOracle(in_channels=3, seed=2)
        img = rand_image(np.random.default_rng(6), 3, 8)
        p = oracle.probs(img)
        assert p.data.shape == (1, 12, 8, 8)
        assert np.all(p.data >= 0)
        assert np.allclose(p.data.sum(axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        img = rand_image(np.random.default_rng(7), 1, 8)
        a = ParsingOracle(1, seed=9).probs(img)
        b = ParsingOracle(1, seed=9).probs(img)
        assert np.array_equal(a.data, b.data)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            ParsingOracle(3, seed=0).probs(
                rand_image(np.random.default_rng(0), 1, 8))


class TestAdversarialLosses:
    def test_zero_logits_exact_identities(self):
        """A zeroed discriminator yields loss_d = 2*ln2 and loss_g = ln2."""
        rng = np.random.default_rng(10)
        d = zeroed_discriminator()
        x = rand_image(rng, 3, 32)
        m = rand_saliency(rng, 32)
        y_real = rand_image(rng, 3, 32)
        y_fake = rand_image(rng, 3, 32)
        loss_d = discriminator_loss(d, x, m, y_real, y_fake)
        loss_g = objective(y_fake, d, make_target(rng, 3, 32, image=y_real),
                           LossWeights())["l_gan_g"]
        assert abs(loss_d.item() - 2.0 * LN2) < 1e-12
        assert abs(loss_g.item() - LN2) < 1e-12

    def test_perfect_discriminator_limit(self):
        """Saturating logits (+ for real, - for fake) drive loss_d to ~0."""
        stub = AffineStubD(scale=100.0, shift=-50.0)
        ones = Tensor(np.ones((1, 6, 6)))
        zeros = Tensor(np.zeros((1, 6, 6)))
        loss_d = discriminator_loss(stub, ones, ones, ones, zeros)
        loss_g = gan_term(stub.forward(ones, ones, zeros), True)
        assert loss_d.item() < 1e-8
        assert loss_g.item() > 10.0

    def test_random_logits_match_patch_oracle(self):
        """BCE losses over random logits equal the scalar per-patch formula."""
        rng = np.random.default_rng(11)
        stub = AffineStubD(scale=2.5, shift=0.3)
        y_real = rand_image(rng, 1, 5)
        y_fake = rand_image(rng, 1, 5)
        loss_d = discriminator_loss(stub, y_real, y_real, y_real, y_fake)
        loss_g = gan_term(stub.forward(y_real, y_real, y_fake), True)
        r = 2.5 * y_real.data + 0.3
        f = 2.5 * y_fake.data + 0.3
        sp = np.logaddexp(0.0, -r).mean() + np.logaddexp(0.0, f).mean()
        assert abs(loss_d.item() - sp) < 1e-12
        assert abs(loss_g.item() - np.logaddexp(0.0, -f).mean()) < 1e-12

    def test_unknown_mode_rejected(self):
        """BCE is the one adversarial form: no entry point takes a mode."""
        d = AffineStubD()
        t = Tensor(np.zeros((1, 8, 8)))
        with pytest.raises(TypeError, match="mode"):
            discriminator_loss(d, t, t, t, t, mode="bce")
        target = make_target(np.random.default_rng(17))
        with pytest.raises(TypeError, match="mode"):
            objective(t, d, target, LossWeights(), mode="bce")

    def test_fake_detached_in_discriminator_loss(self):
        """loss_d must not push gradient into the fake image."""
        stub = AffineStubD()
        rng = np.random.default_rng(14)
        y_real = Tensor(rng.uniform(size=(1, 4, 4)))
        y_fake = Tensor(rng.uniform(size=(1, 4, 4)), requires_grad=True)
        discriminator_loss(stub, y_real, y_real, y_real, y_fake).backward()
        assert y_fake.grad is None or not np.any(y_fake.grad)

    def test_generator_loss_reaches_fake(self):
        stub = AffineStubD()
        rng = np.random.default_rng(15)
        target = make_target(rng)
        y_fake = Tensor(rng.uniform(size=(1, 8, 8)), requires_grad=True)
        objective(y_fake, stub, target, LossWeights())["l_gan_g"].backward()
        assert y_fake.grad is not None and np.all(np.isfinite(y_fake.grad))
        assert np.any(y_fake.grad)

    def test_generator_loss_gradient_fd(self):
        """d loss_g / d y_fake matches central finite differences."""
        stub = AffineStubD(scale=2.0, shift=0.1)
        target = make_target(np.random.default_rng(18))

        def build(leaf):
            return objective(leaf, stub, target, LossWeights())["l_gan_g"]

        rel = gradcheck(build, np.random.default_rng(16).uniform(size=(1, 8, 8)))
        assert rel < 1e-4


class TestContentLoss:
    def test_identical_is_zero(self):
        a = rand_image(np.random.default_rng(20), 3, 6)
        assert content_loss(a, Tensor(a.data.copy())).item() == 0.0

    def test_ones_vs_zeros_is_one(self):
        ones = Tensor(np.ones((3, 5, 5)))
        zeros = Tensor(np.zeros((3, 5, 5)))
        assert content_loss(ones, zeros).item() == 1.0

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(21)
        a = rand_image(rng, 3, 7)
        b = rand_image(rng, 3, 7)
        want = np.abs(a.data - b.data).mean()
        assert abs(content_loss(a, b).item() - want) < 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(22)
        a, b = rand_image(rng, 1, 6), rand_image(rng, 1, 6)
        assert content_loss(a, b).item() == content_loss(b, a).item()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            content_loss(Tensor(np.zeros((3, 4, 4))), Tensor(np.zeros((1, 4, 4))))

    def test_gradient_fd(self):
        target = Tensor(np.full((2, 4, 4), 0.3))

        def build(leaf):
            return content_loss(target, leaf)

        # Keep probe points away from the |.| kink at equality.
        x0 = np.random.default_rng(23).uniform(0.5, 1.0, size=(2, 4, 4))
        assert gradcheck(build, x0) < 1e-4


class TestTapDistances:
    def test_tap_mse_single_pair(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[1.0, 2.0], [3.0, 8.0]]))
        assert abs(tap_mse([a], [b]).item() - 4.0) < 1e-12

    def test_tap_mse_sums_over_pairs(self):
        a1 = Tensor(np.zeros((2, 2)))
        b1 = Tensor(np.full((2, 2), 2.0))
        a2 = Tensor(np.zeros(4))
        b2 = Tensor(np.ones(4))
        assert abs(tap_mse([a1, a2], [b1, b2]).item() - 5.0) < 1e-12

    def test_tap_mse_empty_rejected(self):
        with pytest.raises(ValueError):
            tap_mse([], [])

    def test_tap_l1_two_taps(self):
        real = {"a": Tensor(np.zeros(4)), "b": Tensor(np.full(2, 1.0))}
        fake = {"a": Tensor(np.full(4, 0.5)), "b": Tensor(np.full(2, 3.0))}
        got = tap_l1(real, fake, ("a", "b")).item()
        assert abs(got - (0.5 + 2.0)) < 1e-12

    def test_tap_l1_missing_name(self):
        real = {"a": Tensor(np.zeros(2))}
        fake = {"a": Tensor(np.zeros(2))}
        with pytest.raises(KeyError, match="enc_bottleneck"):
            tap_l1(real, fake, ("a", "enc_bottleneck"))

    def test_tap_l1_empty_names_rejected(self):
        with pytest.raises(ValueError):
            tap_l1({}, {}, ())

    def test_tap_l1_real_side_detached(self):
        real = {"a": Tensor(np.zeros(3), requires_grad=True)}
        fake = {"a": Tensor(np.full(3, 2.0), requires_grad=True)}
        tap_l1(real, fake, ("a",)).backward()
        assert real["a"].grad is None or not np.any(real["a"].grad)
        assert np.any(fake["a"].grad)


def perc(fake, target):
    return objective(fake, AffineStubD(), target, LossWeights())["l_perc"]


class TestPerceptualLoss:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(31)
        img = rand_image(rng, 3, 8)
        target = make_target(rng, 3, image=img, seed=30)
        assert perc(Tensor(img.data.copy()), target).item() == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(33)
        a, b = rand_image(rng, 1, 8), rand_image(rng, 1, 8)
        ab = perc(b, make_target(rng, image=a, seed=32)).item()
        ba = perc(a, make_target(rng, image=b, seed=32)).item()
        assert abs(ab - ba) < 1e-15

    def test_matches_two_tap_reduction(self):
        """The loss is the sum over both taps of mean squared differences."""
        ext = FeatureExtractor(3, seed=34)
        rng = np.random.default_rng(35)
        a, b = rand_image(rng, 3, 8), rand_image(rng, 3, 8)
        ta = ext.features(a)
        tb = ext.features(b)
        want = sum(((x.data - y.data) ** 2).mean() for x, y in zip(ta, tb))
        got = perc(b, make_target(rng, 3, image=a, seed=34)).item()
        assert abs(got - want) < 1e-12

    def test_positive_when_different(self):
        rng = np.random.default_rng(37)
        assert perc(rand_image(rng, 1, 8), make_target(rng, seed=36)).item() > 0

    def test_gradient_fd(self):
        target = make_target(np.random.default_rng(39), seed=38)
        x0 = np.random.default_rng(40).uniform(size=(1, 8, 8))
        assert gradcheck(lambda leaf: perc(leaf, target), x0) < 1e-4


def softmax_probs(logits):
    """``softmax(logits, axis=1)`` as a plain array."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def composed_bce(target_probs, probs):
    """The clipped BCE node that ``softmax_bce`` fuses with the softmax,
    kept as the reference its loss and gradient must match bit for bit."""
    p, q = target_probs.data, probs.data
    qc, rc = np.clip(q, PROB_EPS, 1.0), np.clip(1.0 - q, PROB_EPS, 1.0)
    loss = -(p * np.log(qc) + (1.0 - p) * np.log(rc)).mean()

    def bw(g):
        d = (1.0 - p) / rc * (rc == 1.0 - q) - p / qc * (qc == q)
        _accumulate(probs._node, d * (g / q.size))

    return _result(loss, (probs._node,), bw)


def saturated_logits(rng, size):
    """Random [1, 12, size, size] logits whose first two rows and the
    first column below them push one class so far ahead that its
    probability rounds to 1 and the others' to 0, so both clip bounds
    fire there."""
    x = rng.normal(0.0, 4.0, size=(1, 12, size, size))
    x[0, 3, :2] = 900.0
    x[0, 7, 2:, 0] = 900.0
    return x


class TestBinaryCrossEntropy:
    """The parsing term ``softmax_bce``: BCE of the softmax of logits."""

    def test_one_hot_self_is_exactly_zero(self):
        p = np.zeros((1, 3, 2, 2))
        p[0, 0] = 1.0
        logits = np.where(p == 1.0, 1000.0, 0.0)
        assert softmax_bce(Tensor(p), Tensor(logits)).item() == 0.0

    def test_self_bce_equals_entropy(self):
        """BCE(p, softmax(x)) at p = softmax(x) is the mean elementwise
        binary entropy of p, not 0."""
        x = np.random.default_rng(50).normal(size=(1, 4, 3, 3))
        p = softmax_probs(x)
        got = softmax_bce(Tensor(p), Tensor(x)).item()
        want = -(p * np.log(p) + (1 - p) * np.log(1 - p)).mean()
        assert abs(got - want) < 1e-12
        assert got > 0

    def test_matches_scalar_formula(self):
        rng = np.random.default_rng(51)
        p = rng.uniform(0.05, 0.95, size=(2, 3, 4))
        x = rng.normal(size=(2, 3, 4))
        q = softmax_probs(x)
        got = softmax_bce(Tensor(p), Tensor(x)).item()
        want = -(p * np.log(q) + (1 - p) * np.log(1 - q)).mean()
        assert abs(got - want) < 1e-12

    def test_self_is_minimum(self):
        """Against a fixed target p, BCE is minimized at softmax == p."""
        rng = np.random.default_rng(52)
        x0 = rng.normal(size=(3, 3))
        p = softmax_probs(x0)
        base = softmax_bce(Tensor(p), Tensor(x0)).item()
        for k in range(5):
            x = rng.normal(size=(3, 3))
            assert base <= softmax_bce(Tensor(p), Tensor(x)).item()

    def test_target_detached(self):
        rng = np.random.default_rng(53)
        p = Tensor(rng.uniform(0.2, 0.8, size=(2, 2)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        softmax_bce(p, x).backward()
        assert p.grad is None or not np.any(p.grad)
        assert np.any(x.grad)

    def test_clipped_probs_get_zero_gradient(self):
        """At probs that round to 0 and 1 against the opposite one-hot
        target, each term's log is either clipped or weighted by zero."""
        p = np.zeros((1, 2, 2, 2))
        p[0, 0] = 1.0
        x = Tensor(np.concatenate([np.full((1, 1, 2, 2), -1000.0),
                                   np.zeros((1, 1, 2, 2))], axis=1), requires_grad=True)
        softmax_bce(Tensor(p), x).backward()
        assert np.array_equal(x.grad, np.zeros_like(p))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            softmax_bce(Tensor(np.full((2, 2), 0.5)), Tensor(np.zeros((2, 3))))

    def test_gradient_fd(self):
        target = Tensor(np.random.default_rng(54).uniform(0.2, 0.8, size=(3, 3)))

        def build(leaf):
            return softmax_bce(target, leaf)

        x0 = np.random.default_rng(55).normal(size=(3, 3))
        assert gradcheck(build, x0) < 1e-4

    @pytest.mark.parametrize("size", [64, 256])
    def test_equals_softmax_then_bce(self, size):
        """Loss and logits gradient equal the softmax node followed by the
        clipped BCE node byte for byte, saturated rows included."""
        rng = np.random.default_rng(size)
        x = saturated_logits(rng, size)
        p = softmax_probs(rng.normal(0.0, 3.0, size=x.shape))
        p[0, :, -1] = 0.0
        p[0, 2, -1] = 1.0
        q = softmax_probs(x)
        assert np.any(q == 0.0) and np.any(q == 1.0)
        fused, composed = Tensor(x.copy(), requires_grad=True), Tensor(x.copy(), requires_grad=True)
        a = softmax_bce(Tensor(p), fused)
        b = composed_bce(Tensor(p), softmax(composed, axis=1))
        a.backward()
        b.backward()
        assert a.data.tobytes() == b.data.tobytes()
        assert fused.grad.tobytes() == composed.grad.tobytes()

    def test_forward_backward_peak(self):
        """Forward and backward at 128 px peak under three [1, 12, h, w]
        arrays above the inputs, the logits gradient included: the kept
        probabilities, one array of terms or gradient, and one class
        plane's temporaries.  The softmax node followed by the BCE node
        peaked at 6.0 arrays; this node peaks at 2.5."""
        rng = np.random.default_rng(56)
        p = Tensor(softmax_probs(rng.normal(size=(1, 12, 128, 128))))
        x = Tensor(saturated_logits(rng, 128), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            softmax_bce(p, x).backward()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 3 * x.data.nbytes


def parsing(fake, target):
    return objective(fake, AffineStubD(), target, LossWeights())["l_bce"]


class TestParsingLoss:
    def test_self_equals_parser_entropy(self):
        oracle = ParsingOracle(3, seed=60)
        rng = np.random.default_rng(61)
        img = rand_image(rng, 3, 8)
        p = oracle.probs(img).data
        want = -(p * np.log(p) + (1 - p) * np.log(np.clip(1 - p, PROB_EPS, 1.0))).mean()
        got = parsing(Tensor(img.data.copy()), make_target(rng, 3, image=img, seed=60)).item()
        assert abs(got - want) < 1e-10

    def test_self_not_larger_than_random_fakes(self):
        rng = np.random.default_rng(63)
        img = rand_image(rng, 1, 8)
        target = make_target(rng, image=img, seed=62)
        base = parsing(Tensor(img.data.copy()), target).item()
        for k in range(4):
            other = rand_image(rng, 1, 8)
            assert base <= parsing(other, target).item() + 1e-12

    def test_gradient_reaches_fake_only(self):
        rng = np.random.default_rng(65)
        y = Tensor(rng.uniform(size=(1, 8, 8)), requires_grad=True)
        y_fake = Tensor(rng.uniform(size=(1, 8, 8)), requires_grad=True)
        parsing(y_fake, make_target(rng, image=y, seed=64)).backward()
        assert y.grad is None or not np.any(y.grad)
        assert np.any(y_fake.grad)

    def test_gradient_fd(self):
        target = make_target(np.random.default_rng(67), seed=66)
        x0 = np.random.default_rng(68).uniform(size=(1, 8, 8))
        assert gradcheck(lambda leaf: parsing(leaf, target), x0) < 1e-4


PARTS = ("l_gan_g", "l_content", "l_perc", "l_bce", "l_iag", "l_itg", "l_ict")
WEIGHT_OF = {"l_content": "content", "l_perc": "perceptual", "l_bce": "parsing",
             "l_iag": "intra_graph", "l_itg": "inter_graph", "l_ict": "cycle"}


class TestTotalObjective:
    @staticmethod
    def scored(weights, seed=70, stub=None, same=False):
        """objective() of one fake against a target with a cycle teacher."""
        rng = np.random.default_rng(seed)
        target = make_target(rng, teacher=frozen_teacher())
        fake = target.views[3] if same else rand_image(rng, 1, 8)
        fake = Tensor(fake.data.copy(), requires_grad=True)
        return objective(fake, stub or AffineStubD(), target, weights)

    @staticmethod
    def weighted_sum(terms, w):
        v = {k: terms[k].item() for k in PARTS}
        return (v["l_gan_g"] + w.content * v["l_content"] + w.perceptual * v["l_perc"]
                + w.parsing * v["l_bce"] + w.intra_graph * v["l_iag"]
                + w.inter_graph * v["l_itg"] + w.cycle * v["l_ict"])

    def test_keys_are_loss_csv_columns(self):
        terms = self.scored(LossWeights())
        assert ("l_gan_d",) + tuple(terms) == LOSS_CSV_COLUMNS[1:]

    def test_all_zero_parts(self):
        """A fake equal to its target, logits pinned at +1000 (where
        ``softplus(-1000)`` is exactly 0.0) and the parsing weight at zero
        (BCE of p against itself is p's entropy, not 0) give a total of
        exactly zero."""
        terms = self.scored(LossWeights(parsing=0.0),
                            stub=AffineStubD(scale=0.0, shift=1000.0), same=True)
        assert all(terms[k].item() == 0.0 for k in PARTS if k != "l_bce")
        assert terms["l_total"].item() == 0.0

    def test_unit_parts_unit_weights(self):
        """With unit weights the total is the plain sum of the seven parts."""
        w = LossWeights(content=1, perceptual=1, parsing=1,
                        intra_graph=1, inter_graph=1, cycle=1)
        terms = self.scored(w)
        want = sum(terms[k].item() for k in PARTS)
        assert abs(terms["l_total"].item() - want) < 1e-12

    def test_default_weighted_sum(self):
        terms = self.scored(LossWeights())
        v = {k: terms[k].item() for k in PARTS}
        assert v["l_ict"] > 0
        want = (v["l_gan_g"] + 100 * v["l_content"] + 10 * v["l_perc"]
                + 15 * v["l_bce"] + 100 * v["l_iag"] + 100 * v["l_itg"]
                + 5 * v["l_ict"])
        assert abs(terms["l_total"].item() - want) < 1e-12
        assert terms["l_total"].item() == self.weighted_sum(terms, LossWeights())

    def test_linear_in_each_component(self):
        """Doubling one weight moves the total by exactly weight * part."""
        w = LossWeights()
        base = self.scored(w)
        for key, name in WEIGHT_OF.items():
            bumped = self.scored(LossWeights(**{name: 2.0 * getattr(w, name)}))
            moved = bumped["l_total"].item() - base["l_total"].item()
            assert abs(moved - getattr(w, name) * base[key].item()) < 1e-9

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            self.scored(LossWeights(content=-1.0))

    def test_gradient_flows_to_parts(self):
        terms = self.scored(LossWeights())
        terms["l_total"].backward()
        grads = [float(terms[k].grad) for k in PARTS]
        assert grads == [1.0, 100.0, 10.0, 15.0, 100.0, 100.0, 5.0]


def unsettled_objective(fake, d, target, weights, parsing=True):
    """``objective``'s terms and ``l_total`` built as one graph from the
    public pieces, every scorer's graph held until ``l_total``'s
    backward; ``parsing=False`` leaves the parsing term out of
    ``l_total``."""
    src, m_src, lay_src, tgt, m_tgt, lay_tgt = target.views
    terms = {"l_gan_g": gan_term(d.forward(src, m_src, fake), True),
             "l_content": content_loss(tgt.detach(), fake),
             "l_perc": tap_mse(target.taps, target.extractor.features(fake)),
             "l_bce": softmax_bce(target.probs, target.oracle.logits(fake))}
    nodes = compute_nodes(fake, lay_src, variance=target.variance)
    terms["l_iag"] = graph_loss(target.intra, intra_graph(nodes))
    terms["l_itg"] = graph_loss(target.inter, inter_graph(nodes))
    if target.teacher is None:
        terms["l_ict"] = Tensor(0.0)
    else:
        taps = target.teacher.forward(fake, m_tgt, lay_tgt, want_taps=target.tap_names)
        terms["l_ict"] = tap_l1(target.teacher_taps, taps, target.tap_names)
    w = weights
    total = (terms["l_gan_g"] + w.content * terms["l_content"]
             + w.perceptual * terms["l_perc"])
    if parsing:
        total = total + w.parsing * terms["l_bce"]
    terms["l_total"] = (total + w.intra_graph * terms["l_iag"]
                        + w.inter_graph * terms["l_itg"] + w.cycle * terms["l_ict"])
    return terms


class TestSettledObjective:
    """``objective`` backpropagates each fixed scorer inside the call; the
    generator must see the bytes of one walk over the whole graph."""

    @staticmethod
    def case(direction, teacher):
        """A trainable 32 px generator, a frozen discriminator and one
        sample's target record in ``direction``, with a frozen
        opposite-direction teacher or none, at small widths."""
        cin, cout = (3, 1) if direction == "k" else (1, 3)
        rng = np.random.default_rng([90, cin, teacher])
        gen = Generator(cin, cout, depth=3, base_channels=4, si_hidden=4,
                        image_size=32, seed=91)
        d = PatchDiscriminator(cin, cout, base_channels=4, seed=92)
        d.freeze()
        opp = None
        if teacher:
            opp = Generator(cout, cin, depth=3, base_channels=4, si_hidden=4,
                            image_size=32, seed=93)
            opp.freeze()
        layout = SemanticLayout(rng.integers(0, 12, size=(32, 32)).astype(np.uint8))
        m = rand_saliency(rng, 32)
        views = (rand_image(rng, cin, 32), m, layout, rand_image(rng, cout, 32), m, layout)
        target = target_record(views, FeatureExtractor(cout, seed=94),
                               ParsingOracle(cout, seed=95), teacher=opp,
                               tap_names=("enc_bottleneck", "dec_block1", "dec_block2"))
        return gen, d, target

    @staticmethod
    def stepped(build, gen, d, target, weights, **kw):
        """Term values, then the fake's and every generator parameter's
        gradient after one ``l_total`` backward."""
        gen.zero_grad()
        fake = gen.forward(*target.views[:3])
        terms = build(fake, d, target, weights, **kw)
        terms["l_total"].backward()
        return terms, fake.grad, [p.grad for p in gen.params()]

    @pytest.mark.parametrize("teacher", [False, True], ids=["stage0", "cycle"])
    @pytest.mark.parametrize("direction", ["k", "o"])
    def test_bytes_of_the_unsettled_graph(self, direction, teacher):
        """Every term value, the fake's gradient and every generator
        gradient equal the one-graph walk's byte for byte: each settled
        node adds its kept gradient where its scorer's one node into the
        fake added it."""
        gen, d, target = self.case(direction, teacher)
        terms, gfake, grads = self.stepped(objective, gen, d, target, LossWeights())
        ref, rfake, rgrads = self.stepped(unsettled_objective, gen, d, target, LossWeights())
        assert list(terms) == list(ref)
        for key in terms:
            assert terms[key].data.tobytes() == ref[key].data.tobytes(), key
        assert gfake.tobytes() == rfake.tobytes()
        assert len(grads) == len(rgrads)
        for i, (a, b) in enumerate(zip(grads, rgrads)):
            assert a.tobytes() == b.tobytes(), f"generator param {i}"

    @pytest.mark.parametrize("direction", ["k", "o"])
    def test_settled_terms_hold_one_node_over_the_fake(self, direction):
        gen, d, target = self.case(direction, True)
        fake = gen.forward(*target.views[:3])
        terms = objective(fake, d, target, LossWeights())
        for key in ("l_gan_g", "l_perc", "l_bce", "l_ict"):
            assert terms[key]._node.parents == (fake._node,), key

    def test_zero_weight_runs_no_backward(self):
        """A zero parsing weight scores the parser for the logged value
        only: ``l_bce`` has no parent, and the generator's gradients are
        those of the graph without the parsing term."""
        gen, d, target = self.case("k", True)
        weights = LossWeights(parsing=0.0)
        terms, gfake, grads = self.stepped(objective, gen, d, target, weights)
        ref, rfake, rgrads = self.stepped(unsettled_objective, gen, d, target, weights,
                                          parsing=False)
        assert terms["l_bce"]._node.parents == () and not terms["l_bce"].requires_grad
        assert terms["l_bce"].item() == ref["l_bce"].item() > 0.0
        assert np.array_equal(gfake, rfake)
        assert all(np.array_equal(a, b) for a, b in zip(grads, rgrads))


class TestLossLog:
    def test_header_matches_columns(self, tmp_path):
        path = tmp_path / "losses.csv"
        LossLog(str(path))
        assert path.read_text().splitlines() == [",".join(LOSS_CSV_COLUMNS)]

    def test_append_row_values_round_trip(self, tmp_path):
        path = tmp_path / "losses.csv"
        log = LossLog(str(path))
        values = {key: 0.1 * (i + 1) for i, key in enumerate(LOSS_CSV_COLUMNS[1:])}
        log.append(3, values)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "3"
        for cell, key in zip(cells[1:], LOSS_CSV_COLUMNS[1:]):
            assert float(cell) == values[key]

    def test_repr_formatting_is_lossless(self, tmp_path):
        """Logged floats survive text round-trip bit-exactly."""
        path = tmp_path / "losses.csv"
        log = LossLog(str(path))
        rng = np.random.default_rng(80)
        values = {key: float(rng.uniform(1e-6, 1e6))
                  for key in LOSS_CSV_COLUMNS[1:]}
        log.append(0, values)
        row = path.read_text().splitlines()[1].split(",")
        for cell, key in zip(row[1:], LOSS_CSV_COLUMNS[1:]):
            assert float(cell) == values[key]

    def test_constructor_truncates(self, tmp_path):
        path = tmp_path / "losses.csv"
        log = LossLog(str(path))
        log.append(0, {key: 1.0 for key in LOSS_CSV_COLUMNS[1:]})
        LossLog(str(path))
        assert path.read_text().splitlines() == [",".join(LOSS_CSV_COLUMNS)]
