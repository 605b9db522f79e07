"""Training losses and the weighted total objective.

The adversarial term is sigmoid binary cross-entropy over patch logits
(at all-zero logits the discriminator loss is exactly 2*ln 2 and the
generator loss ln 2).  Content is mean absolute error.  Perceptual and
parsing terms run both images through small *fixed* seeded conv stacks:
a two-tap feature extractor standing in for a pretrained backbone, and a
twelve-class soft parser standing in for a pretrained face parser.  The
graph terms come from :mod:`sgs.graphs`.  All reductions over feature
elements use means so the default weights transfer across image sizes.

:func:`objective` is the one place the generator-side terms and their
weighted total are computed; its keys are the ``losses.csv`` columns.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .graphs import compute_nodes, graph_loss, inter_graph, intra_graph
from .layout import N_CLASSES
from .numerics import (
    ShapeError,
    Tensor,
    _op,
    activate,
    avg_pool2d,
    conv2d,
    softmax,
    softplus,
)

PROB_EPS = 1e-12


def config_key(default, help_text):
    """A dataclass field that is also one training config key and one
    command-line flag: its type is its default's type, and ``help_text``
    is the flag's help."""
    return field(default=default, metadata={"help": help_text})


@dataclass(frozen=True)
class LossWeights:
    """Weights of the non-adversarial objective terms."""

    content: float = config_key(100.0, "weight of the content L1 term")
    perceptual: float = config_key(10.0, "weight of the perceptual term")
    parsing: float = config_key(15.0, "weight of the parsing BCE term")
    intra_graph: float = config_key(100.0, "weight of the intra-class graph term")
    inter_graph: float = config_key(100.0, "weight of the inter-class graph term")
    cycle: float = config_key(5.0, "weight of the cycle distillation term")

    def validate(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"loss weight {f.name} must be finite and >= 0, got {v}")
        return self


def _he_conv(rng, cout, cin, k):
    """A fixed He-initialized kernel; the scorers' convs have no bias."""
    return Tensor(rng.normal(0.0, np.sqrt(2.0 / (cin * k * k)), size=(cout, cin, k, k)))


class FeatureExtractor:
    """Fixed seeded two-stage conv stack with a tap after each pooling.

    The weights are drawn once from the seed and never trained; the
    taps give low- and mid-frequency summaries of an image, and the
    second tap doubles as the embedding for distribution metrics (after
    global average pooling).
    """

    def __init__(self, in_channels, seed):
        rng = np.random.default_rng(seed)
        self.in_channels = in_channels
        self.seed = seed
        self.w1 = _he_conv(rng, 8, in_channels, 3)
        self.w2 = _he_conv(rng, 16, 8, 3)

    def features(self, img):
        """Taps of ``img`` ([C, H, W], H and W divisible by 4)."""
        if img.data.ndim != 3 or img.data.shape[0] != self.in_channels:
            raise ShapeError(
                f"extractor expects [{self.in_channels}, H, W], got {img.data.shape}"
            )
        h = activate(conv2d(img.reshape((1,) + img.data.shape), self.w1, padding=1), 0.0)
        t1 = avg_pool2d(h, 2)
        h = activate(conv2d(t1, self.w2, padding=1), 0.0)
        t2 = avg_pool2d(h, 2)
        return t1, t2

    def embed(self, img):
        """Deterministic embedding vector: second tap, globally pooled."""
        img_t = img if isinstance(img, Tensor) else Tensor(img)
        _, t2 = self.features(img_t.detach())
        return t2.data.mean(axis=(2, 3)).ravel()


class ParsingOracle:
    """Fixed seeded conv stack ending in a per-pixel 12-class softmax."""

    def __init__(self, in_channels, seed):
        rng = np.random.default_rng(seed)
        self.in_channels = in_channels
        self.seed = seed
        self.w1 = _he_conv(rng, 16, in_channels, 3)
        self.w2 = _he_conv(rng, N_CLASSES, 16, 3)

    def logits(self, img):
        """Per-pixel class logits [1, 12, H, W] of ``img`` ([C, H, W])."""
        if img.data.ndim != 3 or img.data.shape[0] != self.in_channels:
            raise ShapeError(
                f"parser expects [{self.in_channels}, H, W], got {img.data.shape}"
            )
        h = activate(conv2d(img.reshape((1,) + img.data.shape), self.w1, padding=1), 0.0)
        return conv2d(h, self.w2, padding=1)

    def probs(self, img):
        """Soft class assignment [1, 12, H, W]; sums to one per pixel."""
        return softmax(self.logits(img), axis=1)


def gan_term(logits, real):
    """Mean sigmoid cross-entropy of patch ``logits`` against the real
    (True) or fake (False) label: ``softplus(-logits)`` or
    ``softplus(logits)``.  This is the one adversarial form."""
    return softplus(-logits if real else logits).mean()


def discriminator_loss(d, source, m, y_real, y_fake):
    """One sample's discriminator loss; the fake is detached so only the
    discriminator receives gradients."""
    real = gan_term(d.forward(source, m, y_real), True)
    return real + gan_term(d.forward(source, m, y_fake.detach()), False)


def content_loss(y_real, y_fake):
    """Mean absolute difference between target and synthesized images."""
    if y_real.data.shape != y_fake.data.shape:
        raise ShapeError(
            f"content loss shapes differ: {y_real.data.shape} vs {y_fake.data.shape}"
        )
    return (y_real - y_fake).abs().mean()


def tap_mse(real_taps, fake_taps):
    """Sum over tap pairs of the mean squared feature difference."""
    total = None
    for a, b in zip(real_taps, fake_taps):
        d = a - b
        term = (d * d).mean()
        total = term if total is None else total + term
    if total is None:
        raise ValueError("tap_mse needs at least one tap pair")
    return total


def tap_l1(real_taps, fake_taps, names):
    """Sum over named taps of the mean absolute activation difference.

    ``real_taps``/``fake_taps`` are name -> Tensor dicts; the real side
    is detached so gradients only reach the fake branch.
    """
    if not names:
        raise ValueError("tap_l1 needs at least one tap name")
    total = None
    for name in names:
        if name not in real_taps or name not in fake_taps:
            raise KeyError(f"tap {name!r} not produced by the generator")
        term = (fake_taps[name] - real_taps[name].detach()).abs().mean()
        total = term if total is None else total + term
    return total


def _clipped(q):
    """``q`` and ``1 - q``, each clipped to ``[PROB_EPS, 1]``."""
    return np.clip(q, PROB_EPS, 1.0), np.clip(1.0 - q, PROB_EPS, 1.0)


def softmax_bce(target_probs, logits):
    """Elementwise-mean BCE of ``softmax(logits, axis=1)`` against
    (constant) target probs, as one graph node whose only parent is the
    logits, with one closed-form gradient function.

    Probabilities are clamped away from {0, 1} before the logs, so exact
    one-hot probabilities evaluate to exactly zero loss against
    themselves.  The gradient is that of the clipped logs, zero for a
    term whose bound clips, taken back through the softmax.  The
    elementwise ops are :func:`sgs.numerics.softmax`'s and the clipped
    BCE's, in their order, so the loss and gradient are bit for bit
    those of the two ops composed; the log terms and their gradient run
    one class plane of axis 1 at a time.  Between forward and backward
    the gradient function keeps only the probabilities.  No gradient
    reaches the target.
    """
    if target_probs.data.shape != logits.data.shape:
        raise ShapeError(
            f"BCE shapes differ: {target_probs.data.shape} vs {logits.data.shape}"
        )
    p, x = target_probs.data, logits.data
    q = x - x.max(axis=1, keepdims=True)
    np.exp(q, out=q)
    q /= q.sum(axis=1, keepdims=True)
    terms = np.empty_like(q)
    for c in range(q.shape[1]):
        qc, rc = _clipped(q[:, c])
        pc = p[:, c]
        np.log(qc, out=qc)
        np.log(rc, out=rc)
        qc *= pc
        rc *= 1.0 - pc
        np.add(qc, rc, out=terms[:, c])
    np.negative(terms, out=terms)
    loss = terms.mean()

    def grad(g):
        scale = g / q.size
        gq = np.empty_like(q)
        for c in range(q.shape[1]):
            qp, pc = q[:, c], p[:, c]
            qc, rc = _clipped(qp)
            d = (1.0 - pc) / rc
            d *= rc == 1.0 - qp
            qc_ok = qc == qp
            np.divide(pc, qc, out=qc)
            qc *= qc_ok
            d -= qc
            np.multiply(d, scale, out=gq[:, c])
        dot = gq[:, 0] * q[:, 0]
        for c in range(1, q.shape[1]):
            dot += gq[:, c] * q[:, c]
        gq -= dot[:, None]
        gq *= q
        return gq

    return _op(loss, (logits,), (grad,))


@dataclass(frozen=True)
class Target:
    """What one sample's fake is scored against, fixed for a whole stage.

    ``views`` are the sample's (source, source saliency, source layout,
    target image, target saliency, target layout) for one direction.
    ``taps``, ``probs``, ``intra`` and ``inter`` are the fixed scorers'
    outputs on the real target.  In a cycle stage ``teacher`` is the
    frozen opposite-direction generator, ``tap_names`` the activations
    it is compared on and ``teacher_taps`` those activations on the real
    target; otherwise ``teacher`` and ``teacher_taps`` are None.
    """

    views: tuple
    extractor: FeatureExtractor
    oracle: ParsingOracle
    variance: str
    taps: list
    probs: Tensor
    intra: Tensor
    inter: Tensor
    teacher: object = None
    tap_names: tuple = ()
    teacher_taps: dict = None


def target_record(views, extractor, oracle, variance="literal", teacher=None,
                  tap_names=()):
    """Build the :class:`Target` of one sample from its direction views."""
    _, _, lay_src, tgt, m_tgt, lay_tgt = views
    tgt = tgt.detach()
    nodes = compute_nodes(tgt, lay_src, variance=variance)
    teacher_taps = None
    if teacher is not None:
        real = teacher.forward(tgt, m_tgt, lay_tgt, want_taps=tap_names)
        teacher_taps = {name: real[name].detach() for name in tap_names}
    return Target(views, extractor, oracle, variance,
                  taps=[t.detach() for t in extractor.features(tgt)],
                  probs=oracle.probs(tgt).detach(), intra=intra_graph(nodes),
                  inter=inter_graph(nodes), teacher=teacher, tap_names=tuple(tap_names),
                  teacher_taps=teacher_taps)


def _settled(fake, weight, score):
    """``score(fake)``, a term weighted by ``weight`` in ``l_total``, with
    its scorer backpropagated now rather than in ``l_total``'s backward.

    The scorer runs on a detached copy of ``fake`` that records
    gradients, ``weight * term`` is backpropagated at once, freeing the
    scorer's graph, and only the copy's gradient ``kept`` is held.  The
    term comes back as one node over ``fake`` whose gradient function is
    ``(g / weight) * kept``: ``kept`` itself under ``l_total``, where ``g ==
    weight``, and the term's own gradient when backpropagated alone.  A
    zero weight scores the detached fake for its value only.
    """
    if weight == 0.0:
        return score(fake.detach()).detach()
    leaf = fake.detach()
    leaf.requires_grad = True
    term = score(leaf)
    (weight * term).backward()
    kept = leaf.grad
    if kept.base is not None and kept.base.size > kept.size:
        kept = kept.copy()  # a view would keep the scorer's input gradient alive
    return _op(term.data, (fake,), (lambda g: (g / weight) * kept,))


def objective(fake, d, target, weights):
    """Every generator-side loss term of one fake, keyed as in losses.csv.

    ``d`` scores the live fake, so the adversarial term's gradient
    reaches the generator.  The cycle term ``l_ict`` is the L1 agreement
    of the teacher's activations on the fake and on the real target, and
    is zero outside cycle stages.  ``l_total`` is the weighted sum.

    The four terms whose scorers hold activations -- adversarial
    (``d``), perceptual (the extractor), parsing (the parser) and cycle
    (the teacher) -- are settled here: each is one node over ``fake``
    that carries the term's weighted gradient at the fake, and no scorer
    activation outlives the call.  So the parameters of ``d`` and of the
    teacher receive their gradients while the call runs, unless frozen;
    ``train_direction`` freezes ``d`` first.  A term whose weight is zero
    runs no backward and has no parent.  Each settled node takes the
    place of the one node by which its scorer reached ``fake``, so
    ``l_total``'s backward adds the fake's contributions in the same
    order, byte for byte.  Content and the two graph terms stay ordinary
    nodes: they hold nothing image-sized, and the graph terms reach
    ``fake`` through two shared nodes, so settling them would reorder
    the sums.
    """
    weights.validate()
    src, m_src, lay_src, tgt, m_tgt, lay_tgt = target.views
    terms = {"l_gan_g": _settled(fake, 1.0, lambda f: gan_term(d.forward(src, m_src, f), True)),
             "l_content": content_loss(tgt.detach(), fake),
             "l_perc": _settled(fake, weights.perceptual,
                                lambda f: tap_mse(target.taps, target.extractor.features(f))),
             "l_bce": _settled(fake, weights.parsing,
                               lambda f: softmax_bce(target.probs, target.oracle.logits(f)))}
    nodes = compute_nodes(fake, lay_src, variance=target.variance)
    terms["l_iag"] = graph_loss(target.intra, intra_graph(nodes))
    terms["l_itg"] = graph_loss(target.inter, inter_graph(nodes))
    if target.teacher is None:
        terms["l_ict"] = Tensor(0.0)
    else:
        def cycle(f):
            taps = target.teacher.forward(f, m_tgt, lay_tgt, want_taps=target.tap_names)
            return tap_l1(target.teacher_taps, taps, target.tap_names)

        terms["l_ict"] = _settled(fake, weights.cycle, cycle)
    terms["l_total"] = (terms["l_gan_g"] + weights.content * terms["l_content"]
                        + weights.perceptual * terms["l_perc"]
                        + weights.parsing * terms["l_bce"]
                        + weights.intra_graph * terms["l_iag"]
                        + weights.inter_graph * terms["l_itg"]
                        + weights.cycle * terms["l_ict"])
    return terms


LOSS_CSV_COLUMNS = (
    "step", "l_gan_d", "l_gan_g", "l_content", "l_perc", "l_bce",
    "l_iag", "l_itg", "l_ict", "l_total",
)


class LossLog:
    """Append-only CSV log of per-step loss components."""

    def __init__(self, path):
        self.path = path
        with open(path, "w", encoding="utf-8") as f:
            f.write(",".join(LOSS_CSV_COLUMNS) + "\n")

    def append(self, step, values):
        row = [str(int(step))]
        for key in LOSS_CSV_COLUMNS[1:]:
            row.append(repr(float(values[key])))
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(",".join(row) + "\n")
