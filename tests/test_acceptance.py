"""Release acceptance suite.

Eight gates, one per test, each ending in a single printed verdict line
(written to the real stdout so it survives pytest capture):

  1. finite-difference gradient suite over every differentiable op
  2. graph construction against brute-force loop oracles
  3. metric identities and noise monotonicity
  4. loss identities at pinned tolerances
  5. desk-scale stage-0 training convergence and runtime
  6. iterative schedule conformance (T = 4)
  7. full-pipeline bit determinism
  8. depth-7 architecture shape contract at 256 x 256
"""
import hashlib
import json
import sys
import time

import numpy as np
import pytest

from conftest import gradcheck, spot_check_param
from test_graphs import (
    inter_oracle,
    intra_oracle,
    loss_oracle_rows,
    nodes_oracle,
    random_instance,
)

from sgs.cli import main as cli_main
from sgs.cycletrain import DEFAULT_ICT_TAPS, TrainConfig, run_iterative, train_direction
from sgs.datagen import generate_corpus
from sgs.graphs import compute_nodes, graph_loss, inter_graph, intra_graph
from sgs.layout import SaliencyMap, SemanticLayout, load_corpus
from sgs.losses import (
    FeatureExtractor,
    LossWeights,
    ParsingOracle,
    discriminator_loss,
    objective,
    softmax_bce,
    target_record,
)
from sgs.metrics import frechet_distance, frechet_from_stats, fsim, ssim
from sgs.network import Generator, PatchDiscriminator, SIModule, SIResBlock
from sgs.numerics import (
    Tensor,
    activate,
    avg_pool2d,
    conv2d,
    normalize,
    softmax,
    softplus,
    tanh,
    upsample_nearest,
)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _capture_handle(capfd):
    """Hold the capture fixture so verdict lines can bypass fd capture."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def verdict(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{tail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, file=sys.__stdout__, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def const(seed, *shape):
    return Tensor(np.random.default_rng(list(seed)).normal(size=shape))


def rand_classes(rng, size, hi=12):
    return SemanticLayout(rng.integers(0, hi, size=(size, size)).astype(np.uint8))


# ---------------------------------------------------------------------------
# criterion 1: gradient suite
# ---------------------------------------------------------------------------


def _case_polynomial(seed):
    x0 = np.random.default_rng(seed).normal(size=(3, 4))
    return gradcheck(lambda x: (x * 2.0 - (x * x * x) * 0.1 + 1.0 / (x + 4.0)).mean(), x0)


def _case_abs(seed):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.5, 1.5, size=(3, 3)) * rng.choice([-1.0, 1.0], size=(3, 3))
    return gradcheck(lambda x: x.abs().sum(), x0)


def _case_tanh(seed):
    x0 = np.random.default_rng(seed).normal(size=(2, 5))
    return gradcheck(lambda x: tanh(x).sum(), x0)


def _case_softplus(seed):
    x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(2, 4))
    return gradcheck(lambda x: softplus(x).sum(), x0)


def _case_relu_leaky(seed):
    k = const((seed, 33), 3, 2, 3, 3)
    w = const((seed, 34), 1, 3, 5, 5)
    x0 = np.random.default_rng(seed).normal(size=(1, 2, 5, 5))
    # Finite differences are exact only away from the kink at zero.
    assert np.abs(conv2d(Tensor(x0), k, None, 1, 1).data).min() > 1e-3

    def build(x):
        relu = activate(conv2d(x, k, None, 1, 1), 0.0)
        leaky = activate(conv2d(x, k, None, 1, 1), 0.2)
        return ((relu + leaky) * w).sum()

    return gradcheck(build, x0)


def _case_softmax_ce(seed):
    x0 = np.random.default_rng(seed).normal(size=(3, 4))
    w = const((seed, 1), 3, 4)
    return gradcheck(lambda x: (softmax(x, axis=1) * w).sum(), x0)


def _case_reductions(seed):
    x0 = np.random.default_rng(seed).normal(size=(2, 6))
    return gradcheck(
        lambda x: x.reshape((3, 4)).mean(axis=1).sum() + x.sum(axis=0).mean()
        + (x * x).mean(), x0)


def _case_sub_broadcast(seed):
    w = const((seed, 32), 3, 4)
    x0 = np.random.default_rng(seed).normal(size=(3, 4))

    def build(x):
        col = x.mean(axis=1, keepdims=True)
        row = (x * x).sum(axis=0, keepdims=True)
        return ((col - row) * w).sum() + ((2.0 - x) * x).sum()

    return gradcheck(build, x0)


def _case_conv_input(seed):
    k = const((seed, 2), 3, 2, 3, 3)
    b = const((seed, 3), 3)
    w = const((seed, 4), 1, 3, 5, 5)
    x0 = np.random.default_rng(seed).normal(size=(1, 2, 5, 5))
    return gradcheck(lambda x: (conv2d(x, k, b, stride=1, padding=1) * w).sum(), x0)


def _case_conv_kernel(seed):
    x = const((seed, 5), 1, 2, 5, 5)
    w = const((seed, 6), 1, 3, 3, 3)
    x0 = np.random.default_rng(seed).normal(size=(3, 2, 3, 3))
    return gradcheck(lambda k: (conv2d(x, k, None, stride=1, padding=0) * w).sum(), x0)


def _case_conv_bias(seed):
    x = const((seed, 7), 1, 2, 4, 4)
    k = const((seed, 8), 3, 2, 3, 3)
    x0 = np.random.default_rng(seed).normal(size=(3,))

    def build(b):
        y = conv2d(x, k, b, stride=1, padding=1)
        return (y * y).sum()

    return gradcheck(build, x0)


def _case_conv_even_kernel(seed):
    k = const((seed, 9), 2, 1, 4, 4)
    w = const((seed, 10), 1, 2, 3, 3)
    x0 = np.random.default_rng(seed).normal(size=(1, 1, 6, 6))
    return gradcheck(lambda x: (conv2d(x, k, None, stride=2, padding=1) * w).sum(), x0)


def _case_upsample(seed):
    w = const((seed, 11), 1, 2, 6, 6)
    x0 = np.random.default_rng(seed).normal(size=(1, 2, 3, 3))
    return gradcheck(lambda x: (upsample_nearest(x, 2) * w).sum(), x0)


def _case_avg_pool(seed):
    w = const((seed, 12), 1, 2, 2, 2)
    x0 = np.random.default_rng(seed).normal(size=(1, 2, 4, 4))
    return gradcheck(lambda x: (avg_pool2d(x, 2) * w).sum(), x0)


def _case_normalize_instance(seed):
    w = const((seed, 13), 1, 3, 4, 4)
    x0 = np.random.default_rng(seed).normal(size=(1, 3, 4, 4))
    return gradcheck(lambda x: (normalize(x) * w).sum(), x0)


def _si_layout(seed, size):
    return rand_classes(np.random.default_rng([seed, 15]), size)


def _case_si_module_input(seed):
    rng = np.random.default_rng([seed, 16])
    mod = SIModule(3, rng, hidden=4)
    layout = _si_layout(seed, 6)
    w = const((seed, 17), 1, 3, 6, 6)
    x0 = np.random.default_rng(seed).normal(size=(1, 3, 6, 6))
    return gradcheck(lambda x: (mod.forward(x, layout) * w).sum(), x0)


def _case_si_module_params(seed):
    rng = np.random.default_rng([seed, 18])
    mod = SIModule(2, rng, hidden=3)
    layout = _si_layout(seed, 4)
    x = const((seed, 19), 1, 2, 4, 4)
    w = const((seed, 20), 1, 2, 4, 4)

    def loss_fn():
        return float((mod.forward(x, layout) * w).sum().data)

    mod.zero_grad()
    (mod.forward(x, layout) * w).sum().backward()
    # Every entry of the heads kernel and bias: the gamma and beta halves.
    rels = [spot_check_param(loss_fn, p, seed=seed) for p in (mod.shared.w, mod.shared.b)]
    rels += [spot_check_param(loss_fn, p, n_probe=p.data.size, seed=seed)
             for p in (mod.heads.w, mod.heads.b)]
    return max(rels)


def _case_si_resblock_input(seed):
    rng = np.random.default_rng([seed, 21])
    block = SIResBlock(2, 3, rng, hidden=3)
    layout = _si_layout(seed, 4)
    w = const((seed, 22), 1, 3, 4, 4)
    x0 = np.random.default_rng(seed).normal(size=(1, 2, 4, 4))
    return gradcheck(lambda x: (block.forward(x, layout) * w).sum(), x0)


def _case_generator_params(seed):
    gen = Generator(1, 1, depth=2, base_channels=2, si_hidden=2,
                    image_size=8, seed=seed)
    rng = np.random.default_rng([seed, 23])
    x = Tensor(rng.uniform(size=(1, 8, 8)))
    m = SaliencyMap(rng.uniform(size=(8, 8)))
    lay = rand_classes(rng, 8)
    w = const((seed, 24), 1, 8, 8)

    def loss_fn():
        return float((gen.forward(x, m, lay) * w).sum().data)

    gen.zero_grad()
    (gen.forward(x, m, lay) * w).sum().backward()
    params = (gen.enc[0].w, gen.out.w, gen.blocks[0].si1.heads.w,
              gen.blocks[1].conv1.w)
    # h balances FD truncation against roundoff: the loss passes through
    # a deep composition, so tiny steps drown small gradients in noise.
    return max(spot_check_param(loss_fn, p, seed=seed, h=1e-4) for p in params)


def _disc_setup(seed):
    rng = np.random.default_rng([seed, 25])
    d = PatchDiscriminator(1, 1, base_channels=4, seed=seed)
    src = Tensor(rng.uniform(size=(1, 32, 32)))
    m = SaliencyMap(rng.uniform(size=(32, 32)))
    y_real = Tensor(rng.uniform(size=(1, 32, 32)))
    return d, src, m, y_real


def _candidate(leaf):
    return upsample_nearest(leaf.reshape((1, 1, 4, 4)), 8).reshape((1, 32, 32))


def _case_discriminator_candidate(seed):
    d, src, m, _ = _disc_setup(seed)
    w = None

    def build(leaf):
        logits = d.forward(src, m, _candidate(leaf))
        return (logits * logits).mean()

    x0 = np.random.default_rng(seed).uniform(0.2, 0.8, size=(1, 4, 4))
    return gradcheck(build, x0)


def _objective_setup(seed):
    """A 32 px sample scored as training scores it: a patch discriminator,
    the fixed extractor and parser, and a frozen depth-2 teacher for the
    cycle term.  Targets sit in [0, 0.2] and candidates in [0.4, 0.9], so
    the content L1 has no kink between the probe points."""
    rng = np.random.default_rng([seed, 26])
    d = PatchDiscriminator(1, 1, base_channels=4, seed=seed)
    src = Tensor(rng.uniform(size=(1, 32, 32)))
    m = SaliencyMap(rng.uniform(size=(32, 32)))
    layout = rand_classes(rng, 32)
    tgt = Tensor(rng.uniform(0.0, 0.2, size=(1, 32, 32)))
    teacher = Generator(1, 1, depth=2, base_channels=2, si_hidden=2,
                        image_size=32, seed=seed)
    teacher.freeze()
    target = target_record((src, m, layout, tgt, m, layout),
                           FeatureExtractor(1, seed=seed), ParsingOracle(1, seed=seed),
                           teacher=teacher,
                           tap_names=("enc_bottleneck", "dec_block1", "dec_block2"))
    return d, target


def _objective_case(term):
    """Gradient of one term of ``objective`` through the candidate image."""
    def case(seed):
        d, target = _objective_setup(seed)
        x0 = np.random.default_rng(seed).uniform(0.4, 0.9, size=(1, 4, 4))
        return gradcheck(
            lambda leaf: objective(_candidate(leaf), d, target, LossWeights())[term], x0)
    return case


def _case_bce(seed):
    rng = np.random.default_rng([seed, 28])
    target = Tensor(rng.uniform(0.2, 0.8, size=(3, 3)))
    x0 = np.random.default_rng(seed).normal(size=(3, 3))
    return gradcheck(lambda x: softmax_bce(target, x), x0)


def _graph_setup(seed, variance):
    rng = np.random.default_rng([seed, 31])
    layout = rand_classes(rng, 4, hi=6)
    f_t, _ = random_instance(seed + 1000, size=4)
    target_nodes = compute_nodes(Tensor(f_t), layout, variance=variance)
    return layout, target_nodes


def _case_intra_path(seed, variance="literal"):
    layout, tn = _graph_setup(seed, variance)
    target = intra_graph(tn)

    def build(leaf):
        nodes = compute_nodes(leaf, layout, variance=variance)
        return graph_loss(target, intra_graph(nodes))

    x0 = np.random.default_rng(seed).uniform(0.1, 1.0, size=(3, 4, 4))
    return gradcheck(build, x0)


def _case_inter_path(seed, variance="literal"):
    layout, tn = _graph_setup(seed, variance)
    target = inter_graph(tn)

    def build(leaf):
        return graph_loss(target, inter_graph(compute_nodes(
            leaf, layout, variance=variance)))

    x0 = np.random.default_rng(seed).uniform(0.1, 1.0, size=(3, 4, 4))
    return gradcheck(build, x0)


GRADIENT_CASES = (
    ("polynomial", _case_polynomial),
    ("abs", _case_abs),
    ("tanh", _case_tanh),
    ("softplus", _case_softplus),
    ("relu/leaky", _case_relu_leaky),
    ("softmax-ce", _case_softmax_ce),
    ("reductions", _case_reductions),
    ("sub-broadcast", _case_sub_broadcast),
    ("conv2d-input", _case_conv_input),
    ("conv2d-kernel", _case_conv_kernel),
    ("conv2d-bias", _case_conv_bias),
    ("conv2d-even-k4", _case_conv_even_kernel),
    ("upsample", _case_upsample),
    ("avg-pool", _case_avg_pool),
    ("normalize-instance", _case_normalize_instance),
    ("si-module-input", _case_si_module_input),
    ("si-module-params", _case_si_module_params),
    ("si-resblock-input", _case_si_resblock_input),
    ("generator-params", _case_generator_params),
    ("discriminator-candidate", _case_discriminator_candidate),
    ("adversarial-generator", _objective_case("l_gan_g")),
    ("content", _objective_case("l_content")),
    ("perceptual", _objective_case("l_perc")),
    ("bce", _case_bce),
    ("parsing", _objective_case("l_bce")),
    ("cycle-tap-l1", _objective_case("l_ict")),
    ("intra-graph-literal", lambda s: _case_intra_path(s, "literal")),
    ("intra-graph-masked", lambda s: _case_intra_path(s, "masked")),
    ("inter-graph-literal", lambda s: _case_inter_path(s, "literal")),
    ("inter-graph-masked", lambda s: _case_inter_path(s, "masked")),
)


def test_criterion_1_gradient_suite():
    start = time.monotonic()
    worst = 0.0
    worst_case = ""
    for name, case in GRADIENT_CASES:
        for seed in range(5):
            rel = case(seed)
            if rel > worst:
                worst, worst_case = rel, f"{name}[{seed}]"
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 60.0
    verdict(1, "gradient suite",
            ok, f"{len(GRADIENT_CASES)} ops x 5 instances, worst rel "
                f"{worst:.2e} at {worst_case}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: graph oracles
# ---------------------------------------------------------------------------


def test_criterion_2_graph_oracles():
    """Each graph function against its loop oracle on its own stage inputs.

    Oracles receive the implementation's actual inputs at every stage so
    the comparison isolates one function at a time instead of compounding
    float64 drift through nodes -> graphs -> losses.
    """
    worst = 0.0
    n_empty = 0
    for idx in range(50):
        empty = idx < 10
        pair = []
        for seed in (1000 + idx, 5000 + idx):
            f, classes = random_instance(seed=seed, empty_classes=empty)
            layout = SemanticLayout(classes.astype(np.uint8))
            nodes = compute_nodes(Tensor(f), layout)
            mu_o, nu_o, present_o = nodes_oracle(f, classes)
            mu, nu = nodes.stats.data
            worst = max(worst, np.abs(mu - mu_o).max(), np.abs(nu - nu_o).max())
            assert np.array_equal(nodes.present, present_o)

            intra = intra_graph(nodes)
            c1_o, c2_o = intra_oracle(f, mu, nu, nodes.present)
            worst = max(worst, np.abs(intra.data[0] - c1_o).max(),
                        np.abs(intra.data[1] - c2_o).max())

            inter = inter_graph(nodes)
            e1_o, e2_o = inter_oracle(mu, nu)
            worst = max(worst, np.abs(inter.data[0] - e1_o).max(),
                        np.abs(inter.data[1] - e2_o).max())
            pair.append((intra, inter))
        (intra, inter), (intra2, inter2) = pair
        if not (np.count_nonzero(intra.data[0]) == 12
                and np.count_nonzero(intra2.data[0]) == 12):
            n_empty += 1

        iag = graph_loss(intra, intra2).item()
        itg = graph_loss(inter, inter2).item()
        worst = max(worst,
                    abs(iag - loss_oracle_rows(*intra.data, *intra2.data)),
                    abs(itg - loss_oracle_rows(*inter.data, *inter2.data)))
    ok = worst <= 1e-10 and n_empty >= 10
    verdict(2, "graph oracle suite", ok,
            f"50 instances, {n_empty} with empty classes, worst abs err {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: metric identities
# ---------------------------------------------------------------------------


def test_criterion_3_metric_identities():
    rng = np.random.default_rng(300)
    worst_self = 0.0
    for _ in range(20):
        x = rng.uniform(size=(32, 32))
        feats = rng.normal(size=(6, 4))
        worst_self = max(worst_self,
                         abs(ssim(x, x) - 1.0),
                         abs(fsim(x, x) - 1.0),
                         abs(frechet_distance(feats, feats.copy())))
    gauss = frechet_from_stats([0.0], [[1.0]], [3.0], [[1.0]])

    sigmas = (0.01, 0.05, 0.1)
    ssims = {s: [] for s in sigmas}
    fsims = {s: [] for s in sigmas}
    for seed in range(20):
        srng = np.random.default_rng(seed)
        x = srng.uniform(size=(32, 32))
        for s in sigmas:
            noisy = np.clip(x + srng.normal(0.0, s, x.shape), 0.0, 1.0)
            ssims[s].append(ssim(x, noisy))
            fsims[s].append(fsim(x, noisy))
    s_means = [float(np.mean(ssims[s])) for s in sigmas]
    f_means = [float(np.mean(fsims[s])) for s in sigmas]
    monotone = (s_means[0] > s_means[1] > s_means[2]
                and f_means[0] > f_means[1] > f_means[2])

    ok = worst_self <= 1e-8 and abs(gauss - 9.0) <= 1e-6 and monotone
    verdict(3, "metric identities", ok,
            f"worst self-identity err {worst_self:.2e}, gaussian distance "
            f"{gauss!r}, ssim means {['%.4f' % v for v in s_means]}, "
            f"fsim means {['%.4f' % v for v in f_means]}")


# ---------------------------------------------------------------------------
# criterion 4: loss identities
# ---------------------------------------------------------------------------


def test_criterion_4_loss_identities():
    """Identities on the terms ``objective`` returns, the dict training
    steps on and logs."""
    rng = np.random.default_rng(400)
    img = Tensor(rng.uniform(size=(3, 32, 32)))
    src = Tensor(rng.uniform(size=(1, 32, 32)))
    layout = SemanticLayout(rng.integers(0, 12, size=(32, 32)).astype(np.uint8))
    m = SaliencyMap(rng.uniform(size=(32, 32)))
    teacher = Generator(3, 1, depth=4, base_channels=4, si_hidden=4,
                        image_size=32, seed=42)
    teacher.freeze()
    target = target_record((src, m, layout, img, m, layout),
                           FeatureExtractor(3, seed=41), ParsingOracle(3, seed=44),
                           teacher=teacher, tap_names=DEFAULT_ICT_TAPS)
    d = PatchDiscriminator(1, 3, base_channels=4, seed=43)
    for p in d.params():
        p.data[...] = 0.0
    weights = LossWeights()

    at_equality = objective(Tensor(img.data.copy()), d, target, weights)
    worst_zero = max(abs(at_equality[k].item())
                     for k in ("l_content", "l_perc", "l_iag", "l_itg", "l_ict"))

    loss_d = discriminator_loss(d, src, m, img, Tensor(rng.uniform(size=(3, 32, 32))))
    adv_err = max(abs(loss_d.item() - 2.0 * np.log(2.0)),
                  abs(at_equality["l_gan_g"].item() - np.log(2.0)))

    worst_total = 0.0
    for _ in range(5):
        terms = objective(Tensor(rng.uniform(size=(3, 32, 32))), d, target, weights)
        v = {k: t.item() for k, t in terms.items()}
        want = (v["l_gan_g"] + 100.0 * v["l_content"] + 10.0 * v["l_perc"]
                + 15.0 * v["l_bce"] + 100.0 * v["l_iag"] + 100.0 * v["l_itg"]
                + 5.0 * v["l_ict"])
        worst_total = max(worst_total, abs(v["l_total"] - want))

    ok = worst_zero == 0.0 and adv_err <= 1e-12 and worst_total <= 1e-12
    verdict(4, "loss identities", ok,
            f"zero-at-equality err {worst_zero:.1e}, adversarial identity err "
            f"{adv_err:.2e}, weighted-sum err {worst_total:.2e}")


# ---------------------------------------------------------------------------
# criteria 5-7: training runs
# ---------------------------------------------------------------------------


def test_criterion_5_desk_scale_training(tmp_path):
    manifest = generate_corpus(str(tmp_path / "corpus"), 32, 64, seed=7)
    samples = load_corpus(manifest)
    cfg = TrainConfig(seed=7)  # 40 epochs, 64 px, depth 5 defaults
    train, val = samples[:-cfg.val_count], samples[-cfg.val_count:]
    start = time.monotonic()
    res = train_direction(train, val, cfg, "k", 0, None, str(tmp_path / "run"))
    elapsed = time.monotonic() - start
    finite = all(np.isfinite(v) for v in res.epoch_total)
    reduction = 1.0 - res.epoch_total[-1] / res.epoch_total[0]
    ok = finite and reduction >= 0.5 and elapsed <= 900.0
    verdict(5, "desk-scale training", ok,
            f"epoch-mean total {res.epoch_total[0]:.1f} -> "
            f"{res.epoch_total[-1]:.1f}, reduction {reduction:.1%}, "
            f"{elapsed:.0f}s of 900s budget")


def test_criterion_6_iterative_schedule(tmp_path):
    manifest = generate_corpus(str(tmp_path / "corpus"), 8, 32, seed=7)
    samples = load_corpus(manifest)
    cfg = TrainConfig(epochs=16, image_size=32, depth=4, base_channels=16,
                      si_hidden=32, stages=4, val_count=2, seed=7)
    out = run_iterative(samples[:-2], samples[-2:], cfg, str(tmp_path / "run"))

    counts_ok = all(len(out["checkpoints"][d]) == 5 for d in ("k", "o"))

    frozen_ok = True
    for d in ("k", "o"):
        for ckpt in out["checkpoints"][d][:-1]:
            with open(tmp_path / "run" / f"stage{ckpt.stage}_{d}" / "model.bin",
                      "rb") as f:
                frozen_ok &= hashlib.sha256(f.read()).hexdigest() == ckpt.digest

    ict_ok = True
    margins = []
    for stage in range(1, 5):
        for d in ("k", "o"):
            ict = out["stages"][stage][d].epoch_ict
            ict_ok &= all(np.isfinite(v) for v in ict) and ict[-1] < ict[0]
            margins.append(1.0 - ict[-1] / ict[0])
    ok = counts_ok and frozen_ok and ict_ok
    verdict(6, "iterative schedule (T=4)", ok,
            f"5 checkpoints per direction: {counts_ok}, frozen bit-identity: "
            f"{frozen_ok}, ICT decrease margins {min(margins):.1%}..{max(margins):.1%}")


def test_criterion_7_pipeline_determinism(tmp_path):
    def pipeline(tag):
        corpus = tmp_path / tag / "corpus"
        run = tmp_path / tag / "run"
        ev = tmp_path / tag / "eval"
        assert cli_main(["datagen", "--out", str(corpus), "--n", "8",
                         "--size", "32", "--seed", "11"]) == 0
        assert cli_main(["train", "--data", str(corpus / "manifest.jsonl"),
                         "--out", str(run), "--direction", "k",
                         "--epochs", "5", "--depth", "4",
                         "--base-channels", "4", "--si-hidden", "4",
                         "--val-count", "2", "--image-size", "32",
                         "--seed", "9"]) == 0
        assert cli_main(["eval", "--model", str(run / "stage0_k"),
                         "--data", str(corpus / "manifest.jsonl"),
                         "--out", str(ev)]) == 0
        return {
            "manifest": (corpus / "manifest.jsonl").read_bytes(),
            "losses": (run / "stage0_k" / "losses.csv").read_bytes(),
            "model": (run / "stage0_k" / "model.bin").read_bytes(),
            "metrics": (ev / "val_metrics.json").read_bytes(),
            "per_sample": (ev / "per_sample.csv").read_bytes(),
        }

    a = pipeline("a")
    b = pipeline("b")
    same = {key: a[key] == b[key] for key in a}
    ok = all(same.values())
    verdict(7, "pipeline determinism", ok,
            "byte-identical: " + ", ".join(f"{k}={v}" for k, v in same.items()))


# ---------------------------------------------------------------------------
# criterion 8: architecture shape contract
# ---------------------------------------------------------------------------


def test_criterion_8_depth7_shape_contract():
    rng = np.random.default_rng(800)
    gen = Generator(3, 1, depth=7, base_channels=1, si_hidden=1,
                    image_size=256, seed=0)
    x = Tensor(rng.uniform(size=(3, 256, 256)))
    m = SaliencyMap(rng.uniform(size=(256, 256)))
    layout = SemanticLayout(rng.integers(0, 12, size=(256, 256)).astype(np.uint8))
    out = gen.forward(x, m, layout)
    # SIModule.forward rejects a layout of any other size than its
    # activation, so each block's tap has the layout resolution it consumed.
    taps = gen.forward(x, m, layout, want_taps=["enc_bottleneck"] +
                       [f"dec_block{j}" for j in range(1, 8)])

    bottleneck_ok = taps["enc_bottleneck"].data.shape[2:] == (2, 2)
    output_ok = out.data.shape == (1, 256, 256)
    layouts_ok = True
    resolutions = []
    for j in range(1, 8):
        res = taps[f"dec_block{j}"].data.shape[2:]
        resolutions.append(res[0])
        layouts_ok &= res == (2 ** (j + 1), 2 ** (j + 1))
        planes = layout.downsampled(256 // res[0]).one_hot()
        layouts_ok &= planes.shape == (12, res[0], res[1])
        layouts_ok &= bool(np.all(planes.sum(axis=0) == 1.0))
    ok = bottleneck_ok and output_ok and layouts_ok
    verdict(8, "depth-7 shape contract", ok,
            f"bottleneck 2x2: {bottleneck_ok}, output 256x256: {output_ok}, "
            f"SI layout resolutions {resolutions}")
