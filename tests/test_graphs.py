"""Graph-node and graph-loss tests against brute-force loop oracles."""
import tracemalloc

import numpy as np
import pytest

from sgs.graphs import (
    COSINE_EPS,
    GraphNodes,
    compute_nodes,
    graph_dump,
    graph_loss,
    inter_graph,
    intra_graph,
)
from sgs.layout import N_CLASSES, SemanticLayout
from sgs.numerics import Tensor

from conftest import gradcheck


# ---------------------------------------------------------------------------
# deliberately naive per-pixel oracles
# ---------------------------------------------------------------------------


def nodes_oracle(f, classes, variance="literal"):
    cf, h, w = f.shape
    mu = np.zeros((N_CLASSES, cf))
    nu = np.zeros((N_CLASSES, cf))
    present = np.zeros(N_CLASSES, dtype=bool)
    for c in range(N_CLASSES):
        count = int((classes == c).sum())
        if count == 0:
            continue
        present[c] = True
        for ch in range(cf):
            acc = 0.0
            for i in range(h):
                for j in range(w):
                    if classes[i, j] == c:
                        acc += f[ch, i, j]
            mu[c, ch] = acc / count
            sq = 0.0
            for i in range(h):
                for j in range(w):
                    mask = 1.0 if classes[i, j] == c else 0.0
                    if variance == "literal":
                        dev = mask * f[ch, i, j] - mu[c, ch]
                    else:
                        dev = (f[ch, i, j] - mu[c, ch]) * mask
                    sq += dev * dev
            nu[c, ch] = sq / count
    return mu, nu, present


def intra_oracle(f, mu, nu, present):
    fbar = f.mean(axis=(1, 2))
    nf = np.linalg.norm(fbar)

    def cos_row(nodes):
        out = np.zeros(N_CLASSES)
        for c in range(N_CLASSES):
            if present[c]:
                out[c] = fbar @ nodes[c] / (nf * np.linalg.norm(nodes[c]) + COSINE_EPS)
        return out

    return cos_row(mu), cos_row(nu)


def inter_oracle(mu, nu):
    def pairwise(nodes):
        e = np.zeros((N_CLASSES, N_CLASSES))
        for a in range(N_CLASSES):
            for b in range(N_CLASSES):
                if a != b:
                    e[a, b] = np.linalg.norm(nodes[a] - nodes[b])
        return e

    return pairwise(mu), pairwise(nu)


def loss_oracle_rows(t1, t2, f1, f2):
    total = 0.0
    for a, b in ((t1, f1), (t2, f2)):
        for c in range(a.shape[0]):
            total += float(((a[c] - b[c]) ** 2).sum())
    return total


def random_instance(seed, empty_classes=False, size=8, cf=3):
    rng = np.random.default_rng(seed)
    hi = 6 if empty_classes else N_CLASSES
    classes = rng.integers(0, hi, size=(size, size))
    f = rng.random((cf, size, size))
    return f, classes


class TestComputeNodes:
    def test_uniform_region_value(self):
        layout = SemanticLayout(np.zeros((4, 4), dtype=int))
        nodes = compute_nodes(Tensor(np.full((1, 4, 4), 5.0)), layout)
        assert nodes.stats.data[0, 0, 0] == 5.0
        assert nodes.stats.data[1, 0, 0] == 0.0
        assert nodes.present[0] and not nodes.present[1]

    def test_empty_class_convention(self):
        layout = SemanticLayout(np.full((4, 4), 3, dtype=int))
        nodes = compute_nodes(Tensor(np.random.default_rng(0).random((2, 4, 4))),
                              layout)
        for c in range(N_CLASSES):
            if c == 3:
                continue
            assert not nodes.present[c]
            assert np.array_equal(nodes.stats.data[0, c], np.zeros(2))
            assert np.array_equal(nodes.stats.data[1, c], np.zeros(2))

    @pytest.mark.parametrize("variance", ["literal", "masked"])
    @pytest.mark.parametrize("seed", range(5))
    def test_against_loop_oracle(self, seed, variance):
        f, classes = random_instance(seed, empty_classes=seed % 2 == 0, size=4)
        nodes = compute_nodes(Tensor(f), SemanticLayout(classes), variance=variance)
        mu, nu, present = nodes_oracle(f, classes, variance)
        assert np.allclose(nodes.stats.data[0], mu, atol=1e-12)
        assert np.allclose(nodes.stats.data[1], nu, atol=1e-12)
        assert np.array_equal(nodes.present, present)

    def test_nu_nonnegative(self):
        f, classes = random_instance(7)
        nodes = compute_nodes(Tensor(f), SemanticLayout(classes))
        assert (nodes.stats.data[1] >= 0.0).all()

    def test_mu_scale_equivariance(self):
        f, classes = random_instance(11)
        layout = SemanticLayout(classes)
        base = compute_nodes(Tensor(f), layout)
        scaled = compute_nodes(Tensor(3.0 * f), layout)
        assert np.allclose(scaled.stats.data[0], 3.0 * base.stats.data[0], atol=1e-12)
        assert np.allclose(scaled.stats.data[1], 9.0 * base.stats.data[1], atol=1e-12)

    def test_mu_invariant_to_region_duplication(self):
        """Doubling a region with identical values leaves its mean node fixed."""
        f = np.zeros((1, 2, 4))
        f[0, :, :2] = 0.7
        f[0, :, 2:] = 0.2
        half = np.array([[0, 0, 1, 1], [2, 2, 1, 1]])
        full = np.array([[0, 0, 1, 1], [0, 0, 1, 1]])
        mu_half = compute_nodes(Tensor(f), SemanticLayout(half)).stats.data[0]
        mu_full = compute_nodes(Tensor(f), SemanticLayout(full)).stats.data[0]
        assert np.allclose(mu_half[0], mu_full[0], atol=1e-12)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_nodes(Tensor(np.ones((1, 4, 4))),
                          SemanticLayout(np.zeros((5, 5), dtype=int)))

    def test_unknown_variance_rejected(self):
        with pytest.raises(ValueError):
            compute_nodes(Tensor(np.ones((1, 4, 4))),
                          SemanticLayout(np.zeros((4, 4), dtype=int)),
                          variance="other")


class TestIntraGraph:
    def test_parallel_vectors_give_one(self):
        """A constant image makes every node parallel to the pooled vector."""
        layout = SemanticLayout((np.arange(16).reshape(4, 4) % 2).astype(int))
        f = Tensor(np.full((3, 4, 4), 0.5))
        nodes = compute_nodes(f, layout)
        intra = intra_graph(nodes)
        assert abs(intra.data[0, 0] - 1.0) < 1e-9
        assert abs(intra.data[0, 1] - 1.0) < 1e-9

    def test_orthogonal_vectors_give_zero(self):
        nodes = GraphNodes(
            stats=Tensor(np.stack([np.vstack([[0.0, 1.0]] * N_CLASSES),
                                   np.zeros((N_CLASSES, 2))])),
            fbar=Tensor(np.array([1.0, 0.0])),
            present=np.ones(N_CLASSES, dtype=bool),
        )
        intra = intra_graph(nodes)
        assert np.allclose(intra.data[0], 0.0, atol=1e-9)

    def test_absent_class_is_zero(self):
        f, classes = random_instance(5, empty_classes=True)
        nodes = compute_nodes(Tensor(f), SemanticLayout(classes))
        intra = intra_graph(nodes)
        assert np.array_equal(intra.data[0, ~nodes.present],
                              np.zeros((~nodes.present).sum()))

    def test_entries_in_unit_interval(self):
        f, classes = random_instance(9)
        nodes = compute_nodes(Tensor(f), SemanticLayout(classes))
        intra = intra_graph(nodes)
        for row in intra.data:
            assert (row >= -1.0 - 1e-12).all() and (row <= 1.0 + 1e-12).all()

    def test_scale_invariance_of_cosines(self):
        f, classes = random_instance(13)
        layout = SemanticLayout(classes)
        a = intra_graph(compute_nodes(Tensor(f), layout))
        b = intra_graph(compute_nodes(Tensor(4.0 * f), layout))
        assert np.allclose(a.data[0], b.data[0], atol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_against_vector_algebra_oracle(self, seed):
        f, classes = random_instance(seed + 20, empty_classes=seed < 2, size=4)
        nodes = compute_nodes(Tensor(f), SemanticLayout(classes))
        intra = intra_graph(nodes)
        c1, c2 = intra_oracle(f, *nodes.stats.data, nodes.present)
        assert np.allclose(intra.data[0], c1, atol=1e-10)
        assert np.allclose(intra.data[1], c2, atol=1e-10)


class TestInterGraph:
    def test_identical_nodes_zero_matrix(self):
        nodes = GraphNodes(
            stats=Tensor(np.ones((2, N_CLASSES, 3))),
            fbar=Tensor(np.ones(3)),
            present=np.ones(N_CLASSES, dtype=bool),
        )
        inter = inter_graph(nodes)
        assert np.allclose(inter.data[0], 0.0, atol=1e-10)

    def test_three_four_five_triangle(self):
        stats = np.zeros((2, N_CLASSES, 2))
        stats[0, 1] = [3.0, 4.0]
        nodes = GraphNodes(stats=Tensor(stats), fbar=Tensor(np.ones(2)),
                           present=np.ones(N_CLASSES, dtype=bool))
        inter = inter_graph(nodes)
        assert abs(inter.data[0, 0, 1] - 5.0) < 1e-10
        assert abs(inter.data[0, 1, 0] - 5.0) < 1e-10

    def test_diagonal_exactly_zero(self):
        f, classes = random_instance(31)
        nodes = compute_nodes(Tensor(f), SemanticLayout(classes))
        inter = inter_graph(nodes)
        assert np.array_equal(np.diag(inter.data[0]), np.zeros(N_CLASSES))
        assert np.array_equal(np.diag(inter.data[1]), np.zeros(N_CLASSES))

    def test_symmetry(self):
        f, classes = random_instance(37)
        nodes = compute_nodes(Tensor(f), SemanticLayout(classes))
        inter = inter_graph(nodes)
        assert np.allclose(inter.data[0], inter.data[0].T, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_against_pairwise_loop_oracle(self, seed):
        f, classes = random_instance(seed + 40, empty_classes=seed < 2, size=4)
        nodes = compute_nodes(Tensor(f), SemanticLayout(classes))
        inter = inter_graph(nodes)
        e1, e2 = inter_oracle(*nodes.stats.data)
        assert np.allclose(inter.data[0], e1, atol=1e-10)
        assert np.allclose(inter.data[1], e2, atol=1e-10)


def perturbed_graphs(seed=0):
    f, classes = random_instance(seed)
    g, _ = random_instance(seed + 100)
    layout = SemanticLayout(classes)
    nt = compute_nodes(Tensor(f), layout)
    nf = compute_nodes(Tensor(g), layout)
    return (intra_graph(nt), intra_graph(nf),
            inter_graph(nt), inter_graph(nf))


class TestGraphLosses:
    def test_zero_at_equality(self):
        ia_t, _, it_t, _ = perturbed_graphs()
        assert graph_loss(ia_t, ia_t).item() == 0.0
        assert graph_loss(it_t, it_t).item() == 0.0

    def test_single_cosine_difference(self):
        base = Tensor(np.zeros((2, N_CLASSES)))
        c = np.zeros((2, N_CLASSES))
        c[0, 4] = 1.0
        moved = Tensor(c)
        assert abs(graph_loss(base, moved).item() - 1.0) < 1e-15

    def test_single_edge_difference_counts_symmetrically(self):
        """One unique edge moved by d in both matrices costs 2*2*d^2."""
        zero = np.zeros((2, N_CLASSES, N_CLASSES))
        base = Tensor(zero)
        d = 0.75
        edge = zero.copy()
        edge[:, 2, 5] = edge[:, 5, 2] = d
        moved = Tensor(edge)
        expected = 2 * 2 * d * d
        assert abs(graph_loss(base, moved).item() - expected) < 1e-12

    def test_symmetric_in_arguments(self):
        ia_t, ia_f, it_t, it_f = perturbed_graphs(3)
        assert abs(graph_loss(ia_t, ia_f).item()
                   - graph_loss(ia_f, ia_t).item()) < 1e-12
        assert abs(graph_loss(it_t, it_f).item()
                   - graph_loss(it_f, it_t).item()) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_against_row_loop_oracles(self, seed):
        ia_t, ia_f, it_t, it_f = perturbed_graphs(seed + 50)
        got_intra = graph_loss(ia_t, ia_f).item()
        ref_intra = loss_oracle_rows(*ia_t.data[:, :, None], *ia_f.data[:, :, None])
        assert abs(got_intra - ref_intra) < 1e-10
        got_inter = graph_loss(it_t, it_f).item()
        ref_inter = loss_oracle_rows(*it_t.data, *it_f.data)
        assert abs(got_inter - ref_inter) < 1e-10


class TestGraphGradients:
    """Finite-difference checks of the nodes and through the full graph path."""

    @pytest.mark.parametrize("variance", ["literal", "masked"])
    @pytest.mark.parametrize("layout_kind", ["extreme", "random"])
    def test_node_gradient(self, layout_kind, variance):
        """Every mean and variance entry carries its own random weight, so
        no entry's gradient hides behind a cosine or a distance."""
        rng = np.random.default_rng(63)
        if layout_kind == "extreme":
            # Class 2 covers all but one pixel, class 7 is that pixel, and
            # the other ten classes are absent.
            classes = np.full((4, 4), 2)
        else:
            _, classes = random_instance(64, empty_classes=True, size=4)
        classes[1, 2] = 7
        layout = SemanticLayout(classes)
        w = Tensor(rng.standard_normal((2, N_CLASSES, 3)))

        def build(t):
            return (compute_nodes(t, layout, variance=variance).stats * w).sum()

        gradcheck(build, rng.uniform(0.1, 1.0, size=(3, 4, 4)), rtol=1e-4, h=1e-6)

    def _target_graphs(self, classes):
        tgt, _ = random_instance(77, size=classes.shape[0])
        layout = SemanticLayout(classes)
        nodes = compute_nodes(Tensor(tgt), layout)
        return intra_graph(nodes), inter_graph(nodes), layout

    @pytest.mark.parametrize("variance", ["literal", "masked"])
    def test_intra_loss_gradient(self, variance):
        f, classes = random_instance(60, size=4)
        ia_t, _, layout = self._target_graphs(classes)

        def build(t):
            nodes = compute_nodes(t, layout, variance=variance)
            return graph_loss(ia_t, intra_graph(nodes))

        gradcheck(build, f, rtol=1e-4, h=1e-6)

    @pytest.mark.parametrize("variance", ["literal", "masked"])
    def test_inter_loss_gradient(self, variance):
        f, classes = random_instance(61, size=4)
        _, it_t, layout = self._target_graphs(classes)

        def build(t):
            nodes = compute_nodes(t, layout, variance=variance)
            return graph_loss(it_t, inter_graph(nodes))

        gradcheck(build, f, rtol=1e-4, h=1e-6)

    def test_gradient_with_empty_classes(self):
        f, classes = random_instance(62, empty_classes=True, size=4)
        ia_t, it_t, layout = self._target_graphs(classes)

        def build(t):
            nodes = compute_nodes(t, layout)
            return (graph_loss(ia_t, intra_graph(nodes))
                    + graph_loss(it_t, inter_graph(nodes)))

        gradcheck(build, f, rtol=1e-4, h=1e-6)


class TestComputeNodesMemory:
    """The op keeps nothing pixel-sized for backward.

    Sizes are in units of one ``[Cf, H, W]`` float64 array, the size of
    ``f`` itself.
    """

    @pytest.mark.parametrize("variance", ["literal", "masked"])
    @pytest.mark.parametrize("cf", [1, 3])
    def test_held_and_peak_memory(self, cf, variance):
        size = 128
        rng = np.random.default_rng(cf)
        layout = SemanticLayout(rng.integers(0, N_CLASSES, size=(size, size)))
        f = Tensor(rng.random((cf, size, size)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, N_CLASSES, cf)))
        unit = cf * size * size * 8
        tracemalloc.start()
        try:
            nodes = compute_nodes(f, layout, variance=variance)
            held, _ = tracemalloc.get_traced_memory()
            (nodes.stats * w).sum().backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f.grad.shape == f.data.shape
        assert held < unit, f"{held / unit:.2f} units held after forward"
        assert peak <= 4 * unit, f"{peak / unit:.2f} units at peak"


class TestGraphDump:
    def test_json_ready_keys_and_shapes(self):
        f, classes = random_instance(70)
        dump = graph_dump(f, SemanticLayout(classes))
        assert set(dump) == {"mu", "nu", "c1", "c2", "e1", "e2", "present"}
        assert len(dump["mu"]) == N_CLASSES
        assert len(dump["e1"]) == N_CLASSES and len(dump["e1"][0]) == N_CLASSES
        assert all(isinstance(p, bool) for p in dump["present"])

    def test_diagonal_zero_in_dump(self):
        f, classes = random_instance(71)
        dump = graph_dump(f, SemanticLayout(classes))
        for c in range(N_CLASSES):
            assert dump["e1"][c][c] == 0.0
