"""Region-statistics graphs over semantic layouts.

An image (or any feature map) is summarized per layout class by a mean
node and a variance node, held as one ``[2, 12, Cf]`` tensor: the mean
nodes, then the variance nodes.  Two graphs are built on top, each one
tensor whose leading axis holds the same two views: cosine similarities
between the pooled global feature vector and each node (the intra-class
graph), and pairwise Euclidean distances between nodes (the inter-class
graph).  One squared-difference loss over matched graph pairs keeps a
synthesized image's regional statistics tied to its target.

Everything here is differentiable through the image argument, so the
losses can train a generator; targets are detached by the caller.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layout import N_CLASSES
from .numerics import Tensor, _op

COSINE_EPS = 1e-12
# Additive guard inside square roots: keeps gradients finite at exactly-zero
# vectors while perturbing norms by less than 1e-12.
NORM_GUARD = 1e-24

_OFF_DIAGONAL = 1.0 - np.eye(N_CLASSES)


@dataclass
class GraphNodes:
    """Per-class mean/variance feature nodes, the pooled feature vector
    and a presence mask."""

    stats: Tensor  # [2, 12, Cf]: the mean nodes, then the variance nodes
    fbar: Tensor  # [Cf], f averaged over the whole image
    present: np.ndarray  # [12] bool


def compute_nodes(f, layout, variance="literal"):
    """Mean and variance nodes of ``f`` ([Cf, H, W]) under ``layout``.

    The mean node of class c averages f over the class region.  The
    default "literal" variance sums (mask * f - mu)^2 over the whole
    image before normalizing by the region size, so pixels outside the
    region contribute (-mu)^2 terms; ``variance="masked"`` restricts the
    squared deviations to the region instead.  Absent classes yield zero
    nodes and present=False.

    The layout is a partition, so per-class sums are one ``np.bincount``
    per channel over the class map, and the stacked statistics are one
    graph node over ``f`` with one closed-form gradient function.  It
    keeps nothing pixel-sized: it recomputes the deviations from
    ``f.data``.
    """
    if f.data.ndim != 3:
        raise ValueError(f"feature map must be [Cf, H, W], got {f.data.shape}")
    cf, h, w = f.data.shape
    if (h, w) != (layout.height, layout.width):
        raise ValueError(
            f"feature map {h}x{w} does not match layout {layout.height}x{layout.width}"
        )
    if variance not in ("literal", "masked"):
        raise ValueError(f"unknown variance mode {variance!r}")

    classes = layout.classes.ravel()  # [HW]
    counts = np.bincount(classes, minlength=N_CLASSES)
    present = counts > 0
    denom = np.maximum(counts, 1)[:, None]  # [12, 1]

    def class_means(x):  # [Cf, HW] -> [12, Cf]
        sums = [np.bincount(classes, weights=row, minlength=N_CLASSES) for row in x]
        return np.stack(sums, axis=1) / denom

    def per_pixel(v):  # [12, Cf] -> [Cf, HW], each pixel's class row
        return np.take(v.T, classes, axis=1)

    # An absent class has no pixels, so its sums and nodes are exact zeros.
    fd = f.data
    mu = class_means(fd.reshape(cf, h * w))

    def deviations():  # f - mu[classes], [Cf, HW]
        dev = per_pixel(mu)
        np.subtract(fd.reshape(cf, h * w), dev, out=dev)
        return dev

    sq = deviations()
    sq *= sq
    nu = class_means(sq)
    if variance == "literal":
        # Each of the HW - n pixels outside a region adds (0 - mu)^2.
        outside = (h * w - counts)[:, None] / denom
        nu += outside * mu * mu
    else:
        outside = None

    def grad(g):  # g[0] reaches f through mu, g[1] through nu
        a = 2.0 * g[1] / denom
        gf = deviations()
        gf *= per_pixel(a)
        through_mu = g[0] / denom
        if outside is not None:
            through_mu += a * outside * mu
        gf += per_pixel(through_mu)
        return gf.reshape(fd.shape)

    return GraphNodes(stats=_op(np.stack([mu, nu]), (f,), (grad,)),
                      fbar=f.mean(axis=(1, 2)), present=present)


def _guarded_norm(x, axis=None):
    return ((x * x).sum(axis=axis) + NORM_GUARD) ** 0.5


def intra_graph(nodes):
    """Cosine of the pooled feature vector with every node: [2, 12].

    Absent classes have zero nodes, and the epsilon in the denominator
    maps exactly-zero vectors to similarity zero rather than NaN.
    """
    stats, fbar = nodes.stats, nodes.fbar
    dots = (stats * fbar.reshape((1, 1, fbar.data.shape[0]))).sum(axis=(2,))
    norms = _guarded_norm(stats, axis=(2,))
    return dots / (_guarded_norm(fbar) * norms + COSINE_EPS)


def inter_graph(nodes):
    """Pairwise Euclidean distances between nodes: [2, 12, 12]."""
    stats = nodes.stats
    cf = stats.data.shape[2]
    d = stats.reshape((2, N_CLASSES, 1, cf)) - stats.reshape((2, 1, N_CLASSES, cf))
    sq = (d * d).sum(axis=(3,))
    # The mask pins the diagonal — and any exactly-coincident node pair,
    # whose true distance is zero and whose gradient already vanishes —
    # to exactly zero; the guard keeps sqrt differentiable where
    # distances merely approach zero.
    mask = _OFF_DIAGONAL * (sq.data > 0.0)
    return ((sq + NORM_GUARD) ** 0.5) * Tensor(mask)


def graph_loss(target, fake):
    """Sum of squared entry differences over both views of a graph:
    the squared Frobenius norm of the difference."""
    d = target - fake
    return (d * d).sum()


def graph_dump(f, layout):
    """JSON-ready dict of nodes (literal variance) and graphs for one
    image and layout."""
    fc = f if isinstance(f, Tensor) else Tensor(f)
    nodes = compute_nodes(fc, layout)
    (mu, nu), (c1, c2), (e1, e2) = (
        t.data.tolist() for t in (nodes.stats, intra_graph(nodes), inter_graph(nodes)))
    return {"mu": mu, "nu": nu, "c1": c1, "c2": c2, "e1": e1, "e2": e2,
            "present": [bool(p) for p in nodes.present]}
