"""Shared fixtures and numerical test helpers."""
import os

import numpy as np
import pytest

from sgs.datagen import generate_corpus
from sgs.layout import load_corpus
from sgs.numerics import Tensor


def relative_error(analytic, numeric):
    """Norm-based relative disagreement between two gradient arrays."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return np.linalg.norm(analytic - numeric) / scale


def numerical_grad(fn, x, h=1e-6):
    """Central finite differences of a scalar function at every entry of x."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat, out = x.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn(x)
        flat[i] = orig - h
        fm = fn(x)
        flat[i] = orig
        out[i] = (fp - fm) / (2.0 * h)
    return grad


def gradcheck(build, x0, rtol=1e-4, h=1e-6):
    """Compare reverse-mode gradients of ``build`` against central differences.

    ``build`` maps a Tensor to a scalar Tensor.  Returns the relative
    error so callers can report it.
    """
    x0 = np.array(x0, dtype=np.float64)
    leaf = Tensor(x0.copy(), requires_grad=True)
    build(leaf).backward()
    analytic = leaf.grad.copy()
    numeric = numerical_grad(lambda arr: float(build(Tensor(arr.copy())).data), x0, h)
    rel = relative_error(analytic, numeric)
    assert rel < rtol, f"gradient mismatch: relative error {rel:.3e} >= {rtol:.0e}"
    return rel


def spot_check_param(loss_fn, param, n_probe=4, rtol=1e-4, h=1e-6, seed=0):
    """Finite-difference a few entries of an in-place model parameter.

    ``loss_fn`` re-runs the forward pass and returns a float; ``param``
    must already hold the analytic gradient from one backward call.
    """
    assert param.grad is not None, "parameter did not receive a gradient"
    rng = np.random.default_rng(seed)
    flat = param.data.ravel()
    gflat = param.grad.ravel()
    idxs = rng.choice(flat.size, size=min(n_probe, flat.size), replace=False)
    analytic = np.array([gflat[i] for i in idxs])
    numeric = np.zeros(len(idxs))
    for k, i in enumerate(idxs):
        orig = flat[i]
        flat[i] = orig + h
        fp = loss_fn()
        flat[i] = orig - h
        fm = loss_fn()
        flat[i] = orig
        numeric[k] = (fp - fm) / (2.0 * h)
    rel = relative_error(analytic, numeric)
    assert rel < rtol, f"parameter gradient mismatch: relative error {rel:.3e}"
    return rel


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """Six-sample 32x32 corpus shared by integration-flavored tests."""
    root = tmp_path_factory.mktemp("corpus32")
    manifest = generate_corpus(str(root), 6, 32, seed=11)
    return {"manifest": manifest, "samples": load_corpus(manifest)}


@pytest.fixture
def flipped_teacher(monkeypatch):
    """Wrap ``train_direction`` so that, once stage 0 has recorded its o
    checkpoint, the lowest mantissa byte of the last weight in its
    ``model.bin`` is flipped before stage 1 reads it back: every weight
    stays finite, and only the recorded digest tells."""
    import sgs.cycletrain as cycletrain
    train = cycletrain.train_direction

    def flipping(*args):
        res = train(*args)
        ckpt = res.checkpoint
        if (ckpt.stage, ckpt.direction) == (0, "o"):
            path = os.path.join(ckpt.path, "model.bin")
            with open(path, "rb") as f:
                blob = bytearray(f.read())
            blob[-8] ^= 0x01
            with open(path, "wb") as f:
                f.write(blob)
        return res

    monkeypatch.setattr(cycletrain, "train_direction", flipping)
