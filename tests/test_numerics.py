"""Autodiff engine tests: value oracles, gradient checks, persistence."""
import hashlib
import os
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sgs import numerics
from sgs.layout import N_CLASSES, SemanticLayout
from sgs.network import SIModule
from sgs.numerics import (
    Adam,
    Parameter,
    ShapeError,
    Tensor,
    _accumulate,
    _op,
    _result,
    activate,
    adam_step,
    atomic_open,
    avg_pool2d,
    concat,
    conv2d,
    load_checkpoint,
    lr_at_epoch,
    normalize,
    restore_params,
    save_checkpoint,
    softmax,
    softplus,
    tanh,
    upsample_nearest,
)

from conftest import gradcheck, numerical_grad, relative_error


def conv2d_reference(x, k, b, stride, padding):
    """Quadruple-loop convolution oracle, deliberately naive."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo))
    for ni in range(n):
        for co in range(cout):
            for oi in range(ho):
                for oj in range(wo):
                    patch = xp[ni, :, oi * stride : oi * stride + kh,
                               oj * stride : oj * stride + kw]
                    out[ni, co, oi, oj] = (patch * k[co]).sum() + b[co]
    return out


def conv2d_input_grad_reference(shape, k, g, stride, padding):
    """Loop oracle for the input gradient: each output gradient value is
    scattered back over the window it read, then the padding is cut."""
    n, cin, h, w = shape
    cout, _, kh, kw = k.shape
    gxp = np.zeros((n, cin, h + 2 * padding, w + 2 * padding))
    for ni in range(n):
        for co in range(cout):
            for oi in range(g.shape[2]):
                for oj in range(g.shape[3]):
                    gxp[ni, :, oi * stride : oi * stride + kh,
                        oj * stride : oj * stride + kw] += g[ni, co, oi, oj] * k[co]
    return gxp[:, :, padding : padding + h, padding : padding + w]


def conv2d_kernel_grad_reference(x, kshape, g, stride, padding):
    """Loop oracle for the kernel gradient: each output gradient value
    times the padded input window it read, summed."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = kshape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    gk = np.zeros(kshape)
    for ni in range(n):
        for co in range(cout):
            for oi in range(g.shape[2]):
                for oj in range(g.shape[3]):
                    gk[co] += g[ni, co, oi, oj] * xp[ni, :, oi * stride : oi * stride + kh,
                                                     oj * stride : oj * stride + kw]
    return gk


class TestTensorBasics:
    def test_constructor_rejects_nan(self):
        with pytest.raises(ValueError):
            Tensor([1.0, np.nan])

    def test_constructor_rejects_inf(self):
        with pytest.raises(ValueError):
            Tensor(np.array([np.inf]))

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()
        assert Tensor(3.5).item() == 3.5

    def test_backward_requires_scalar_root(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            (t * 2.0).backward()

    def test_detach_shares_values_but_not_graph(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = (t * 3.0).detach()
        assert not d.requires_grad
        (d.sum() * 1.0).backward()  # no-op: graph was severed
        assert t.grad is None

    def test_gradients_accumulate_across_backward_calls(self):
        t = Tensor([2.0], requires_grad=True)
        (t * 3.0).sum().backward()
        (t * 3.0).sum().backward()
        assert np.allclose(t.grad, [6.0])

    def test_reused_leaf_accumulates_within_one_graph(self):
        t = Tensor([5.0], requires_grad=True)
        ((t * 2.0) + (t * 3.0)).sum().backward()
        assert np.allclose(t.grad, [5.0])


class TestBackwardConsumesGraph:
    """Backward frees the graph it walks; held tensors keep their grads."""

    def test_second_backward_propagates_nothing(self):
        t = Tensor([2.0, -1.0], requires_grad=True)
        root = (t * 3.0).abs().sum()
        root.backward()
        first = t.grad.copy()
        root.backward()
        assert np.array_equal(t.grad, first)

    def test_walked_nodes_drop_links_and_keep_grads(self):
        t = Tensor([2.0, -1.0], requires_grad=True)
        mid = t * 3.0
        root = (mid * mid).sum()
        root.backward()
        for node in (root, mid):
            assert node._node.parents == ()
            assert node._node.backward is None
        assert np.array_equal(root.grad, 1.0)
        assert np.array_equal(mid.grad, 2.0 * mid.data)
        assert np.array_equal(t.grad, 18.0 * t.data)

    def test_walked_graph_is_freed(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 8, 128, 128)), requires_grad=True)
        k = Tensor(rng.normal(size=(16, 8, 3, 3)), requires_grad=True)
        slack = 64 * 1024
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            root = activate(normalize(conv2d(x, k, None, 1, 1)), 0.0).mean()
            built = tracemalloc.get_traced_memory()[0] - before
            root.backward()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert built > 4 * 2**20
        kept = x.grad.nbytes + k.grad.nbytes + root.data.nbytes + root.grad.nbytes
        assert held <= kept + slack, f"{held} bytes held, {kept} in grads"


class TestOpBuilder:
    """``_op`` runs a parent's gradient function only for a parent that
    records a gradient, and sums its result down to the parent's shape."""

    @staticmethod
    def counting(calls, name, scale):
        def grad(g):
            calls.append(name)
            return g * scale

        return grad

    def test_parent_recording_no_gradient_is_never_called(self):
        calls = []
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b, c = Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3)), requires_grad=True)
        grads = (self.counting(calls, "a", 2.0), self.counting(calls, "b", 3.0), None)
        _op(np.ones((2, 3)), (a, b, c), grads).sum().backward()
        assert calls == ["a"]
        assert np.array_equal(a.grad, np.full((2, 3), 2.0))
        assert b.grad is None and c.grad is None

    def test_parent_frozen_before_backward_gets_no_gradient(self):
        calls = []
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        root = _op(np.ones((2, 3)), (a, b), (self.counting(calls, "a", 2.0),
                                              self.counting(calls, "b", 3.0))).sum()
        b.requires_grad = False
        root.backward()
        assert calls == ["a"]
        assert b.grad is None

    def test_broadcast_parent_gradient_is_summed_to_its_shape(self):
        calls = []
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((1, 3)), requires_grad=True)
        c = Tensor(1.0, requires_grad=True)
        grads = tuple(self.counting(calls, name, 2.0) for name in "abc")
        _op(np.ones((4, 2, 3)), (a, b, c), grads).sum().backward()
        assert calls == ["a", "b", "c"]
        assert np.array_equal(a.grad, np.full((2, 3), 8.0))
        assert np.array_equal(b.grad, np.full((1, 3), 16.0))
        assert c.grad.shape == () and c.grad == 48.0


def _conv3x3(x, k):
    return conv2d(x, k, None, 1, 1)


# (producer, consumer) pairs: the consumer's backward reads no value of
# the producer's fresh output, so the graph keeps only that output's node.
UNREAD_OUTPUTS = {
    "conv-into-residual-sum": (_conv3x3, lambda h, x: h + x),
    "sum-into-constant-product": (lambda x, k: x + 1.0, lambda h, x: h * 0.5),
    "conv-into-tanh": (_conv3x3, lambda h, x: tanh(h)),
    "conv-into-upsample": (_conv3x3, lambda h, x: upsample_nearest(h, 2)),
}


class TestGraphHoldsNodesNotValues:
    """The graph links nodes: a value lives only as long as the caller or
    a backward closure that reads it holds it."""

    @staticmethod
    def leaves(x_grad=True):
        rng = np.random.default_rng(4)
        return (Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=x_grad),
                Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True))

    @pytest.mark.parametrize("case", list(UNREAD_OUTPUTS))
    def test_value_no_closure_reads_is_freed(self, case):
        produce, consume = UNREAD_OUTPUTS[case]
        x, k = self.leaves()
        h = produce(x, k)
        value = weakref.ref(h.data)
        out = consume(h, x)
        del h
        assert value() is None
        (out * out).sum().backward()
        assert x.grad is not None

    def test_values_closures_read_live_until_backward(self):
        """A conv with a trainable kernel keeps its input for the kernel
        gradient, and :func:`activate` keeps its output for the mask."""
        x, k = self.leaves(x_grad=False)
        a = activate(_conv3x3(x, k), 0.0)
        values = [weakref.ref(x.data), weakref.ref(a.data)]
        root = a.sum()
        del x, a
        assert all(v() is not None for v in values)
        root.backward()
        assert all(v() is None for v in values)
        assert k.grad is not None


class TestElementwiseValues:
    def test_relu_values(self):
        out = activate(Tensor([-1.0, 0.0, 2.0]), 0.0)
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_leaky_relu_values(self):
        out = activate(Tensor([-1.0, 2.0]), 0.2)
        assert np.allclose(out.data, [-0.2, 2.0])

    def test_mean_of_small_vector(self):
        assert Tensor([1.0, 2.0, 3.0, 4.0]).mean().item() == 2.5

    def test_softplus_at_zero_is_ln2(self):
        assert abs(softplus(Tensor(0.0)).item() - np.log(2.0)) < 1e-15

    def test_softplus_matches_naive_form_in_safe_range(self):
        x = np.linspace(-20, 20, 41)
        out = softplus(Tensor(x)).data
        assert np.allclose(out, np.log1p(np.exp(x)), atol=1e-12)

    def test_softplus_survives_large_inputs(self):
        out = softplus(Tensor([-800.0, 800.0])).data
        assert np.allclose(out, [0.0, 800.0], atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 7)))
        s = softmax(x, axis=1).data
        assert np.allclose(s.sum(axis=1), 1.0)
        assert (s > 0).all()


class TestShapeValidation:
    def test_sum_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))).sum(axis=2)

    def test_mean_duplicate_axes(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))).mean(axis=(0, 0))

    def test_negative_axis_is_normalized(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert np.array_equal(t.sum(axis=-1).data, t.sum(axis=1).data)

    def test_concat_dim_mismatch(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))], axis=0)

    def test_concat_empty_sequence(self):
        with pytest.raises(ShapeError):
            concat([], axis=0)

    def test_keepdims_shapes(self):
        t = Tensor(np.ones((2, 3, 4)))
        assert t.sum(axis=(1,), keepdims=True).data.shape == (2, 1, 4)
        assert t.mean(axis=(0, 2)).data.shape == (3,)


class TestGradients:
    """Central finite-difference checks of composite expressions."""

    def test_polynomial(self):
        x0 = np.random.default_rng(1).normal(size=(3, 4))
        gradcheck(lambda t: ((t * 2.0 + 1.0) * t - t ** 3).sum(), x0)

    def test_division_and_power(self):
        x0 = np.random.default_rng(2).uniform(1.0, 2.0, size=(5,))
        gradcheck(lambda t: ((t ** 1.5) / (t + 3.0)).sum(), x0)

    def test_abs_away_from_zero(self):
        x0 = np.random.default_rng(3).normal(size=(4, 4))
        x0[np.abs(x0) < 0.1] = 0.5
        gradcheck(lambda t: t.abs().sum(), x0)

    def test_sigmoid_tanh_chain(self):
        x0 = np.random.default_rng(4).normal(size=(6,))
        gradcheck(lambda t: tanh(t * 2.0).sum(), x0)

    def test_exp_log_softplus(self):
        x0 = np.random.default_rng(5).uniform(0.5, 2.0, size=(3, 3))
        gradcheck(lambda t: softplus(t).mean(), x0)

    def test_softmax_cross_entropy_style(self):
        x0 = np.random.default_rng(6).normal(size=(2, 5))
        w = np.random.default_rng(7).uniform(0.1, 1.0, size=(2, 5))
        gradcheck(lambda t: -(Tensor(w) * softmax(t, axis=1)).sum(), x0)

    def test_broadcasting_grads(self):
        rng = np.random.default_rng(8)
        y = Tensor(rng.normal(size=(3, 4)))
        x0 = rng.normal(size=(3, 1))
        gradcheck(lambda t: (t * y + t).sum(), x0)

    def test_reshape_and_reductions(self):
        x0 = np.random.default_rng(9).normal(size=(2, 6))
        gradcheck(lambda t: t.reshape((3, 4)).mean(axis=(0,)).sum(), x0)

    def test_concat_gradient(self):
        rng = np.random.default_rng(10)
        b = Tensor(rng.normal(size=(2, 3)))
        x0 = rng.normal(size=(2, 2))
        gradcheck(lambda t: (concat([t, b], axis=1) ** 2).sum(), x0)

    def test_leaky_relu_gradient(self):
        x0 = np.random.default_rng(12).normal(size=(1, 1, 5, 5))
        x0[np.abs(x0) < 0.1] = 0.3
        one = Tensor(np.ones((1, 1, 1, 1)))  # a 1x1 conv that reproduces its input
        gradcheck(lambda t: activate(conv2d(t, one), 0.2).sum(), x0)


@settings(max_examples=30, deadline=None)
@given(
    x=hnp.arrays(np.float64, (2, 3),
                 elements=st.floats(-5, 5, allow_nan=False)),
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
)
def test_gradient_linearity(x, a, b):
    """grad(a*f + b*g) == a*grad(f) + b*grad(g) for smooth f, g."""
    def grad_of(build):
        t = Tensor(x.copy(), requires_grad=True)
        build(t).backward()
        return t.grad

    f = lambda t: (t * t).sum()
    g = lambda t: tanh(t).sum()
    combined = grad_of(lambda t: f(t) * a + g(t) * b)
    expected = a * grad_of(f) + b * grad_of(g)
    assert np.allclose(combined, expected, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=4),
                  elements=st.floats(-10, 10, allow_nan=False)))
def test_sum_gradient_is_ones(x):
    t = Tensor(x, requires_grad=True)
    t.sum().backward()
    assert np.array_equal(t.grad, np.ones_like(x))


LOOP_ORACLE_CASES = [
    ((1, 1, 5, 5), (1, 1, 3, 3), 1, 0),
    ((2, 3, 6, 6), (4, 3, 3, 3), 1, 1),
    ((1, 2, 8, 8), (3, 2, 4, 4), 2, 1),
    ((2, 2, 9, 7), (1, 2, 3, 5), 2, 2),
    ((1, 4, 8, 8), (2, 4, 4, 4), 2, 1),
    # 1x1 kernel at stride 2: the odd padded rows and columns have no taps.
    ((1, 3, 7, 6), (2, 3, 1, 1), 2, 1),
    # H + 2p - kh odd: the last input row is read by no window.
    ((1, 2, 8, 7), (3, 2, 3, 3), 2, 0),
    # An input one row high, smaller than the stride.
    ((3, 2, 1, 9), (2, 2, 3, 3), 2, 1),
    # Stride 1 with Cout <= Cin: the kernel gradient comes from the output
    # gradient's tiles when the input needs a gradient.
    ((2, 4, 6, 5), (2, 4, 3, 3), 1, 1),
    ((1, 3, 7, 6), (3, 3, 4, 4), 1, 1),
    ((1, 4, 5, 5), (2, 4, 1, 1), 1, 0),
    # Padding wider than the kernel: some windows read only zeros.
    ((1, 2, 4, 4), (1, 2, 3, 3), 1, 3),
]


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 1, 1)))
        out = conv2d(x, k, stride=1, padding=0)
        assert np.allclose(out.data, x.data)

    def test_ones_kernel_counts_neighborhood(self):
        x = Tensor(np.ones((1, 1, 4, 4)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        b = Tensor(np.zeros(1))
        out = conv2d(x, k, b, stride=1, padding=1).data[0, 0]
        assert out[1, 1] == 9.0 and out[1, 2] == 9.0
        assert out[0, 0] == 4.0 and out[3, 3] == 4.0
        assert out[0, 1] == 6.0

    @pytest.mark.parametrize("shape,kshape,stride,padding", LOOP_ORACLE_CASES)
    def test_against_loop_oracle(self, shape, kshape, stride, padding):
        rng = np.random.default_rng(hash((shape, kshape)) % 2**32)
        x = rng.normal(size=shape)
        k = rng.normal(size=kshape)
        b = rng.normal(size=kshape[0])
        out = conv2d(Tensor(x), Tensor(k), Tensor(b), stride, padding)
        ref = conv2d_reference(x, k, b, stride, padding)
        assert np.allclose(out.data, ref, atol=1e-12)

    @pytest.mark.parametrize("shape,kshape,stride,padding", LOOP_ORACLE_CASES)
    def test_input_gradient_against_loop_oracle(self, shape, kshape, stride, padding):
        """The input gradient is one C-contiguous [N, Cin, H, W] array, not
        a view into a padded buffer."""
        rng = np.random.default_rng(hash((kshape, shape)) % 2**32)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        k = rng.normal(size=kshape)
        out = conv2d(x, Tensor(k), None, stride, padding)
        g = rng.normal(size=out.data.shape)
        (out * Tensor(g)).sum().backward()
        assert x.grad.shape == shape and x.grad.flags.c_contiguous
        ref = conv2d_input_grad_reference(shape, k, g, stride, padding)
        assert np.allclose(x.grad, ref, atol=1e-12)

    @pytest.mark.parametrize("x_grad", [True, False], ids=["x-grad", "x-frozen"])
    @pytest.mark.parametrize("shape,kshape,stride,padding", LOOP_ORACLE_CASES)
    def test_kernel_gradient_against_loop_oracle(self, shape, kshape, stride, padding,
                                                 x_grad):
        rng = np.random.default_rng(hash((shape, kshape, 1)) % 2**32)
        x = Tensor(rng.normal(size=shape), requires_grad=x_grad)
        k = Tensor(rng.normal(size=kshape), requires_grad=True)
        out = conv2d(x, k, None, stride, padding)
        g = rng.normal(size=out.data.shape)
        (out * Tensor(g)).sum().backward()
        assert k.grad.shape == kshape and k.grad.flags.c_contiguous
        ref = conv2d_kernel_grad_reference(x.data, kshape, g, stride, padding)
        assert np.allclose(k.grad, ref, atol=1e-12)

    @pytest.mark.parametrize("x_grad", [True, False], ids=["x-grad", "x-frozen"])
    @pytest.mark.parametrize("shape,kshape,stride,padding", LOOP_ORACLE_CASES)
    def test_kernel_gradient_tile_source(self, shape, kshape, stride, padding, x_grad,
                                         monkeypatch):
        """Only a stride-1 conv with Cout <= Cin whose input needs a
        gradient skips the input's own tiles."""
        calls = []
        original = numerics._conv_kernel_grad

        def counting(*args):
            calls.append(None)
            return original(*args)

        monkeypatch.setattr(numerics, "_conv_kernel_grad", counting)
        x = Tensor(np.ones(shape), requires_grad=x_grad)
        k = Tensor(np.ones(kshape), requires_grad=True)
        conv2d(x, k, None, stride, padding).sum().backward()
        from_g = x_grad and stride == 1 and kshape[0] <= kshape[1]
        assert len(calls) == (0 if from_g else 1)

    def test_stride2_k4_halves_resolution_seven_times(self):
        t = Tensor(np.random.default_rng(1).normal(size=(1, 1, 256, 256)))
        k = Tensor(np.random.default_rng(2).normal(size=(1, 1, 4, 4)) * 0.01)
        b = Tensor(np.zeros(1))
        for _ in range(7):
            t = conv2d(t, k, b, stride=2, padding=1)
        assert t.data.shape == (1, 1, 2, 2)

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=(1, 2, 5, 5))
        k0 = rng.normal(size=(2, 2, 3, 3))
        b0 = rng.normal(size=(2,))

        gradcheck(lambda t: (conv2d(t, Tensor(k0), Tensor(b0), 2, 1) ** 2).sum(), x0)
        gradcheck(lambda t: (conv2d(Tensor(x0), t, Tensor(b0), 2, 1) ** 2).sum(), k0)
        gradcheck(lambda t: (conv2d(Tensor(x0), Tensor(k0), t, 2, 1) ** 2).sum(), b0)

    def test_even_kernel_gradients(self):
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(1, 1, 6, 6))
        k0 = rng.normal(size=(1, 1, 4, 4))
        gradcheck(lambda t: (conv2d(Tensor(x0), t, stride=2, padding=1) ** 3).sum(), k0)

    def test_batched_gradients_vs_finite_differences(self):
        """N > 1, stride 2, no padding and a non-square kernel exercise the
        batch axis of the channel-major columns in both directions."""
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(2, 3, 7, 6))
        k0 = rng.normal(size=(4, 3, 3, 2))
        b0 = rng.normal(size=(4,))
        w = Tensor(rng.normal(size=(2, 4, 3, 3)))

        gradcheck(lambda t: (conv2d(t, Tensor(k0), Tensor(b0), 2, 0) * w).sum(), x0)
        gradcheck(lambda t: (conv2d(Tensor(x0), t, Tensor(b0), 2, 0) * w).sum(), k0)
        gradcheck(lambda t: (conv2d(Tensor(x0), Tensor(k0), t, 2, 0) * w).sum(), b0)

    def test_frozen_kernel_gives_same_input_gradient(self):
        rng = np.random.default_rng(6)
        x0 = rng.normal(size=(2, 2, 6, 6))
        k0 = rng.normal(size=(3, 2, 3, 3))
        w = rng.normal(size=(2, 3, 6, 6))
        grads = []
        for trainable in (True, False):
            x = Tensor(x0, requires_grad=True)
            k = Tensor(k0, requires_grad=trainable)
            (conv2d(x, k, None, 1, 1) * Tensor(w)).sum().backward()
            grads.append((x.grad, k.grad))
        assert grads[0][1] is not None
        assert grads[1][1] is None
        assert np.array_equal(grads[0][0], grads[1][0])

    def test_closure_holds_at_most_the_padded_input(self):
        """Beyond its output, a conv keeps nothing alive for backward, with a
        trainable kernel or a frozen one, from either kernel-gradient tile
        source: its closure holds references to arrays, never copies."""
        rng = np.random.default_rng(7)
        slack = 64 * 1024
        cases = [(True, 16, 1),   # kernel gradient from the g tiles
                 (False, 16, 1),  # input without gradient: x tiles
                 (True, 32, 1),   # Cout > Cin: x tiles
                 (True, 16, 2)]   # stride 2: x tiles
        for x_grad, cout, stride in cases:
            x = Tensor(rng.normal(size=(1, 16, 256, 256)), requires_grad=x_grad)
            for trainable in (True, False):
                k = Tensor(rng.normal(size=(cout, 16, 3, 3)), requires_grad=trainable)
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    out = conv2d(x, k, None, stride, 1)
                    held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
                finally:
                    tracemalloc.stop()
                assert held <= slack, (
                    f"x_grad={x_grad} cout={cout} stride={stride} "
                    f"trainable={trainable}: {held} bytes held")
                del out

    @pytest.mark.parametrize("cout,k,stride,backward", [
        (16, 3, 1, False),
        (16, 3, 1, True),   # input and kernel gradients from the g tiles
        (16, 4, 2, True),   # phases of g's tiles; kernel gradient from x's
        (32, 3, 1, True),   # Cout > Cin: kernel gradient from x's tiles
    ], ids=["forward", "stride1-backward", "stride2-backward", "cout-gt-cin-backward"])
    def test_no_padded_copy(self, cout, k, stride, backward):
        """A conv of a [1, 16, 128, 128] input, padding 1, peaks, above the
        arrays it returns, below one [1, 16, 130, 130] padded copy of the
        array its tiles read, in the forward and in a backward with a
        trainable kernel: every tile is cut from a staged band of rows."""
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(1, 16, 128, 128)), requires_grad=True)
        kernel = Tensor(rng.normal(size=(cout, 16, k, k)), requires_grad=True)
        if backward:
            out = conv2d(x, kernel, None, stride, 1)
            g = rng.normal(size=out.data.shape)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            if backward:
                out._node.backward(g)
                kept = x.grad.nbytes + kernel.grad.nbytes
            else:
                kept = conv2d(x, kernel, None, stride, 1).data.nbytes
            peak = tracemalloc.get_traced_memory()[1] - before - kept
        finally:
            tracemalloc.stop()
        assert peak < 16 * 130 * 130 * 8

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))))

    def test_oversized_kernel_rejected(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.ones((1, 1, 5, 5))))

    def test_bad_stride_rejected(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 3, 3))),
                   stride=0)


class TestTiledConv2d(TestConv2d):
    """Every conv test again, and the cases below, with the column budget
    cut to one output row (two where stated), so that each conv spans at
    least three tiles."""

    @pytest.fixture(autouse=True)
    def one_row_tiles(self, monkeypatch):
        monkeypatch.setattr(numerics, "_TILE_BYTES", 1)

    @pytest.mark.parametrize("shape,kshape,stride,padding", LOOP_ORACLE_CASES)
    def test_against_loop_oracle(self, shape, kshape, stride, padding, monkeypatch):
        """Forward runs one ``np.matmul`` per tile, here one per output
        row of each sample: at least three per case."""
        matmul, tiles = np.matmul, []

        def counting_matmul(*args, **kwargs):
            tiles.append(None)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting_matmul)
        super().test_against_loop_oracle(shape, kshape, stride, padding)
        ho = (shape[2] + 2 * padding - kshape[2]) // stride + 1
        assert len(tiles) == shape[0] * ho >= 3

    def test_padded_batched_gradients_vs_finite_differences(self):
        """N=2, stride 2, padding 2, a 9x7 input and a 3x5 kernel."""
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(2, 2, 9, 7))
        k0 = rng.normal(size=(3, 2, 3, 5))
        b0 = rng.normal(size=(3,))
        w = Tensor(rng.normal(size=(2, 3, 6, 4)))

        gradcheck(lambda t: (conv2d(t, Tensor(k0), Tensor(b0), 2, 2) * w).sum(), x0)
        gradcheck(lambda t: (conv2d(Tensor(x0), t, Tensor(b0), 2, 2) * w).sum(), k0)
        gradcheck(lambda t: (conv2d(Tensor(x0), Tensor(k0), t, 2, 2) * w).sum(), b0)

    def test_ragged_last_tile(self, monkeypatch):
        """Nine output rows in tiles of two: the last tile has one row."""
        rng = np.random.default_rng(9)
        x0 = rng.normal(size=(1, 2, 9, 7))
        k0 = rng.normal(size=(3, 2, 3, 5))
        b0 = rng.normal(size=(3,))
        # Two output rows of [Cin*kh*kw, Wo] = [30, 5] float64 columns.
        monkeypatch.setattr(numerics, "_TILE_BYTES", 8 * 30 * 5 * 2)
        out = conv2d(Tensor(x0), Tensor(k0), Tensor(b0), 1, 1)
        assert out.data.shape == (1, 3, 9, 5)
        assert np.allclose(out.data, conv2d_reference(x0, k0, b0, 1, 1), atol=1e-12)
        w = Tensor(rng.normal(size=out.data.shape))

        gradcheck(lambda t: (conv2d(t, Tensor(k0), Tensor(b0), 1, 1) * w).sum(), x0)
        gradcheck(lambda t: (conv2d(Tensor(x0), t, Tensor(b0), 1, 1) * w).sum(), k0)
        gradcheck(lambda t: (conv2d(Tensor(x0), Tensor(k0), t, 1, 1) * w).sum(), b0)

    @pytest.mark.parametrize("x_grad", [True, False], ids=["x-grad", "x-frozen"])
    @pytest.mark.parametrize("shape,kshape,stride,budget", [
        ((2, 4, 25, 6), (2, 4, 3, 3), 1, 3460),
        ((2, 2, 22, 5), (3, 2, 4, 4), 2, 1028),
    ], ids=["stride1", "stride2"])
    def test_band_boundaries(self, shape, kshape, stride, budget, x_grad, monkeypatch):
        """Budgets under which every tile source spans several bands of
        several tiles, the last band short.  Stride 1, 25 output rows: the
        input's tiles of 2 rows come in bands of 5 + 5 + 3 tiles, the
        output gradient's tiles of 4 rows in bands of 6 + 1, and with
        ``x-grad`` the latter also give the kernel gradient.  Stride 2, 11
        output rows: the input's tiles of 2 rows in bands of 2 + 2 + 2,
        the last tile 1 row; each gradient phase's tiles of 5 rows in
        bands of 2 + 1, or of 3 rows in bands of 3 + 1."""
        monkeypatch.setattr(numerics, "_TILE_BYTES", budget)
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=shape), requires_grad=x_grad)
        k = Tensor(rng.normal(size=kshape), requires_grad=True)
        b = rng.normal(size=kshape[0])
        out = conv2d(x, k, Tensor(b), stride, 1)
        assert np.allclose(out.data, conv2d_reference(x.data, k.data, b, stride, 1),
                           atol=1e-12)
        g = rng.normal(size=out.data.shape)
        out._node.backward(g)
        ref = conv2d_kernel_grad_reference(x.data, kshape, g, stride, 1)
        assert np.allclose(k.grad, ref, atol=1e-12)
        if x_grad:
            ref = conv2d_input_grad_reference(shape, k.data, g, stride, 1)
            assert np.allclose(x.grad, ref, atol=1e-12)

    @staticmethod
    def _grads(x_grad, k_grad):
        """Input and kernel gradients of a weighted sum of an N=2, stride 2,
        padding 2 conv of a 9x7 input with a 3x5 kernel."""
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 2, 9, 7)), requires_grad=x_grad)
        k = Tensor(rng.normal(size=(3, 2, 3, 5)), requires_grad=k_grad)
        w = Tensor(rng.normal(size=(2, 3, 6, 4)))
        (conv2d(x, k, None, 2, 2) * w).sum().backward()
        return x.grad, k.grad

    def test_frozen_kernel_gets_input_gradient_only(self, monkeypatch):
        gx_tiled, gk_tiled = self._grads(True, False)
        assert gk_tiled is None
        assert np.array_equal(gx_tiled, self._grads(True, True)[0])
        monkeypatch.setattr(numerics, "_TILE_BYTES", 1 << 30)
        assert np.allclose(gx_tiled, self._grads(True, False)[0], rtol=0, atol=1e-12)

    def test_input_without_gradient_gets_kernel_gradient_only(self, monkeypatch):
        gx_tiled, gk_tiled = self._grads(False, True)
        assert gx_tiled is None
        monkeypatch.setattr(numerics, "_TILE_BYTES", 1 << 30)
        assert np.allclose(gk_tiled, self._grads(False, True)[1], rtol=0, atol=1e-12)


class TestUpsampleAndPooling:
    def test_factor_one_is_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 2, 3, 3)))
        assert np.array_equal(upsample_nearest(x, 1).data, x.data)

    def test_single_pixel_copies(self):
        out = upsample_nearest(Tensor(np.full((1, 1, 1, 1), 5.0)), 2)
        assert np.array_equal(out.data, np.full((1, 1, 2, 2), 5.0))

    def test_upsample_backward_counts_block(self):
        x = Tensor(np.random.default_rng(1).normal(size=(1, 1, 2, 2)),
                   requires_grad=True)
        upsample_nearest(x, 2).sum().backward()
        assert np.array_equal(x.grad, np.full((1, 1, 2, 2), 4.0))

    def test_upsample_gradient_vs_fd(self):
        x0 = np.random.default_rng(2).normal(size=(1, 2, 3, 3))
        gradcheck(lambda t: (upsample_nearest(t, 2) ** 2).sum(), x0)

    def test_avg_pool_value(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = avg_pool2d(x, 2).data[0, 0]
        assert np.allclose(out, [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_gradient_vs_fd(self):
        x0 = np.random.default_rng(3).normal(size=(1, 1, 4, 4))
        gradcheck(lambda t: (avg_pool2d(t, 2) ** 2).sum(), x0)

    def test_avg_pool_indivisible_rejected(self):
        with pytest.raises(ShapeError):
            avg_pool2d(Tensor(np.ones((1, 1, 5, 5))), 2)


class TestFusedOps:
    """Subtraction and normalize each record one graph node."""

    @staticmethod
    def added_nodes(out, *inputs):
        before = {id(n) for t in inputs for n in numerics._toposort(t)}
        return len([n for n in numerics._toposort(out) if id(n) not in before])

    def test_normalize_is_one_node(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 2, 3, 3)), requires_grad=True)
        assert self.added_nodes(normalize(x), x) == 1

    def test_subtraction_is_one_node(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        assert self.added_nodes(a - b, a, b) == 1
        assert self.added_nodes(2.0 - a, a) == 1
        assert self.added_nodes(a - 2.0, a) == 1


def relu_reference(x):
    """The relu graph node that :func:`activate` replaced."""
    xd = x.data

    def bw(g):
        _accumulate(x._node, g * (xd > 0.0))

    return _result(xd * (xd > 0.0), (x._node,), bw)


def leaky_relu_reference(x, slope):
    """The leaky-relu graph node that :func:`activate` replaced."""
    xd = x.data

    def bw(g):
        _accumulate(x._node, g * np.where(xd > 0.0, 1.0, slope))

    return _result(xd * np.where(xd > 0.0, 1.0, slope), (x._node,), bw)


def unfused(t, slope):
    return relu_reference(t) if slope == 0.0 else leaky_relu_reference(t, slope)


def _conv_case(stride, trainable_kernel):
    def make(rng):
        leaves = [Tensor(rng.normal(size=(1, 3, 7, 7)), requires_grad=True),
                  Tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad=trainable_kernel),
                  Tensor(rng.normal(size=(2,)), requires_grad=True)]
        return leaves, lambda x, k, b: conv2d(x, k, b, stride, 1)
    return make


def _si_module_case(rng):
    si = SIModule(3, rng, hidden=4)
    for p in si.params():
        p.data = rng.normal(size=p.data.shape)
    layout = SemanticLayout(rng.integers(0, N_CLASSES, size=(6, 6)))
    x = Tensor(rng.normal(size=(1, 3, 6, 6)), requires_grad=True)
    return [x] + si.params(), lambda x, *params: si.forward(x, layout)


def _normalize_case(rng):
    return [Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True)], normalize


ACTIVATED_OPS = {
    "conv-s1-trainable": _conv_case(1, True),
    "conv-s1-frozen": _conv_case(1, False),
    "conv-s2-trainable": _conv_case(2, True),
    "conv-s2-frozen": _conv_case(2, False),
    "modulate": _si_module_case,  # SIModule.forward: gamma * normalize(x) + beta
    "normalize": _normalize_case,
}


class TestActivate:
    """``activate`` in place on an op's output against the unfused node."""

    @staticmethod
    def run(op, act, slope):
        leaves, fn = ACTIVATED_OPS[op](np.random.default_rng(5))
        out = act(fn(*leaves), slope)
        w = Tensor(np.random.default_rng(6).normal(size=out.data.shape))
        (out * w).sum().backward()
        return out.data, [t.grad for t in leaves]

    @pytest.mark.parametrize("slope", [0.0, 0.2])
    @pytest.mark.parametrize("op", list(ACTIVATED_OPS))
    def test_bytes_match_unfused(self, op, slope):
        fused, fused_grads = self.run(op, activate, slope)
        ref, ref_grads = self.run(op, unfused, slope)
        assert np.array_equal(fused, ref)
        assert (fused < 0.0).any() == (slope > 0.0)
        for a, b in zip(fused_grads, ref_grads):
            assert (a is None and b is None) or np.array_equal(a, b)

    def test_records_no_node(self):
        x = Tensor(np.ones((1, 1, 3, 3)), requires_grad=True)
        out = conv2d(x, Tensor(np.ones((1, 1, 1, 1))))
        parents = out._node.parents
        assert activate(out, 0.2) is out and out._node.parents == parents

    def test_negative_slope_rejected(self):
        out = conv2d(Tensor(np.ones((1, 1, 3, 3)), requires_grad=True),
                     Tensor(np.ones((1, 1, 1, 1))))
        with pytest.raises(ValueError, match="slope >= 0"):
            activate(out, -0.2)

    def test_trainable_leaf_rejected(self):
        leaf = Tensor([-1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="leaf"):
            activate(leaf, 0.0)
        assert np.array_equal(leaf.data, [-1.0, 2.0])


class TestNormalize:
    def test_constant_slice_maps_to_zero(self):
        out = normalize(Tensor(np.full((1, 2, 3, 3), 7.0)))
        assert np.allclose(out.data, 0.0)

    def test_matches_two_pass_oracle(self):
        x = np.random.default_rng(0).normal(size=(1, 2, 4, 4))
        out = normalize(Tensor(x)).data
        for c in range(2):
            sl = x[0, c]
            ref = (sl - sl.mean()) / np.sqrt(sl.var() + 1e-5)
            assert np.allclose(out[0, c], ref, atol=1e-12)

    def test_output_statistics(self):
        x = np.random.default_rng(1).normal(size=(2, 3, 8, 8))
        out = normalize(Tensor(x)).data
        means = out.mean(axis=(2, 3))
        variances = out.var(axis=(2, 3))
        assert np.allclose(means, 0.0, atol=1e-12)
        assert np.allclose(variances, 1.0, atol=1e-3)

    def test_gradient_vs_fd(self):
        x0 = np.random.default_rng(4).normal(size=(1, 2, 3, 3))
        gradcheck(lambda t: (normalize(t) ** 2).sum(), x0)

    @pytest.mark.parametrize("channels", [1, 8])
    def test_forward_keeps_no_field(self, channels):
        """After one forward at 128 px the node holds, beyond its output,
        only the ``[1, C, 1, 1]`` mean and scale: under half of one
        ``[1, C, h, w]`` array, where a kept normalized input would be
        one."""
        x = Tensor(np.random.default_rng(8).normal(size=(1, channels, 128, 128)),
                   requires_grad=True)
        tracemalloc.start()
        try:
            out = normalize(x)
            held = tracemalloc.get_traced_memory()[0] - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert held < 0.5 * channels * 128 * 128 * 8


BLOCK = numerics._ADAM_BLOCK


def whole_array_adam_step(opt, lr):
    """The whole-array Adam step, before it worked in blocks: the oracle
    of the blocked one."""
    opt.step += 1
    beta1, beta2, step = opt.beta1, opt.beta2, opt.step
    for p, m1, m2 in zip(opt.params, opt.m1, opt.m2):
        g = p.grad
        tmp = np.multiply(1.0 - beta1, g)
        m1 *= beta1
        m1 += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - beta2
        m2 *= beta2
        m2 += tmp
        mhat = np.divide(m1, 1.0 - beta1 ** step, out=tmp)
        vhat = m2 / (1.0 - beta2 ** step)
        np.sqrt(vhat, out=vhat)
        vhat += 1e-8
        mhat *= lr
        mhat /= vhat
        p.data = p.data - mhat
        p.grad = None


def tobytes_checkpoint(entries):
    """The container bytes as the writer built them before it wrote each
    array's own buffer: the oracle of :func:`save_checkpoint`."""
    out = [numerics.CHECKPOINT_MAGIC]
    for name, arr in entries:
        a = np.asarray(arr, dtype="<f8")
        nb = name.encode("utf-8")
        out += [struct.pack("<I", len(nb)), nb, struct.pack("<I", a.ndim)]
        out += [struct.pack("<I", d) for d in a.shape]
        out.append(a.tobytes())
    return b"".join(out)


class TestAdam:
    def test_single_step_closed_form(self):
        p = Parameter(np.array([1.0, -2.0]))
        g = np.array([0.5, -0.25])
        p.grad = g.copy()
        opt = Adam([p], beta1=0.5, beta2=0.999)
        adam_step(opt, lr=0.1)
        # After one bias-corrected step, mhat == g and vhat == g*g.
        expected = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
        assert np.allclose(p.data, expected, atol=1e-12)
        assert opt.step == 1

    def test_matches_reference_implementation_over_steps(self):
        rng = np.random.default_rng(0)
        p = Parameter(rng.normal(size=(4,)))
        opt = Adam([p], beta1=0.5, beta2=0.999)
        ref = p.data.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        for step in range(1, 6):
            g = rng.normal(size=(4,))
            p.grad = g.copy()
            adam_step(opt, lr=0.01)
            m = 0.5 * m + 0.5 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.5 ** step)
            vhat = v / (1 - 0.999 ** step)
            ref = ref - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
            assert np.allclose(p.data, ref, atol=1e-12)

    def test_bytes_match_out_of_place_formula(self):
        """Over two parameters of different shapes, every moment and
        weight equals the out-of-place formula bit for bit, and the one
        step count advances once per update."""
        rng = np.random.default_rng(7)
        shapes = [(3, 5), (4,)]
        params = [Parameter(rng.normal(size=s)) for s in shapes]
        opt = Adam(params, beta1=0.5, beta2=0.999)
        data = [p.data.copy() for p in params]
        m1 = [np.zeros(s) for s in shapes]
        m2 = [np.zeros(s) for s in shapes]
        lr, beta1, beta2 = 2e-4, 0.5, 0.999
        for step in range(1, 8):
            for i, p in enumerate(params):
                g = rng.normal(size=shapes[i]) * 10.0 ** rng.integers(-6, 2)
                p.grad = g.copy()
                m1[i] = beta1 * m1[i] + (1.0 - beta1) * g
                m2[i] = beta2 * m2[i] + (1.0 - beta2) * (g * g)
                mhat = m1[i] / (1.0 - beta1 ** step)
                vhat = m2[i] / (1.0 - beta2 ** step)
                data[i] = data[i] - lr * mhat / (np.sqrt(vhat) + 1e-8)
            adam_step(opt, lr)
            assert opt.step == step
            for i, p in enumerate(params):
                assert np.array_equal(opt.m1[i], m1[i])
                assert np.array_equal(opt.m2[i], m2[i])
                assert np.array_equal(p.data, data[i])

    @pytest.mark.parametrize("sizes", [
        (1,), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (7 * BLOCK // 2,),
        (1, BLOCK + 1, 7 * BLOCK // 2, BLOCK - 1),
    ], ids=["1", "block-1", "block", "block+1", "3.5block", "mixed"])
    def test_blocked_bytes_match_whole_array_step(self, sizes):
        """Over several steps, the blocked step leaves every weight and
        moment equal, bit for bit, to the whole-array step below (the
        previous implementation, kept here as the oracle)."""
        rng = np.random.default_rng(len(sizes) + sizes[0])
        params = [Parameter(rng.normal(size=n)) for n in sizes]
        twins = [Parameter(p.data.copy()) for p in params]
        opt, ref = Adam(params), Adam(twins)
        for step in range(4):
            for p, q in zip(params, twins):
                g = rng.normal(size=p.data.shape) * 10.0 ** rng.integers(-6, 2)
                p.grad, q.grad = g, g.copy()
            adam_step(opt, 2e-4 * (step + 1))
            whole_array_adam_step(ref, 2e-4 * (step + 1))
            for pairs in zip(params, twins), zip(opt.m1, ref.m1), zip(opt.m2, ref.m2):
                for a, b in pairs:
                    a, b = getattr(a, "data", a), getattr(b, "data", b)
                    assert a.tobytes() == b.tobytes()

    def test_gradient_in_another_order_matches(self):
        """A gradient backward left in Fortran order, over more than one
        block, gives the same bytes as its C-order copy."""
        rng = np.random.default_rng(11)
        shape = (37, BLOCK // 16)
        g = np.asfortranarray(rng.normal(size=shape))
        p = Parameter(rng.normal(size=shape))
        q = Parameter(p.data.copy())
        p.grad, q.grad = g, np.ascontiguousarray(g)
        adam_step(Adam([p]), 0.1)
        adam_step(Adam([q]), 0.1)
        assert p.data.tobytes() == q.data.tobytes()

    def test_step_peaks_below_new_array_plus_two_blocks(self):
        """On a [128, 128, 4, 4] parameter (2 MiB), a step allocates its new
        weights and two block buffers, plus a few KiB of array headers;
        the whole-array step peaked at three parameter-sized arrays."""
        rng = np.random.default_rng(2)
        p = Parameter(rng.normal(size=(128, 128, 4, 4)))
        p.grad = rng.normal(size=p.data.shape)
        opt = Adam([p])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            adam_step(opt, 0.1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        headers = 16 * 1024
        assert p.data.nbytes < peak < p.data.nbytes + 2 * 8 * BLOCK + headers

    def test_missing_gradient_rejected(self):
        p, q = Parameter(np.ones(2)), Parameter(np.ones(2))
        p.grad = np.ones(2)
        opt = Adam([p, q])
        with pytest.raises(ValueError):
            adam_step(opt, lr=0.1)
        assert opt.step == 0 and np.array_equal(p.data, np.ones(2))

    def test_update_does_not_alias_old_storage(self):
        p = Parameter(np.ones(2))
        old = p.data
        p.grad = np.ones(2)
        adam_step(Adam([p]), lr=0.1)
        assert np.array_equal(old, np.ones(2))

    def test_step_releases_every_gradient(self):
        """A step leaves no gradient behind, so a second step with no
        backward in between is the missing-gradient error."""
        rng = np.random.default_rng(3)
        params = [Parameter(rng.normal(size=s)) for s in [(3, 5), (4,)]]
        opt = Adam(params)
        (params[0].sum() + params[1].sum()).backward()
        adam_step(opt, lr=0.1)
        assert all(p.grad is None for p in params)
        data = [p.data for p in params]
        with pytest.raises(ValueError, match="no gradient"):
            adam_step(opt, lr=0.1)
        assert opt.step == 1 and all(p.data is d for p, d in zip(params, data))

    def test_parameter_holds_no_optimizer_state(self):
        p = Parameter(np.ones(2))
        for attr in ("m1", "m2", "step"):
            assert not hasattr(p, attr)


class TestLrSchedule:
    def test_two_epochs(self):
        assert lr_at_epoch(2e-4, 0, 2) == 2e-4
        assert lr_at_epoch(2e-4, 1, 2) == 1e-4

    def test_first_half_constant(self):
        for e in range(20):
            assert lr_at_epoch(1.0, e, 40) == 1.0

    def test_second_half_decays_linearly(self):
        rates = [lr_at_epoch(1.0, e, 40) for e in range(20, 40)]
        diffs = np.diff(rates)
        assert np.allclose(diffs, diffs[0]) and diffs[0] < 0

    def test_final_epoch_keeps_positive_rate(self):
        for total in (2, 3, 5, 7, 40):
            assert lr_at_epoch(1.0, total - 1, total) > 0.0


class TestCheckpointContainer:
    def test_round_trip_bit_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        entries = [
            ("alpha", rng.normal(size=(3, 4))),
            ("beta.weight", rng.normal(size=(2, 2, 3, 3))),
            ("scalar", np.float64(7.25)),
        ]
        path = tmp_path / "ck.bin"
        save_checkpoint(str(path), entries)
        back, _ = load_checkpoint(str(path))
        assert list(back) == ["alpha", "beta.weight", "scalar"]
        for name, arr in entries:
            assert back[name].shape == np.asarray(arr).shape
            assert np.array_equal(back[name], arr)

    @pytest.mark.parametrize("layout", ["c-order", "transposed", "rank-0", "mixed"])
    def test_writer_bytes_match_tobytes_writer(self, tmp_path, layout):
        """The file, and the digest returned, match the ``tobytes`` writer
        for C-order, transposed and rank-0 arrays."""
        rng = np.random.default_rng(4)
        arrays = {"c-order": [rng.normal(size=(3, 4))],
                  "transposed": [rng.normal(size=(5, 2, 3)).transpose(2, 0, 1)],
                  "rank-0": [np.float64(-0.0), 1.5]}
        arrays["mixed"] = [a for v in arrays.values() for a in v]
        entries = [(f"e.{i}", a) for i, a in enumerate(arrays[layout])]
        path = tmp_path / "ck.bin"
        digest = save_checkpoint(str(path), entries)
        assert path.read_bytes() == tobytes_checkpoint(entries)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_loader_returns_owned_c_order_arrays_and_digest(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "ck.bin"
        save_checkpoint(str(path), [("a", rng.normal(size=(4, 3, 2)).T), ("b", 2.0),
                                    ("c", np.zeros((0, 3)))])
        blob, digest = load_checkpoint(str(path))
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        for arr in blob.values():
            assert arr.dtype == np.float64
            assert arr.flags.owndata and arr.flags.writeable and arr.flags.c_contiguous
        assert blob["b"].shape == () and blob["c"].shape == (0, 3)

    def test_load_peaks_below_its_arrays_and_a_tenth(self, tmp_path):
        """A load allocates the arrays it returns and little else: no
        whole-file bytes object and no second copy of any array."""
        rng = np.random.default_rng(6)
        path = tmp_path / "ck.bin"
        save_checkpoint(str(path), [(f"w{i}", rng.normal(size=s)) for i, s in
                                    enumerate([(128, 128, 4, 4), (64, 3), (), (7,)])])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            blob, _ = load_checkpoint(str(path))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in blob.values())
        assert held < peak < 1.1 * held

    def test_corrupt_dims_rejected_before_allocating(self, tmp_path):
        """Dims whose data would run past the end of the file are a
        corrupt entry, not an allocation of their product."""
        path = tmp_path / "ck.bin"
        path.write_bytes(numerics.CHECKPOINT_MAGIC + struct.pack("<I1sI3I", 1, b"w", 3,
                                                                 *[2**32 - 1] * 3))
        with pytest.raises(ValueError, match=r"corrupt checkpoint entry at byte 4: needs \d+ more"):
            load_checkpoint(str(path))

    def test_save_that_raises_partway_keeps_previous_file(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(str(path), [("w", np.arange(3.0))])
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_checkpoint(str(path), [("w", np.ones(4)), ("bad", "not a number")])
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.bin"]

    def test_text_write_that_raises_keeps_previous_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"old": 1}\n', encoding="utf-8")
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            with atomic_open(str(path)) as f:
                f.write('{"new": ')
                raise RuntimeError("interrupted")
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["manifest.json"]
        with atomic_open(str(path)) as f:
            f.write('{"new": 2}\n')
        assert path.read_text(encoding="utf-8") == '{"new": 2}\n'
        assert os.listdir(tmp_path) == ["manifest.json"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_checkpoint(str(path))

    def test_save_params_round_trip_restores_weights(self, tmp_path):
        rng = np.random.default_rng(1)
        p = Parameter(rng.normal(size=(3,)))
        p.grad = rng.normal(size=(3,))
        adam_step(Adam([p]), lr=0.05)
        path = tmp_path / "params.bin"
        save_checkpoint(str(path), [("w", p.data)])
        assert list(load_checkpoint(str(path))[0]) == ["w"]

        q = Parameter(np.zeros(3))
        q.grad = np.ones(3)
        restore_params(load_checkpoint(str(path))[0], [("w", q)], str(path))
        assert np.array_equal(q.data, p.data)
        assert q.grad is None

    def test_load_params_shape_mismatch(self, tmp_path):
        p = Parameter(np.ones(3))
        path = tmp_path / "p.bin"
        save_checkpoint(str(path), [("w", p.data)])
        with pytest.raises(ShapeError):
            restore_params(load_checkpoint(str(path))[0], [("w", Parameter(np.ones(4)))],
                           str(path))

    def test_load_params_moment_shape_mismatch(self, tmp_path):
        """Adam moments are no checkpoint entries: one of either shape,
        as older versions saved them, is rejected at load."""
        path = tmp_path / "p.bin"
        for m1 in (np.ones(1), np.ones(3)):
            save_checkpoint(str(path), [("w", np.ones(3)), ("w.m1", m1)])
            with pytest.raises(KeyError, match="'w.m1' names no parameter"):
                restore_params(load_checkpoint(str(path))[0], [("w", Parameter(np.ones(3)))],
                               str(path))

    def test_load_params_non_finite_rejected(self, tmp_path):
        path = tmp_path / "p.bin"
        save_checkpoint(str(path), [("w", np.array([1.0, np.nan]))])
        with pytest.raises(ValueError, match="non-finite"):
            restore_params(load_checkpoint(str(path))[0], [("w", Parameter(np.ones(2)))],
                           str(path))

    @pytest.mark.parametrize("step", [np.inf, np.nan, -1.0, 2.5, np.array([1.0, 2.0])])
    def test_load_params_bad_step_rejected(self, tmp_path, step):
        """A ``.step`` entry, whatever it holds, names no parameter."""
        path = tmp_path / "p.bin"
        save_checkpoint(str(path), [("w", np.ones(3)), ("w.step", step)])
        with pytest.raises(KeyError, match="'w.step' names no parameter"):
            restore_params(load_checkpoint(str(path))[0], [("w", Parameter(np.ones(3)))],
                           str(path))

    def test_load_params_stray_entry_rejected(self, tmp_path):
        path = tmp_path / "p.bin"
        save_checkpoint(str(path), [("w", np.ones(3)), ("b", np.zeros(3))])
        with pytest.raises(KeyError, match="'b' names no parameter"):
            restore_params(load_checkpoint(str(path))[0], [("w", Parameter(np.ones(3)))],
                           str(path))

    def test_load_params_missing_name(self, tmp_path):
        p = Parameter(np.ones(3))
        path = tmp_path / "p.bin"
        save_checkpoint(str(path), [("w", p.data)])
        with pytest.raises(KeyError):
            restore_params(load_checkpoint(str(path))[0], [("other", Parameter(np.ones(3)))],
                           str(path))
