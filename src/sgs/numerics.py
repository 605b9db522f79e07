"""Dense float64 tensors with reverse-mode differentiation.

Every value the synthesis pipeline touches -- activations, losses, graph
nodes -- lives in the :class:`Tensor` type below.  A tensor is a value
and a graph node; the node holds the gradient, the parents' nodes and
the backward closure, never a value.  Operations record parent links as
they execute; ``backward()`` replays the implicit tape in reverse
topological order and accumulates gradients additively into every leaf
that asked for them.  Backward consumes the tape it walks: a walked node
drops its closure and parent links, so the graph is freed during the
walk and only tensors the caller still holds keep their ``.grad``.

One rule builds an op: :func:`_op` takes its value and one gradient
function per parent, which maps the output gradient to that parent's,
and runs a parent's function only for a parent that records a gradient,
summing the result down to the parent's shape.  Only ops whose parents
share one computation or one split -- :func:`conv2d`, :func:`concat`
and ``sgs.network.SIModule.forward`` -- write their backward closure
over :func:`_result` themselves.

Some compositions are fused into single ops with a closed-form
backward, so each records one node and saves one set of arrays:
subtraction (``a - b`` and ``2.0 - a``) and :func:`normalize` (instance
normalization).  ``sgs.losses.softmax_bce`` (a softmax over the class
axis followed by the clipped binary cross-entropy) and
``sgs.network.SIModule.forward`` (``gamma * normalize(x) + beta`` with
the gamma/beta convs over the layout) are single nodes built the same
way, the latter sharing :func:`normalize`'s instance-norm forward and
backward.

A gradient function keeps only the arrays its formula reads, as
references taken at forward time, never copies, and a backward closure
keeps its parents' nodes, never their tensors: an activation that no
closure reads (a conv output that only feeds a sum, the input of a
reshape or an upsample) is freed as soon as the forward drops it.
What a closure can recompute from those in one or two passes (the sign
of ``abs``, the clipped probabilities of the BCE, the instance-norm
output from its input and kept ``[N, C, 1, 1]`` mean and scale) it
recomputes.  :func:`conv2d` pads nothing: every im2col tile, forward
and backward, is cut from a bounded band of input rows staged with its
zero border; see its docstring for which tiles feed its kernel gradient.

Desk scale keeps the design deliberately small: 64-bit floats, a single
thread, no in-place mutation of anything that participates in a recorded
graph, with two sanctioned exceptions: the optimizer update on parameter
storage between steps, and :func:`activate`, which applies a relu or
leaky relu in place to the fresh output of the op that produced its
input and records no node of its own, so no pre-activation array is
kept for backward.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
import os
import struct

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


# ---------------------------------------------------------------------------
# core tensor type
# ---------------------------------------------------------------------------


def _accumulate(node, g):
    """Add gradient ``g`` into ``node.grad`` without mutating either array."""
    if node.requires_grad:
        node.grad = g if node.grad is None else node.grad + g


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back down to ``shape``."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


class _Node:
    """The graph side of one :class:`Tensor`: its gradient, whether it
    records one, the nodes of its parents and its backward closure, which
    accumulates into those nodes.  A node holds no value."""

    __slots__ = ("grad", "requires_grad", "parents", "backward")

    def __init__(self, requires_grad=False, parents=(), backward=None):
        self.grad = None
        self.requires_grad = requires_grad
        self.parents = parents
        self.backward = backward


def _tensor(data, node):
    out = Tensor.__new__(Tensor)
    out.data = data
    out._node = node
    return out


def _result(data, parents, backward):
    """Build an op result over parent nodes, recording the graph only when
    a parent needs it."""
    data = np.asarray(data, dtype=np.float64)
    if any(p.requires_grad for p in parents):
        return _tensor(data, _Node(True, tuple(parents), backward))
    return _tensor(data, _Node())


def _op(data, parents, grads):
    """Build an op result over the tensors ``parents``: one gradient
    function per parent, ``grads[i]`` mapping the output gradient to
    parent ``i``'s before it is summed down to that parent's shape.

    ``grads[i]`` (None for a parent that gets no gradient) is kept only
    for a parent that records a gradient when the op runs, and run in
    backward only if it still does; the arrays a dropped function reads
    are freed with it."""
    nodes = tuple(p._node for p in parents)
    kept = tuple((node, p.data.shape, fn) for node, p, fn in zip(nodes, parents, grads)
                 if fn is not None and node.requires_grad)

    def bw(g):
        for node, shape, fn in kept:
            if node.requires_grad:
                _accumulate(node, _unbroadcast(fn(g), shape))

    return _result(data, nodes, bw)


def _toposort(root):
    """Parents-before-children ordering of the nodes of tensor ``root``'s
    graph."""
    root = root._node
    order = []
    visited = {id(root)}
    stack = [(root, iter(root.parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if p.requires_grad and id(p) not in visited:
                visited.add(id(p))
                stack.append((p, iter(p.parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def _normalize_axes(axis, ndim):
    if axis is None:
        return None
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    norm = []
    for ax in axes:
        if not -ndim <= ax < ndim:
            raise ShapeError(f"axis {ax} out of range for rank {ndim}")
        norm.append(ax % ndim)
    if len(set(norm)) != len(norm):
        raise ShapeError(f"duplicate axes in {axes}")
    return tuple(sorted(norm))


def _promote(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


class Tensor:
    """N-dimensional float64 array with optional gradient tracking.

    A tensor is its value, ``.data``, and its graph node; ``.grad`` and
    ``.requires_grad`` live on the node.  The graph links nodes, so a
    value that no backward closure reads is freed as soon as the caller
    drops its tensor.

    Constructors reject non-finite values; downstream numerical blowups
    are the caller's responsibility to detect (the trainer checks its
    loss scalars every step).
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("Tensor rejects non-finite values (NaN/Inf)")
        self.data = arr
        self._node = _Node(bool(requires_grad))

    # -- introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def grad(self):
        return self._node.grad

    @grad.setter
    def grad(self, g):
        self._node.grad = g

    @property
    def requires_grad(self):
        return self._node.requires_grad

    @requires_grad.setter
    def requires_grad(self, flag):
        self._node.requires_grad = flag

    @property
    def _backward(self):
        # perfbench's conv2d timer reads and replaces this closure.
        return self._node.backward

    @_backward.setter
    def _backward(self, fn):
        self._node.backward = fn

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    # -- autodiff -------------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into every requires_grad leaf.

        Only scalar roots are accepted.  Backward consumes the graph it
        walks: once a node's closure has run, its closure and parent links
        are dropped, so every node the caller does not hold is freed with
        the arrays its closure saved and its ``.grad``.  A held tensor
        keeps its ``.grad``; a second ``backward()`` on a walked root
        propagates nothing.  Grads add, they are never reset here.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward needs a scalar root, got shape {self.data.shape}")
        if not self.requires_grad:
            return
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node.backward is not None and node.grad is not None:
                node.backward(node.grad)
            node.backward = None
            node.parents = ()

    def detach(self):
        """A view of the same values severed from the recorded graph."""
        return _tensor(self.data, _Node())

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _promote(other)
        return _op(self.data + other.data, (self, other), (lambda g: g, lambda g: g))

    __radd__ = __add__

    def __neg__(self):
        return _op(-self.data, (self,), (lambda g: -g,))

    def __sub__(self, other):
        other = _promote(other)
        return _op(self.data - other.data, (self, other), (lambda g: g, lambda g: -g))

    def __rsub__(self, other):
        return _promote(other) - self

    def __mul__(self, other):
        other = _promote(other)
        ad, bd = self.data, other.data
        return _op(ad * bd, (self, other), (lambda g: g * bd, lambda g: g * ad))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _promote(other)
        ad, bd = self.data, other.data
        return _op(ad / bd, (self, other),
                   (lambda g: g / bd, lambda g: -g * ad / (bd * bd)))

    def __rtruediv__(self, other):
        return _promote(other) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        ad, e = self.data, float(exponent)
        return _op(ad ** e, (self,), (lambda g: g * e * ad ** (e - 1.0),))

    def abs(self):
        ad = self.data
        return _op(np.abs(ad), (self,), (lambda g: g * np.sign(ad),))

    # -- shape ops --------------------------------------------------------

    def reshape(self, shape):
        orig = self.data.shape
        return _op(self.data.reshape(shape), (self,), (lambda g: g.reshape(orig),))

    # -- reductions -------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        return self._reduce(axis, keepdims, mean=False)

    def mean(self, axis=None, keepdims=False):
        return self._reduce(axis, keepdims, mean=True)

    def _reduce(self, axis, keepdims, mean):
        """The sum, or with ``mean`` the mean, over ``axis``; the gradient
        broadcasts back over the reduced axes, divided by their extent for
        a mean."""
        shape = self.data.shape
        axes = _normalize_axes(axis, len(shape))
        n = self.data.size if axes is None else math.prod(shape[ax] for ax in axes)
        if mean and n == 0:
            raise ShapeError("mean over an empty extent")
        out = (self.data.mean if mean else self.data.sum)(axis=axes, keepdims=keepdims)

        def grad(g):
            g = np.asarray(g)
            if axes is not None and not keepdims:
                g = np.expand_dims(g, axes)
            g = np.broadcast_to(g, shape)
            return g / n if mean else g

        return _op(out, (self,), (grad,))


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------


def _activation_mask(d, slope):
    return d > 0.0 if slope == 0.0 else np.where(d > 0.0, 1.0, slope)


def activate(t, slope):
    """Relu (``slope`` 0.0) or leaky relu (``slope`` > 0) applied in place
    to ``t``, the fresh result of one op, with no graph node of its own.

    ``t.data`` is multiplied by the mask ``d > 0`` or ``where(d > 0, 1,
    slope)``.  With ``slope >= 0`` the output is positive exactly where
    the input was, so backward recomputes the mask from the output:
    ``t``'s closure is wrapped to multiply the incoming gradient by it
    before the producing op's closure runs.  Safe only on a result that
    no other op has read yet and whose own closure does not read it, such
    as the output of :func:`conv2d`, :func:`normalize` or
    ``sgs.network.SIModule.forward``.  Returns ``t``.
    """
    if not slope >= 0.0:
        raise ValueError(f"activate needs slope >= 0, got {slope}")
    node = t._node
    if node.requires_grad and node.backward is None:
        raise ValueError("activate cannot overwrite a leaf that records a gradient")
    d = t.data
    d *= _activation_mask(d, slope)
    producer = node.backward
    if producer is not None:
        def bw(g):
            producer(g * _activation_mask(d, slope))

        node.backward = bw
    return t


def _sigmoid_stable(d):
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ed = np.exp(d[~pos])
    out[~pos] = ed / (1.0 + ed)
    return out


def tanh(x):
    t = np.tanh(x.data)
    return _op(t, (x,), (lambda g: g * (1.0 - t * t),))


def softplus(x):
    """log(1 + exp(x)) computed without overflow; softplus(0) == log 2."""
    d = x.data
    s = _sigmoid_stable(d)
    out = np.maximum(d, 0.0) + np.log1p(np.exp(-np.abs(d)))
    return _op(out, (x,), (lambda g: g * s,))


def softmax(x, axis):
    _normalize_axes(axis, x.data.ndim)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    return _op(s, (x,), (lambda g: s * (g - (g * s).sum(axis=axis, keepdims=True)),))


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


def concat(tensors, axis=0):
    ts = [_promote(t) for t in tensors]
    if not ts:
        raise ShapeError("concat of an empty sequence")
    ndim = ts[0].data.ndim
    axes = _normalize_axes(axis, ndim)
    ax = axes[0]
    for t in ts[1:]:
        if t.data.ndim != ndim:
            raise ShapeError(f"concat rank mismatch: {ndim} vs {t.data.ndim}")
        for d in range(ndim):
            if d != ax and t.data.shape[d] != ts[0].data.shape[d]:
                raise ShapeError(
                    f"concat dim {d} mismatch: {ts[0].data.shape} vs {t.data.shape}"
                )
    data = np.concatenate([t.data for t in ts], axis=ax)
    offsets = np.cumsum([t.data.shape[ax] for t in ts])[:-1]
    nodes = tuple(t._node for t in ts)

    def bw(g):
        for node, piece in zip(nodes, np.split(g, offsets, axis=ax)):
            _accumulate(node, piece)

    return _result(data, nodes, bw)


# Byte budget of one tile of im2col columns, ``[C*kh*kw, rows*Wo]``, and
# of the input rows a band of tiles stages.  Sized from a sweep of the
# paper-scale (256 px, depth 7) and desk (64 px, depth 5) conv shapes on a
# 2 MiB-L2 core; see CHANGES.md.
_TILE_BYTES = 512 * 1024


def _tile_rows(kdim, ho, wo):
    """Output rows per tile: as many as keep ``[kdim, rows*Wo]`` columns
    within ``_TILE_BYTES``, at least one, at most ``ho``."""
    return max(1, min(ho, _TILE_BYTES // (8 * kdim * wo)))


def _tiles(src, top, left, kh, kw, stride, ho, wo):
    """Yield ``(b, span, cols)`` for each tile of the im2col columns of
    ``src``, ``[N, C, H, W]``, extended by zeros on every side.

    Output ``(i, j)``'s ``kh x kw`` window starts at row ``top + i*stride``
    and column ``left + j*stride`` of ``src``; a window row or column
    outside ``src`` reads zeros.  Each sample's ``Ho`` output rows are cut
    into tiles of :func:`_tile_rows` rows, and a tile's channel-major
    columns, ``cols`` ``[C*kh*kw, r*Wo]``, are built into one reused
    scratch buffer; ``span`` slices its rows out of a flat ``Ho*Wo`` axis.

    No padded copy of ``src`` is built.  The tiles are taken a band at a
    time, a band being a run of whole tiles (one at least) whose input
    rows fit within ``_TILE_BYTES``.  Those rows are copied into one
    staging buffer, whose zero column borders are written once and whose
    rows outside ``src`` are zeroed per band, and each tile's columns are
    cut from it.  An input row is copied once per band that reads it.
    """
    n, c, h, w = src.shape
    kdim = c * kh * kw
    rows = _tile_rows(kdim, ho, wo)
    width = (wo - 1) * stride + kw
    fit = _TILE_BYTES // (8 * c * width)  # input rows within the budget
    band = min(max(1, (fit - kh + stride) // (rows * stride)) * rows, ho)
    stage = np.zeros((c, (band - 1) * stride + kh, width))
    sc, sh, sw = stage.strides
    win = np.lib.stride_tricks.as_strided(  # [C, kh, kw, band, Wo] windows
        stage, (c, kh, kw, band, wo), (sc, sh, sw, stride * sh, stride * sw), writeable=False)
    c0 = max(left, 0)
    c1 = max(min(left + width, w), c0)
    scratch = np.empty(kdim * rows * wo)
    for b in range(n):
        for b0 in range(0, ho, band):
            # Stage row i is src row t + i; rows outside src are zeros.
            t, nrows = top + b0 * stride, (min(band, ho - b0) - 1) * stride + kh
            lo = min(max(-t, 0), nrows)
            hi = max(min(h - t, nrows), lo)
            stage[:, :lo] = 0.0
            stage[:, lo:hi, c0 - left : c1 - left] = src[b, :, t + lo : t + hi, c0:c1]
            stage[:, hi:nrows] = 0.0
            for r0 in range(b0, min(b0 + band, ho), rows):
                r = min(rows, ho - r0)
                cols = scratch[: kdim * r * wo].reshape(kdim, r * wo)
                cols.reshape(c, kh, kw, r, wo)[...] = win[:, :, :, r0 - b0 : r0 - b0 + r]
                yield b, slice(r0 * wo, (r0 + r) * wo), cols


def _correlate(src, top, left, kmat, kh, kw, stride, out, x=None):
    """Write the correlation of ``src``, zero-extended as :func:`_tiles`
    reads it, with ``kmat``, ``[Cout, C*kh*kw]``, into ``out``, ``[N,
    Cout, Ho, Wo]``: one ``kmat @ cols`` per tile, straight into its rows
    of ``out``.  Given ``x``, ``[N, Cx, Ho, Wo]``, also returns ``cols @
    x_rows.T`` summed over the tiles, ``[C*kh*kw, Cx]``, where ``x_rows``
    are the tile's rows of ``x``; otherwise None."""
    n, cout, ho, wo = out.shape
    out3 = out.reshape(n, cout, ho * wo)
    x3 = None if x is None else x.reshape(n, -1, ho * wo)
    acc = None
    for b, span, cols in _tiles(src, top, left, kh, kw, stride, ho, wo):
        np.matmul(kmat, cols, out=out3[b, :, span])
        if x3 is not None:
            part = cols @ x3[b, :, span].T
            if acc is None:
                acc = part
            else:
                acc += part
    return acc


def _phase_spans(size, padding, stride):
    """One axis of the input gradient's sub-pixel phases: padded position
    ``q*stride + r`` is in phase ``r``.  Returns, per phase, the first
    ``q`` inside the unpadded input and how many there are."""
    spans = []
    for r in range(stride):
        q0 = (padding - r + stride - 1) // stride
        spans.append((q0, (padding + size - 1 - r) // stride + 1 - q0))
    return spans


def _conv_kernel_grad(g, x, kshape, stride, padding):
    """Kernel gradient of a conv, ``[Cout, Cin, kh, kw]``, from the output
    gradient ``g`` and the unpadded input ``x``: each tile of the padded
    input's columns adds ``g_tile @ cols.T``."""
    n, cout, ho, wo = g.shape
    g3 = np.ascontiguousarray(g).reshape(n, cout, ho * wo)
    gk = None
    for b, span, cols in _tiles(x, -padding, -padding, *kshape[2:], stride, ho, wo):
        part = g3[b, :, span] @ cols.T
        if gk is None:
            gk = part
        else:
            gk += part
    return gk.reshape(kshape)


def _conv_input_grad(g, kernel, stride, padding, h, w, x=None):
    """Gradient of a conv with respect to its unpadded input, ``[N, Cin,
    H, W]``, from the output gradient ``g``, ``[N, Cout, Ho, Wo]``.

    Computed as a gather.  Along one axis, padded row ``q*stride + r``
    gets ``sum_t kernel[r + t*stride] * g[q - t]``: for each of the
    stride x stride phases ``(r_h, r_w)`` a stride-1 correlation of ``g``,
    zero-extended, with that phase's taps flipped and transposed to
    ``[Cin, Cout*th*tw]``; the phase's windows of ``g`` are
    :func:`_tiles` starting at ``q - th + 1``.  The kernel is laid out
    once, its taps zero-padded to a multiple of the stride, so that each
    phase's matrix is one contiguous block.  A phase with no taps gets
    zeros.  Stride 1 has one phase, written straight into the gradient;
    a larger stride's phases are written in turn into one buffer, each
    then copied to its rows and columns of the gradient.

    Returns ``(gx, gk)``.  ``gk`` is None unless ``x``, the conv's
    unpadded input, is given, which only a stride-1 conv may do: then the
    one phase's tiles of ``g``, ``cols`` ``[Cout*kh*kw, rows*W]``, also
    give the kernel gradient with its taps flipped, ``cols @ x_rows.T``
    summed over the tiles by :func:`_correlate`, where ``x_rows`` ``[Cin,
    rows*W]`` are the input rows the tile's gradient rows land on.
    """
    n, cout, ho, wo = g.shape
    cin, kh, kw = kernel.shape[1:]
    s = stride
    th, tw = -(-kh // s), -(-kw // s)
    kp = kernel
    if (th * s, tw * s) != (kh, kw):
        kp = np.zeros((cout, cin, th * s, tw * s))
        kp[:, :, :kh, :kw] = kernel
    # [s, s, Cout*th*tw, Cin]: one block per phase, its taps flipped.  Cin
    # innermost makes this copy fast; BLAS reads each block transposed.
    km = kp.reshape(cout, cin, th, s, tw, s)[:, :, ::-1, :, ::-1].transpose(3, 5, 0, 2, 4, 1)
    km = np.ascontiguousarray(km).reshape(s, s, cout * th * tw, cin)

    gx = np.empty((n, cin, h, w))
    # A larger stride's phases take turns in one buffer: none has more than
    # ceil(H/s) x ceil(W/s) positions.
    buf = None if s == 1 else np.empty(n * cin * -(-h // s) * -(-w // s))
    gkf = None
    for rh, (qh, nh) in enumerate(_phase_spans(h, padding, s)):
        for rw, (qw, nw) in enumerate(_phase_spans(w, padding, s)):
            if nh <= 0 or nw <= 0:
                continue
            dst = gx[:, :, qh * s + rh - padding :: s, qw * s + rw - padding :: s]
            if rh >= kh or rw >= kw:
                dst[...] = 0.0
                continue
            out = gx if s == 1 else buf[: n * cin * nh * nw].reshape(n, cin, nh, nw)
            gkf = _correlate(g, qh - th + 1, qw - tw + 1, km[rh, rw].T, th, tw, 1, out, x)
            if out is not gx:
                dst[...] = out
    if gkf is None:
        return gx, None
    gk = gkf.reshape(cout, kh, kw, cin)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
    return gx, np.ascontiguousarray(gk)


def conv2d(x, kernel, bias=None, stride=1, padding=0):
    """2-D cross-correlation over [N, C, H, W] with square stride/padding.

    Implemented as row-tiled im2col plus matrix products so that the
    heavy lifting stays inside BLAS while the column buffer stays small.
    Every tile of columns, forward and backward, comes from
    :func:`_tiles`, which stages bounded bands of input rows and builds
    no padded copy of anything; :func:`_correlate` writes ``kmat @ cols``
    straight into the ``[N, Cout, Ho, Wo]`` output.

    The backward closure keeps references, never copies: the kernel's
    values and, when the kernel records a gradient, the input's values,
    both taken at forward time (``adam_step`` rebinds ``.data``), plus
    the shapes.  The input gradient is a gather, not a scatter-add:
    :func:`_conv_input_grad` correlates the zero-extended output gradient
    with the flipped, transposed kernel, one sub-pixel phase per stride x
    stride offset, and returns the ``[N, Cin, H, W]`` gradient as one
    C-contiguous array.  The kernel gradient is summed tile by tile from
    one of two tile sources, chosen from the shapes and
    ``x.requires_grad`` alone: a stride-1 conv with ``Cout <= Cin`` whose
    input needs a gradient reads it off the output-gradient tiles the
    input gradient already builds; every other conv builds tiles of its
    input again in backward.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError(
            f"conv2d wants 4-D input and kernel, got {x.data.shape} and {kernel.data.shape}"
        )
    if not isinstance(stride, int) or stride < 1:
        raise ShapeError(f"stride must be a positive int, got {stride!r}")
    if not isinstance(padding, int) or padding < 0:
        raise ShapeError(f"padding must be a non-negative int, got {padding!r}")
    n, cin, h, w = x.data.shape
    cout, kcin, kh, kw = kernel.data.shape
    if kcin != cin:
        raise ShapeError(f"kernel expects {kcin} input channels, input has {cin}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(
            f"kernel {kh}x{kw} does not fit padded input {h + 2 * padding}x{w + 2 * padding}"
        )
    if bias is not None and bias.data.shape != (cout,):
        raise ShapeError(f"bias shape {bias.data.shape} != ({cout},)")

    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    kdata = kernel.data
    out = np.empty((n, cout, ho, wo))
    kmat = kdata.reshape(cout, cin * kh * kw)
    _correlate(x.data, -padding, -padding, kmat, kh, kw, stride, out)
    if bias is not None:
        out += bias.data.reshape(1, cout, 1, 1)

    nx, nk = x._node, kernel._node
    nb = None if bias is None else bias._node
    kx = x.data if nk.requires_grad else None
    # The output-gradient tiles have Cout*kh*kw rows, the input's Cin*kh*kw;
    # reuse the former, built anyway for the input gradient, unless larger.
    from_g = stride == 1 and cout <= cin

    def bw(g):
        if nb is not None and nb.requires_grad:
            _accumulate(nb, g.sum(axis=(0, 2, 3)))
        gk = None
        if nx.requires_grad:
            gx, gk = _conv_input_grad(g, kdata, stride, padding, h, w,
                                      kx if from_g else None)
            _accumulate(nx, gx)
        if kx is not None:
            if gk is None:
                gk = _conv_kernel_grad(g, kx, kdata.shape, stride, padding)
            _accumulate(nk, gk)

    return _result(out, (nx, nk) if nb is None else (nx, nk, nb), bw)


def upsample_nearest(x, factor):
    """Repeat each pixel factor x factor; gradient sums each block back."""
    if x.data.ndim != 4:
        raise ShapeError(f"upsample_nearest wants 4-D input, got {x.data.shape}")
    if not isinstance(factor, int) or factor < 1:
        raise ShapeError(f"factor must be a positive int, got {factor!r}")
    n, c, h, w = x.data.shape
    out = np.repeat(np.repeat(x.data, factor, axis=2), factor, axis=3)
    return _op(out, (x,), (lambda g: g.reshape(n, c, h, factor, w, factor).sum(axis=(3, 5)),))


def avg_pool2d(x, factor):
    """Non-overlapping factor x factor mean pooling."""
    if x.data.ndim != 4:
        raise ShapeError(f"avg_pool2d wants 4-D input, got {x.data.shape}")
    if not isinstance(factor, int) or factor < 1:
        raise ShapeError(f"factor must be a positive int, got {factor!r}")
    n, c, h, w = x.data.shape
    if h % factor or w % factor:
        raise ShapeError(f"spatial size {h}x{w} not divisible by pool factor {factor}")
    out = x.data.reshape(n, c, h // factor, factor, w // factor, factor).mean(axis=(3, 5))

    def grad(g):
        return np.repeat(np.repeat(g, factor, axis=2), factor, axis=3) / (factor * factor)

    return _op(out, (x,), (grad,))


def _instance_norm(x):
    """``(y, m, s)``: ``y = (x - m) / s`` with ``m`` the mean and ``s =
    sqrt(var + 1e-5)``, both statistics taken per (sample, channel) over
    axes (2, 3) and shaped ``[N, C, 1, 1]``."""
    if x.ndim != 4:
        raise ShapeError(f"normalize wants 4-D input, got {x.shape}")
    m = x.mean(axis=(2, 3), keepdims=True)
    centered = x - m
    v = (centered * centered).mean(axis=(2, 3), keepdims=True)
    s = (v + 1e-5) ** 0.5
    centered /= s
    return centered, m, s


def _instance_norm_output(x, m, s):
    """:func:`_instance_norm`'s ``y`` rebuilt from its input and kept
    statistics in two passes, bit for bit the forward's."""
    y = x - m
    y /= s
    return y


def _instance_norm_grad(g, y, s):
    """Input gradient of :func:`_instance_norm` from the output gradient
    ``g``: ``(g - mean(g) - y*mean(g*y)) / s`` over axes (2, 3)."""
    gy = g * y
    out = g - g.mean(axis=(2, 3), keepdims=True)
    out -= np.multiply(y, gy.mean(axis=(2, 3), keepdims=True), out=gy)
    out /= s
    return out


def normalize(x):
    """Zero-mean unit-variance instance normalization over spatial extents.

    Each (sample, channel) slice is normalized with its own statistics.
    Constant slices map to exactly zero.  One graph node, whose backward
    is the closed-form instance-norm gradient.  The closure keeps only
    the ``[N, C, 1, 1]`` mean and scale and rebuilds the output from the
    input, so it never reads the output, which :func:`activate` may
    overwrite.
    """
    xd = x.data
    y, m, s = _instance_norm(xd)
    return _op(y, (x,),
               (lambda g: _instance_norm_grad(g, _instance_norm_output(xd, m, s), s),))


# ---------------------------------------------------------------------------
# parameters and optimization
# ---------------------------------------------------------------------------


class Parameter(Tensor):
    """A trainable tensor: the leaf type ``Module.named_params`` collects
    and ``Module.freeze`` switches.  It holds its value and gradient
    only; optimizer state lives in :class:`Adam`."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Adam:
    """Adam's state for a fixed list of parameters (Kingma & Ba 2015):
    one first- and one second-moment array per parameter, C-order zeros
    at the start, and one step count shared by all of them.
    :func:`adam_step` advances it."""

    def __init__(self, params, beta1=0.5, beta2=0.999):
        self.params = list(params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.m1 = [np.zeros(p.data.shape) for p in self.params]
        self.m2 = [np.zeros(p.data.shape) for p in self.params]
        self.step = 0


# Elements per block of :func:`adam_step`.  A block touches seven arrays
# of this many float64s (gradient, two moments, old and new weights and
# two scratch buffers), 1.75 MiB, within a 2 MiB L2.
_ADAM_BLOCK = 32 * 1024


def adam_step(opt, lr):
    """One bias-corrected Adam update of ``opt.params`` (in place).

    The moments are updated in their own buffers, in the operation order
    of ``m1 = beta1*m1 + (1-beta1)*g``, ``m2 = beta2*m2 + (1-beta2)*(g*g)``
    and ``data - lr*mhat / (sqrt(vhat) + 1e-8)``, so the bytes match that
    formula.  Each parameter is worked through in blocks of
    ``_ADAM_BLOCK`` elements, every pass of the formula over one block
    before the next, so a block stays in cache; the whole call allocates
    two block-sized scratch buffers and, per parameter, its new weights.
    ``p.data`` is rebound to those, never written: a graph recorded
    before the step may still read the old array.  Each ``p.grad`` is
    released (set to None) once it has been applied, so the next step
    starts from no gradient and a step holds no gradient past its own
    update.

    A parameter with no accumulated gradient is rejected before anything
    moves: that always means a bookkeeping bug, never a legitimate no-op.
    """
    for p in opt.params:
        if p.grad is None:
            raise ValueError("adam_step found a parameter with no gradient")
    opt.step += 1
    beta1, beta2, step = opt.beta1, opt.beta2, opt.step
    n = min(_ADAM_BLOCK, max((p.data.size for p in opt.params), default=0))
    tmp, vhat = np.empty(n), np.empty(n)
    for p, m1, m2 in zip(opt.params, opt.m1, opt.m2):
        new = np.empty(p.data.shape)
        # ravel is a view of the C-order weights and moments; it copies
        # only a gradient that backward left in another order.
        flat = [np.ravel(a) for a in (p.grad, m1, m2, p.data, new)]
        for lo in range(0, new.size, _ADAM_BLOCK):
            g, a, b, old, out = (x[lo:lo + _ADAM_BLOCK] for x in flat)
            t, v = tmp[:len(g)], vhat[:len(g)]
            np.multiply(1.0 - beta1, g, out=t)
            a *= beta1
            a += t
            np.multiply(g, g, out=t)
            t *= 1.0 - beta2
            b *= beta2
            b += t
            np.divide(a, 1.0 - beta1 ** step, out=t)
            np.divide(b, 1.0 - beta2 ** step, out=v)
            np.sqrt(v, out=v)
            v += 1e-8
            t *= lr
            t /= v
            np.subtract(old, t, out=out)
        p.data = new
        p.grad = None


def lr_at_epoch(base_lr, epoch, total_epochs):
    """Constant for the first half of training, then linear decay toward 0.

    ``epoch`` counts from 0.  With 2 epochs this yields base_lr then
    base_lr / 2; the final epoch of any schedule keeps a positive rate.
    """
    half = total_epochs // 2
    decay_span = total_epochs - half
    over = max(0, epoch + 1 - half)
    return base_lr * (1.0 - over / float(decay_span + 1))


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"SGS1"


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """Write ``path`` through a temp file beside it: on a clean exit the
    temp file is flushed to disk and replaces ``path`` in one
    ``os.replace``; if the body raises it is removed and ``path`` keeps
    its previous bytes.  Text modes write UTF-8."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_checkpoint(path, entries):
    """Write named float64 arrays to the flat binary container format;
    returns the sha256 (hex) of the bytes written.

    Layout: magic ``SGS1`` then, per entry, u32-LE name length, UTF-8
    name, u32-LE rank, u32-LE dims, raw little-endian float64 data.
    Each array's data is written, and hashed, from its own buffer; only
    an array that is not C-ordered little-endian float64 is converted
    first.  Written atomically, through :func:`atomic_open`.
    """
    digest = hashlib.sha256()
    with atomic_open(path, "wb") as f:

        def put(chunk):
            f.write(chunk)
            digest.update(chunk)

        put(CHECKPOINT_MAGIC)
        for name, arr in entries:
            a = np.asarray(arr, dtype="<f8", order="C")  # keeps rank 0
            nb = name.encode("utf-8")
            put(struct.pack(f"<I{len(nb)}sI{a.ndim}I", len(nb), nb, a.ndim, *a.shape))
            put(a)
    return digest.hexdigest()


def load_checkpoint(path):
    """Read a checkpoint container; returns an ordered name -> array dict
    and the sha256 (hex) of the bytes read.

    The file is opened and read once: each entry's data goes straight
    into the C-order float64 array returned for it, and every byte read
    is hashed on the way, so the digest covers exactly the bytes parsed.
    """
    digest = hashlib.sha256()
    out = {}
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def fits(n):
            if f.tell() + n > size:
                raise ValueError(f"needs {n} more bytes, {size - f.tell()} left")

        def take(n):
            fits(n)
            chunk = f.read(n)
            digest.update(chunk)
            return chunk

        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: bad checkpoint magic {magic!r}")
        digest.update(magic)
        while f.tell() < size:
            entry = f.tell()
            try:
                (nlen,) = struct.unpack("<I", take(4))
                name = take(nlen).decode("utf-8")
                (rank,) = struct.unpack("<I", take(4))
                shape = struct.unpack(f"<{rank}I", take(4 * rank))
                fits(8 * math.prod(shape))  # before allocating: dims may be corrupt
                arr = np.empty(shape, dtype="<f8")
                if f.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                    raise ValueError("file shrank while being read")
            except ValueError as err:
                raise ValueError(
                    f"{path}: truncated or corrupt checkpoint entry at byte {entry}: {err}"
                ) from err
            digest.update(arr)
            if name in out:
                raise ValueError(f"{path}: duplicate checkpoint entry {name!r}")
            out[name] = arr.astype(np.float64, copy=False)
    return out, digest.hexdigest()


def checkpoint_entry(blob, name, path):
    """The entry ``name`` of a :func:`load_checkpoint` dict; ``KeyError``
    naming ``path`` if it is missing."""
    if name not in blob:
        raise KeyError(f"{path}: checkpoint missing parameter {name!r}")
    return blob[name]


def restore_params(blob, named_params, path):
    """Restore (name, Parameter) pairs, by name, from the dict
    :func:`load_checkpoint` read; ``path`` names it in errors.  Each
    parameter is rebound to the dict's own array, not a copy: no step
    writes a parameter's array in place (:func:`adam_step` rebinds).

    A missing entry raises ``KeyError``, as does the first entry that
    names no parameter (an Adam moment or ``.step`` entry that older
    versions saved among them); a value of the wrong shape
    ``ShapeError``; a non-finite one ``ValueError``.
    """
    names = set()
    for name, p in named_params:
        names.add(name)
        arr = checkpoint_entry(blob, name, path)
        if arr.shape != p.data.shape:
            raise ShapeError(
                f"{path}: checkpoint entry {name!r} has shape {arr.shape}, "
                f"expected {p.data.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: checkpoint entry {name!r} holds non-finite values")
        p.data = arr
        p.grad = None
    for key in blob:
        if key not in names:
            raise KeyError(f"{path}: checkpoint entry {key!r} names no parameter")
