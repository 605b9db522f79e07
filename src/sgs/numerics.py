"""Dense float64 tensors with reverse-mode differentiation.

Every value the synthesis pipeline touches -- activations, losses, graph
nodes -- lives in the :class:`Tensor` type below.  Operations record
parent links as they execute; ``backward()`` replays the implicit tape in
reverse topological order and accumulates gradients additively into every
leaf that asked for them.  Desk scale keeps the design deliberately
small: 64-bit floats, a single thread, no in-place mutation of anything
that participates in a recorded graph (the optimizer update on parameter
storage between steps is the one sanctioned exception).
"""
from __future__ import annotations

import contextlib
import os
import struct

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


# ---------------------------------------------------------------------------
# core tensor type
# ---------------------------------------------------------------------------


def _accumulate(t, g):
    """Add gradient ``g`` into ``t.grad`` without mutating either array."""
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


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


def _result(data, parents, backward):
    """Build an op result, recording the graph only when a parent needs it."""
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data, dtype=np.float64)
    out.grad = None
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _toposort(root):
    """Parents-before-children ordering of the ancestors of ``root``."""
    order = []
    visited = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if p.requires_grad and id(p) not in visited:
                visited.add(id(p))
                stack.append((p, iter(p._parents)))
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

    Constructors reject non-finite values; downstream numerical blowups
    are the caller's responsibility to detect (the trainer checks its
    loss scalars every step).
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("Tensor rejects non-finite values (NaN/Inf)")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    # -- introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    # -- autodiff -------------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into every requires_grad leaf.

        Only scalar roots are accepted; running twice on fresh graphs is
        the caller's concern (grads add, they are never reset here).
        """
        if self.data.size != 1:
            raise ShapeError(f"backward needs a scalar root, got shape {self.data.shape}")
        if not self.requires_grad:
            return
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def detach(self):
        """A view of the same values severed from the recorded graph."""
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.requires_grad = False
        out.grad = None
        out._parents = ()
        out._backward = None
        return out

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        a, b = self, _promote(other)

        def bw(g):
            _accumulate(a, _unbroadcast(g, a.data.shape))
            _accumulate(b, _unbroadcast(g, b.data.shape))

        return _result(a.data + b.data, (a, b), bw)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def bw(g):
            _accumulate(a, -g)

        return _result(-a.data, (a,), bw)

    def __sub__(self, other):
        return self + (-_promote(other))

    def __rsub__(self, other):
        return _promote(other) + (-self)

    def __mul__(self, other):
        a, b = self, _promote(other)

        def bw(g):
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

        return _result(a.data * b.data, (a, b), bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, _promote(other)

        def bw(g):
            _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

        return _result(a.data / b.data, (a, b), bw)

    def __rtruediv__(self, other):
        return _promote(other) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a, e = self, float(exponent)

        def bw(g):
            _accumulate(a, g * e * a.data ** (e - 1.0))

        return _result(a.data ** e, (a,), bw)

    def abs(self):
        a = self
        sign = np.sign(a.data)

        def bw(g):
            _accumulate(a, g * sign)

        return _result(np.abs(a.data), (a,), bw)

    # -- shape ops --------------------------------------------------------

    def reshape(self, shape):
        a = self
        orig = a.data.shape

        def bw(g):
            _accumulate(a, g.reshape(orig))

        return _result(a.data.reshape(shape), (a,), bw)

    # -- reductions -------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self
        axes = _normalize_axes(axis, a.data.ndim)
        out = a.data.sum(axis=axes, keepdims=keepdims)

        def bw(g):
            gg = np.asarray(g)
            if axes is not None and not keepdims:
                for ax in axes:
                    gg = np.expand_dims(gg, ax)
            _accumulate(a, np.broadcast_to(gg, a.data.shape))

        return _result(out, (a,), bw)

    def mean(self, axis=None, keepdims=False):
        a = self
        axes = _normalize_axes(axis, a.data.ndim)
        if axes is None:
            n = a.data.size
        else:
            n = 1
            for ax in axes:
                n *= a.data.shape[ax]
        if n == 0:
            raise ShapeError("mean over an empty extent")
        out = a.data.mean(axis=axes, keepdims=keepdims)

        def bw(g):
            gg = np.asarray(g)
            if axes is not None and not keepdims:
                for ax in axes:
                    gg = np.expand_dims(gg, ax)
            _accumulate(a, np.broadcast_to(gg, a.data.shape) / n)

        return _result(out, (a,), bw)


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------


def relu(x):
    mask = x.data > 0.0

    def bw(g):
        _accumulate(x, g * mask)

    return _result(x.data * mask, (x,), bw)


def leaky_relu(x, slope=0.2):
    factor = np.where(x.data > 0.0, 1.0, slope)

    def bw(g):
        _accumulate(x, g * factor)

    return _result(x.data * factor, (x,), bw)


def _sigmoid_stable(d):
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ed = np.exp(d[~pos])
    out[~pos] = ed / (1.0 + ed)
    return out


def sigmoid(x):
    s = _sigmoid_stable(x.data)

    def bw(g):
        _accumulate(x, g * s * (1.0 - s))

    return _result(s, (x,), bw)


def tanh(x):
    t = np.tanh(x.data)

    def bw(g):
        _accumulate(x, g * (1.0 - t * t))

    return _result(t, (x,), bw)


def softplus(x):
    """log(1 + exp(x)) computed without overflow; softplus(0) == log 2."""
    d = x.data
    s = _sigmoid_stable(d)
    out = np.maximum(d, 0.0) + np.log1p(np.exp(-np.abs(d)))

    def bw(g):
        _accumulate(x, g * s)

    return _result(out, (x,), bw)


def exp(x):
    e = np.exp(x.data)

    def bw(g):
        _accumulate(x, g * e)

    return _result(e, (x,), bw)


def log(x):
    def bw(g):
        _accumulate(x, g / x.data)

    return _result(np.log(x.data), (x,), bw)


def square(x):
    return x * x


def clip(x, lo, hi):
    """Clamp to [lo, hi]; gradient passes only where the input is inside."""
    mask = (x.data >= lo) & (x.data <= hi)

    def bw(g):
        _accumulate(x, g * mask)

    return _result(np.clip(x.data, lo, hi), (x,), bw)


def softmax(x, axis):
    _normalize_axes(axis, x.data.ndim)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        _accumulate(x, s * (g - (g * s).sum(axis=axis, keepdims=True)))

    return _result(s, (x,), bw)


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

    def bw(g):
        for t, piece in zip(ts, np.split(g, offsets, axis=ax)):
            _accumulate(t, piece)

    return _result(data, tuple(ts), bw)


def split(x, sizes, axis=0):
    """Cut ``x`` along ``axis`` into pieces of the given ``sizes``; the
    inverse of :func:`concat`."""
    ax = _normalize_axes(axis, x.data.ndim)[0]
    sizes = [int(s) for s in sizes]
    if any(s < 1 for s in sizes) or sum(sizes) != x.data.shape[ax]:
        raise ShapeError(f"split sizes {sizes} do not cover axis {ax} of {x.data.shape}")
    pieces = []
    start = 0
    for size in sizes:
        idx = (slice(None),) * ax + (slice(start, start + size),)

        def bw(g, idx=idx):
            full = np.zeros(x.data.shape)
            full[idx] = g
            _accumulate(x, full)

        pieces.append(_result(x.data[idx], (x,), bw))
        start += size
    return pieces


# Byte budget of one tile of im2col columns, ``[Cin*kh*kw, rows*Wo]``.
# Sized from a sweep of the paper-scale (256 px, depth 7) and desk
# (64 px, depth 5) conv shapes on a 2 MiB-L2 core; see CHANGES.md.
_TILE_BYTES = 512 * 1024


def _windows(xp, kh, kw, stride, ho, wo):
    """Read-only ``[N, Cin, kh, kw, Ho, Wo]`` view of every kernel window
    of the padded input ``xp``: the im2col columns, not yet copied."""
    sn, sc, sh, sw = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, xp.shape[:2] + (kh, kw, ho, wo),
        (sn, sc, sh, sw, stride * sh, stride * sw), writeable=False)


def conv2d(x, kernel, bias=None, stride=1, padding=0):
    """2-D cross-correlation over [N, C, H, W] with square stride/padding.

    Implemented as row-tiled im2col plus matrix products so that the
    heavy lifting stays inside BLAS while the column buffer stays small.
    The input is padded once into a zero-filled buffer.  Each sample's
    output rows are cut into tiles whose channel-major columns,
    ``[Cin*kh*kw, rows*Wo]``, fit ``_TILE_BYTES`` (at least one row a
    tile); each tile is built into one reused scratch buffer and
    ``kmat @ cols`` is written straight into the ``[N, Cout, Ho, Wo]``
    output.

    The backward closure keeps the kernel matrix and the shapes.  When
    the kernel records a gradient it also keeps the padded input (kh*kw
    times smaller than the columns), from which backward rebuilds each
    tile to add up the kernel gradient tile by tile.  A frozen kernel
    keeps nothing more: the input gradient needs only ``kmat.T @ g``,
    scattered tile by tile into the zero-filled padded gradient.
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

    hp, wp = h + 2 * padding, w + 2 * padding
    if padding:
        xp = np.zeros((n, cin, hp, wp))
        xp[:, :, padding : padding + h, padding : padding + w] = x.data
    else:
        xp = x.data
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    kdim = cin * kh * kw
    rows = max(1, min(ho, _TILE_BYTES // (8 * kdim * wo)))
    tiles = [(b, r0, min(rows, ho - r0)) for b in range(n) for r0 in range(0, ho, rows)]
    scratch = np.empty(kdim * rows * wo)

    kmat = kernel.data.reshape(cout, kdim)
    win = _windows(xp, kh, kw, stride, ho, wo)
    out = np.empty((n, cout, ho, wo))
    out3 = out.reshape(n, cout, ho * wo)
    for b, r0, r in tiles:
        cols = scratch[: kdim * r * wo].reshape(kdim, r * wo)
        cols.reshape(cin, kh, kw, r, wo)[...] = win[b, :, :, :, r0 : r0 + r]
        np.matmul(kmat, cols, out=out3[b, :, r0 * wo : (r0 + r) * wo])
    if bias is not None:
        out += bias.data.reshape(1, cout, 1, 1)

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    kwin = win if kernel.requires_grad else None

    def bw(g):
        g3 = np.ascontiguousarray(g).reshape(n, cout, ho * wo)
        buf = np.empty(kdim * rows * wo)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 2, 3)))
        if kwin is not None:
            gk = None
            for b, r0, r in tiles:
                cols = buf[: kdim * r * wo].reshape(kdim, r * wo)
                cols.reshape(cin, kh, kw, r, wo)[...] = kwin[b, :, :, :, r0 : r0 + r]
                part = g3[b, :, r0 * wo : (r0 + r) * wo] @ cols.T
                if gk is None:
                    gk = part
                else:
                    gk += part
            _accumulate(kernel, gk.reshape(kernel.data.shape))
        if x.requires_grad:
            gxp = np.zeros((n, cin, hp, wp))
            for b, r0, r in tiles:
                gcols = buf[: kdim * r * wo].reshape(kdim, r * wo)
                np.matmul(kmat.T, g3[b, :, r0 * wo : (r0 + r) * wo], out=gcols)
                g6 = gcols.reshape(cin, kh, kw, r, wo)
                gxs = gxp[b]
                top = r0 * stride
                he = stride * (r - 1) + 1
                we = stride * (wo - 1) + 1
                for i in range(kh):
                    for j in range(kw):
                        gxs[:, top + i : top + i + he : stride, j : j + we : stride] += g6[:, i, j]
            if padding:
                gxp = gxp[:, :, padding : padding + h, padding : padding + w]
            _accumulate(x, gxp)

    return _result(out, parents, bw)


def upsample_nearest(x, factor):
    """Repeat each pixel factor x factor; gradient sums each block back."""
    if x.data.ndim != 4:
        raise ShapeError(f"upsample_nearest wants 4-D input, got {x.data.shape}")
    if not isinstance(factor, int) or factor < 1:
        raise ShapeError(f"factor must be a positive int, got {factor!r}")
    n, c, h, w = x.data.shape
    out = np.repeat(np.repeat(x.data, factor, axis=2), factor, axis=3)

    def bw(g):
        _accumulate(x, g.reshape(n, c, h, factor, w, factor).sum(axis=(3, 5)))

    return _result(out, (x,), bw)


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

    def bw(g):
        gg = np.repeat(np.repeat(g, factor, axis=2), factor, axis=3)
        _accumulate(x, gg / (factor * factor))

    return _result(out, (x,), bw)


def normalize(x, eps=1e-5, stats="instance"):
    """Zero-mean unit-variance normalization over spatial extents.

    ``stats="instance"`` normalizes each (sample, channel) slice on its
    own; ``stats="batch"`` pools the batch axis as well (the two coincide
    at batch size one).  Constant slices map to exactly zero.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"normalize wants 4-D input, got {x.data.shape}")
    if stats == "instance":
        axes = (2, 3)
    elif stats == "batch":
        axes = (0, 2, 3)
    else:
        raise ValueError(f"unknown stats mode {stats!r}")
    m = x.mean(axis=axes, keepdims=True)
    centered = x - m
    v = (centered * centered).mean(axis=axes, keepdims=True)
    return centered / ((v + eps) ** 0.5)


def l2_norm(x):
    """Euclidean norm of the flattened tensor as a scalar Tensor."""
    return (x * x).sum() ** 0.5


# ---------------------------------------------------------------------------
# parameters and optimization
# ---------------------------------------------------------------------------


class Parameter(Tensor):
    """Trainable tensor carrying Adam moment buffers and a step counter."""

    __slots__ = ("m1", "m2", "step")

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        self.m1 = np.zeros_like(self.data)
        self.m2 = np.zeros_like(self.data)
        self.step = 0


def adam_step(params, lr, beta1=0.5, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update over ``params`` (in place).

    Parameters with no accumulated gradient are rejected: that always
    means a bookkeeping bug, never a legitimate no-op.
    """
    for p in params:
        if p.grad is None:
            raise ValueError("adam_step found a parameter with no gradient")
    for p in params:
        g = p.grad
        p.step += 1
        p.m1 = beta1 * p.m1 + (1.0 - beta1) * g
        p.m2 = beta2 * p.m2 + (1.0 - beta2) * (g * g)
        mhat = p.m1 / (1.0 - beta1 ** p.step)
        vhat = p.m2 / (1.0 - beta2 ** p.step)
        p.data = p.data - lr * mhat / (np.sqrt(vhat) + eps)


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
    """Write named float64 arrays to the flat binary container format.

    Layout: magic ``SGS1`` then, per entry, u32-LE name length, UTF-8
    name, u32-LE rank, u32-LE dims, raw little-endian float64 data.
    Written atomically, through :func:`atomic_open`.
    """
    with atomic_open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        for name, arr in entries:
            # tobytes() below always emits C order; no need to copy first.
            # (ascontiguousarray would also silently promote rank 0 to 1.)
            a = np.asarray(arr, dtype="<f8")
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", a.ndim))
            for d in a.shape:
                f.write(struct.pack("<I", d))
            f.write(a.tobytes())


def load_checkpoint(path):
    """Read a checkpoint container back into an ordered name -> array dict."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {blob[:4]!r}")
    out = {}
    pos = 4
    while pos < len(blob):
        entry = pos
        try:
            (nlen,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            name = blob[pos : pos + nlen].decode("utf-8")
            pos += nlen
            (rank,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            shape = struct.unpack_from(f"<{rank}I", blob, pos)
            pos += 4 * rank
            count = int(np.prod(shape)) if rank else 1
            arr = np.frombuffer(blob, dtype="<f8", count=count, offset=pos).reshape(shape)
        except (struct.error, ValueError) as err:
            raise ValueError(
                f"{path}: truncated or corrupt checkpoint entry at byte {entry}: {err}"
            ) from err
        pos += 8 * count
        if name in out:
            raise ValueError(f"{path}: duplicate checkpoint entry {name!r}")
        out[name] = arr.astype(np.float64)
    return out


def save_params(path, named_params):
    """Persist (name, Parameter) pairs with their optimizer state."""
    entries = []
    for name, p in named_params:
        entries.append((name, p.data))
        entries.append((name + ".m1", p.m1))
        entries.append((name + ".m2", p.m2))
        entries.append((name + ".step", np.float64(p.step)))
    save_checkpoint(path, entries)


def restore_params(blob, named_params, path):
    """Restore parameters saved by :func:`save_params`, by name, from the
    dict :func:`load_checkpoint` read; ``path`` names it in errors.

    A missing entry raises ``KeyError``; a value or Adam moment of the
    wrong shape ``ShapeError``; a non-finite one ``ValueError``.
    """
    for name, p in named_params:
        if name not in blob:
            raise KeyError(f"{path}: checkpoint missing parameter {name!r}")
        arr, m1, m2 = blob[name], blob[name + ".m1"], blob[name + ".m2"]
        for key, a in ((name, arr), (name + ".m1", m1), (name + ".m2", m2)):
            if a.shape != p.data.shape:
                raise ShapeError(
                    f"{path}: checkpoint entry {key!r} has shape {a.shape}, "
                    f"expected {p.data.shape}"
                )
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{path}: checkpoint entry {key!r} holds non-finite values")
        p.data = arr.copy()
        p.m1 = m1.copy()
        p.m2 = m2.copy()
        p.step = int(blob[name + ".step"].reshape(())) if name + ".step" in blob else 0
        p.grad = None
