"""Statistics-injection generator and patch discriminator.

The generator is an encoder of strided 4x4 convolutions followed by a
decoder of residual blocks, each preceded by nearest-neighbor x2
upsampling.  Every decoder block re-injects the semantic layout through
statistics-injection (SI) modules: the one-hot layout, downsampled to
the block's working resolution, is mapped by a small conv stack to a
gamma and beta field that multiply and shift the instance-normalized
activation.  The discriminator is a standard patch classifier over the
channel-concatenated (source, saliency, candidate) stack.

Every convolution is a :class:`Conv` layer that owns its kernel, bias
(none where an instance norm follows), stride and padding.  A
parameter's name, and so its checkpoint entry, is its dotted attribute
path: ``enc.0.w``, ``blocks.0.si1.heads.w``, ``out.b``.
"""
from __future__ import annotations

import numpy as np

from .layout import N_CLASSES
from .numerics import (
    Parameter,
    ShapeError,
    Tensor,
    _accumulate,
    _instance_norm,
    _instance_norm_grad,
    _instance_norm_output,
    _result,
    activate,
    concat,
    conv2d,
    normalize,
    tanh,
    upsample_nearest,
)

WEIGHT_STD = 0.02


class Module:
    """Tiny container base: parameter discovery, freezing, grad reset."""

    def named_params(self, prefix=""):
        """(dotted path, Parameter) pairs in attribute order; a list of
        modules contributes ``<attr>.<index>.`` paths."""
        out = []
        for attr, val in vars(self).items():
            path = f"{prefix}{attr}"
            if isinstance(val, Parameter):
                out.append((path, val))
            elif isinstance(val, Module):
                out.extend(val.named_params(path + "."))
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        out.extend(item.named_params(f"{path}.{i}."))
        return out

    def params(self):
        return [p for _, p in self.named_params()]

    def zero_grad(self):
        for p in self.params():
            p.grad = None

    def freeze(self, frozen=True):
        """Stop recording gradients into these parameters; ``freeze(False)``
        records them again.

        Gradients still flow *through* frozen modules to their inputs,
        which is exactly what distillation through a fixed opposite
        generator, and the generator phase's pass through the
        discriminator, need.
        """
        for p in self.params():
            p.requires_grad = not frozen


class Conv(Module):
    """One ``k x k`` convolution: its kernel ``w`` ([cout, cin, k, k],
    drawn from N(0, WEIGHT_STD^2)), its zero-initialized bias ``b`` (None
    with ``bias=False``, for a conv that feeds an instance norm, whose
    mean subtraction would cancel it), and the stride and padding it
    always runs with.  With a ``slope`` the output goes through
    :func:`~sgs.numerics.activate`, relu at 0.0 and leaky relu above,
    fused into the conv's graph node."""

    def __init__(self, rng, cout, cin, k, stride=1, padding=1, bias=True, slope=None):
        self.w = Parameter(rng.normal(0.0, WEIGHT_STD, size=(cout, cin, k, k)))
        self.b = Parameter(np.zeros(cout)) if bias else None
        self.stride = stride
        self.padding = padding
        self.slope = slope

    def forward(self, x):
        out = conv2d(x, self.w, self.b, stride=self.stride, padding=self.padding)
        return out if self.slope is None else activate(out, self.slope)


def _shared_rows(w, b, p3):
    """``R = relu(b + sum_t w[:, p3[:, t], t])`` of :class:`SIModule`,
    one row per distinct 3x3 layout neighbourhood, and a zero row
    appended for a neighbour in the heads conv's zero padding."""
    hidden = w.shape[0]
    # [9, 13, hidden]: the shared kernel's tap t for class code c; zero
    # for code N_CLASSES, a tap in the shared conv's zero padding.
    taps = np.zeros((9, N_CLASSES + 1, hidden))
    taps[:, :N_CLASSES] = w.reshape(hidden, N_CLASSES, 9).T
    r = np.zeros((len(p3) + 1, hidden))
    taps[np.arange(9), p3].sum(axis=1, out=r[:-1])
    r[:-1] += b
    np.maximum(r, 0.0, out=r)
    return r


class SIModule(Module):
    """Layout-conditioned modulation of a normalized activation.

    A shared 3x3 convolution over the one-hot layout, with a relu, feeds
    the 3x3 gamma and beta heads; the output is ``gamma * normalize(x) +
    beta`` (the modulation is applied exactly in this form, with no
    residual 1+gamma variant).  The two heads are stored as one ``heads``
    convolution of ``2C`` output channels, gamma first.  Both convs, the
    instance norm and the modulation run as the one graph node that
    :meth:`forward` builds.
    """

    def __init__(self, channels, rng, hidden=32):
        self.channels = channels
        self.shared = Conv(rng, hidden, N_CLASSES, 3, slope=0.0)
        self.heads = Conv(rng, 2 * channels, hidden, 3)

    def forward(self, x, layout):
        """``x`` is [1, C, h, w]; ``layout`` is a SemanticLayout at h x w.

        One graph node over ``(x, shared.w, shared.b, heads.w, heads.b)``.
        Both convs' output at a pixel depends only on the pixel's 5x5 class
        neighbourhood, so it is computed once per distinct neighbourhood
        from the layout's :meth:`~sgs.layout.SemanticLayout.si_tables`
        ``(p3, n5, inv)``: ``R = relu(b + sum_t shared.w[:, p3[:, t], t])``
        for the 3x3 ones, a zero row appended for a neighbour in the heads
        conv's zero padding, and ``Q = R[n5] @ heads_mat + heads.b`` for the
        5x5 ones.  Gamma and beta are ``Q``'s two halves gathered by ``inv``.

        Backward gathers gamma again for the input gradient, sums ``g*y``
        and ``g`` into ``Q``'s columns with ``np.bincount`` over ``inv``,
        gives the heads gradients from that and ``R[n5]``, and sums ``R``'s
        gradient over ``n5`` and the shared kernel's over ``p3`` the same
        way: all four parameter gradients, or none, since
        :meth:`Module.freeze` freezes a module whole.  The closure keeps the
        instance norm's ``[1, C, 1, 1]`` mean and scale, ``Q``,
        ``heads_mat``, the tables and the parameters' nodes, and no [1, C,
        h, w] array beyond the input's value: backward rebuilds the
        normalized input from it, and ``R`` from the shared conv's weights,
        which the optimizer rebinds and never writes.
        """
        c = self.channels
        if x.data.shape[1] != c:
            raise ShapeError(f"SI module built for {c} channels, got {x.data.shape}")
        if (layout.height, layout.width) != x.data.shape[-2:]:
            raise ShapeError(
                f"layout resolution {(layout.height, layout.width)} does not match "
                f"activation {x.data.shape[-2:]}"
            )
        shared, heads = self.shared, self.heads
        p3, n5, inv = layout.si_tables()
        sw, sb = shared.w.data, shared.b.data
        hidden = sw.shape[0]
        u3, u5 = len(p3), len(n5)
        r = _shared_rows(sw, sb, p3)
        # [2C, 9*hidden], columns in the (tap, channel) order of R[n5] rows.
        hmat = heads.w.data.transpose(0, 2, 3, 1).reshape(2 * c, 9 * hidden)
        q = hmat @ r[n5].reshape(u5, 9 * hidden).T  # [2C, U5]
        q += heads.b.data[:, None]
        xd = x.data
        y, m, s = _instance_norm(xd)
        field_shape = (1, c, layout.height, layout.width)
        nx = x._node
        params = nsw, nsb, nhw, nhb = tuple(p._node for p in
                                            (shared.w, shared.b, heads.w, heads.b))

        def bw(g):
            y = _instance_norm_output(xd, m, s)
            if nx.requires_grad:
                gamma = q[:c, inv].reshape(field_shape)
                _accumulate(nx, _instance_norm_grad(g * gamma, y, s))
            if not any(p.requires_grad for p in params):
                return
            r = _shared_rows(sw, sb, p3)
            cols = (inv + (np.arange(c) * u5)[:, None]).ravel()
            gq = np.empty((2 * c, u5))
            gq[:c] = np.bincount(cols, weights=(g * y).ravel(),
                                 minlength=c * u5).reshape(c, u5)
            gq[c:] = np.bincount(cols, weights=g.ravel(), minlength=c * u5).reshape(c, u5)
            _accumulate(nhb, gq.sum(axis=1))
            gw = gq @ r[n5].reshape(u5, 9 * hidden)
            gw = gw.reshape(2 * c, 3, 3, hidden).transpose(0, 3, 1, 2)
            _accumulate(nhw, np.ascontiguousarray(gw))  # Adam runs faster on C order
            gcols = (gq.T @ hmat).ravel()  # [U5, 9, hidden]
            gr = np.bincount((n5[:, :, None] * hidden + np.arange(hidden)).ravel(),
                             weights=gcols, minlength=(u3 + 1) * hidden)
            gr = gr.reshape(u3 + 1, hidden)[:u3]
            gr *= r[:u3] > 0.0
            _accumulate(nsb, gr.sum(axis=0))
            idx = (np.arange(9) * (N_CLASSES + 1) + p3)[:, :, None] * hidden + np.arange(hidden)
            gw = np.bincount(idx.ravel(), weights=np.repeat(gr, 9, axis=0).ravel(),
                             minlength=9 * (N_CLASSES + 1) * hidden)
            gw = gw.reshape(9, N_CLASSES + 1, hidden)[:, :N_CLASSES].T
            _accumulate(nsw, np.ascontiguousarray(gw).reshape(sw.shape))

        y *= q[:c, inv].reshape(field_shape)
        y += q[c:, inv].reshape(field_shape)
        return _result(y, (nx, *params), bw)


class SIResBlock(Module):
    """Residual block with two (SI -> relu -> conv) legs.

    Each relu is applied in place to its SI module's output, fused into
    the modulation's graph node.  The shortcut is the identity when
    channel counts match and a 1x1 convolution otherwise.  ``conv1`` has
    no bias: it feeds ``si2``, whose instance norm removes one.
    """

    def __init__(self, cin, cout, rng, hidden=32):
        cmid = min(cin, cout)
        self.si1 = SIModule(cin, rng, hidden=hidden)
        self.conv1 = Conv(rng, cmid, cin, 3, bias=False)
        self.si2 = SIModule(cmid, rng, hidden=hidden)
        self.conv2 = Conv(rng, cout, cmid, 3)
        self.skip = Conv(rng, cout, cin, 1, padding=0) if cin != cout else None

    def forward(self, x, layout):
        h = self.conv1.forward(activate(self.si1.forward(x, layout), 0.0))
        h = self.conv2.forward(activate(self.si2.forward(h, layout), 0.0))
        if self.skip is not None:
            return h + self.skip.forward(x)
        return h + x


def _saliency_channel(m, h, w):
    if m is None:
        return Tensor(np.zeros((1, 1, h, w)))
    if m.values.shape != (h, w):
        raise ShapeError(f"saliency {m.values.shape} does not match image {(h, w)}")
    return Tensor(m.values[None, None, :, :])


class _NoDraws(np.random.Generator):
    """An rng that ``np.random.default_rng`` hands back unchanged, whose
    ``normal`` draws nothing and returns zeros."""

    def normal(self, loc=0.0, scale=1.0, size=None):
        return np.zeros(size)


class Generator(Module):
    """Layout-modulated encoder/decoder mapping source image -> image.

    The source image is concatenated with a saliency channel (a zero
    plane when saliency is disabled, keeping shapes fixed) and squeezed
    through ``depth`` stride-2 convolutions; the decoder mirrors with
    ``depth`` upsample + SI residual blocks and ends in a 3x3 conv and a
    tanh mapped to [0, 1].
    """

    def __init__(self, in_channels, out_channels, depth=5, base_channels=16,
                 si_hidden=32, use_saliency=True, image_size=64, seed=0):
        if depth < 1:
            raise ShapeError(f"depth must be >= 1, got {depth}")
        if depth >= image_size.bit_length() or image_size % (1 << depth):
            raise ShapeError(
                f"image size {image_size} must be divisible by 2**depth, got depth {depth}"
            )
        rng = np.random.default_rng(seed)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.depth = depth
        self.base_channels = base_channels
        self.si_hidden = si_hidden
        self.use_saliency = use_saliency
        self.image_size = image_size
        self.seed = seed

        enc_ch = [min(base_channels << i, base_channels * 8) for i in range(depth)]
        self.enc = []
        prev = in_channels + 1
        for c in enc_ch:
            self.enc.append(Conv(rng, c, prev, 4, stride=2, slope=0.2))
            prev = c

        self.blocks = []
        for j in range(depth):
            cout = enc_ch[depth - 2 - j] if j < depth - 1 else base_channels
            self.blocks.append(
                SIResBlock(prev, cout, rng, hidden=si_hidden)
            )
            prev = cout
        self.out = Conv(rng, out_channels, prev, 3)

    @classmethod
    def unweighted(cls, seed=0, **widths):
        """A generator of these widths built without drawing a weight:
        every kernel is zeros, for ``restore_params`` to replace.  ``seed``
        is checked, and recorded, as the constructor does."""
        gen = cls(seed=_NoDraws(np.random.PCG64(seed)), **widths)
        gen.seed = seed
        return gen

    def forward(self, x, m, layout, want_taps=None):
        """Run ``x`` ([Cin, H, W]) through the network.

        Returns the synthesized [Cout, H, W] image, or with ``want_taps``
        a sequence of tap names ("enc_bottleneck", "dec_block<i>") a dict
        of only those activations; it then runs no decoder block past the
        deepest named tap and no output conv.
        """
        if x.data.ndim != 3 or x.data.shape[0] != self.in_channels:
            raise ShapeError(
                f"generator expects [{self.in_channels}, H, W] input, got {x.data.shape}"
            )
        h, w = x.data.shape[1:]
        if h % (1 << self.depth) or w % (1 << self.depth):
            raise ShapeError(
                f"input {h}x{w} must be divisible by 2**depth = {1 << self.depth}"
            )
        if (layout.height, layout.width) != (h, w):
            raise ShapeError(
                f"layout {layout.height}x{layout.width} does not match input {h}x{w}"
            )

        sal = _saliency_channel(m if self.use_saliency else None, h, w)
        z = concat([x.reshape((1,) + x.data.shape), sal], axis=1)
        for conv in self.enc:
            z = conv.forward(z)
        wanted = set(want_taps or ())
        taps = {"enc_bottleneck": z} if "enc_bottleneck" in wanted else {}

        for j, block in enumerate(self.blocks, start=1):
            if want_taps is not None and taps.keys() >= wanted:
                break
            z = upsample_nearest(z, 2)
            z = block.forward(z, layout.downsampled(h // z.data.shape[2]))
            if f"dec_block{j}" in wanted:
                taps[f"dec_block{j}"] = z
        if want_taps is not None:
            return {name: taps[name] for name in want_taps}

        out = tanh(self.out.forward(z))
        return ((out + 1.0) * 0.5).reshape((self.out_channels, h, w))


class PatchDiscriminator(Module):
    """Patch logit map over concat(source, saliency, candidate).

    Three stride-2 4x4 convolutions, then two stride-1 layers; a 64x64
    input yields a 6x6 logit map.  Convs 1-3 are instance-normalized and
    so carry no bias.  Every layer but the last ends in leaky-relu(0.2),
    applied in place to the output of ``convs.0`` or of each
    ``normalize``.  When saliency is disabled a zero channel is
    substituted so shapes stay fixed.
    """

    def __init__(self, source_channels, candidate_channels, base_channels=16,
                 use_saliency=True, seed=0):
        rng = np.random.default_rng(seed)
        self.source_channels = source_channels
        self.candidate_channels = candidate_channels
        self.use_saliency = use_saliency
        cin = source_channels + 1 + candidate_channels
        chans = [base_channels, base_channels * 2, base_channels * 4, base_channels * 8]
        self.convs = []
        prev = cin
        for i, c in enumerate(chans):
            self.convs.append(Conv(rng, c, prev, 4, stride=2 if i < 3 else 1, bias=i == 0))
            prev = c
        self.final = Conv(rng, 1, prev, 4)

    def forward(self, source, m, candidate):
        """All images are [C, H, W]; returns the [1, 1, h', w'] logit map."""
        if source.data.shape[0] != self.source_channels:
            raise ShapeError(
                f"discriminator source has {source.data.shape[0]} channels, "
                f"expected {self.source_channels}"
            )
        if candidate.data.shape[0] != self.candidate_channels:
            raise ShapeError(
                f"discriminator candidate has {candidate.data.shape[0]} channels, "
                f"expected {self.candidate_channels}"
            )
        if source.data.shape[1:] != candidate.data.shape[1:]:
            raise ShapeError(
                f"source {source.data.shape[1:]} and candidate "
                f"{candidate.data.shape[1:]} sizes differ"
            )
        h, w = source.data.shape[1:]
        sal = _saliency_channel(m if self.use_saliency else None, h, w)
        z = concat(
            [source.reshape((1,) + source.data.shape), sal,
             candidate.reshape((1,) + candidate.data.shape)],
            axis=1,
        )
        for i, conv in enumerate(self.convs):
            z = conv.forward(z)
            z = activate(normalize(z) if i > 0 else z, 0.2)
        return self.final.forward(z)
