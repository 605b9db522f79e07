"""Spans and counters recorded from outside the program.

Nothing here edits ``sgs``: the tracer replaces public functions and
methods with timing wrappers in every ``sgs`` module that holds them
(``conv2d`` lives in ``numerics`` but is imported by name into
``network`` and ``losses``), and puts the originals back on
``uninstall``.  Spans stay in memory until the run writes them out.

The only hook used in an untraced run is :class:`StepClock`, which wraps
``LossLog.append`` -- called exactly once per optimizer step -- to find
step boundaries.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

now = time.perf_counter


class StepClock:
    """Optimizer-step durations from consecutive ``LossLog.append`` calls.

    A step runs from the end of the previous append on the same log to
    the end of its own append.  The first step of every log has no start
    boundary (its interval would also hold model construction), so it is
    not timed.  ``adam_end`` is set by the tracer at the end of the first
    ``adam_step`` of a step, which closes the discriminator phase.
    """

    def __init__(self):
        self.steps = []  # dicts: stage, direction, seconds, d_phase_s, g_phase_s
        self._last = {}
        self.adam_end = None

    def on_append(self, path):
        t = now()
        run_dir = os.path.basename(os.path.dirname(os.path.abspath(path)))
        prev = self._last.get(path)
        if prev is not None:
            stage, _, direction = run_dir[len("stage"):].partition("_")
            step = {"stage": int(stage), "direction": direction, "seconds": t - prev}
            if self.adam_end is not None:
                step["d_phase_s"] = self.adam_end - prev
                step["g_phase_s"] = t - self.adam_end
            self.steps.append(step)
        self._last[path] = t
        self.adam_end = None

    def install(self, losses_module):
        cls = losses_module.LossLog
        original = cls.append
        clock = self

        @functools.wraps(original)
        def append(log, step, values):
            original(log, step, values)
            clock.on_append(log.path)

        cls.append = append
        return [(cls, "append", original)]


class Tracer:
    """Nested spans (name, parent, start, end) plus counters and a conv table.

    ``totals`` holds inclusive time per span name, counting only the
    outermost span of a name when it nests inside itself; ``self_time``
    subtracts the time covered by direct child spans.
    """

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.counts = defaultdict(int)
        self.conv = {}  # shape key -> [calls, fwd_s, bwd_s, col_bytes]
        self._stack = []

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(now())
        return idx

    def close(self, idx):
        self.ends[idx] = now()
        self._stack.pop()
        return self.ends[idx] - self.starts[idx]

    def summary(self, since, until):
        """Calls, inclusive and self time per name over spans [since, until)."""
        totals = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        child_time = defaultdict(float)
        for idx in range(since, until):
            parent = self.parents[idx]
            if parent >= since:
                child_time[parent] += self.ends[idx] - self.starts[idx]
        for idx in range(since, until):
            name = self.names[idx]
            dur = self.ends[idx] - self.starts[idx]
            calls[name] += 1
            self_time[name] += dur - child_time[idx]
            ancestor = self.parents[idx]
            while ancestor >= since and self.names[ancestor] != name:
                ancestor = self.parents[ancestor]
            if ancestor < since:
                totals[name] += dur
        return {name: {"calls": calls[name], "total_s": totals[name],
                       "self_s": self_time[name]} for name in calls}

    def write_spans(self, path):
        """One JSON array per line: id, parent id, name, start, end (seconds)."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for idx, name in enumerate(self.names):
                f.write(f'[{idx},{self.parents[idx]},"{name}",'
                        f"{self.starts[idx] - t0:.7f},{self.ends[idx] - t0:.7f}]\n")

    # -- wrappers ----------------------------------------------------------

    def timed(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def conv2d(self, fn):
        """Time the forward call and, by wrapping the returned tensor's
        ``_backward``, the backward closure; tabulate both per shape."""
        tracer = self

        @functools.wraps(fn)
        def conv2d(x, kernel, bias=None, stride=1, padding=0):
            idx = tracer.open("numerics.conv2d.fwd")
            try:
                out = fn(x, kernel, bias, stride, padding)
            finally:
                fwd = tracer.close(idx)
            n, cin, h, w = x.data.shape
            cout, _, kh, kw = kernel.data.shape
            ho = (h + 2 * padding - kh) // stride + 1
            wo = (w + 2 * padding - kw) // stride + 1
            # im2col matrix [N*Ho*Wo, Cin*kh*kw] of float64, from shapes
            col_bytes = n * ho * wo * cin * kh * kw * 8
            key = f"x{n}x{cin}x{h}x{w}_k{cout}x{cin}x{kh}x{kw}_s{stride}_p{padding}"
            row = tracer.conv.setdefault(key, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += fwd
            row[3] += col_bytes
            tracer.counts["numerics.conv2d.calls"] += 1
            tracer.counts["numerics.conv2d.col_bytes"] += col_bytes
            backward = out._backward
            if backward is not None:
                def timed_backward(g):
                    bidx = tracer.open("numerics.conv2d.bwd")
                    try:
                        backward(g)
                    finally:
                        row[2] += tracer.close(bidx)

                out._backward = timed_backward
            return out

        return conv2d

    def generator_forward(self, fn):
        """Split generator forwards by whether its parameters record grads."""
        tracer = self

        @functools.wraps(fn)
        def forward(gen, *args, **kwargs):
            frozen = not any(p.requires_grad for p in gen.params())
            kind = "frozen" if frozen else "trainable"
            idx = tracer.open(f"network.Generator.forward.{kind}")
            try:
                return fn(gen, *args, **kwargs)
            finally:
                tracer.close(idx)

        return forward

    def adam_step(self, fn, clock):
        tracer = self

        @functools.wraps(fn)
        def adam_step(*args, **kwargs):
            idx = tracer.open("numerics.adam_step")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if clock.adam_end is None:
                    clock.adam_end = tracer.ends[idx]

        return adam_step

    # -- installation ------------------------------------------------------

    def install(self, clock):
        """Wrap the public surface of every layer; returns undo records."""
        from sgs import cli, cycletrain, datagen, graphs, layout, losses, metrics, network
        from sgs import numerics

        undo = []

        def patch_function(module, attr, wrapper):
            original = getattr(module, attr)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if (name == "sgs" or name.startswith("sgs.")) and \
                        getattr(mod, attr, None) is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

        def patch_method(cls, attr, wrapper):
            undo.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, wrapper)

        def timed_function(module, attr):
            fn = getattr(module, attr)
            patch_function(module, attr, self.timed(f"{module.__name__[4:]}.{attr}", fn))

        def timed_method(module, cls, attr):
            fn = getattr(cls, attr)
            patch_method(cls, attr, self.timed(
                f"{module.__name__[4:]}.{cls.__name__}.{attr}", fn))

        patch_function(numerics, "conv2d", self.conv2d(numerics.conv2d))
        patch_function(numerics, "adam_step", self.adam_step(numerics.adam_step, clock))
        timed_function(numerics, "save_checkpoint")
        timed_function(numerics, "load_checkpoint")
        timed_method(numerics, numerics.Tensor, "backward")
        patch_method(network.Generator, "forward",
                     self.generator_forward(network.Generator.forward))
        timed_method(network, network.SIModule, "forward")
        timed_method(network, network.PatchDiscriminator, "forward")
        timed_method(losses, losses.FeatureExtractor, "features")
        timed_method(losses, losses.ParsingOracle, "probs")
        timed_function(losses, "tap_l1")
        timed_function(losses, "tap_mse")
        for attr in ("compute_nodes", "intra_graph", "inter_graph"):
            timed_function(graphs, attr)
        for attr in ("run_iterative", "train_direction", "evaluate_direction",
                     "save_generator", "load_generator"):
            timed_function(cycletrain, attr)
        for attr in ("ssim", "fsim", "phase_congruency", "frechet_distance",
                     "evaluate_pairs"):
            timed_function(metrics, attr)
        timed_function(layout, "load_corpus")
        patch_method(layout.SemanticLayout, "one_hot", self.counted(
            "layout.SemanticLayout.one_hot.calls", layout.SemanticLayout.one_hot))
        patch_function(layout, "downsample_layout", self.counted(
            "layout.downsample_layout.calls", layout.downsample_layout))
        timed_function(datagen, "generate_corpus")
        timed_function(cli, "main")
        return undo


def uninstall(undo):
    for obj, attr, original in reversed(undo):
        setattr(obj, attr, original)
