"""One call of one workload in a fresh process: set up, time, check.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and BLAS pinned to one thread, so every call starts cold, as a
user's ``sgs`` command does.  Writes ``result.json`` (and, with
``--traced``, ``trace.json`` plus ``spans.jsonl``) into ``--out``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import StepClock, Tracer, now, uninstall  # noqa: E402

_t_import = now()
import numpy as np  # noqa: E402

from sgs import cli, cycletrain, datagen, layout, losses  # noqa: E402

IMPORT_S = now() - _t_import


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_losses_csv(path, expected_rows):
    """Problems with one losses.csv: row count and finiteness."""
    with open(path, "r", encoding="utf-8") as f:
        body = f.read().splitlines()[1:]
    problems = []
    if len(body) != expected_rows:
        problems.append(f"{path}: {len(body)} loss rows, expected {expected_rows}")
    for line in body:
        if not all(math.isfinite(float(v)) for v in line.split(",")[1:]):
            problems.append(f"{path}: non-finite loss in row {line.split(',')[0]}")
            break
    return problems


def check_roundtrip(model_dir, val_samples, direction, seed):
    """The checkpoint, reloaded through ``load_generator``, must reproduce
    the val_metrics.json that training wrote from the in-memory generator,
    byte for byte."""
    gen = cycletrain.load_generator(model_dir)
    gen.freeze()
    extractor = losses.FeatureExtractor(
        gen.out_channels, seed=[seed, 91, cycletrain.DIRECTIONS.index(direction)])
    val = cycletrain.evaluate_direction(gen, val_samples, direction, extractor)
    with open(os.path.join(model_dir, "val_metrics.json"), "r", encoding="utf-8") as f:
        if f.read() != json.dumps(val, sort_keys=True) + "\n":
            return [f"{model_dir}: reloaded checkpoint does not reproduce val_metrics.json"]
    return []


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Training:
    """Set-up, checks and throughput shared by the training workloads."""

    size = 64
    n_train = 4
    n_val = 2
    epochs = 2
    stage_dirs = ()
    setup_repeats = 1

    def __init__(self, seed):
        self.seed = seed

    def setup(self, root):
        manifest = datagen.generate_corpus(os.path.join(root, "corpus"),
                                           self.n_train + self.n_val, self.size,
                                           seed=self.seed)
        return {"manifest": manifest, "samples": layout.load_corpus(manifest)}

    def check(self, state, code, out_dir):
        """Exit code, losses.csv rows and finiteness, artifact hashes.  Later
        calls must match the first call's hashes."""
        if code != 0:
            return [f"training exited with code {code}"], {}
        problems, hashes = [], {}
        for name in self.stage_dirs:
            path = os.path.join(out_dir, name)
            problems += check_losses_csv(os.path.join(path, "losses.csv"),
                                         self.epochs * self.n_train)
            for artifact in ("losses.csv", "model.bin"):
                hashes[f"{name}/{artifact}"] = sha256(os.path.join(path, artifact))
        return problems, hashes

    def roundtrip(self, state, out_dir):
        """Every checkpoint the call wrote must reload to the same val metrics."""
        val = state["samples"][-self.n_val:]
        problems = []
        for name in self.stage_dirs:
            problems += check_roundtrip(os.path.join(out_dir, name), val,
                                        name.split("_")[1], self.seed)
        return problems


class DeskIterative(Training):
    """``sgs train-iterative`` at desk widths: stage 0 and stage 1, k and o."""

    setup_repeats = 6
    stage_dirs = ("stage0_k", "stage0_o", "stage1_k", "stage1_o")
    flags = {"depth": 5, "base-channels": 16, "si-hidden": 32, "stages": 1}

    def run(self, state, out_dir):
        argv = ["train-iterative", "--data", state["manifest"], "--out", out_dir,
                "--seed", str(self.seed), "--image-size", str(self.size),
                "--epochs", str(self.epochs), "--val-count", str(self.n_val)]
        for flag, value in self.flags.items():
            argv += [f"--{flag}", str(value)]
        return cli.main(argv)


class PaperStep(Training):
    """``train_direction`` k, stage 0, at the paper's 256 px and depth 7."""

    size = 256
    n_train = 1
    n_val = 1
    epochs = 3
    setup_repeats = 4
    stage_dirs = ("stage0_k",)
    shape = {"depth": 7, "base_channels": 8, "si_hidden": 16}

    def run(self, state, out_dir):
        cfg = cycletrain.TrainConfig(seed=self.seed, image_size=self.size, epochs=self.epochs,
                                     val_count=self.n_val, stages=1, **self.shape)
        samples = state["samples"]
        cycletrain.train_direction(samples[:self.n_train], samples[self.n_train:], cfg,
                                   "k", 0, None, os.path.join(out_dir, "stage0_k"))
        return 0


class SelfTest(DeskIterative):
    """A tiny desk run, to prove tracing leaves every artifact unchanged."""

    size = 32
    n_train = 2
    epochs = 2
    setup_repeats = 1
    flags = {"depth": 2, "base-channels": 4, "si-hidden": 4, "stages": 1,
             "ict-taps": "enc_bottleneck,dec_block1,dec_block2,dec_block1,dec_block2"}


WORKLOADS = {
    "desk_iterative": DeskIterative,
    "paper_step": PaperStep,
    "selftest": SelfTest,
}

PER_LAYER_TIMES = (
    "numerics.conv2d.fwd", "numerics.conv2d.bwd", "numerics.Tensor.backward",
    "numerics.adam_step", "numerics.save_checkpoint",
    "network.Generator.forward.trainable", "network.Generator.forward.frozen",
    "network.SIModule.forward", "network.PatchDiscriminator.forward",
    "losses.FeatureExtractor.features", "losses.ParsingOracle.probs",
    "losses.tap_l1", "losses.tap_mse",
    "graphs.compute_nodes", "graphs.intra_graph", "graphs.inter_graph",
    "cycletrain.evaluate_direction", "cycletrain.save_generator",
    "metrics.ssim", "metrics.fsim", "metrics.phase_congruency",
    "metrics.frechet_distance", "metrics.evaluate_pairs",
    "layout.load_corpus", "datagen.generate_corpus", "cli.main",
)
# Timed over the checkpoint round trip that follows a traced call.
CHECK_LAYER_TIMES = ("numerics.load_checkpoint", "cycletrain.load_generator")
PER_LAYER_COUNTS = (
    "numerics.conv2d.calls", "numerics.conv2d.col_bytes",
    "layout.SemanticLayout.one_hot.calls", "layout.downsample_layout.calls",
)


# ---------------------------------------------------------------------------
# one call
# ---------------------------------------------------------------------------


def env_info(seed):
    pinned = {k: os.environ.get(k) for k in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "sgs_path": cli.__file__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": pinned,
        "blas_threads_runtime": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def blas_threads():
    """Thread count OpenBLAS reports at run time, or None if not found."""
    import ctypes
    import glob

    libdir = os.path.dirname(np.__file__) + ".libs"
    for lib_path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def per_layer(tracer, call_mark, setup_counts, steps):
    """Per-layer figures and the trace record of one set-up plus one call."""
    setup_sum = tracer.summary(0, call_mark)
    calls_sum = tracer.summary(call_mark, len(tracer.names))
    values = {}
    for name in PER_LAYER_TIMES:
        values[f"{name}_s"] = sum(part.get(name, {}).get("total_s", 0.0)
                                  for part in (setup_sum, calls_sum))
    for name in PER_LAYER_COUNTS:
        values[name] = tracer.counts.get(name, 0)
    values["cycletrain.step.d_phase_s"] = sum(s.get("d_phase_s", 0.0) for s in steps)
    values["cycletrain.step.g_phase_s"] = sum(s.get("g_phase_s", 0.0) for s in steps)
    conv = {key: {"calls": r[0], "fwd_s": r[1], "bwd_s": r[2], "col_bytes_computed": r[3]}
            for key, r in sorted(tracer.conv.items(), key=lambda kv: -(kv[1][1] + kv[1][2]))}
    trace = {"setup": setup_sum, "call": calls_sum, "setup_counts": setup_counts,
             "counts": dict(tracer.counts), "conv_shapes": conv, "values": values}
    return values, trace


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--traced", action="store_true", help="record spans and counters")
    p.add_argument("--full-checks", action="store_true",
                   help="also check the checkpoint round trip (always done when traced)")
    args = p.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    clock = StepClock()
    undo = clock.install(losses)
    tracer = None
    if args.traced:
        tracer = Tracer()
        undo += tracer.install(clock)
        span = tracer.open("bench.setup")
    setup_times = []
    for i in range(1 if tracer else workload.setup_repeats):
        t0 = now()
        state = workload.setup(os.path.join(args.out, f"setup{i}"))
        setup_times.append(now() - t0)
    if tracer:
        tracer.close(span)
        call_mark, setup_counts = len(tracer.names), dict(tracer.counts)
        span = tracer.open("bench.call")

    problems, hashes = [], {}
    call_dir = os.path.join(args.out, "call")
    t0 = now()
    try:
        code = workload.run(state, call_dir)
    except cycletrain.NumericalError as err:
        code = None
        problems.append(str(err))
    wall_s = now() - t0
    values = None
    if tracer:
        tracer.close(span)
        values, trace = per_layer(tracer, call_mark, setup_counts, clock.steps)
        span = tracer.open("bench.check")
    if code == 0 and (tracer or args.full_checks):
        problems += workload.roundtrip(state, call_dir)
    if tracer:
        # The round trip is the only checkpoint load; nothing else counts it.
        tracer.close(span)
        trace["check"] = tracer.summary(span, len(tracer.names))
        for name in CHECK_LAYER_TIMES:
            values[f"{name}_s"] = trace["check"].get(name, {}).get("total_s", 0.0)
        with open(os.path.join(args.out, "trace.json"), "w", encoding="utf-8") as f:
            json.dump(trace, f, indent=1, sort_keys=True)
        tracer.write_spans(os.path.join(args.out, "spans.jsonl"))
    uninstall(undo)
    if code is not None:
        found, hashes = workload.check(state, code, call_dir)
        problems += found

    report = {
        "env": env_info(args.seed),
        "import_s": IMPORT_S,
        "setup_times": setup_times,
        "wall_s": wall_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "steps": clock.steps,
        "hashes": hashes,
        "problems": problems,
        "per_layer": values,
    }
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    # The artifacts are hashed above; a desk call alone leaves 120 MB.
    for name in os.listdir(args.out):
        if os.path.isdir(os.path.join(args.out, name)):
            shutil.rmtree(os.path.join(args.out, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
