"""The benchmark harness still runs against this tree.

``perfbench/run.py --self-test`` traces a short workload through the
harness's wrappers, among them a replacement ``numerics.conv2d`` with the
signature ``conv2d(x, kernel, bias=None, stride=1, padding=0)``; a
change to an interface the harness wraps fails here.  It writes only
under the repo's ``.perfbench_runs/``.  The ``paper_step`` workload
builds its ``TrainConfig`` and calls ``train_direction`` itself, outside
the CLI, so that call is checked on its own.
"""
import importlib.util
import inspect
import os
import subprocess
import sys

from sgs import cycletrain
from sgs.datagen import generate_corpus
from sgs.layout import load_corpus

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def test_perfbench_self_test_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--self-test"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines and lines[-1].startswith("self-test passed"), proc.stdout


def test_paper_step_call_matches_train_direction(tmp_path, monkeypatch):
    """``PaperStep.run``'s config validates and its arguments bind to
    ``train_direction``'s parameters; training itself is not run."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the worker prepends its dir
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", os.path.join(ROOT, "perfbench", "worker.py"))
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)

    calls = []
    signature = inspect.signature(cycletrain.train_direction)
    monkeypatch.setattr(cycletrain, "train_direction",
                        lambda *args, **kwargs: calls.append(signature.bind(*args, **kwargs)))
    manifest = generate_corpus(str(tmp_path / "corpus"), 2, 32, seed=1)
    state = {"manifest": manifest, "samples": load_corpus(manifest)}
    assert worker.PaperStep(seed=1).run(state, str(tmp_path / "call")) == 0

    (call,) = calls
    cfg = call.arguments["cfg"]
    assert isinstance(cfg, cycletrain.TrainConfig)
    assert cfg.validate() is cfg
    assert call.arguments["direction"] in cycletrain.DIRECTIONS
    assert len(call.arguments["train_samples"]) == len(call.arguments["val_samples"]) == 1
