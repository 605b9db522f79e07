"""Fuzz tests for the files the program reads from outside: a corpus and
a checkpoint.

One file of a tiny 32 px corpus, or of a checkpoint that fits it, is
truncated or has one byte set, and ``sgs eval`` runs on the result.  It
must exit 0, or exit 3 after exactly one ``error: data:`` line: never a
traceback, a config error or a numerical error.  The examples are drawn
from a fixed seed, so every run of the suite checks the same ones.
"""
import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sgs.cli import main
from sgs.cycletrain import save_generator
from sgs.datagen import generate_corpus
from sgs.network import Generator


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A two-sample 32 px corpus in ``corpus/`` and a k-direction model
    for it in ``model/``."""
    root = tmp_path_factory.mktemp("fuzz")
    generate_corpus(str(root / "corpus"), n=2, size=32, seed=11)
    save_generator(Generator(3, 1, depth=2, base_channels=4, si_hidden=4,
                             image_size=32, seed=0), str(root / "model"))
    return root


def run_eval(root):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["eval", "--model", str(root / "model"),
                   "--data", str(root / "corpus" / "manifest.jsonl"),
                   "--out", str(root / "eval")])
    return rc, err.getvalue()


def test_pristine_tree_evaluates(pristine, tmp_path):
    shutil.copytree(pristine, tmp_path / "t")
    assert run_eval(tmp_path / "t") == (0, "")


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_file_is_one_data_error(pristine, data):
    names = sorted(str(p.relative_to(pristine)) for p in pristine.rglob("*") if p.is_file())
    name = data.draw(st.sampled_from(names), label="file")
    blob = (pristine / name).read_bytes()
    # Half the positions fall in the first 32 bytes, where the headers are.
    pos = data.draw(st.one_of(st.integers(0, min(31, len(blob) - 1)),
                                     st.integers(0, len(blob) - 1)),
                    label="position")
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:pos]
    else:
        blob = blob[:pos] + bytes([data.draw(st.integers(0, 255), label="byte")]) + blob[pos + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "t"
        shutil.copytree(pristine, root)
        (root / name).write_bytes(blob)
        rc, err = run_eval(root)
    lines = err.splitlines()
    assert rc == 0 or (rc == 3 and len(lines) == 1 and lines[0].startswith("error: data: ")), (
        rc, err)
