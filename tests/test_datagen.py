"""Tests for the procedural paired-corpus generator.

Determinism is checked at the byte level, class usage against the
layout domain, and the loaded corpus's class statistics against a
counting oracle that re-reads the generated files directly.
"""
import hashlib
import os

import numpy as np
import pytest

from sgs.datagen import (
    MAX_WARP,
    _box_blur,
    generate_corpus,
    generate_sample,
    render_saliency,
    sample_scene,
    sample_warp,
)
from sgs.graphs import compute_nodes
from sgs.layout import (
    BACKGROUND,
    CLASS_NAMES,
    GLASSES,
    SKIN,
    DataError,
    load_corpus,
    read_layout,
    read_manifest,
    write_manifest,
)


def tree_digest(root):
    """SHA-256 over sorted (name, bytes) of every file under ``root``."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        h.update(name.encode())
        with open(os.path.join(root, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


class TestGenerateSample:
    def test_deterministic_in_seed_and_index(self):
        a = generate_sample(5, 3, 32, "aligned")
        b = generate_sample(5, 3, 32, "aligned")
        for key in ("photo", "sketch", "saliency_photo"):
            assert np.array_equal(a[key], b[key])
        assert np.array_equal(a["layout_photo"].classes, b["layout_photo"].classes)

    def test_different_indices_differ(self):
        a = generate_sample(5, 0, 32, "aligned")
        b = generate_sample(5, 1, 32, "aligned")
        assert not np.array_equal(a["photo"], b["photo"])

    def test_shapes_and_ranges(self):
        s = generate_sample(1, 0, 64, "aligned")
        assert s["photo"].shape == (3, 64, 64)
        assert s["sketch"].shape == (1, 64, 64)
        assert s["saliency_photo"].shape == (64, 64)
        for key in ("photo", "sketch", "saliency_photo", "saliency_sketch"):
            arr = s[key]
            assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_class_domain_and_mandatory_classes(self):
        for idx in range(6):
            s = generate_sample(9, idx, 32, "aligned")
            classes = s["layout_photo"].classes
            assert classes.min() >= 0 and classes.max() <= 11
            assert np.any(classes == SKIN)
            assert np.any(classes == BACKGROUND)

    def test_aligned_layouts_identical(self):
        s = generate_sample(2, 0, 32, "aligned")
        assert np.array_equal(s["layout_photo"].classes, s["layout_sketch"].classes)
        assert np.array_equal(s["saliency_photo"], s["saliency_sketch"])

    def test_deformed_layouts_differ(self):
        """Warped sketch geometry must give a distinct sketch-side layout."""
        diffs = 0
        for idx in range(4):
            s = generate_sample(3, idx, 64, "deformed")
            if not np.array_equal(s["layout_photo"].classes,
                                  s["layout_sketch"].classes):
                diffs += 1
        assert diffs >= 3

    def test_deformed_photo_side_geometry_unwarped(self):
        """The warp touches only sketch-side geometry, photo layout stays put."""
        a = generate_sample(4, 1, 32, "aligned")
        d = generate_sample(4, 1, 32, "deformed")
        assert np.array_equal(a["layout_photo"].classes, d["layout_photo"].classes)
        assert np.array_equal(render_saliency(a["layout_photo"]),
                              d["saliency_photo"])

    def test_unknown_mode_rejected(self):
        with pytest.raises(DataError, match="sheared"):
            generate_sample(0, 0, 32, "sheared")

    def test_glasses_schedule_hits_fraction(self):
        present = 0
        for idx in range(16):
            s = generate_sample(11, idx, 32, "aligned", glasses_frac=0.5)
            present += bool(np.any(s["layout_photo"].classes == GLASSES))
        assert present == 8

    def test_glasses_can_be_disabled(self):
        for idx in range(4):
            s = generate_sample(12, idx, 32, "aligned", glasses_frac=0.0)
            assert not np.any(s["layout_photo"].classes == GLASSES)


class TestWarp:
    def test_warp_displacement_is_bounded(self):
        """Warped coordinates move each point by at most MAX_WARP."""
        rng = np.random.default_rng(17)
        warp = sample_warp(rng)
        xs = np.linspace(0.0, 1.0, 21)
        for x in xs:
            for y in xs:
                wx, wy = warp(x, y)
                assert abs(wx - x) <= MAX_WARP + 1e-12
                assert abs(wy - y) <= MAX_WARP + 1e-12


class TestSaliency:
    def test_zero_on_background_corners(self):
        s = generate_sample(21, 0, 64, "aligned")
        layout = s["layout_photo"].classes
        sal = s["saliency_photo"]
        corner = layout[:4, :4]
        if np.all(corner == BACKGROUND):
            assert sal[0, 0] < 0.05

    def test_one_deep_inside_foreground(self):
        s = generate_sample(22, 0, 64, "aligned")
        layout = s["layout_photo"].classes
        sal = s["saliency_photo"]
        fg = layout != BACKGROUND
        # Erode the foreground so every probed pixel is far from the boundary.
        interior = fg.copy()
        for _ in range(4):
            interior[1:] &= interior[:-1].copy()
            interior[:-1] &= interior[1:].copy()
            interior[:, 1:] &= interior[:, :-1].copy()
            interior[:, :-1] &= interior[:, 1:].copy()
        assert interior.any()
        assert sal[interior].min() > 0.95

    def test_matches_layout_blur(self):
        s = generate_sample(23, 1, 32, "aligned")
        assert np.array_equal(s["saliency_photo"],
                              render_saliency(s["layout_photo"]))


def box_blur_reference(img, radius, passes=3):
    """The blur as one edge-padded ``np.convolve`` per column, then per row."""
    out = img.astype(np.float64)
    kernel = np.ones(2 * radius + 1) / (2 * radius + 1)

    def blur_line(line):
        return np.convolve(np.pad(line, radius, mode="edge"), kernel, "valid")

    for _ in range(passes):
        out = np.apply_along_axis(blur_line, 0, out)
        out = np.apply_along_axis(blur_line, 1, out)
    return out


class TestBoxBlur:
    @pytest.mark.parametrize("shape", [(5, 5), (32, 32), (64, 48), (256, 256)])
    @pytest.mark.parametrize("binary", [False, True], ids=["random", "binary"])
    @pytest.mark.parametrize("radius,passes", [(2, 2), (1, 3)])
    def test_matches_per_line_convolution(self, shape, binary, radius, passes):
        """Within 1e-15 of the per-line reference, and the same 8-bit
        values once quantized as the corpus files are."""
        img = np.random.default_rng(sum(shape) + radius).random(shape)
        if binary:
            img = (img > 0.5).astype(np.float64)
        got = _box_blur(img, radius, passes)
        want = box_blur_reference(img, radius, passes)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15
        assert np.array_equal(np.rint(got * 255), np.rint(want * 255))


class TestGenerateCorpus:
    def test_regeneration_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_corpus(str(a), n=4, size=32, seed=13)
        generate_corpus(str(b), n=4, size=32, seed=13)
        assert tree_digest(str(a)) == tree_digest(str(b))

    def test_different_seed_differs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_corpus(str(a), n=2, size=32, seed=13)
        generate_corpus(str(b), n=2, size=32, seed=14)
        assert tree_digest(str(a)) != tree_digest(str(b))

    def test_manifest_lists_all_samples(self, tmp_path):
        manifest = generate_corpus(str(tmp_path / "c"), n=5, size=32, seed=0)
        rows = read_manifest(manifest)
        assert [row["id"] for row in rows] == [f"{i:04d}" for i in range(5)]
        assert rows[1] == {
            "id": "0001", "photo": "0001_photo.ppm", "sketch": "0001_sketch.pgm",
            "saliency_photo": "0001_saliency_photo.pgm",
            "saliency_sketch": "0001_saliency_sketch.pgm",
            "layout_photo": "0001_layout_photo.pgm", "layout_sketch": "0001_layout_sketch.pgm",
        }
        samples = load_corpus(manifest)
        assert len(samples) == 5

    def test_written_layout_matches_in_memory(self, tmp_path):
        """Layout exactness: files round-trip the rasterized class maps."""
        out = tmp_path / "c"
        manifest = generate_corpus(str(out), n=2, size=32, seed=7)
        for i in range(2):
            mem = generate_sample(7, i, 32, "aligned")
            disk = read_layout(str(out / f"{i:04d}_layout_photo.pgm"))
            assert np.array_equal(disk.classes, mem["layout_photo"].classes)

    def test_images_quantized_to_files(self, tmp_path):
        """Written photos equal the in-memory render up to 8-bit rounding."""
        out = tmp_path / "c"
        generate_corpus(str(out), n=1, size=32, seed=3)
        mem = generate_sample(3, 0, 32, "aligned")
        sample = load_corpus(str(out / "manifest.jsonl"))[0]
        assert np.abs(sample.photo.data - mem["photo"]).max() <= 0.5 / 255.0 + 1e-12

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_bad_counts(self, tmp_path, bad):
        with pytest.raises(DataError, match=">= 1"):
            generate_corpus(str(tmp_path / "x"), n=bad, size=32, seed=0)

    @pytest.mark.parametrize("bad", [16, 48, 100, 512])
    def test_rejects_bad_sizes(self, tmp_path, bad):
        with pytest.raises(DataError, match="32, 64, 128, 256"):
            generate_corpus(str(tmp_path / "x"), n=1, size=bad, seed=0)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("statscorpus")
    manifest = generate_corpus(str(root), n=32, size=32, seed=29)
    return {"root": root, "manifest": manifest, "samples": load_corpus(manifest)}


def class_presence(samples):
    """[n, 12] bool: the classes each photo layout holds, as the graph
    nodes count them."""
    return np.array([compute_nodes(s.photo, s.layout_photo).present for s in samples])


class TestCorpusStats:
    """Class statistics of a generated corpus, read through ``load_corpus``."""

    def test_matches_counting_oracle(self, corpus):
        rows = read_manifest(corpus["manifest"])
        assert [s.id for s in corpus["samples"]] == [row["id"] for row in rows]
        for s, row in zip(corpus["samples"], rows):
            classes = read_layout(str(corpus["root"] / row["layout_photo"])).classes
            counts = np.array([int((classes == c).sum()) for c in range(12)])
            assert s.layout_photo.classes.shape == (32, 32)
            assert np.array_equal(s.layout_photo.one_hot().sum(axis=(1, 2)), counts)
            assert np.array_equal(compute_nodes(s.photo, s.layout_photo).present,
                                  counts > 0)

    def test_default_corpus_presence_profile(self, corpus):
        """All classes show up in >= 90% of samples, glasses in exactly half."""
        presence = class_presence(corpus["samples"]).mean(axis=0)
        for c, name in enumerate(CLASS_NAMES):
            if name == "glasses":
                assert abs(presence[c] - 0.5) < 1e-12
            else:
                assert presence[c] >= 0.9

    def test_invariant_to_line_order(self, corpus):
        rows = read_manifest(corpus["manifest"])
        shuffled = str(corpus["root"] / "shuffled.jsonl")
        write_manifest(shuffled, rows[::-1])
        back = load_corpus(shuffled)[::-1]
        for a, b in zip(back, corpus["samples"], strict=True):
            assert a.id == b.id
            assert np.array_equal(a.photo.data, b.photo.data)
            assert np.array_equal(a.layout_photo.classes, b.layout_photo.classes)

    def test_broken_path_names_first_sample(self, tmp_path):
        """The one corpus reader stops at the first broken sample and names it."""
        out = tmp_path / "c"
        manifest = generate_corpus(str(out), n=3, size=32, seed=5)
        os.remove(str(out / "0001_layout_photo.pgm"))
        os.remove(str(out / "0002_layout_photo.pgm"))
        with pytest.raises(DataError) as exc:
            load_corpus(manifest)
        msg = str(exc.value)
        assert "'0001'" in msg and "0001_layout_photo.pgm" in msg
        assert "'0002'" not in msg and "'0000'" not in msg


class TestSceneSpec:
    def test_all_parts_rasterize_inside_canvas(self):
        """Every class with nonzero pixels keeps them on-canvas by construction."""
        rng = np.random.default_rng(31)
        spec = sample_scene(rng, with_glasses=True)
        sample = generate_sample(31, 0, 64, "aligned")
        assert sample["layout_photo"].classes.shape == (64, 64)

    def test_photo_noise_photo_side_only(self):
        """Sketch renders are deterministic structure; photos carry noise."""
        s = generate_sample(33, 0, 64, "aligned")
        t = generate_sample(33, 0, 64, "aligned")
        assert np.array_equal(s["photo"], t["photo"])
        assert np.array_equal(s["sketch"], t["sketch"])
