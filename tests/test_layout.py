"""Layout, saliency, paired-sample, and Netpbm/manifest IO tests."""
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sgs.datagen import generate_corpus
from sgs.layout import (
    BACKGROUND,
    CLASS_NAMES,
    MANIFEST_KEYS,
    N_CLASSES,
    SKIN,
    DataError,
    PairedSample,
    SaliencyMap,
    SemanticLayout,
    downsample_layout,
    load_corpus,
    load_sample,
    neighbourhood_tables,
    read_gray,
    read_layout,
    read_manifest,
    read_photo,
    read_pnm,
    write_gray,
    write_layout,
    write_manifest,
    write_photo,
    write_pnm,
)
from sgs.numerics import Tensor


def make_sample(sid="s0", size=8, seed=0):
    rng = np.random.default_rng(seed)
    layout = SemanticLayout(rng.integers(0, N_CLASSES, size=(size, size)))
    return PairedSample(
        id=sid,
        photo=Tensor(rng.random((3, size, size))),
        sketch=Tensor(rng.random((1, size, size))),
        saliency_photo=SaliencyMap(rng.random((size, size))),
        saliency_sketch=SaliencyMap(rng.random((size, size))),
        layout_photo=layout,
        layout_sketch=layout,
    )


class TestSemanticLayout:
    def test_twelve_canonical_classes(self):
        assert N_CLASSES == 12
        assert len(set(CLASS_NAMES)) == 12
        assert CLASS_NAMES[SKIN] == "skin"
        assert CLASS_NAMES[BACKGROUND] == "background"

    def test_rejects_class_out_of_range_naming_pixel(self):
        bad = np.zeros((4, 4), dtype=int)
        bad[2, 3] = 12
        with pytest.raises(DataError, match=r"\(2, 3\)"):
            SemanticLayout(bad)

    def test_rejects_negative_classes(self):
        with pytest.raises(DataError):
            SemanticLayout(np.full((2, 2), -1))

    def test_rejects_non_2d(self):
        with pytest.raises(DataError):
            SemanticLayout(np.zeros((2, 2, 2), dtype=int))

    def test_one_hot_partitions_pixels(self):
        layout = SemanticLayout(np.random.default_rng(0).integers(0, 12, (6, 6)))
        planes = layout.one_hot()
        assert planes.shape == (12, 6, 6)
        assert np.array_equal(planes.sum(axis=0), np.ones((6, 6)))


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.int64, (8, 8), elements=st.integers(0, 11)))
def test_one_hot_round_trip(classes):
    layout = SemanticLayout(classes)
    assert np.array_equal(np.argmax(layout.one_hot(), axis=0), classes)


class TestDownsampleLayout:
    def test_picks_block_corner(self):
        grid = np.arange(16).reshape(4, 4) % 12
        out = downsample_layout(SemanticLayout(grid), 2)
        assert np.array_equal(out.classes, grid[::2, ::2])

    def test_factor_one_identity(self):
        layout = SemanticLayout(np.random.default_rng(0).integers(0, 12, (4, 4)))
        assert np.array_equal(downsample_layout(layout, 1).classes, layout.classes)

    def test_composition_matches_single_step(self):
        layout = SemanticLayout(np.random.default_rng(1).integers(0, 12, (16, 16)))
        twice = downsample_layout(downsample_layout(layout, 2), 2)
        once = downsample_layout(layout, 4)
        assert np.array_equal(twice.classes, once.classes)

    def test_non_power_of_two_rejected(self):
        layout = SemanticLayout(np.zeros((6, 6), dtype=int))
        with pytest.raises(DataError):
            downsample_layout(layout, 3)

    def test_indivisible_rejected(self):
        layout = SemanticLayout(np.zeros((6, 6), dtype=int))
        with pytest.raises(DataError):
            downsample_layout(layout, 4)


def padded_patch(classes, i, j, radius):
    """The (2*radius+1)^2 classes around pixel (i, j), N_CLASSES outside."""
    pad = np.pad(classes.astype(int), radius, constant_values=N_CLASSES)
    return pad[i : i + 2 * radius + 1, j : j + 2 * radius + 1]


class TestNeighbourhoodTables:
    def test_classes_are_read_only(self):
        src = np.zeros((3, 3), dtype=int)
        layout = SemanticLayout(src)
        with pytest.raises(ValueError):
            layout.classes[0, 0] = 1
        with pytest.raises(AttributeError):
            layout.classes = np.ones((3, 3), dtype=np.uint8)
        src[0, 0] = 1  # the caller's array is copied, not frozen
        assert layout.classes[0, 0] == 0

    @pytest.mark.parametrize("size,hi", [(1, 12), (2, 12), (5, 12), (9, 3), (12, 2)])
    def test_rows_are_the_distinct_neighbourhoods(self, size, hi):
        """Against per-pixel patches: pixels share a row of ``n5`` exactly
        when their 5x5 neighbourhoods match, and a row's ``p3`` entries are
        its 3x3 neighbours' own neighbourhoods."""
        classes = np.random.default_rng(size).integers(0, hi, (size, size))
        p3, n5, inv = neighbourhood_tables(classes)
        assert all(t.dtype == np.int32 for t in (p3, n5, inv))
        rows = {}
        for pix in range(size * size):
            i, j = divmod(pix, size)
            rows.setdefault(int(inv[pix]), set()).add(
                padded_patch(classes, i, j, 2).tobytes())
            for t in range(9):
                ni, nj = i + t // 3 - 1, j + t % 3 - 1
                if 0 <= ni < size and 0 <= nj < size:
                    assert np.array_equal(p3[n5[inv[pix], t]],
                                          padded_patch(classes, ni, nj, 1).ravel())
                else:
                    assert n5[inv[pix], t] == len(p3)
        assert sorted(rows) == list(range(len(n5)))
        assert all(len(v) == 1 for v in rows.values())
        assert len(set().union(*rows.values())) == len(n5)
        assert len({r.tobytes() for r in p3}) == len(p3)

    def test_cached_on_the_instance(self):
        layout = SemanticLayout(np.random.default_rng(0).integers(0, 12, (8, 8)))
        assert layout.si_tables() is layout.si_tables()
        assert layout.downsampled(1) is layout
        half = layout.downsampled(2)
        assert half is layout.downsampled(2)
        assert np.array_equal(half.classes, downsample_layout(layout, 2).classes)

    def test_paper_scale_tables_are_small(self, tmp_path):
        """One 256-px face layout's tables at all seven decoder
        resolutions are integer arrays under 2 MiB in total."""
        layout = load_corpus(generate_corpus(str(tmp_path), 1, 256, seed=1))[0].layout_photo
        tables = [t for f in (1, 2, 4, 8, 16, 32, 64) for t in layout.downsampled(f).si_tables()]
        assert all(t.dtype.kind == "i" for t in tables)
        assert sum(t.nbytes for t in tables) < 2 * 1024 * 1024

    def test_oversized_layout_rejected(self):
        with pytest.raises(DataError, match="too large"):
            neighbourhood_tables(np.zeros((1447, 1447), dtype=np.uint8))


class TestSaliencyMap:
    def test_clamps_to_unit_interval(self):
        m = SaliencyMap(np.array([[-0.5, 0.5], [1.5, 1.0]]))
        assert m.values.min() >= 0.0 and m.values.max() <= 1.0
        assert m.values[0, 1] == 0.5

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            SaliencyMap(np.array([[np.nan, 0.0]]))


class TestPairedSample:
    def test_valid_sample_constructs(self):
        s = make_sample()
        assert s.photo.data.shape == (3, 8, 8)

    def test_rejects_channel_mismatch(self):
        s = make_sample()
        with pytest.raises(DataError):
            PairedSample(id="x", photo=s.sketch, sketch=s.sketch,
                         saliency_photo=s.saliency_photo,
                         saliency_sketch=s.saliency_sketch,
                         layout_photo=s.layout_photo,
                         layout_sketch=s.layout_sketch)

    def test_rejects_spatial_mismatch(self):
        s = make_sample()
        small = SemanticLayout(np.zeros((4, 4), dtype=int))
        with pytest.raises(DataError, match="layout_sketch"):
            PairedSample(id="x", photo=s.photo, sketch=s.sketch,
                         saliency_photo=s.saliency_photo,
                         saliency_sketch=s.saliency_sketch,
                         layout_photo=s.layout_photo,
                         layout_sketch=small)


class TestNetpbmIO:
    def test_gray_round_trip_is_exact_on_quantized_values(self, tmp_path):
        vals = np.arange(256).reshape(16, 16) / 255.0
        path = tmp_path / "g.pgm"
        write_gray(str(path), vals)
        back = read_gray(str(path))
        assert np.allclose(back, vals, atol=1e-12)

    def test_photo_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        photo = np.rint(rng.random((3, 5, 7)) * 255) / 255.0
        path = tmp_path / "p.ppm"
        write_photo(str(path), photo)
        assert np.allclose(read_photo(str(path)), photo, atol=1e-12)

    def test_write_read_byte_identity(self, tmp_path):
        arr = np.random.default_rng(1).integers(0, 256, (6, 6)).astype(np.uint8)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pnm(str(p1), arr)
        back, maxval = read_pnm(str(p1))
        write_pnm(str(p2), back, maxval)
        assert p1.read_bytes() == p2.read_bytes()

    def test_layout_round_trip_and_maxval(self, tmp_path):
        layout = SemanticLayout(np.random.default_rng(2).integers(0, 12, (8, 8)))
        path = tmp_path / "l.pgm"
        write_layout(str(path), layout)
        with open(path, "rb") as f:
            header = f.read(16)
        assert b"11" in header
        back = read_layout(str(path))
        assert np.array_equal(back.classes, layout.classes)

    def test_read_layout_rejects_wrong_maxval(self, tmp_path):
        path = tmp_path / "wrong.pgm"
        write_pnm(str(path), np.zeros((4, 4), dtype=np.uint8), maxval=255)
        with pytest.raises(DataError, match="maxval"):
            read_layout(str(path))

    def test_header_comments_tolerated(self, tmp_path):
        path = tmp_path / "c.pgm"
        raster = bytes(range(4))
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + raster)
        arr, maxval = read_pnm(str(path))
        assert maxval == 255 and np.array_equal(arr, [[0, 1], [2, 3]])

    @pytest.mark.parametrize("header", [b"P5\n#c", b"P5\n0 0\n11\n", b"P5\n3 0\n11\n"],
                             ids=["unended_comment", "zero_size", "zero_height"])
    def test_bad_header_rejected(self, tmp_path, header):
        """A comment with no end of line, or a zero width or height, is a
        DataError that names the file."""
        path = tmp_path / "h.pgm"
        path.write_bytes(header)
        with pytest.raises(DataError, match=re.escape(str(path))):
            read_pnm(str(path))

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 3)
        with pytest.raises(DataError, match="raster"):
            read_pnm(str(path))

    def test_unsupported_magic_rejected(self, tmp_path):
        path = tmp_path / "x.pbm"
        path.write_bytes(b"P1\n2 2\n0 1 1 0\n")
        with pytest.raises(DataError, match="magic"):
            read_pnm(str(path))

    def test_out_of_range_values_rejected_on_write(self, tmp_path):
        with pytest.raises(DataError):
            write_pnm(str(tmp_path / "o.pgm"), np.full((2, 2), 300))


class TestManifests:
    def _rows(self, n=2):
        return [
            {
                "id": f"{i:04d}",
                "photo": f"{i}_p.ppm", "sketch": f"{i}_s.pgm",
                "saliency_photo": f"{i}_mp.pgm", "saliency_sketch": f"{i}_ms.pgm",
                "layout_photo": f"{i}_lp.pgm", "layout_sketch": f"{i}_ls.pgm",
            }
            for i in range(n)
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        rows = self._rows()
        write_manifest(str(path), rows)
        assert read_manifest(str(path)) == rows

    def test_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_manifest(str(path), self._rows(3))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3
        for line in lines:
            json.loads(line)

    def test_failed_write_keeps_previous_manifest(self, tmp_path):
        """A row that cannot be serialized leaves the previous manifest
        byte for byte and no temp file beside it."""
        path = tmp_path / "m.jsonl"
        write_manifest(str(path), self._rows(2))
        before = path.read_bytes()
        rows = self._rows(3)
        rows[0]["photo"] = object()
        with pytest.raises(TypeError):
            write_manifest(str(path), rows)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.jsonl"]

    def test_empty_manifest_reads_as_no_rows(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_manifest(str(path)) == []

    def test_load_corpus_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_corpus(str(path))

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_manifest(str(path), self._rows(1))
        with open(path, "a", encoding="utf-8") as f:
            f.write("not json\n")
        with pytest.raises(DataError, match=":2"):
            read_manifest(str(path))

    def test_missing_key_reported(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text('{"id": "0", "photo": "p.ppm"}\n')
        with pytest.raises(DataError, match="sketch"):
            read_manifest(str(path))

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = tmp_path / "m.jsonl"
        rows = self._rows(3)
        rows[2]["id"] = rows[0]["id"]
        write_manifest(str(path), rows)
        with pytest.raises(DataError, match=r":3: sample id '0000' repeats line 1"):
            read_manifest(str(path))

    def test_load_corpus_rejects_mixed_sizes(self, tmp_path):
        """Every sample must share sample 0's size; the first that does
        not is named."""
        rows = []
        for prefix, size in (("a", 32), ("b", 16)):
            for row in self._rows(2):
                row = dict(row, id=prefix + row["id"])
                sample = make_sample(row["id"], size=size)
                for key in MANIFEST_KEYS[1:]:
                    row[key] = prefix + row[key]
                write_photo(str(tmp_path / row["photo"]), sample.photo.data)
                write_gray(str(tmp_path / row["sketch"]), sample.sketch.data[0])
                write_gray(str(tmp_path / row["saliency_photo"]),
                           sample.saliency_photo.values)
                write_gray(str(tmp_path / row["saliency_sketch"]),
                           sample.saliency_sketch.values)
                write_layout(str(tmp_path / row["layout_photo"]), sample.layout_photo)
                write_layout(str(tmp_path / row["layout_sketch"]), sample.layout_sketch)
                rows.append(row)
        path = tmp_path / "m.jsonl"
        write_manifest(str(path), rows)
        with pytest.raises(DataError, match="sample 'b0000' is 16x16px but sample "
                                            "'a0000' is 32x32px"):
            load_corpus(str(path))
        write_manifest(str(path), rows[:2])
        assert [s.id for s in load_corpus(str(path))] == ["a0000", "a0001"]

    def test_missing_file_names_sample(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_manifest(str(path), self._rows(1))
        with pytest.raises(DataError, match="'0000'"):
            load_sample(str(path), read_manifest(str(path))[0])
