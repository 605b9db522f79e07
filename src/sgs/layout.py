"""Semantic layouts, saliency maps, paired samples, and their file formats.

A layout assigns each pixel one of twelve face-part classes.  Photos are
binary Netpbm P6 (maxval 255), sketches and saliency maps are P5 with
values mapped to [0, 1], and layouts are P5 with maxval 11 where the raw
pixel value *is* the class index.  A corpus is a JSONL manifest whose
rows point at the six files of each sample, relative to the manifest.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .numerics import Tensor, atomic_open

CLASS_NAMES = (
    "eyes",
    "eyebrows",
    "ears",
    "glasses",
    "lips",
    "inner-mouth",
    "hair",
    "nose",
    "skin",
    "neck",
    "cloth",
    "background",
)
N_CLASSES = len(CLASS_NAMES)

EYES, EYEBROWS, EARS, GLASSES, LIPS, INNER_MOUTH = 0, 1, 2, 3, 4, 5
HAIR, NOSE, SKIN, NECK, CLOTH, BACKGROUND = 6, 7, 8, 9, 10, 11

MANIFEST_KEYS = (
    "id",
    "photo",
    "sketch",
    "saliency_photo",
    "saliency_sketch",
    "layout_photo",
    "layout_sketch",
)


class DataError(ValueError):
    """Corpus files or manifests that cannot be used as data."""


class SemanticLayout:
    """Per-pixel class indices over an H x W grid.

    ``classes`` is read-only, so what is derived from it is built on first
    use and cached on the instance: the downsampled layouts of
    :meth:`downsampled` and the neighbourhood tables of :meth:`si_tables`.
    """

    def __init__(self, classes):
        arr = np.asarray(classes)
        if arr.ndim != 2:
            raise DataError(f"layout must be 2-D, got shape {arr.shape}")
        bad = arr > N_CLASSES - 1
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise DataError(
                f"layout value {int(arr[i, j])} at pixel ({int(i)}, {int(j)}) "
                f"exceeds class range 0..{N_CLASSES - 1}"
            )
        if arr.min() < 0:
            raise DataError("layout contains negative class indices")
        self._classes = arr.astype(np.uint8)
        self._classes.setflags(write=False)
        self._scaled = {}  # factor -> downsampled layout
        self._tables = None

    @property
    def classes(self):
        """The [H, W] uint8 class map, read-only."""
        return self._classes

    @property
    def height(self):
        return self.classes.shape[0]

    @property
    def width(self):
        return self.classes.shape[1]

    def one_hot(self):
        """Binary [12, H, W] float64 planes; exactly one 1 per pixel."""
        planes = np.zeros((N_CLASSES,) + self.classes.shape)
        for c in range(N_CLASSES):
            planes[c] = self.classes == c
        return planes

    def downsampled(self, factor):
        """:func:`downsample_layout` of this layout, built once per factor."""
        if factor == 1:
            return self
        if factor not in self._scaled:
            self._scaled[factor] = downsample_layout(self, factor)
        return self._scaled[factor]

    def si_tables(self):
        """This layout's :func:`neighbourhood_tables`, built once."""
        if self._tables is None:
            self._tables = neighbourhood_tables(self.classes)
        return self._tables


def neighbourhood_tables(classes):
    """The distinct 3x3 and 5x5 neighbourhoods of an [H, W] class map.

    Returns int32 arrays ``(p3, n5, inv)``:

    - ``p3`` [U3, 9]: each distinct 3x3 neighbourhood, taps in row-major
      order, as class codes; code ``N_CLASSES`` marks a tap outside the map.
    - ``n5`` [U5, 9]: each distinct 5x5 neighbourhood, as the ``p3`` rows
      of its centre's nine 3x3 neighbours; row ``U3`` marks a neighbour
      outside the map.
    - ``inv`` [H*W]: each pixel's row of ``n5``.

    Two chained 3x3 convs over the one-hot map give each pixel a value
    that depends on its 5x5 neighbourhood alone, so they need computing
    once per row of ``n5``.  Each stage packs its taps into one int64 key
    per pixel and takes ``np.unique`` of the keys; rows come out in key
    order, so the tables are a function of ``classes`` alone.
    """
    h, w = classes.shape
    if (h + 2) * (w + 2) >= 1 << 21:  # three packed ids must fit in an int64
        raise DataError(f"layout {h}x{w} is too large for neighbourhood tables")
    base = N_CLASSES + 1
    pad = np.full((h + 2, w + 2), N_CLASSES, dtype=np.int64)
    pad[1:-1, 1:-1] = classes
    key = np.zeros((h, w), dtype=np.int64)
    for di in range(3):
        for dj in range(3):
            key = key * base + pad[di : di + h, dj : dj + w]
    keys, id3 = np.unique(key.ravel(), return_inverse=True)
    p3 = np.stack([keys // base ** (8 - t) % base for t in range(9)], axis=1)

    u3 = len(keys)
    ids = np.full((h + 2, w + 2), u3, dtype=np.int64)
    ids[1:-1, 1:-1] = id3.reshape(h, w)
    # Each pixel's 3 x 3 block of neighbour ids: its rows of three, then
    # the column of three row ids.
    row = (ids[:, :-2] * (u3 + 1) + ids[:, 1:-1]) * (u3 + 1) + ids[:, 2:]
    _, rid = np.unique(row.ravel(), return_inverse=True)
    rid = rid.reshape(h + 2, w)
    ur = int(rid.max()) + 1
    block = (rid[:-2] * ur + rid[1:-1]) * ur + rid[2:]
    _, first, inv = np.unique(block.ravel(), return_index=True, return_inverse=True)
    n5 = np.stack([ids[di : di + h, dj : dj + w].ravel()[first]
                   for di in range(3) for dj in range(3)], axis=1)
    return p3.astype(np.int32), n5.astype(np.int32), inv.astype(np.int32)


def downsample_layout(layout, factor):
    """Pick the top-left corner of each factor x factor block.

    Index picking (rather than averaging) keeps the result a valid class
    map at every pyramid resolution.
    """
    if not isinstance(factor, int) or factor < 1 or factor & (factor - 1):
        raise DataError(f"downsample factor must be a positive power of two, got {factor!r}")
    h, w = layout.classes.shape
    if h % factor or w % factor:
        raise DataError(f"layout size {h}x{w} not divisible by factor {factor}")
    return SemanticLayout(layout.classes[::factor, ::factor])


class SaliencyMap:
    """Scalar soft foreground weights in [0, 1]; clamped on construction."""

    def __init__(self, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise DataError(f"saliency must be 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DataError("saliency contains non-finite values")
        self.values = np.clip(arr, 0.0, 1.0)


@dataclass
class PairedSample:
    """One aligned (or deformed) photo/sketch pair with its side data.

    ``photo`` is [3, H, W] and ``sketch`` [1, H, W], both in [0, 1].  Each
    side carries its own saliency map and layout so the deformed corpus
    mode, where sketch geometry drifts from the photo, stays expressible.
    """

    id: str
    photo: Tensor
    sketch: Tensor
    saliency_photo: SaliencyMap
    saliency_sketch: SaliencyMap
    layout_photo: SemanticLayout
    layout_sketch: SemanticLayout

    def __post_init__(self):
        hw = self.photo.data.shape[1:]
        pieces = {
            "photo": self.photo.data.shape,
            "sketch": self.sketch.data.shape,
            "saliency_photo": (3,) + self.saliency_photo.values.shape,
            "saliency_sketch": (3,) + self.saliency_sketch.values.shape,
            "layout_photo": (3,) + self.layout_photo.classes.shape,
            "layout_sketch": (3,) + self.layout_sketch.classes.shape,
        }
        if self.photo.data.ndim != 3 or self.photo.data.shape[0] != 3:
            raise DataError(f"photo must be [3, H, W], got {self.photo.data.shape}")
        if self.sketch.data.ndim != 3 or self.sketch.data.shape[0] != 1:
            raise DataError(f"sketch must be [1, H, W], got {self.sketch.data.shape}")
        for name, shape in pieces.items():
            if shape[1:] != hw:
                raise DataError(
                    f"sample {self.id!r}: {name} spatial size {shape[1:]} != photo {hw}"
                )


# ---------------------------------------------------------------------------
# Netpbm IO
# ---------------------------------------------------------------------------


def write_pnm(path, arr, maxval=255):
    """Write [H, W] as binary P5 or [H, W, 3] as binary P6."""
    arr = np.asarray(arr)
    if maxval < 1 or maxval > 255:
        raise DataError(f"maxval {maxval} outside supported 1..255")
    if arr.min() < 0 or arr.max() > maxval:
        raise DataError(f"pixel values outside 0..{maxval}")
    if arr.ndim == 2:
        magic = b"P5"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"P6"
    else:
        raise DataError(f"cannot encode array of shape {arr.shape} as Netpbm")
    h, w = arr.shape[:2]
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n%d\n" % (w, h, maxval))
        f.write(arr.astype(np.uint8).tobytes())


def read_pnm(path):
    """Read binary P5/P6; returns (array, maxval) with uint8 values."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:2] not in (b"P5", b"P6"):
        raise DataError(f"{path}: unsupported Netpbm magic {blob[:2]!r}")
    magic = blob[:2]
    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(blob):
            raise DataError(f"{path}: truncated Netpbm header")
        ch = blob[pos : pos + 1]
        if ch == b"#":
            pos = blob.find(b"\n", pos)
            if pos < 0:
                raise DataError(f"{path}: Netpbm header comment has no end of line")
            pos += 1
        elif ch.isspace():
            pos += 1
        elif ch.isdigit():
            end = pos
            while end < len(blob) and blob[end : end + 1].isdigit():
                end += 1
            fields.append(int(blob[pos:end]))
            pos = end
        else:
            raise DataError(f"{path}: malformed Netpbm header byte {ch!r}")
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise DataError(f"{path}: Netpbm image is {w}x{h}, expected at least 1x1")
    if maxval < 1 or maxval > 255:
        raise DataError(f"{path}: unsupported maxval {maxval}")
    pos += 1  # single whitespace byte separates header and raster
    channels = 3 if magic == b"P6" else 1
    need = w * h * channels
    raster = blob[pos : pos + need]
    if len(raster) != need:
        raise DataError(f"{path}: raster has {len(raster)} bytes, expected {need}")
    arr = np.frombuffer(raster, dtype=np.uint8)
    arr = arr.reshape(h, w, 3) if channels == 3 else arr.reshape(h, w)
    if arr.max(initial=0) > maxval:
        raise DataError(f"{path}: pixel value exceeds declared maxval {maxval}")
    return arr.copy(), maxval


def write_photo(path, photo):
    """[3, H, W] floats in [0, 1] -> P6 bytes."""
    arr = np.asarray(photo)
    write_pnm(path, np.rint(np.clip(arr, 0.0, 1.0) * 255.0).transpose(1, 2, 0), 255)


def read_photo(path):
    arr, maxval = read_pnm(path)
    if arr.ndim != 3:
        raise DataError(f"{path}: photo must be P6 color")
    return arr.astype(np.float64).transpose(2, 0, 1) / maxval


def write_gray(path, values):
    """[H, W] floats in [0, 1] -> P5 bytes."""
    write_pnm(path, np.rint(np.clip(np.asarray(values), 0.0, 1.0) * 255.0), 255)


def read_gray(path):
    arr, maxval = read_pnm(path)
    if arr.ndim != 2:
        raise DataError(f"{path}: expected single-channel P5")
    return arr.astype(np.float64) / maxval


def write_layout(path, layout):
    write_pnm(path, layout.classes, N_CLASSES - 1)


def read_layout(path):
    arr, maxval = read_pnm(path)
    if arr.ndim != 2:
        raise DataError(f"{path}: layout must be single-channel P5")
    if maxval != N_CLASSES - 1:
        raise DataError(f"{path}: layout maxval {maxval} != {N_CLASSES - 1}")
    return SemanticLayout(arr)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def write_manifest(path, rows):
    with atomic_open(path) as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")


def read_manifest(path):
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read manifest {path}: {err}") from err
    first_line = {}  # sample id -> the line that named it first
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as err:
            raise DataError(f"{path}:{lineno}: invalid JSON: {err}") from err
        if not isinstance(row, dict):
            raise DataError(f"{path}:{lineno}: manifest row is not a JSON object")
        missing = [k for k in MANIFEST_KEYS if k not in row]
        if missing:
            raise DataError(f"{path}:{lineno}: manifest row missing keys {missing}")
        for key in MANIFEST_KEYS:
            if key != "id" and not (isinstance(row[key], str) and row[key]):
                raise DataError(f"{path}:{lineno}: manifest key {key!r} is not a file name")
        sid = str(row["id"])
        if sid in first_line:
            raise DataError(
                f"{path}:{lineno}: sample id {sid!r} repeats line {first_line[sid]}"
            )
        first_line[sid] = lineno
        rows.append(row)
    return rows


def load_sample(manifest_path, row):
    """Materialize one manifest row into a :class:`PairedSample`."""
    base = os.path.dirname(os.path.abspath(manifest_path))

    def resolve(key):
        p = os.path.join(base, row[key])
        if not os.path.exists(p):
            raise DataError(f"sample {row['id']!r}: missing file {p}")
        return p

    photo = read_photo(resolve("photo"))
    sketch = read_gray(resolve("sketch"))[None, :, :]
    return PairedSample(
        id=str(row["id"]),
        photo=Tensor(photo),
        sketch=Tensor(sketch),
        saliency_photo=SaliencyMap(read_gray(resolve("saliency_photo"))),
        saliency_sketch=SaliencyMap(read_gray(resolve("saliency_sketch"))),
        layout_photo=read_layout(resolve("layout_photo")),
        layout_sketch=read_layout(resolve("layout_sketch")),
    )


def load_corpus(manifest_path):
    """Every sample of a manifest; all must share sample 0's image size."""
    rows = read_manifest(manifest_path)
    if not rows:
        raise DataError(f"{manifest_path}: empty manifest")
    samples = [load_sample(manifest_path, row) for row in rows]
    first = samples[0].photo.data.shape
    for s in samples:
        shape = s.photo.data.shape
        if shape != first:
            raise DataError(
                f"{manifest_path}: sample {s.id!r} is {shape[1]}x{shape[2]}px but "
                f"sample {samples[0].id!r} is {first[1]}x{first[2]}px"
            )
    return samples
