"""Procedural paired photo/sketch corpus with exact semantic layouts.

Each sample is a face-like scene assembled from jittered ellipse
primitives, rasterized class-by-class in a fixed layering order so that
the class map is unambiguous.  The photo side renders the class map
with a per-sample palette, a lighting gradient, and sensor noise; the
sketch side renders edge strokes of the same structure.  Both renders
and both layouts come from one rasterizer, so layouts match the images
pixel-for-pixel.  In the "deformed" corpus mode the sketch-side
geometry is warped by a smooth random displacement field (bounded by
four pixels at 64x64) while the photo side stays put.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .layout import (
    BACKGROUND,
    CLOTH,
    EARS,
    EYEBROWS,
    EYES,
    GLASSES,
    HAIR,
    INNER_MOUTH,
    LIPS,
    MANIFEST_KEYS,
    N_CLASSES,
    NECK,
    NOSE,
    SKIN,
    DataError,
    SemanticLayout,
    write_gray,
    write_layout,
    write_manifest,
    write_photo,
)
from .metrics import LUMA_WEIGHTS, gradient_magnitude, separable_filter

# Painting order: later entries overwrite earlier ones.
LAYER_ORDER = (
    CLOTH, NECK, SKIN, HAIR, EARS, NOSE, LIPS, INNER_MOUTH, EYEBROWS, EYES, GLASSES,
)

# Maximum warp displacement, in units of the canvas side (4 px at 64x64).
MAX_WARP = 4.0 / 64.0


@dataclass
class Ellipse:
    cx: float
    cy: float
    ax: float
    ay: float
    rot: float = 0.0

    def contains(self, x, y):
        dx = x - self.cx
        dy = y - self.cy
        c, s = np.cos(self.rot), np.sin(self.rot)
        u = (dx * c + dy * s) / self.ax
        v = (-dx * s + dy * c) / self.ay
        return u * u + v * v <= 1.0


@dataclass
class HalfPlane:
    """Pixels below the line y = y0 + slope * (x - 0.5)."""

    y0: float
    slope: float

    def contains(self, x, y):
        return y >= self.y0 + self.slope * (x - 0.5)


@dataclass
class Annulus:
    outer: Ellipse
    inner: Ellipse

    def contains(self, x, y):
        return self.outer.contains(x, y) & ~self.inner.contains(x, y)


@dataclass
class SceneSpec:
    """Resolved per-sample geometry, palette, and photo rendering knobs."""

    parts: dict = field(default_factory=dict)  # class index -> list of primitives
    palette: np.ndarray = None  # [12, 3] RGB in [0, 1]
    light_angle: float = 0.0
    light_gain: float = 0.0
    noise_sigma: float = 0.0
    stroke_gain: float = 0.9


def sample_scene(rng, with_glasses):
    """Draw one scene's geometry and appearance from ``rng``."""
    parts = {}

    face_cx = 0.5 + rng.uniform(-0.03, 0.03)
    face_cy = 0.46 + rng.uniform(-0.03, 0.03)
    face_a = 0.20 + rng.uniform(-0.02, 0.03)
    face_b = 0.26 + rng.uniform(-0.02, 0.03)
    parts[SKIN] = [Ellipse(face_cx, face_cy, face_a, face_b, rng.uniform(-0.08, 0.08))]

    parts[HAIR] = [Ellipse(
        face_cx,
        face_cy - face_b * 0.60,
        face_a * (1.22 + rng.uniform(-0.06, 0.06)),
        face_b * (0.58 + rng.uniform(-0.04, 0.04)),
        rng.uniform(-0.05, 0.05),
    )]

    parts[NECK] = [Ellipse(
        face_cx + rng.uniform(-0.01, 0.01),
        face_cy + face_b + 0.10,
        0.085 + rng.uniform(-0.015, 0.015),
        0.14 + rng.uniform(-0.02, 0.02),
    )]

    parts[CLOTH] = [HalfPlane(0.86 + rng.uniform(-0.04, 0.04), rng.uniform(-0.06, 0.06))]

    ear_ay = 0.048 + rng.uniform(-0.006, 0.006)
    parts[EARS] = [
        Ellipse(face_cx - face_a * 1.02, face_cy + 0.02, 0.030, ear_ay),
        Ellipse(face_cx + face_a * 1.02, face_cy + 0.02, 0.030, ear_ay),
    ]

    parts[NOSE] = [Ellipse(
        face_cx,
        face_cy + face_b * (0.10 + rng.uniform(-0.04, 0.04)),
        0.022 + rng.uniform(-0.004, 0.006),
        0.050 + rng.uniform(-0.008, 0.010),
        rng.uniform(-0.06, 0.06),
    )]

    lip_cy = face_cy + face_b * (0.55 + rng.uniform(-0.05, 0.05))
    lip_ax = 0.055 + rng.uniform(-0.008, 0.010)
    lip_ay = 0.020 + rng.uniform(-0.004, 0.005)
    parts[LIPS] = [Ellipse(face_cx, lip_cy, lip_ax, lip_ay)]
    parts[INNER_MOUTH] = [Ellipse(face_cx, lip_cy, lip_ax * 0.60, lip_ay * 0.45)]

    eye_dx = face_a * (0.42 + rng.uniform(-0.05, 0.05))
    eye_y = face_cy - face_b * (0.12 + rng.uniform(-0.04, 0.04))
    eye_ax = 0.032 + rng.uniform(-0.005, 0.008)
    eye_ay = 0.018 + rng.uniform(-0.004, 0.006)
    parts[EYES] = [
        Ellipse(face_cx - eye_dx, eye_y, eye_ax, eye_ay),
        Ellipse(face_cx + eye_dx, eye_y, eye_ax, eye_ay),
    ]

    brow_y = eye_y - (0.055 + rng.uniform(0.0, 0.015))
    brow_rot = rng.uniform(-0.15, 0.15)
    parts[EYEBROWS] = [
        Ellipse(face_cx - eye_dx, brow_y, 0.042 + rng.uniform(-0.005, 0.010),
                0.010 + rng.uniform(-0.002, 0.004), brow_rot),
        Ellipse(face_cx + eye_dx, brow_y, 0.042 + rng.uniform(-0.005, 0.010),
                0.010 + rng.uniform(-0.002, 0.004), -brow_rot),
    ]

    if with_glasses:
        rim_x, rim_y = eye_ax + 0.014, eye_ay + 0.012
        out_x, out_y = rim_x + 0.010, rim_y + 0.010
        rings = []
        for sx in (-1, 1):
            cx = face_cx + sx * eye_dx
            rings.append(Annulus(Ellipse(cx, eye_y, out_x, out_y),
                                 Ellipse(cx, eye_y, rim_x, rim_y)))
        rings.append(Ellipse(face_cx, eye_y, eye_dx * 0.55, 0.006))
        parts[GLASSES] = rings

    palette = np.zeros((N_CLASSES, 3))
    palette[BACKGROUND] = 0.82 + rng.uniform(-0.08, 0.08, 3)
    palette[CLOTH] = rng.uniform(0.15, 0.55, 3)
    skin_tone = np.array([0.85, 0.68, 0.55]) + rng.uniform(-0.08, 0.08, 3)
    palette[SKIN] = skin_tone
    palette[NECK] = skin_tone * (0.92 + rng.uniform(-0.04, 0.04))
    palette[EARS] = skin_tone * (0.96 + rng.uniform(-0.04, 0.04))
    palette[NOSE] = skin_tone * (0.88 + rng.uniform(-0.05, 0.05))
    hair_base = rng.uniform(0.05, 0.35)
    palette[HAIR] = hair_base * np.array([1.0, 0.8, 0.6]) + rng.uniform(0.0, 0.05, 3)
    palette[EYEBROWS] = palette[HAIR] * 0.8
    palette[EYES] = rng.uniform(0.05, 0.25, 3)
    palette[LIPS] = np.array([0.65, 0.25, 0.25]) + rng.uniform(-0.08, 0.08, 3)
    palette[INNER_MOUTH] = np.array([0.35, 0.10, 0.12]) + rng.uniform(-0.05, 0.05, 3)
    palette[GLASSES] = rng.uniform(0.05, 0.20, 3)
    palette = np.clip(palette, 0.0, 1.0)

    return SceneSpec(
        parts=parts,
        palette=palette,
        light_angle=rng.uniform(0.0, 2.0 * np.pi),
        light_gain=rng.uniform(0.08, 0.25),
        noise_sigma=rng.uniform(0.01, 0.03),
        stroke_gain=0.85 + rng.uniform(0.0, 0.10),
    )


def sample_warp(rng):
    """Smooth displacement field with total amplitude under MAX_WARP."""
    amp = rng.uniform(0.3, 0.85) * MAX_WARP
    a1 = amp * rng.uniform(0.3, 0.7)
    a2 = amp - a1
    f1, f2 = rng.uniform(0.5, 1.5, 2)
    p = rng.uniform(0.0, 2.0 * np.pi, 4)
    b1 = amp * rng.uniform(0.3, 0.7)
    b2 = amp - b1
    g1, g2 = rng.uniform(0.5, 1.5, 2)

    def warp(x, y):
        dx = a1 * np.sin(2.0 * np.pi * f1 * y + p[0]) + a2 * np.sin(2.0 * np.pi * f2 * x + p[1])
        dy = b1 * np.sin(2.0 * np.pi * g1 * x + p[2]) + b2 * np.sin(2.0 * np.pi * g2 * y + p[3])
        return x + dx, y + dy

    return warp


def rasterize(spec, size, warp=None):
    """Paint the scene's class map at ``size`` x ``size``.

    Parts are painted in the fixed layering order; any part whose mask
    comes out empty at coarse resolutions claims its anchor pixel so
    every non-optional class stays present.
    """
    coords = (np.arange(size) + 0.5) / size
    x, y = np.meshgrid(coords, coords)
    if warp is not None:
        x, y = warp(x, y)
    classes = np.full((size, size), BACKGROUND, dtype=np.uint8)
    for cls in LAYER_ORDER:
        for prim in spec.parts.get(cls, ()):
            mask = prim.contains(x, y)
            if not mask.any():
                ax, ay = _anchor(prim)
                i = min(max(int(ay * size), 0), size - 1)
                j = min(max(int(ax * size), 0), size - 1)
                mask = np.zeros_like(mask)
                mask[i, j] = True
            classes[mask] = cls
    return SemanticLayout(classes)


def _anchor(prim):
    if isinstance(prim, Ellipse):
        return prim.cx, prim.cy
    if isinstance(prim, Annulus):
        return prim.outer.cx + (prim.inner.ax + prim.outer.ax) / 2.0, prim.outer.cy
    return 0.5, prim.y0


def _box_blur(img, radius, passes=3):
    """Repeated edge-padded box filter of a 2-D image."""
    box = np.full(2 * radius + 1, 1.0 / (2 * radius + 1))
    for _ in range(passes):
        img = separable_filter(np.pad(img, radius, mode="edge"), box, box)
    return img


def render_photo(spec, layout, rng):
    """Palette fill + lighting gradient + Gaussian noise, in [0, 1]."""
    size = layout.height
    img = spec.palette[layout.classes].transpose(2, 0, 1)  # [3, H, W]
    coords = (np.arange(size) + 0.5) / size - 0.5
    x, y = np.meshgrid(coords, coords)
    ramp = 1.0 + spec.light_gain * (x * np.cos(spec.light_angle) + y * np.sin(spec.light_angle))
    img = img * ramp[None, :, :]
    img = img + rng.normal(0.0, spec.noise_sigma, img.shape)
    return np.clip(img, 0.0, 1.0)


def render_sketch(spec, layout, rng):
    """Edge-stroke rendering of the class structure, in [0, 1]."""
    luma = spec.palette[layout.classes] @ np.array(LUMA_WEIGHTS)
    edges = gradient_magnitude(luma, "edge")
    peak = edges.max()
    strokes = edges / peak if peak > 0 else edges
    texture = 0.75 + 0.25 * _box_blur(rng.random(luma.shape), radius=2, passes=2)
    sketch = 1.0 - spec.stroke_gain * strokes * texture
    return np.clip(sketch, 0.0, 1.0)[None, :, :]


def render_saliency(layout, radius=2):
    """Blurred foreground indicator: ~1 on the subject, ~0 on background."""
    fg = (layout.classes != BACKGROUND).astype(np.float64)
    return np.clip(_box_blur(fg, radius=radius, passes=2), 0.0, 1.0)


def _glasses_schedule(index, frac):
    """Deterministic Bresenham-style schedule hitting ``frac`` exactly."""
    return int(np.floor((index + 1) * frac)) > int(np.floor(index * frac))


def generate_sample(corpus_seed, index, size, mode, glasses_frac=0.5):
    """Build one sample's arrays; deterministic in (corpus_seed, index)."""
    if mode not in ("aligned", "deformed"):
        raise DataError(f"unknown corpus mode {mode!r}")
    rng = np.random.default_rng([int(corpus_seed), int(index)])
    spec = sample_scene(rng, with_glasses=_glasses_schedule(index, glasses_frac))
    warp = sample_warp(rng) if mode == "deformed" else None

    layout_photo = rasterize(spec, size)
    layout_sketch = rasterize(spec, size, warp=warp) if warp else layout_photo
    photo = render_photo(spec, layout_photo, rng)
    sketch = render_sketch(spec, layout_sketch, rng)
    return {
        "photo": photo,
        "sketch": sketch,
        "saliency_photo": render_saliency(layout_photo),
        "saliency_sketch": render_saliency(layout_sketch),
        "layout_photo": layout_photo,
        "layout_sketch": layout_sketch,
    }


def generate_corpus(out_dir, n, size, seed, mode="aligned", glasses_frac=0.5):
    """Write an n-sample corpus and its manifest; returns the manifest path."""
    if n < 1:
        raise DataError(f"corpus size must be >= 1, got {n}")
    if size not in (32, 64, 128, 256):
        raise DataError(f"image size must be one of 32, 64, 128, 256, got {size}")
    if not 0.0 <= glasses_frac <= 1.0:  # also rejects NaN
        raise DataError(f"glasses fraction must be in [0, 1], got {glasses_frac}")
    if seed < 0:
        raise DataError(f"corpus seed must be >= 0, got {seed}")
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for i in range(n):
        sample = generate_sample(seed, i, size, mode, glasses_frac)
        sid = f"{i:04d}"
        names = {k: f"{sid}_{k}.{'ppm' if k == 'photo' else 'pgm'}"
                 for k in MANIFEST_KEYS if k != "id"}
        write_photo(os.path.join(out_dir, names["photo"]), sample["photo"])
        write_gray(os.path.join(out_dir, names["sketch"]), sample["sketch"][0])
        write_gray(os.path.join(out_dir, names["saliency_photo"]), sample["saliency_photo"])
        write_gray(os.path.join(out_dir, names["saliency_sketch"]), sample["saliency_sketch"])
        write_layout(os.path.join(out_dir, names["layout_photo"]), sample["layout_photo"])
        write_layout(os.path.join(out_dir, names["layout_sketch"]), sample["layout_sketch"])
        rows.append({"id": sid, **names})
    manifest = os.path.join(out_dir, "manifest.jsonl")
    write_manifest(manifest, rows)
    return manifest
