"""Full-reference and distribution metrics for synthesized images.

SSIM follows the classic 11x11 Gaussian-window formulation.  FSIM
combines log-Gabor phase congruency (4 scales x 4 orientations) with
Scharr gradient magnitude, using the standard stabilizers T1 = 0.85 on
phase congruency and T2 = 160 on gradients over a 0..255 intensity
scale; color inputs are reduced to luminance first.  The Frechet
distance between embedding sets uses the symmetric-eigendecomposition
matrix square root with negative eigenvalues clamped to zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_L = 1.0

FSIM_T1 = 0.85
FSIM_T2 = 160.0

LUMA_WEIGHTS = (0.299, 0.587, 0.114)  # ITU-R 601


def to_luminance(img):
    """[H, W] images pass through; [3, H, W] are reduced to 601 luma."""
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim == 2:
        return arr
    if arr.ndim == 3 and arr.shape[0] == 1:
        return arr[0]
    if arr.ndim == 3 and arr.shape[0] == 3:
        r, g, b = LUMA_WEIGHTS
        return r * arr[0] + g * arr[1] + b * arr[2]
    raise ValueError(f"cannot take luminance of shape {arr.shape}")


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------


def _gaussian_window(size, sigma):
    """The 1-D factor ``g`` of the normalized window ``outer(g, g)``."""
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    g = np.exp(-(coords ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


def separable_filter(img, gv, gh):
    """Valid-mode correlation of ``img`` with ``outer(gv, gh)``, as a pass
    of ``gv`` down the columns and then one of ``gh`` along the rows.
    Every image filter here is this one: SSIM's Gaussian window, the
    Scharr gradients of FSIM and the sketch renderer, and the corpus
    box blur."""
    h, w = img.shape
    cols = gv[0] * img[: h - len(gv) + 1]
    for t in range(1, len(gv)):
        cols += gv[t] * img[t : h - len(gv) + 1 + t]
    out = gh[0] * cols[:, : w - len(gh) + 1]
    for t in range(1, len(gh)):
        out += gh[t] * cols[:, t : w - len(gh) + 1 + t]
    return out


_SCHARR_SMOOTH = np.array([3.0, 10.0, 3.0]) / 16.0
_SCHARR_DIFF = np.array([-1.0, 0.0, 1.0])


def gradient_magnitude(img, pad_mode):
    """Same-size Scharr gradient magnitude of a 2-D image, padded by one
    pixel with ``np.pad(img, 1, mode=pad_mode)``; each derivative is a
    smoothing pass across it and a central difference along it."""
    p = np.pad(img, 1, mode=pad_mode)
    gx = separable_filter(p, _SCHARR_SMOOTH, _SCHARR_DIFF)
    gy = separable_filter(p, _SCHARR_DIFF, _SCHARR_SMOOTH)
    return np.sqrt(gx * gx + gy * gy)


def ssim(x, y):
    """Mean structural similarity over valid 11x11 Gaussian windows."""
    a = to_luminance(x)
    b = to_luminance(y)
    if a.shape != b.shape:
        raise ValueError(f"ssim shapes differ: {a.shape} vs {b.shape}")
    if min(a.shape) < SSIM_WINDOW:
        raise ValueError(f"ssim needs at least {SSIM_WINDOW} pixels per side, got {a.shape}")
    g = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    c1 = (SSIM_K1 * SSIM_L) ** 2
    c2 = (SSIM_K2 * SSIM_L) ** 2

    mu_a = separable_filter(a, g, g)
    mu_b = separable_filter(b, g, g)
    var_a = separable_filter(a * a, g, g) - mu_a * mu_a
    var_b = separable_filter(b * b, g, g) - mu_b * mu_b
    cov = separable_filter(a * b, g, g) - mu_a * mu_b

    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


# ---------------------------------------------------------------------------
# phase congruency and FSIM
# ---------------------------------------------------------------------------


def phase_congruency(img):
    """Phase congruency map from a log-Gabor filter bank.

    Over each orientation, responses across scales are combined into a
    local-energy measure, noise-compensated from the smallest-scale
    amplitude, weighted by how widely the spectrum is spread, and
    normalized by the total amplitude sum.  The per-orientation maps are
    summed.  Values peak where Fourier components align in phase (step
    edges, line features).  The bank has 4 scales (wavelengths 6, 12,
    24, 48 px) and 4 orientations.
    """
    nscale, norient, mult, eps = 4, 4, 2.0, 1e-4
    img = np.asarray(img, dtype=np.float64)
    rows, cols = img.shape
    fy = np.fft.fftfreq(rows)[:, None]
    fx = np.fft.fftfreq(cols)[None, :]
    radius = np.sqrt(fx * fx + fy * fy)
    # Butterworth low-pass (cutoff 0.45, order 15) keeps the bank off the
    # frequency-square corners; taken before the DC entry, which every
    # filter zeroes anyway, is set to 1 for the log below.
    lp = 1.0 / (1.0 + (radius / 0.45) ** 30)
    radius[0, 0] = 1.0
    theta = np.arctan2(-fy, fx)
    sintheta = np.sin(theta)
    costheta = np.cos(theta)

    log_gabor = []
    for s in range(nscale):
        wavelength = 6 * mult ** s
        f0 = 1.0 / wavelength
        lg = np.exp(-(np.log(radius / f0) ** 2) / (2.0 * np.log(0.55) ** 2))
        lg = lg * lp
        lg[0, 0] = 0.0
        log_gabor.append(lg)

    theta_sigma = np.pi / norient / 1.2
    img_fft = np.fft.fft2(img)
    total_pc = np.zeros((rows, cols))

    for o in range(norient):
        angle = o * np.pi / norient
        ds = sintheta * np.cos(angle) - costheta * np.sin(angle)
        dc = costheta * np.cos(angle) + sintheta * np.sin(angle)
        dtheta = np.abs(np.arctan2(ds, dc))
        spread = np.exp(-(dtheta ** 2) / (2.0 * theta_sigma ** 2))

        e_parts = []
        o_parts = []
        sum_an = np.zeros((rows, cols))
        sum_e = np.zeros((rows, cols))
        sum_o = np.zeros((rows, cols))
        max_an = None
        tau = 0.0
        for s in range(nscale):
            eo = np.fft.ifft2(img_fft * (log_gabor[s] * spread))
            an = np.abs(eo)
            e_parts.append(eo.real)
            o_parts.append(eo.imag)
            sum_an = sum_an + an
            sum_e = sum_e + eo.real
            sum_o = sum_o + eo.imag
            if s == 0:
                tau = np.median(an) / np.sqrt(np.log(4.0))
                max_an = an
            else:
                max_an = np.maximum(max_an, an)

        x_energy = np.sqrt(sum_e * sum_e + sum_o * sum_o) + eps
        mean_e = sum_e / x_energy
        mean_o = sum_o / x_energy
        energy = np.zeros((rows, cols))
        for e_s, o_s in zip(e_parts, o_parts):
            energy += e_s * mean_e + o_s * mean_o - np.abs(e_s * mean_o - o_s * mean_e)

        # Rayleigh-statistics noise threshold estimated from the finest scale.
        total_tau = tau * (1.0 - (1.0 / mult) ** nscale) / (1.0 - 1.0 / mult)
        noise_mean = total_tau * np.sqrt(np.pi / 2.0)
        noise_sigma = total_tau * np.sqrt((4.0 - np.pi) / 2.0)
        t = (noise_mean + 2.0 * noise_sigma) / 1.7
        energy = np.maximum(energy - t, 0.0)

        width = (sum_an / (max_an + eps) - 1.0) / (nscale - 1)
        weight = 1.0 / (1.0 + np.exp((0.5 - width) * 10.0))
        # eps keeps featureless (zero-amplitude) regions at PC = 0.
        total_pc += weight * energy / (sum_an + eps)
    return total_pc


def fsim(x, y):
    """Feature similarity: phase congruency and gradient agreement,
    weighted by the stronger phase-congruency map."""
    a = to_luminance(x) * 255.0
    b = to_luminance(y) * 255.0
    if a.shape != b.shape:
        raise ValueError(f"fsim shapes differ: {a.shape} vs {b.shape}")
    if min(a.shape) < 16:
        raise ValueError(f"fsim needs at least 16 pixels per side, got {a.shape}")

    # Match the customary working resolution: average-pool so the short
    # side lands near 256 pixels (no-op at desk scale).
    factor = max(1, int(round(min(a.shape) / 256.0)))
    if factor > 1:
        h = (a.shape[0] // factor) * factor
        w = (a.shape[1] // factor) * factor
        a = a[:h, :w].reshape(h // factor, factor, w // factor, factor).mean(axis=(1, 3))
        b = b[:h, :w].reshape(h // factor, factor, w // factor, factor).mean(axis=(1, 3))

    pc_a = phase_congruency(a)
    pc_b = phase_congruency(b)
    g_a = gradient_magnitude(a, "constant")
    g_b = gradient_magnitude(b, "constant")

    s_pc = (2.0 * pc_a * pc_b + FSIM_T1) / (pc_a * pc_a + pc_b * pc_b + FSIM_T1)
    s_g = (2.0 * g_a * g_b + FSIM_T2) / (g_a * g_a + g_b * g_b + FSIM_T2)
    pc_max = np.maximum(pc_a, pc_b)
    denom = float(np.sum(pc_max))
    if denom == 0.0:
        # Featureless inputs carry no phase-congruency weighting; fall
        # back to the unweighted similarity so fsim(x, x) stays 1.
        return float(np.mean(s_pc * s_g))
    return float(np.sum(s_pc * s_g * pc_max) / denom)


# ---------------------------------------------------------------------------
# Frechet distance
# ---------------------------------------------------------------------------


def _psd_sqrt(mat):
    """Matrix square root via symmetric eigendecomposition.

    Eigenvalues below zero (numerical noise on a PSD input) are clamped.
    """
    sym = (mat + mat.T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_from_stats(mu_a, cov_a, mu_b, cov_b):
    """Frechet distance between Gaussians given population statistics.

    d^2 = |mu_a - mu_b|^2 + Tr(cov_a + cov_b - 2 (cov_a cov_b)^(1/2)),
    with the cross term evaluated through the symmetric product
    cov_a^(1/2) cov_b cov_a^(1/2) so the eigendecomposition stays real.
    """
    mu_a = np.atleast_1d(np.asarray(mu_a, dtype=np.float64))
    mu_b = np.atleast_1d(np.asarray(mu_b, dtype=np.float64))
    cov_a = np.atleast_2d(np.asarray(cov_a, dtype=np.float64))
    cov_b = np.atleast_2d(np.asarray(cov_b, dtype=np.float64))
    if mu_a.shape != mu_b.shape or cov_a.shape != cov_b.shape:
        raise ValueError("statistics shapes differ between the two distributions")

    diff = mu_a - mu_b
    root_a = _psd_sqrt(cov_a)
    inner = root_a @ cov_b @ root_a
    vals = np.linalg.eigvalsh((inner + inner.T) / 2.0)
    tr_sqrt = np.sum(np.sqrt(np.clip(vals, 0.0, None)))
    return float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * tr_sqrt)


def frechet_distance(feats_a, feats_b):
    """Frechet distance between two embedding sets ([N, D], N >= 2)."""
    fa = np.asarray(feats_a, dtype=np.float64)
    fb = np.asarray(feats_b, dtype=np.float64)
    for name, f in (("first", fa), ("second", fb)):
        if f.ndim != 2 or f.shape[0] < 2:
            raise ValueError(f"{name} embedding set must be [N >= 2, D], got {f.shape}")
    if fa.shape[1] != fb.shape[1]:
        raise ValueError(f"embedding widths differ: {fa.shape[1]} vs {fb.shape[1]}")
    mu_a, mu_b = fa.mean(axis=0), fb.mean(axis=0)
    cov_a = np.cov(fa, rowvar=False, ddof=1).reshape(fa.shape[1], fa.shape[1])
    cov_b = np.cov(fb, rowvar=False, ddof=1).reshape(fb.shape[1], fb.shape[1])
    return frechet_from_stats(mu_a, cov_a, mu_b, cov_b)


# ---------------------------------------------------------------------------
# corpus-level evaluation
# ---------------------------------------------------------------------------


@dataclass
class MetricReport:
    """Per-pair metrics plus the corpus-level distribution distance."""

    ssim_values: list = field(default_factory=list)
    fsim_values: list = field(default_factory=list)
    frechet_proxy: float = float("nan")
    n: int = 0

    @property
    def ssim_mean(self):
        return float(np.mean(self.ssim_values)) if self.ssim_values else float("nan")

    @property
    def fsim_mean(self):
        return float(np.mean(self.fsim_values)) if self.fsim_values else float("nan")

    def summary(self):
        """JSON-ready means; a NaN proxy (fewer than two pairs) is None,
        which JSON writes as null."""
        proxy = self.frechet_proxy
        return {
            "ssim_mean": self.ssim_mean,
            "fsim_mean": self.fsim_mean,
            "frechet_proxy": None if np.isnan(proxy) else proxy,
            "n": self.n,
        }


def evaluate_pairs(real_images, fake_images, embed=None, map_fn=map):
    """Score aligned lists of real/fake images ([C, H, W] arrays).

    ``embed`` maps an image to a 1-D embedding for the Frechet proxy
    (skipped when absent or when fewer than two pairs exist).
    ``map_fn`` lets callers swap in a pooled map; results are consumed
    in input order either way, so the report is order-deterministic.
    """
    if len(real_images) != len(fake_images):
        raise ValueError("real/fake lists differ in length")
    report = MetricReport(n=len(real_images))

    def score(pair):
        r, f = pair
        return ssim(r, f), fsim(r, f)

    for s, fs in map_fn(score, list(zip(real_images, fake_images))):
        report.ssim_values.append(s)
        report.fsim_values.append(fs)

    if embed is not None and len(real_images) >= 2:
        emb_real = np.stack([embed(r) for r in real_images])
        emb_fake = np.stack([embed(f) for f in fake_images])
        report.frechet_proxy = frechet_distance(emb_real, emb_fake)
    return report
