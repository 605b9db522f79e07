"""Tests for SSIM, FSIM, phase congruency, and the Frechet distance.

SSIM is checked against a closed form for constant images and a
windowed loop oracle; the Frechet distance against diagonal-covariance
closed forms and an eigenvalue oracle on the covariance product.
"""
import numpy as np
import pytest

from sgs.losses import FeatureExtractor
from sgs.metrics import (
    LUMA_WEIGHTS,
    SSIM_K1,
    SSIM_K2,
    SSIM_L,
    SSIM_SIGMA,
    SSIM_WINDOW,
    MetricReport,
    evaluate_pairs,
    frechet_distance,
    frechet_from_stats,
    fsim,
    gradient_magnitude,
    phase_congruency,
    separable_filter,
    ssim,
    to_luminance,
)


def rand_gray(rng, size):
    return rng.uniform(0.0, 1.0, size=(size, size))


# The 2-D Scharr x-derivative kernel, for convolution (flip to correlate).
SCHARR_X = np.array([[3.0, 0.0, -3.0], [10.0, 0.0, -10.0], [3.0, 0.0, -3.0]]) / 16.0


def correlate_oracle(img, window):
    """Valid-mode 2-D correlation by an explicit loop over windows."""
    kh, kw = window.shape
    out = np.empty((img.shape[0] - kh + 1, img.shape[1] - kw + 1))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            out[i, j] = np.sum(img[i:i + kh, j:j + kw] * window)
    return out


def ssim_oracle(a, b):
    """Windowed SSIM computed with explicit position loops."""
    half = (SSIM_WINDOW - 1) / 2.0
    coords = np.arange(SSIM_WINDOW) - half
    g = np.exp(-(coords ** 2) / (2.0 * SSIM_SIGMA ** 2))
    w = np.outer(g, g)
    w /= w.sum()
    c1 = (SSIM_K1 * SSIM_L) ** 2
    c2 = (SSIM_K2 * SSIM_L) ** 2
    vals = []
    for i in range(a.shape[0] - SSIM_WINDOW + 1):
        for j in range(a.shape[1] - SSIM_WINDOW + 1):
            pa = a[i:i + SSIM_WINDOW, j:j + SSIM_WINDOW]
            pb = b[i:i + SSIM_WINDOW, j:j + SSIM_WINDOW]
            mu_a = (w * pa).sum()
            mu_b = (w * pb).sum()
            var_a = (w * pa * pa).sum() - mu_a ** 2
            var_b = (w * pb * pb).sum() - mu_b ** 2
            cov = (w * pa * pb).sum() - mu_a * mu_b
            num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
            den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
            vals.append(num / den)
    return float(np.mean(vals))


class TestToLuminance:
    def test_gray_passthrough(self):
        x = rand_gray(np.random.default_rng(0), 5)
        assert np.array_equal(to_luminance(x), x)

    def test_single_channel_squeezed(self):
        x = np.random.default_rng(1).uniform(size=(1, 4, 4))
        assert np.array_equal(to_luminance(x), x[0])

    def test_color_uses_601_weights(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(size=(3, 4, 4))
        want = sum(w * img[c] for c, w in enumerate(LUMA_WEIGHTS))
        assert np.allclose(to_luminance(img), want, atol=1e-15)

    def test_equal_channels_reduce_to_gray(self):
        """Luma weights sum to 1, so a gray image in color form is unchanged."""
        x = rand_gray(np.random.default_rng(3), 6)
        assert np.allclose(to_luminance(np.stack([x, x, x])), x, atol=1e-12)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            to_luminance(np.zeros((2, 4, 4)))
        with pytest.raises(ValueError):
            to_luminance(np.zeros(7))


class TestSeparableFilter:
    @pytest.mark.parametrize("shape", [(5, 5), (9, 14), (32, 32)])
    def test_matches_window_loop(self, shape):
        """A 3-tap pass down the columns and a different 5-tap one along
        the rows equal correlation with their outer product."""
        rng = np.random.default_rng(sum(shape))
        img = rng.normal(size=shape)
        gv, gh = rng.normal(size=3), rng.normal(size=5)
        got = separable_filter(img, gv, gh)
        want = correlate_oracle(img, np.outer(gv, gh))
        assert got.shape == (shape[0] - 2, shape[1] - 4)
        assert np.max(np.abs(got - want)) <= 1e-12


class TestGradientMagnitude:
    @pytest.mark.parametrize("pad_mode", ["constant", "edge"])
    @pytest.mark.parametrize("size", [16, 33])
    def test_matches_2d_scharr_loop(self, pad_mode, size):
        """Two separable passes give the 2-D Scharr kernel's magnitude."""
        img = rand_gray(np.random.default_rng(size), size)
        p = np.pad(img, 1, mode=pad_mode)
        gx = correlate_oracle(p, SCHARR_X[::-1, ::-1])
        gy = correlate_oracle(p, SCHARR_X.T[::-1, ::-1])
        got = gradient_magnitude(img, pad_mode)
        assert got.shape == img.shape
        assert np.max(np.abs(got - np.sqrt(gx * gx + gy * gy))) <= 1e-12

    def test_pad_modes_differ_only_at_the_border(self):
        img = rand_gray(np.random.default_rng(5), 16)
        zero = gradient_magnitude(img, "constant")
        edge = gradient_magnitude(img, "edge")
        assert np.array_equal(zero[1:-1, 1:-1], edge[1:-1, 1:-1])
        assert not np.array_equal(zero, edge)


class TestSsim:
    def test_self_similarity_is_one(self):
        x = rand_gray(np.random.default_rng(10), 16)
        assert ssim(x, x) == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(11)
        a, b = rand_gray(rng, 16), rand_gray(rng, 16)
        assert abs(ssim(a, b) - ssim(b, a)) < 1e-15

    @pytest.mark.parametrize("a_val,b_val", [(0.2, 0.8), (0.0, 1.0), (0.5, 0.5)])
    def test_constant_images_closed_form(self, a_val, b_val):
        """Windows of constants have zero variance, leaving the luminance term."""
        a = np.full((16, 16), a_val)
        b = np.full((16, 16), b_val)
        c1 = (SSIM_K1 * SSIM_L) ** 2
        want = (2 * a_val * b_val + c1) / (a_val ** 2 + b_val ** 2 + c1)
        assert abs(ssim(a, b) - want) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rand_gray(rng, 14), rand_gray(rng, 14)
        assert abs(ssim(a, b) - ssim_oracle(a, b)) < 1e-12

    def test_bounded(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            v = ssim(rand_gray(rng, 16), rand_gray(rng, 16))
            assert -1.0 <= v <= 1.0

    def test_color_inputs_use_luminance(self):
        rng = np.random.default_rng(13)
        a, b = rand_gray(rng, 16), rand_gray(rng, 16)
        assert abs(ssim(np.stack([a, a, a]), np.stack([b, b, b]))
                   - ssim(a, b)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            ssim(np.zeros((16, 16)), np.zeros((16, 17)))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="11"):
            ssim(np.zeros((10, 10)), np.zeros((10, 10)))

    def test_noise_lowers_similarity(self):
        rng = np.random.default_rng(14)
        x = rand_gray(rng, 32)
        noisy = np.clip(x + rng.normal(0, 0.2, x.shape), 0, 1)
        assert ssim(x, noisy) < ssim(x, x)


class TestPhaseCongruency:
    def test_constant_image_is_zero(self):
        pc = phase_congruency(np.full((32, 32), 100.0))
        assert np.all(pc == 0.0)
        assert not np.any(np.isnan(pc))

    def test_nonnegative(self):
        rng = np.random.default_rng(20)
        pc = phase_congruency(rng.uniform(0, 255, size=(32, 32)))
        assert np.all(pc >= 0.0)

    def test_step_edge_peaks_at_edge(self):
        """An interior step edge outscores flat regions in the PC map.

        The FFT treats the image as periodic, so the image border also
        reads as an edge; the comparison is against interior flat
        columns on both sides of the step.
        """
        img = np.zeros((64, 64))
        img[:, 32:] = 255.0
        profile = phase_congruency(img).mean(axis=0)
        assert profile[32] > 1.5 * profile[16]
        assert profile[32] > 1.5 * profile[48]

    def test_sinusoid_peaks_at_line_features(self):
        """PC of a horizontal sinusoid peaks on the bright/dark line centers.

        A grating's features are lines at the intensity extrema, where
        the Fourier components of the log-Gabor responses agree in
        phase; zero crossings are the least congruent columns.
        """
        x = np.arange(64)
        img = np.tile(127.5 + 127.5 * np.sin(2 * np.pi * x / 16.0), (64, 1))
        profile = phase_congruency(img).mean(axis=0)
        assert np.allclose(profile, np.tile(profile[:16], 4), atol=1e-8)
        extrema = profile[4::8]       # sine peaks and troughs
        crossings = profile[0::8]     # zero crossings
        assert extrema.min() > crossings.max()

    def test_constant_along_uniform_axis(self):
        x = np.arange(32)
        img = np.tile(127.5 + 127.5 * np.sin(2 * np.pi * x / 8.0), (32, 1))
        pc = phase_congruency(img)
        assert np.allclose(pc, pc[0][None, :], atol=1e-10)


class TestFsim:
    def test_self_similarity_is_one(self):
        for size in (16, 32, 64, 256):
            x = rand_gray(np.random.default_rng(30), size)
            assert fsim(x, x) == 1.0, size

    def test_constant_pair_degenerates_to_one(self):
        a = np.full((32, 32), 0.3)
        assert fsim(a, a) == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(31)
        a, b = rand_gray(rng, 32), rand_gray(rng, 32)
        assert abs(fsim(a, b) - fsim(b, a)) < 1e-12

    def test_bounded(self):
        rng = np.random.default_rng(32)
        for _ in range(3):
            v = fsim(rand_gray(rng, 32), rand_gray(rng, 32))
            assert 0.0 <= v <= 1.0

    def test_color_inputs_use_luminance(self):
        rng = np.random.default_rng(33)
        a, b = rand_gray(rng, 32), rand_gray(rng, 32)
        assert abs(fsim(np.stack([a, a, a]), np.stack([b, b, b]))
                   - fsim(a, b)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            fsim(np.zeros((32, 32)), np.zeros((32, 33)))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="16"):
            fsim(np.zeros((8, 8)), np.zeros((8, 8)))

    def test_noise_lowers_similarity(self):
        rng = np.random.default_rng(34)
        x = rand_gray(rng, 32)
        noisy = np.clip(x + rng.normal(0, 0.2, x.shape), 0, 1)
        assert fsim(x, noisy) < fsim(x, x)


class TestNoiseMonotonicity:
    def test_means_decrease_with_sigma(self):
        """Mean SSIM/FSIM over seeds fall as the noise level grows."""
        sigmas = (0.01, 0.05, 0.1)
        ssims = {s: [] for s in sigmas}
        fsims = {s: [] for s in sigmas}
        for seed in range(6):
            rng = np.random.default_rng(seed)
            x = rand_gray(rng, 32)
            for s in sigmas:
                noisy = np.clip(x + rng.normal(0.0, s, x.shape), 0.0, 1.0)
                ssims[s].append(ssim(x, noisy))
                fsims[s].append(fsim(x, noisy))
        s_means = [np.mean(ssims[s]) for s in sigmas]
        f_means = [np.mean(fsims[s]) for s in sigmas]
        assert s_means[0] > s_means[1] > s_means[2]
        assert f_means[0] > f_means[1] > f_means[2]


class TestFrechetFromStats:
    def test_shifted_unit_gaussians(self):
        """Population statistics of N(0,1) vs N(3,1) give exactly 9."""
        assert frechet_from_stats([0.0], [[1.0]], [3.0], [[1.0]]) == 9.0

    def test_identical_stats_are_zero(self):
        rng = np.random.default_rng(40)
        mu = rng.normal(size=4)
        a = rng.normal(size=(4, 4))
        cov = a @ a.T + np.eye(4)
        assert abs(frechet_from_stats(mu, cov, mu, cov)) < 1e-8

    def test_diagonal_covariance_closed_form(self):
        """Commuting diagonals: d = |dmu|^2 + sum (sqrt(a) - sqrt(b))^2."""
        rng = np.random.default_rng(41)
        mu_a = rng.normal(size=5)
        mu_b = rng.normal(size=5)
        da = rng.uniform(0.1, 2.0, size=5)
        db = rng.uniform(0.1, 2.0, size=5)
        want = float(((mu_a - mu_b) ** 2).sum()
                     + ((np.sqrt(da) - np.sqrt(db)) ** 2).sum())
        got = frechet_from_stats(mu_a, np.diag(da), mu_b, np.diag(db))
        assert abs(got - want) < 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_product_eigenvalue_oracle(self, seed):
        """Tr sqrt(cov_a cov_b) equals the sum of sqrt eigenvalues of the product."""
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        cov_a = a @ a.T + 0.5 * np.eye(4)
        cov_b = b @ b.T + 0.5 * np.eye(4)
        mu_a = rng.normal(size=4)
        mu_b = rng.normal(size=4)
        ev = np.linalg.eigvals(cov_a @ cov_b)
        want = float(((mu_a - mu_b) ** 2).sum() + np.trace(cov_a) + np.trace(cov_b)
                     - 2.0 * np.sqrt(np.clip(ev.real, 0, None)).sum())
        got = frechet_from_stats(mu_a, cov_a, mu_b, cov_b)
        assert abs(got - want) < 1e-8

    def test_scalar_inputs_accepted(self):
        assert abs(frechet_from_stats(1.0, 2.0, 1.0, 2.0)) < 1e-12

    def test_stats_shape_mismatch(self):
        with pytest.raises(ValueError):
            frechet_from_stats([0.0], [[1.0]], [0.0, 0.0], np.eye(2))


class TestFrechetDistance:
    def test_identical_sets_near_zero(self):
        feats = np.random.default_rng(50).normal(size=(12, 5))
        assert abs(frechet_distance(feats, feats.copy())) < 1e-8

    def test_symmetric(self):
        rng = np.random.default_rng(51)
        a = rng.normal(size=(10, 4))
        b = rng.normal(size=(10, 4)) + 1.0
        assert abs(frechet_distance(a, b) - frechet_distance(b, a)) < 1e-8

    def test_row_order_invariant(self):
        rng = np.random.default_rng(52)
        a = rng.normal(size=(9, 3))
        b = rng.normal(size=(11, 3))
        perm = rng.permutation(9)
        assert abs(frechet_distance(a, b) - frechet_distance(a[perm], b)) < 1e-10

    def test_sampled_shifted_gaussians_near_nine(self):
        rng = np.random.default_rng(53)
        a = rng.normal(0.0, 1.0, size=(20000, 1))
        b = rng.normal(3.0, 1.0, size=(20000, 1))
        assert abs(frechet_distance(a, b) - 9.0) < 0.2

    def test_nonnegative_on_random_sets(self):
        rng = np.random.default_rng(54)
        for _ in range(5):
            a = rng.normal(size=(8, 6))
            b = rng.normal(size=(8, 6))
            assert frechet_distance(a, b) >= -1e-10

    def test_requires_two_rows(self):
        ok = np.zeros((2, 3))
        with pytest.raises(ValueError, match="N >= 2"):
            frechet_distance(np.zeros((1, 3)), ok)
        with pytest.raises(ValueError, match="N >= 2"):
            frechet_distance(ok, np.zeros((1, 3)))

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="widths"):
            frechet_distance(np.zeros((3, 2)), np.zeros((3, 4)))

    def test_degenerate_rank_is_finite(self):
        """Rank-deficient covariance (duplicated rows) stays finite via clamping."""
        a = np.tile(np.array([[1.0, 2.0, 3.0]]), (6, 1))
        b = np.tile(np.array([[2.0, 2.0, 3.0]]), (6, 1))
        d = frechet_distance(a, b)
        assert np.isfinite(d)
        assert abs(d - 1.0) < 1e-10


class TestMetricReport:
    def test_summary_keys_and_means(self):
        r = MetricReport(ssim_values=[0.5, 0.7], fsim_values=[0.8, 1.0],
                         frechet_proxy=2.0, n=2)
        s = r.summary()
        assert set(s) == {"ssim_mean", "fsim_mean", "frechet_proxy", "n"}
        assert abs(s["ssim_mean"] - 0.6) < 1e-15
        assert abs(s["fsim_mean"] - 0.9) < 1e-15
        assert s["n"] == 2

    def test_empty_report_is_nan(self):
        r = MetricReport()
        assert np.isnan(r.ssim_mean) and np.isnan(r.fsim_mean)
        assert np.isnan(r.frechet_proxy)
        assert r.summary()["frechet_proxy"] is None  # JSON null, not NaN


class TestEvaluatePairs:
    def make_pairs(self, n=3, size=32, seed=60):
        rng = np.random.default_rng(seed)
        real = [rng.uniform(size=(1, size, size)) for _ in range(n)]
        fake = [np.clip(r + rng.normal(0, 0.05, r.shape), 0, 1) for r in real]
        return real, fake

    def test_lengths_and_order(self):
        real, fake = self.make_pairs()
        rep = evaluate_pairs(real, fake)
        assert rep.n == 3
        assert len(rep.ssim_values) == 3 and len(rep.fsim_values) == 3
        assert rep.ssim_values[0] == ssim(real[0], fake[0])
        assert rep.fsim_values[2] == fsim(real[2], fake[2])

    def test_frechet_skipped_without_embed(self):
        real, fake = self.make_pairs()
        assert np.isnan(evaluate_pairs(real, fake).frechet_proxy)

    def test_frechet_with_embedder(self):
        real, fake = self.make_pairs(n=4)
        ext = FeatureExtractor(1, seed=61)
        rep = evaluate_pairs(real, fake, embed=ext.embed)
        assert np.isfinite(rep.frechet_proxy)
        assert rep.frechet_proxy >= -1e-10

    def test_frechet_skipped_for_single_pair(self):
        real, fake = self.make_pairs(n=1)
        ext = FeatureExtractor(1, seed=62)
        rep = evaluate_pairs(real, fake, embed=ext.embed)
        assert np.isnan(rep.frechet_proxy)

    def test_custom_map_fn_preserves_order(self):
        """A pooled map stands in for any order-preserving executor."""
        real, fake = self.make_pairs(n=4)

        def eager_map(fn, items):
            return [fn(it) for it in items]

        base = evaluate_pairs(real, fake)
        pooled = evaluate_pairs(real, fake, map_fn=eager_map)
        assert base.ssim_values == pooled.ssim_values
        assert base.fsim_values == pooled.fsim_values

    def test_length_mismatch(self):
        real, fake = self.make_pairs()
        with pytest.raises(ValueError):
            evaluate_pairs(real, fake[:2])
