import math

import numpy as np
import pytest

from dmdn.analysis import (
    amplification_factor,
    cpsnr,
    cpsnr_from_mse,
    mse,
    noise_stats,
    residual,
    rmse,
    rmse_table,
)
from dmdn.demosaic import demosaic
from dmdn.image import ColorImage, DomainError
from dmdn.mosaic import mosaick
from dmdn.noise import NoiseSpec, add_awgn


def random_pair(seed, h=16, w=16):
    rng = np.random.default_rng(seed)
    a = ColorImage(rng.uniform(0, 255, size=(3, h, w)))
    b = ColorImage(rng.uniform(0, 255, size=(3, h, w)))
    return a, b


# ------------------------------------------------------------------ metrics


def test_identical_images_give_infinite_cpsnr():
    img, _ = random_pair(0)
    assert mse(img, img) == 0.0
    assert cpsnr(img, img) == math.inf


def test_uniform_offset_closed_form():
    img, _ = random_pair(1)
    shifted = ColorImage(img.planes + 16.0)
    assert mse(shifted, img) == pytest.approx(256.0, abs=1e-9)
    assert cpsnr(shifted, img) == pytest.approx(10.0 * math.log10(255.0**2 / 256.0), abs=1e-12)
    assert cpsnr(shifted, img) == pytest.approx(24.0483, abs=1e-3)


def test_cpsnr_from_mse_scores_a_non_positive_error_as_infinite():
    assert cpsnr_from_mse(0.0) == math.inf
    assert cpsnr_from_mse(-5.7e-14) == math.inf  # a sum of rounded moments can land below 0
    assert cpsnr_from_mse(256.0) == 10.0 * math.log10(255.0**2 / 256.0)
    assert math.isnan(cpsnr_from_mse(math.nan))


def test_cpsnr_matches_brute_force_oracle():
    a, b = random_pair(2)
    total = 0.0
    for c in range(3):
        for i in range(a.height):
            for j in range(a.width):
                d = a.planes[c, i, j] - b.planes[c, i, j]
                total += d * d
    expected = 10.0 * math.log10(255.0**2 / (total / a.planes.size))
    assert abs(cpsnr(a, b) - expected) <= 1e-9


def test_dimension_mismatch_rejected():
    a, _ = random_pair(3)
    b = ColorImage(np.zeros((3, 8, 8)))
    with pytest.raises(DomainError):
        mse(a, b)
    with pytest.raises(DomainError):
        residual(a, b)


# ----------------------------------------------------------------- residual


def test_residual_of_identical_images_is_zero():
    img, _ = random_pair(4)
    assert np.array_equal(residual(img, img).planes, np.zeros_like(img.planes))


def test_residual_additivity():
    rng = np.random.default_rng(5)
    a = ColorImage(rng.integers(0, 256, size=(3, 16, 16)).astype(np.float64))
    b = ColorImage(rng.integers(-64, 64, size=(3, 16, 16)).astype(np.float64))
    combined = ColorImage(a.planes + b.planes)
    assert np.array_equal(residual(combined, a).planes, b.planes)


# -------------------------------------------------------------- noise_stats


def test_awgn_statistics_are_white():
    res = add_awgn(ColorImage(np.zeros((3, 256, 256))), NoiseSpec(20.0, seed=9))
    stats = noise_stats(res, "rgb")
    for c in range(3):
        assert stats.variance[c] == pytest.approx(400.0, rel=0.04)
        off_lags = np.abs(stats.corr[c]).copy()
        off_lags[0, 0] = 0.0
        assert off_lags.max() <= 0.02
    cross = np.abs(stats.cross_corr - np.eye(3))
    assert cross.max() <= 0.02


def test_correlations_match_brute_force_on_crop():
    res = add_awgn(ColorImage(np.zeros((3, 34, 34))), NoiseSpec(5.0, seed=10))
    stats = noise_stats(res, "rgb", border_crop=1, max_lag=2)
    planes = res.planes[:, 1:-1, 1:-1]
    h, w = planes.shape[1:]
    for c in range(3):
        a = planes[c] - planes[c].mean()
        for s in range(3):
            for t in range(3):
                acc = 0.0
                count = 0
                for i in range(h - s):
                    for j in range(w - t):
                        acc += a[i, j] * a[i + s, j + t]
                        count += 1
                expected_cov = acc / count
                assert stats.cov[c, s, t] == pytest.approx(expected_cov, abs=1e-9)
                assert stats.corr[c, s, t] == pytest.approx(
                    expected_cov / stats.variance[c], abs=1e-9
                )


def test_variance_trace_is_preserved_by_opponent_transform():
    rng = np.random.default_rng(11)
    res = ColorImage(rng.normal(scale=20.0, size=(3, 64, 64)) * np.array([1.0, 2.0, 0.5])[:, None, None])
    rgb = noise_stats(res, "rgb", border_crop=8)
    opp = noise_stats(res, "yc1c2", border_crop=8)
    assert np.trace(rgb.cross_cov) == pytest.approx(np.trace(opp.cross_cov), abs=1e-9)


def test_correlation_shrinks_with_sample_count():
    def max_off_corr(n, seed):
        res = add_awgn(ColorImage(np.zeros((3, n, n))), NoiseSpec(10.0, seed))
        stats = noise_stats(res, "rgb", border_crop=0)
        off = np.abs(stats.corr).copy()
        off[:, 0, 0] = 0.0
        return off.max()

    small = np.mean([max_off_corr(32, s) for s in range(4)])
    large = np.mean([max_off_corr(128, s) for s in range(4)])
    # quadrupling N per axis should shrink correlations roughly 4x; allow slack
    assert large < small / 2.0


def test_zero_residual_is_degenerate():
    res = ColorImage(np.zeros((3, 32, 32)))
    stats = noise_stats(res, "rgb", border_crop=4)
    assert all(stats.degenerate)
    assert np.array_equal(stats.variance, np.zeros(3))
    assert np.array_equal(stats.corr, np.zeros_like(stats.corr))
    assert np.array_equal(stats.cross_corr, np.zeros((3, 3)))


def test_too_small_image_rejected():
    with pytest.raises(DomainError):
        noise_stats(ColorImage(np.zeros((3, 18, 18))), "rgb", border_crop=8)


@pytest.mark.parametrize("crop, lag", [(-1, 2), (8, -1)])
def test_negative_crop_or_lag_rejected(crop, lag):
    with pytest.raises(DomainError):
        noise_stats(ColorImage(np.zeros((3, 40, 40))), "rgb", border_crop=crop, max_lag=lag)


def test_unit_correlation_on_diagonal_for_nondegenerate():
    res = add_awgn(ColorImage(np.zeros((3, 40, 40))), NoiseSpec(3.0, seed=12))
    stats = noise_stats(res, "yc1c2", border_crop=4)
    for c in range(3):
        assert stats.corr[c, 0, 0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.diag(stats.cross_corr), 1.0)
    assert np.allclose(stats.cross_corr, stats.cross_corr.T)
    assert np.abs(stats.cross_corr).max() <= 1.0 + 1e-9


# ------------------------------------------------------------ amplification


def test_amplification_factor_of_white_noise_is_one():
    res = add_awgn(ColorImage(np.zeros((3, 256, 256))), NoiseSpec(20.0, seed=13))
    stats = noise_stats(res, "yc1c2")
    assert amplification_factor(stats, 20.0) == pytest.approx(1.0, abs=0.02)


def test_amplification_factor_of_gray_residual_is_sqrt3():
    rng = np.random.default_rng(14)
    gray = rng.normal(scale=20.0, size=(64, 64))
    res = ColorImage(np.stack([gray, gray, gray]))
    stats = noise_stats(res, "yc1c2", border_crop=8)
    assert amplification_factor(stats, 20.0) == pytest.approx(
        math.sqrt(3.0), rel=0.05
    )


def test_amplification_factor_requires_opponent_space():
    res = add_awgn(ColorImage(np.zeros((3, 64, 64))), NoiseSpec(5.0, seed=15))
    with pytest.raises(DomainError):
        amplification_factor(noise_stats(res, "rgb"), 5.0)


# --------------------------------------------------------------- rmse_table


def test_rmse_table_sigma_zero_is_pure_demosaicing_error(natural_images):
    truth = natural_images[0]
    rows = rmse_table([truth], "ha", [0.0], seed=1)
    out = demosaic(mosaick(truth), "ha")
    clipped = ColorImage(np.clip(out.planes, 0, 255))
    assert rows[0][1] == pytest.approx(rmse(clipped, truth), abs=1e-12)


def test_rmse_table_monotone_in_sigma(natural_images):
    rows = rmse_table(natural_images[:2], "ha", [0.0, 5.0, 20.0], seed=2)
    values = [v for _, v in rows]
    assert values[0] <= values[1] <= values[2]


def test_rmse_table_rejects_empty_dataset():
    with pytest.raises(DomainError, match="dataset must be non-empty"):
        rmse_table([], "ha", [5.0], seed=0)
