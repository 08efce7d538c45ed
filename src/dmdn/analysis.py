"""Quality metrics and second-order statistics of demosaiced residual noise.

The statistics engine measures, per channel and in either RGB or YC1C2,
the variance, the covariance/correlation between pixels at small spatial
lags, and the cross-channel covariance/correlation.  A border frame is
discarded first so mirror-padded interpolation stencils do not distort the
estimates.  All second moments use the population convention (divide by the
number of sample pairs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .demosaic import demosaic
from .image import ColorImage, DomainError, opponent_planes
from .noise import noisy_mosaics
from .stages import stage

RGB_CHANNELS = ("R", "G", "B")
OPPONENT_CHANNELS = ("Y", "C1", "C2")


def mse(estimate: ColorImage, truth: ColorImage) -> float:
    if estimate.planes.shape != truth.planes.shape:
        raise DomainError(
            f"dimension mismatch: {estimate.planes.shape} vs {truth.planes.shape}"
        )
    diff = estimate.planes - truth.planes
    return float(np.mean(diff * diff))


def rmse(estimate: ColorImage, truth: ColorImage) -> float:
    return math.sqrt(mse(estimate, truth))


def cpsnr(estimate: ColorImage, truth: ColorImage) -> float:
    """10*log10(255^2 / MSE) over all three channels; +inf when MSE is 0."""
    return cpsnr_from_mse(mse(estimate, truth))


def cpsnr_from_mse(err: float) -> float:
    """10*log10(255^2 / err); +inf when err is 0, or below 0 from rounding."""
    if err <= 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / err)


def residual(demosaiced: ColorImage, truth: ColorImage) -> ColorImage:
    """Demosaiced noise: element-wise difference against the ground truth."""
    if demosaiced.planes.shape != truth.planes.shape:
        raise DomainError(
            f"dimension mismatch: {demosaiced.planes.shape} vs {truth.planes.shape}"
        )
    return ColorImage(demosaiced.planes - truth.planes)


@dataclass(frozen=True)
class NoiseStats:
    """Second-order structure of a residual in one color space.

    cov/corr are indexed [channel][s][t] for lags (s, t); cross_cov and
    cross_corr are 3x3 matrices at lag (0, 0).  Channels with zero variance
    are flagged degenerate and their correlations are reported as 0.
    """

    color_space: str
    channels: tuple[str, str, str]
    variance: np.ndarray
    cov: np.ndarray
    corr: np.ndarray
    cross_cov: np.ndarray
    cross_corr: np.ndarray
    sample_count: int
    degenerate: tuple[bool, bool, bool]


def noise_stats(
    res: ColorImage, space: str = "rgb", border_crop: int = 8, max_lag: int = 2
) -> NoiseStats:
    """Variance, lagged covariance/correlation and cross-channel structure."""
    space = space.lower()
    if space not in ("rgb", "yc1c2"):
        raise DomainError(f"unknown color space {space!r}")
    if border_crop < 0 or max_lag < 0:
        raise DomainError(f"border_crop={border_crop} and max_lag={max_lag} must be >= 0")
    min_size = 2 * border_crop + max(3, max_lag + 1)
    if res.height <= min_size or res.width <= min_size:
        raise DomainError(
            f"image {res.width}x{res.height} too small for border_crop={border_crop}"
            f" and max_lag={max_lag}"
        )
    planes = res.planes
    channels = RGB_CHANNELS
    if space == "yc1c2":
        planes = opponent_planes(planes)
        channels = OPPONENT_CHANNELS
    if border_crop:
        planes = planes[:, border_crop:-border_crop, border_crop:-border_crop]
    h, w = planes.shape[1:]

    centered = planes - planes.mean(axis=(1, 2), keepdims=True)
    lags = max_lag + 1
    cov = np.zeros((3, lags, lags))
    for c in range(3):
        a = centered[c]
        for s in range(lags):
            for t in range(lags):
                prod = a[: h - s, : w - t] * a[s:, t:]
                cov[c, s, t] = prod.sum() / prod.size
    variance = cov[:, 0, 0].copy()
    degenerate = tuple(bool(v == 0.0) for v in variance)

    corr = np.zeros_like(cov)
    for c in range(3):
        if not degenerate[c]:
            corr[c] = cov[c] / variance[c]

    flat = centered.reshape(3, -1)
    cross_cov = (flat @ flat.T) / flat.shape[1]
    cross_corr = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            if not degenerate[i] and not degenerate[j]:
                cross_corr[i, j] = cross_cov[i, j] / math.sqrt(
                    variance[i] * variance[j]
                )

    return NoiseStats(
        color_space=space,
        channels=channels,
        variance=variance,
        cov=cov,
        corr=corr,
        cross_cov=cross_cov,
        cross_corr=cross_corr,
        sample_count=h * w,
        degenerate=degenerate,
    )


def amplification_factor(stats: NoiseStats, sigma: float) -> float:
    """sqrt(Var(Y)) / sigma: how much the luminance noise grew."""
    if stats.color_space != "yc1c2":
        raise DomainError("amplification_factor requires YC1C2 statistics")
    if not 0 < sigma < math.inf:  # NaN fails too
        raise DomainError(f"sigma must be positive and finite, got {sigma}")
    return math.sqrt(stats.variance[0]) / sigma


def rmse_table(
    dataset: list[ColorImage],
    demosaicer,
    sigma_list: list[float],
    seed: int,
    phase: str = "RGGB",
) -> list[tuple[float, float]]:
    """Mean demosaicing RMSE per noise level over a dataset.

    The error is measured on the export-clipped image (values limited to
    [0, 255], matching how demosaicing results are stored and published);
    without that step the table systematically overstates the noise left
    at bright and dark image content.  Per-image noise seeds derive from
    (seed, image index), and each image's standard-normal field is drawn
    once and scaled by every sigma, so rows differ only through the noise level.
    """
    values: list[list[float]] = [[] for _ in sigma_list]
    for index, k, noisy in noisy_mosaics(dataset, sigma_list, seed, phase):
        # rmse of the clipped image, in one buffer (squaring erases the sign
        # of a zero, where this may differ from np.clip).
        with stage("dm"):
            err = np.maximum(demosaic(noisy, demosaicer).planes, 0.0)
        np.minimum(err, 255.0, out=err)
        err -= dataset[index].planes
        err *= err
        values[k].append(math.sqrt(float(np.mean(err))))
    return [(float(sigma), math.fsum(v) / len(v)) for sigma, v in zip(sigma_list, values)]
