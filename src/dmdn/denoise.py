"""Sigma-parameterized RGB denoisers and the CFA split/denoise/recombine adapter.

Both denoisers work in the orthonormal YC1C2 opponent space.  The sliding
DCT denoiser hard-thresholds AC coefficients of overlapping 8x8 blocks and
averages the overlapping estimates uniformly.  The NL-means denoiser
computes patch weights from the Y channel only and applies the same weight
field to all three channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .image import SIGMA_RANGE, ColorImage, check_range, coerce_enum, opponent_planes, rgb_planes
from .mosaic import CfaImage, HalfPair, recombine_cfa, split_cfa


class DenoiserId(str, Enum):
    IDENTITY = "identity"
    DCT8 = "dct8"
    NLMEANS = "nlmeans"


# Calibrated method constants.  DCT: 8x8 blocks every 4 pixels, AC
# coefficients below 3 sigma zeroed.  NL-means: 5x5 patches in a 21x21
# search window, filtering parameter h^2 = 0.40 sigma^2 patch^2.
BLOCK = 8
STEP = 4
THRESHOLD_GAIN = 3.0
PATCH = 5
WINDOW = 21
H_GAIN = 0.40


@dataclass(frozen=True)
class DenoiseConfig:
    """Assumed noise level the denoiser is told."""

    sigma: float

    def __post_init__(self):
        check_range("sigma", self.sigma, SIGMA_RANGE)


def _dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    mat = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * i + 1) / (2 * n))
    mat[0] = np.sqrt(1.0 / n)
    return mat


# The 2-D DCT of a block X is B @ X @ B.T.
_BASIS = _dct_matrix(BLOCK)
_BASIS_T = np.ascontiguousarray(_BASIS.T)


def _dct8_channel(x: np.ndarray, sigma: float) -> np.ndarray:
    h, w = x.shape
    pad = BLOCK - STEP
    # Extra right/bottom padding keeps the block-start grid regular for any size.
    extra_r = (-h) % STEP
    extra_c = (-w) % STEP
    xp = np.pad(x, ((pad, pad + extra_r), (pad, pad + extra_c)), mode="reflect")
    blocks = sliding_window_view(xp, (BLOCK, BLOCK))[::STEP, ::STEP]
    rows, cols = blocks.shape[:2]
    padded_shape = xp.shape

    # Two (8, 8, rows * cols) buffers, block index innermost, carry the
    # transform, the threshold and the inverse, so each 1-D DCT pass over all
    # blocks is one matmul.  The padded image and the spent buffer are
    # released early to keep the peak memory low.
    coeff = np.ascontiguousarray(blocks.transpose(2, 3, 0, 1)).reshape(BLOCK, BLOCK, -1)
    del xp, blocks
    tmp = np.matmul(_BASIS, coeff.reshape(BLOCK, -1)).reshape(coeff.shape)  # down columns
    np.matmul(_BASIS, tmp, out=coeff)  # along rows
    np.abs(coeff, out=tmp)
    tmp[0, 0] = np.inf  # DC always survives
    coeff *= tmp >= THRESHOLD_GAIN * sigma
    np.matmul(_BASIS_T, coeff, out=tmp)
    np.matmul(_BASIS_T, tmp.reshape(BLOCK, -1), out=coeff.reshape(BLOCK, -1))
    del tmp

    # Block (r, c) covers the STEP x STEP tiles (r + a, c + b) for a, b in
    # {0, 1}: the overlap-add is four shifted adds of quadrant arrays.
    quads = coeff.reshape(2, STEP, 2, STEP, rows, cols)
    tiles = np.zeros((STEP, STEP, rows + 1, cols + 1))
    for a in range(2):
        for b in range(2):
            tiles[:, :, a : a + rows, b : b + cols] += quads[a, :, b]
    acc = tiles.transpose(2, 0, 3, 1).reshape(padded_shape)
    # Past the padding every pixel lies in exactly four blocks.
    return acc[pad : pad + h, pad : pad + w] / 4


def _denoise_nlmeans(opp: np.ndarray, cfg: DenoiseConfig) -> np.ndarray:
    y = opp[0]
    h, w = y.shape
    half = WINDOW // 2
    # Kept positive when sigma**2 underflows; excess / h2 may then overflow to
    # inf, whose weight exp(-inf) = 0 is the right limit.
    h2 = max(H_GAIN * cfg.sigma**2 * PATCH**2, np.finfo(np.float64).tiny)
    two_sigma2 = 2.0 * cfg.sigma**2
    padded = np.pad(opp, ((0, 0), (half, half), (half, half)), mode="reflect")

    num = np.zeros_like(opp)
    den = np.zeros((h, w))
    wmax = np.zeros((h, w))
    for di in range(-half, half + 1):
        for dj in range(-half, half + 1):
            if di == 0 and dj == 0:
                continue
            shifted = padded[:, half + di : half + di + h, half + dj : half + dj + w]
            d2 = ndimage.uniform_filter(
                (y - shifted[0]) ** 2, size=PATCH, mode="mirror"
            )
            with np.errstate(over="ignore"):
                wgt = np.exp(-np.maximum(d2 - two_sigma2, 0.0) / h2)
            wmax = np.maximum(wmax, wgt)
            den += wgt
            num += wgt * shifted
    # Self weight = max neighbor weight, so the center never dominates.
    wmax = np.where(wmax > 0.0, wmax, 1.0)
    den += wmax
    num += wmax * opp
    return num / den


def denoise_rgb(img: ColorImage, method, cfg: DenoiseConfig) -> ColorImage:
    """Denoise a full RGB image in the YC1C2 space."""
    method = coerce_enum(DenoiserId, method, "denoiser")
    if method is DenoiserId.IDENTITY or cfg.sigma == 0.0:
        return img
    opp = opponent_planes(img.planes)
    if method is DenoiserId.DCT8:
        out = np.stack([_dct8_channel(chan, cfg.sigma) for chan in opp])
    else:
        out = _denoise_nlmeans(opp, cfg)
    return ColorImage(rgb_planes(out))


def denoise_cfa(cfa: CfaImage, method, cfg: DenoiseConfig) -> CfaImage:
    """Denoise a CFA image by splitting into half-size RGB images.

    Splitting rearranges samples without mixing them, so per-sample noise is
    unchanged and the halves are denoised with the same sigma.
    """
    method = coerce_enum(DenoiserId, method, "denoiser")
    if method is DenoiserId.IDENTITY:
        return cfa
    pair = split_cfa(cfa)
    first = denoise_rgb(pair.first, method, cfg)
    second = denoise_rgb(pair.second, method, cfg)
    return recombine_cfa(HalfPair(first, second), cfa.phase)
