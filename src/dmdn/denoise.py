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

from .image import ColorImage, DomainError, coerce_enum, opponent_planes, rgb_planes
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
        if not (self.sigma >= 0):
            raise DomainError(f"sigma must be >= 0, got {self.sigma}")


def _dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    mat = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * i + 1) / (2 * n))
    mat[0] = np.sqrt(1.0 / n)
    return mat


def _dct8_channel(x: np.ndarray, sigma: float) -> np.ndarray:
    h, w = x.shape
    pad = BLOCK - STEP
    # Extra right/bottom padding keeps the block-start grid regular for any size.
    extra_r = (-h) % STEP
    extra_c = (-w) % STEP
    xp = np.pad(x, ((pad, pad + extra_r), (pad, pad + extra_c)), mode="reflect")
    basis = _dct_matrix(BLOCK)
    blocks = sliding_window_view(xp, (BLOCK, BLOCK))[::STEP, ::STEP]
    coeff = np.einsum("ij,rcjk,lk->rcil", basis, blocks, basis)
    keep = np.abs(coeff) >= THRESHOLD_GAIN * sigma
    keep[..., 0, 0] = True  # DC always survives
    est = np.einsum("ji,rcjk,kl->rcil", basis, coeff * keep, basis)

    acc = np.zeros_like(xp)
    phases = BLOCK // STEP
    for pr in range(phases):
        for pc in range(phases):
            sub = est[pr::phases, pc::phases]
            kr, kc = sub.shape[:2]
            tile = sub.transpose(0, 2, 1, 3).reshape(kr * BLOCK, kc * BLOCK)
            r0, c0 = pr * STEP, pc * STEP
            acc[r0 : r0 + kr * BLOCK, c0 : c0 + kc * BLOCK] += tile
    # Past the padding every pixel lies in exactly phases^2 blocks.
    return acc[pad : pad + h, pad : pad + w] / phases**2


def _denoise_nlmeans(opp: np.ndarray, cfg: DenoiseConfig) -> np.ndarray:
    y = opp[0]
    h, w = y.shape
    half = WINDOW // 2
    h2 = H_GAIN * cfg.sigma**2 * PATCH**2
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
