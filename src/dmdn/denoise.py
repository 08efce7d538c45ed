"""Sigma-parameterized RGB denoisers and the CFA split/denoise/recombine adapter.

Both denoisers work in the orthonormal YC1C2 opponent space.  The sliding
DCT denoiser hard-thresholds AC coefficients of overlapping 8x8 blocks and
averages the overlapping estimates uniformly.  The NL-means denoiser
computes patch weights from the Y channel only and applies the same weight
field to all three channels; its patch distances are 5x5 box means taken as
running sums in numpy, in the order scipy.ndimage.uniform_filter adds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .image import (
    SIGMA_RANGE,
    ColorImage,
    check_range,
    coerce_enum,
    opponent_planes,
    reflect_pad,
    rgb_planes,
)
from .mosaic import CfaImage, recombine_cfa, split_cfa


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


# The 2-D DCT of a block X is B @ X @ B.T.  Along one axis, STEP-row tile
# c + 1 of the inverse is the lower half of block c's B.T @ C plus the upper
# half of block c + 1's: _FOLD applied to the two blocks' stacked 16 rows.
_BASIS = _dct_matrix(BLOCK)
_FOLD = np.hstack([_BASIS.T[STEP:], _BASIS.T[:STEP]])


def _bands(a: np.ndarray, block: int = BLOCK, step: int = STEP) -> np.ndarray:
    """The (n, block, width) view of the block-row bands of a that start every step rows.

    Each band is a strided 2-D matrix BLAS reads in place, so a matmul with
    a (k, block) matrix transforms all blocks of a band down its columns at
    once.  The bands overlap, so the view is read-only: nothing can write
    through it.
    """
    s0, s1 = a.strides
    n = (a.shape[0] - block) // step + 1
    return as_strided(a, (n, block, a.shape[1]), (step * s0, s0, s1), writeable=False)


def _dct8_channel(x: np.ndarray, sigma: float) -> np.ndarray:
    h, w = x.shape
    pad = BLOCK - STEP
    # Extra right/bottom padding keeps the block-start grid regular for any size.
    extra_r = (-h) % STEP
    extra_c = (-w) % STEP
    xp = reflect_pad(x, (pad, pad + extra_r), (pad, pad + extra_c))

    # Forward: the column pass is one matmul of the basis with the row bands
    # of the padded image, (rows, 8[k1], width); one transpose turns its
    # columns into rows, and the row pass runs on the bands of that.  Block
    # (r, c)'s coefficients land at coeff[c, k2, r * 8 + k1], contracted over
    # i and then j, the order of B @ X @ B.T in one block at a time: the
    # coefficients, and so every threshold decision, are bit-identical to a
    # per-block transform's.
    rows = (xp.shape[0] - BLOCK) // STEP + 1
    part = np.matmul(_BASIS, _bands(xp)).reshape(rows * BLOCK, -1).T.copy()
    del xp
    coeff = np.matmul(_BASIS, _bands(part))
    del part
    tmp = np.abs(coeff)
    tmp.reshape(-1, BLOCK, rows, BLOCK)[:, 0, :, 0] = np.inf  # DC always survives
    coeff *= tmp >= THRESHOLD_GAIN * sigma
    del tmp

    # Inverse, one axis at a time: _FOLD on the 16-row bands, every 8 rows, of
    # the stacked coefficients contracts k2 and overlap-adds in one matmul,
    # one transpose, then the same for k1.  pad = STEP, so the first and last
    # tiles of each axis are padding and only the interior tiles are computed.
    # Past the padding every pixel lies in exactly four blocks; the / 4 is a
    # power of two, folded exactly into the second pass.  Each output is a
    # 16-term sum per axis, within ~1e-13 of a block-by-block inverse.
    part = np.matmul(_FOLD, _bands(coeff.reshape(-1, rows * BLOCK), 2 * BLOCK, BLOCK))
    del coeff
    part = part.reshape(-1, rows * BLOCK).T.copy()
    acc = np.matmul(_FOLD / 4, _bands(part, 2 * BLOCK, BLOCK))
    return acc.reshape(-1, acc.shape[-1])[:h, :w]


def _mirror_plan(n: int):
    """Where a running PATCH-mean along an axis of n samples reads them.

    Output k averages positions k .. k + PATCH - 1 of the axis padded by
    r = PATCH // 2 mirrored samples at each end (numpy's "reflect", ndimage's
    "mirror").  Returns the first window's samples, the slice of outputs whose
    entering sample k + r and leaving sample k - r - 1 both lie in the axis,
    and the other outputs with their entering and leaving samples.
    """
    r = PATCH // 2
    idx = reflect_pad(np.arange(n)[None], (0, 0), (r, r))[0]
    inner = slice(r + 1, max(n - r, r + 1))
    edge = np.r_[1 : min(inner.start, n), inner.stop : n]
    return idx[:PATCH], inner, edge, idx[edge + 2 * r], idx[edge - 1]


def _running_mean(x: np.ndarray, out: np.ndarray, plan) -> None:
    """PATCH-sample mean along axis 0 of x, mirrored at the ends, into out.

    The first window is summed in order, then a running sum adds each
    entering minus leaving sample, and each sum is divided by PATCH: the
    order of operations of ndimage.uniform_filter1d, so the bits are the same.
    """
    first, inner, edge, enter, leave = plan
    out[0] = x[first[0]]
    for i in first[1:]:
        out[0] += x[i]
    np.subtract(x[PATCH:], x[: max(len(x) - PATCH, 0)], out=out[inner])
    out[edge] = x[enter] - x[leave]
    np.cumsum(out, axis=0, out=out)
    out /= PATCH


def _denoise_nlmeans(opp: np.ndarray, cfg: DenoiseConfig) -> np.ndarray:
    y = opp[0]
    h, w = y.shape
    half = WINDOW // 2
    # Kept positive when sigma**2 underflows; excess / h2 may then overflow to
    # inf, whose weight exp(-inf) = 0 is the right limit.
    h2 = max(H_GAIN * cfg.sigma**2 * PATCH**2, np.finfo(np.float64).tiny)
    two_sigma2 = 2.0 * cfg.sigma**2
    padded = reflect_pad(opp, (half, half), (half, half))
    row_plan, col_plan = _mirror_plan(h), _mirror_plan(w)

    num = np.zeros_like(opp)
    den = np.zeros((h, w))
    wmax = np.zeros((h, w))
    d2 = np.empty((h, w))
    col_means = np.empty((h, w))
    for di in range(-half, half + 1):
        for dj in range(-half, half + 1):
            if di == 0 and dj == 0:
                continue
            shifted = padded[:, half + di : half + di + h, half + dj : half + dj + w]
            # Patch distance: the 5x5 mean of squared Y differences, down columns then along rows.
            np.subtract(y, shifted[0], out=d2)
            d2 *= d2
            _running_mean(d2, col_means, row_plan)
            _running_mean(col_means.T, d2.T, col_plan)
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
    return recombine_cfa([denoise_rgb(half, method, cfg) for half in split_cfa(cfa)], cfa.phase)
