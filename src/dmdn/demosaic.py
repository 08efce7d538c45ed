"""CFA interpolation behind a single interface: bilinear, Hamilton-Adams, Malvar.

All methods preserve observed samples exactly at their sites, have unit DC
gain, and use mirror padding (reflection without repeating the edge sample)
at borders.  Reflection about a sample preserves Bayer parity, so padded
neighborhoods stay color-consistent.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
from scipy import ndimage

from .image import ColorImage, coerce_enum
from .mosaic import CfaImage, channel_index_grid


class DemosaicerId(str, Enum):
    BILINEAR = "bilinear"
    HAMILTON_ADAMS = "ha"
    MALVAR = "malvar"


def site_masks(cfa: CfaImage) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boolean (R, G, B) site masks for the CFA's phase."""
    grid = channel_index_grid(cfa.phase)
    chan = np.empty((cfa.height, cfa.width), dtype=np.intp)
    for r in range(2):
        for c in range(2):
            chan[r::2, c::2] = grid[r, c]
    return chan == 0, chan == 1, chan == 2


_CROSS = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.float64)
_RING = np.array([[1, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=np.float64)


def _interp_from_sites(values: np.ndarray, mask: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Average of same-site neighbors under `kernel`, mirror-padded."""
    maskf = mask.astype(np.float64)
    num = ndimage.convolve(values * maskf, kernel, mode="mirror")
    den = ndimage.convolve(maskf, kernel, mode="mirror")
    return num / np.where(den > 0, den, 1.0)


def _demosaic_bilinear(cfa: CfaImage) -> np.ndarray:
    raw = cfa.plane
    r_mask, g_mask, b_mask = site_masks(cfa)
    g = np.where(g_mask, raw, _interp_from_sites(raw, g_mask, _CROSS))
    r = np.where(r_mask, raw, _interp_from_sites(raw, r_mask, _RING))
    b = np.where(b_mask, raw, _interp_from_sites(raw, b_mask, _RING))
    return np.stack([r, g, b])


# Malvar 5x5 filters (x8).  _K_G fills green at R/B sites; _K_H fills a
# chroma at a green site whose same-color neighbors are horizontal; _K_V is
# its transpose (vertical neighbors); _K_X fills a chroma at the opposite
# chroma's site (diagonal neighbors).
_K_G = np.array(
    [
        [0, 0, -1, 0, 0],
        [0, 0, 2, 0, 0],
        [-1, 2, 4, 2, -1],
        [0, 0, 2, 0, 0],
        [0, 0, -1, 0, 0],
    ],
    dtype=np.float64,
) / 8.0
_K_H = np.array(
    [
        [0, 0, 0.5, 0, 0],
        [0, -1, 0, -1, 0],
        [-1, 4, 5, 4, -1],
        [0, -1, 0, -1, 0],
        [0, 0, 0.5, 0, 0],
    ],
    dtype=np.float64,
) / 8.0
_K_V = _K_H.T
_K_X = np.array(
    [
        [0, 0, -1.5, 0, 0],
        [0, 2, 0, 2, 0],
        [-1.5, 0, 6, 0, -1.5],
        [0, 2, 0, 2, 0],
        [0, 0, -1.5, 0, 0],
    ],
    dtype=np.float64,
) / 8.0


def _demosaic_malvar(cfa: CfaImage) -> np.ndarray:
    raw = cfa.plane
    r_mask, g_mask, b_mask = site_masks(cfa)
    # G1 sites share a row with R (horizontal R neighbors); G2 with B.
    rows_with_r = np.zeros_like(r_mask)
    rows_with_r[np.any(r_mask, axis=1)] = True
    g1_mask = g_mask & rows_with_r
    g2_mask = g_mask & ~rows_with_r

    est_g = ndimage.convolve(raw, _K_G, mode="mirror")
    est_h = ndimage.convolve(raw, _K_H, mode="mirror")
    est_v = ndimage.convolve(raw, _K_V, mode="mirror")
    est_x = ndimage.convolve(raw, _K_X, mode="mirror")

    g = np.where(g_mask, raw, est_g)
    r = np.select([r_mask, g1_mask, g2_mask], [raw, est_h, est_v], default=0.0)
    r = np.where(b_mask, est_x, r)
    b = np.select([b_mask, g2_mask, g1_mask], [raw, est_h, est_v], default=0.0)
    b = np.where(r_mask, est_x, b)
    return np.stack([r, g, b])


def _demosaic_hamilton_adams(cfa: CfaImage) -> np.ndarray:
    raw = cfa.plane
    h, w = raw.shape
    r_mask, g_mask, b_mask = site_masks(cfa)
    z = np.pad(raw, 2, mode="reflect")

    def s(di, dj):
        return z[2 + di : 2 + di + h, 2 + dj : 2 + dj + w]

    # Directional green estimates with a second-difference chroma correction.
    lap_h = 2.0 * s(0, 0) - s(0, -2) - s(0, 2)
    lap_v = 2.0 * s(0, 0) - s(-2, 0) - s(2, 0)
    grad_h = np.abs(s(0, -1) - s(0, 1)) + np.abs(lap_h)
    grad_v = np.abs(s(-1, 0) - s(1, 0)) + np.abs(lap_v)
    est_h = (s(0, -1) + s(0, 1)) / 2.0 + lap_h / 4.0
    est_v = (s(-1, 0) + s(1, 0)) / 2.0 + lap_v / 4.0
    est_tie = (est_h + est_v) / 2.0
    g_est = np.where(grad_h < grad_v, est_h, np.where(grad_v < grad_h, est_v, est_tie))
    g = np.where(g_mask, raw, g_est)

    # Chroma by bilinear interpolation of color differences against full G.
    def chroma(mask):
        diff = _interp_from_sites(raw - g, mask, _RING)
        return np.where(mask, raw, g + diff)

    return np.stack([chroma(r_mask), g, chroma(b_mask)])


def demosaic(cfa: CfaImage, method=DemosaicerId.HAMILTON_ADAMS) -> ColorImage:
    """Interpolate a full RGB image from a Bayer CFA."""
    method = coerce_enum(DemosaicerId, method, "demosaicer")
    if method is DemosaicerId.BILINEAR:
        planes = _demosaic_bilinear(cfa)
    elif method is DemosaicerId.MALVAR:
        planes = _demosaic_malvar(cfa)
    else:
        planes = _demosaic_hamilton_adams(cfa)
    return ColorImage(planes)
