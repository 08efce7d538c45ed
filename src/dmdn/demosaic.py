"""CFA interpolation behind a single interface: bilinear, Hamilton-Adams, Malvar.

All methods preserve observed samples exactly at their sites, have unit DC
gain, and use mirror padding (reflection without repeating the edge sample)
at borders.  Reflection about a sample preserves Bayer parity, so padded
neighborhoods stay color-consistent.  Bilinear and Malvar-He-Cutler (Getreuer,
IPOL 2011) fill each missing color with a fixed kernel per site role and
differ only in their kernel tables; Hamilton-Adams (US Patent 5,629,734)
picks green along the smaller gradient and fills chroma with the bilinear
table applied to color differences against that green.
"""

from __future__ import annotations

from enum import Enum
from functools import partial

import numpy as np

from .image import ColorImage, coerce_enum, reflect_pad
from .mosaic import CfaImage, sites


class DemosaicerId(str, Enum):
    BILINEAR = "bilinear"
    HAMILTON_ADAMS = "ha"
    MALVAR = "malvar"


# Per output channel (R, G, B), the kernel kind that fills it at each site
# role; None keeps the observed sample.  G fills green at a chroma site; H
# (V) fills a chroma at a green site whose same-color neighbors lie in its
# row (column); X fills a chroma at the opposite chroma's site.  G1 shares
# a row with R and G2 with B.
_FILL = (
    {"R": None, "G1": "H", "G2": "V", "B": "X"},
    {"R": "G", "G1": None, "G2": None, "B": "G"},
    {"R": "X", "G1": "V", "G2": "H", "B": None},
)

_PAIR = np.array([[1, 0, 1]], dtype=np.float64)
_BILINEAR = {
    "G": np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.float64) / 4.0,
    "H": _PAIR / 2.0,
    "V": _PAIR.T / 2.0,
    "X": np.array([[1, 0, 1], [0, 0, 0], [1, 0, 1]], dtype=np.float64) / 4.0,
}

# Malvar 5x5 filters (x8).
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
_MALVAR = {"G": _K_G, "H": _K_H, "V": _K_V, "X": _K_X}


def _at(padded: np.ndarray, phase: str, role: str, di: int, dj: int) -> np.ndarray:
    """The samples at offset (di, dj) from each `role` site of a plane padded by 2."""
    h, w = padded.shape[0] - 4, padded.shape[1] - 4
    return sites(padded[2 + di : 2 + di + h, 2 + dj : 2 + dj + w], phase, role)


def _stencil(padded: np.ndarray, phase: str, role: str, kernel: np.ndarray) -> np.ndarray:
    """The kernel's response at each `role` site of a plane padded by 2.

    The nonzero taps are summed in raster order starting from 0, as
    `scipy.ndimage.convolve` sums them, so the result is bit-identical to
    a mirror-mode convolution of the whole plane read at those sites.
    """
    ci, cj = kernel.shape[0] // 2, kernel.shape[1] // 2
    acc = np.zeros_like(_at(padded, phase, role, 0, 0))
    for (i, j), weight in np.ndenumerate(kernel):
        if weight:
            acc += weight * _at(padded, phase, role, i - ci, j - cj)
    return acc


def _fill(out: np.ndarray, raw: np.ndarray, phase: str, table: dict, channels, base=None) -> None:
    """Write the table's kernel estimates into the unobserved sites of `channels`.

    With `base` (a full green plane) the kernels act on `raw - base` and
    their response is added back to `base`.
    """
    padded = reflect_pad(raw if base is None else raw - base, (2, 2), (2, 2))
    for channel in channels:
        for role, kind in _FILL[channel].items():
            if kind:
                est = _stencil(padded, phase, role, table[kind])
                if base is not None:
                    est += sites(base, phase, role)
                sites(out[channel], phase, role)[...] = est


def _hamilton_adams_green(out: np.ndarray, raw: np.ndarray, phase: str) -> None:
    """Green at each chroma site along the smaller directional gradient."""
    padded = reflect_pad(raw, (2, 2), (2, 2))
    for role, kind in _FILL[1].items():
        if kind:
            s = partial(_at, padded, phase, role)
            # Directional green estimates with a second-difference chroma correction.
            lap_h = 2.0 * s(0, 0) - s(0, -2) - s(0, 2)
            lap_v = 2.0 * s(0, 0) - s(-2, 0) - s(2, 0)
            grad_h = np.abs(s(0, -1) - s(0, 1)) + np.abs(lap_h)
            grad_v = np.abs(s(-1, 0) - s(1, 0)) + np.abs(lap_v)
            est_h = (s(0, -1) + s(0, 1)) / 2.0 + lap_h / 4.0
            est_v = (s(-1, 0) + s(1, 0)) / 2.0 + lap_v / 4.0
            est_tie = (est_h + est_v) / 2.0
            tie_or_v = np.where(grad_v < grad_h, est_v, est_tie)
            sites(out[1], phase, role)[...] = np.where(grad_h < grad_v, est_h, tie_or_v)


def demosaic(cfa: CfaImage, method=DemosaicerId.HAMILTON_ADAMS) -> ColorImage:
    """Interpolate a full RGB image from a Bayer CFA."""
    method = coerce_enum(DemosaicerId, method, "demosaicer")
    raw, phase = cfa.plane, cfa.phase
    out = np.repeat(raw[None], 3, axis=0)  # the observed samples; the rest is filled
    if method is DemosaicerId.HAMILTON_ADAMS:
        _hamilton_adams_green(out, raw, phase)
        _fill(out, raw, phase, _BILINEAR, (0, 2), base=out[1])
    else:
        _fill(out, raw, phase, _MALVAR if method is DemosaicerId.MALVAR else _BILINEAR, (0, 1, 2))
    return ColorImage(out)
