"""CFA interpolation behind a single interface: bilinear, Hamilton-Adams, Malvar.

All methods preserve observed samples exactly at their sites, have unit DC
gain, and use mirror padding (reflection without repeating the edge sample)
at borders.  Reflection about a sample preserves Bayer parity, so padded
neighborhoods stay color-consistent.  Bilinear and Malvar-He-Cutler (Getreuer,
IPOL 2011) fill each missing color with a fixed kernel per site role and
differ only in their kernel tables; Hamilton-Adams (US Patent 5,629,734)
picks green along the smaller gradient and fills chroma with the bilinear
table applied to color differences against that green.

Each fill pass pads its plane once and splits it into four contiguous parity
planes (even/odd rows by even/odd columns).  The sites of one role are one
parity class, so every kernel tap at them is a contiguous slice of one parity
plane; the taps and the order they are summed in are those of the kernels.
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


# Block position 2*r + c at (r, c): `sites` of this block reads a role's (r, c).
_BLOCK_INDEX = np.arange(4).reshape(2, 2)


def _parity_planes(plane: np.ndarray) -> np.ndarray:
    """The plane mirror-padded by 2, split into its four parity planes.

    planes[a, b] is the contiguous copy of padded[a::2, b::2].
    """
    padded = reflect_pad(plane, (2, 2), (2, 2))
    h2, w2 = padded.shape[0] // 2, padded.shape[1] // 2
    return np.ascontiguousarray(padded.reshape(h2, 2, w2, 2).transpose(1, 3, 0, 2))


def _at(planes: np.ndarray, phase: str, role: str, di: int, dj: int) -> np.ndarray:
    """The samples at offset (di, dj) from each `role` site, a slice of one parity plane."""
    r, c = divmod(int(sites(_BLOCK_INDEX, phase, role)[0, 0]), 2)
    h, w = planes.shape[2] - 2, planes.shape[3] - 2
    # Site (r + 2y, c + 2x) sits at padded row 2 + r + 2y: parity plane row 1 + r//2 + y.
    p, q = r + di, c + dj
    return planes[p % 2, q % 2, 1 + p // 2 : 1 + p // 2 + h, 1 + q // 2 : 1 + q // 2 + w]


def _stencil(planes: np.ndarray, phase: str, role: str, kernel: np.ndarray) -> np.ndarray:
    """The kernel's response at each `role` site of a plane's parity planes.

    The nonzero taps are summed in raster order starting from 0, as
    `scipy.ndimage.convolve` sums them, so the result is bit-identical to
    a mirror-mode convolution of the whole plane read at those sites.
    """
    ci, cj = kernel.shape[0] // 2, kernel.shape[1] // 2
    acc = np.zeros_like(_at(planes, phase, role, 0, 0))
    for (i, j), weight in np.ndenumerate(kernel):
        if weight:
            acc += weight * _at(planes, phase, role, i - ci, j - cj)
    return acc


def _fill(out: np.ndarray, raw: np.ndarray, phase: str, table: dict, channels, base=None) -> None:
    """Write the table's kernel estimates into the unobserved sites of `channels`.

    With `base` (a full green plane) the kernels act on `raw - base` and
    their response is added back to `base`.
    """
    planes = _parity_planes(raw if base is None else raw - base)
    for channel in channels:
        for role, kind in _FILL[channel].items():
            if kind:
                est = _stencil(planes, phase, role, table[kind])
                if base is not None:
                    est += sites(base, phase, role)
                sites(out[channel], phase, role)[...] = est


def _hamilton_adams_green(out: np.ndarray, raw: np.ndarray, phase: str) -> None:
    """Green at each chroma site along the smaller directional gradient."""
    planes = _parity_planes(raw)
    for role, kind in _FILL[1].items():
        if kind:
            s = partial(_at, planes, phase, role)
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
