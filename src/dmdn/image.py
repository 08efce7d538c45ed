"""Planar floating-point image containers, the RGB <-> YC1C2 opponent transform, reflect padding.

All pixel data is stored as float64 on the nominal [0, 255] scale; values
outside that range are legal everywhere except at 8-bit export time.
Containers are immutable after construction (the backing arrays are marked
read-only) so they can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class DomainError(ValueError):
    """Input violates an operation's domain (bad shape, non-finite data, ...)."""


# Noise levels (stage sigmas and simulated AWGN) in intensity units.
SIGMA_RANGE = (0.0, 255.0)


def check_range(name: str, value, bounds):
    """`value` if it lies in the closed interval `bounds`; NaN never does."""
    lo, hi = bounds
    if not (lo <= value <= hi):
        raise DomainError(f"{name} must be in [{lo:g}, {hi:g}], got {value}")
    return value


def coerce_enum(kind: type[Enum], name, what: str):
    """The member of the str-valued enum `kind` named `name` (case-insensitive)."""
    if isinstance(name, kind):
        return name
    try:
        return kind(str(name).lower())
    except ValueError:
        raise DomainError(f"unknown {what} {name!r}") from None


def _as_readonly_f64(data, ndim: int, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != ndim:
        raise DomainError(f"{what}: expected {ndim}-d array, got {arr.ndim}-d")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what}: non-finite values are not allowed")
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GrayImage:
    """Single-plane image, shape (height, width)."""

    plane: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "plane", _as_readonly_f64(self.plane, 2, "GrayImage"))

    @property
    def height(self) -> int:
        return self.plane.shape[0]

    @property
    def width(self) -> int:
        return self.plane.shape[1]


@dataclass(frozen=True)
class ColorImage:
    """Planar R, G, B image, shape (3, height, width).

    Bayer sampling requires even dimensions; that constraint is enforced by
    the mosaicking operations rather than here, because legitimate color
    images of any size appear downstream (e.g. the half-resolution images
    produced by splitting a CFA).
    """

    planes: np.ndarray

    def __post_init__(self):
        planes = _as_readonly_f64(self.planes, 3, "ColorImage")
        if planes.shape[0] != 3:
            raise DomainError(f"ColorImage: expected 3 planes, got {planes.shape[0]}")
        object.__setattr__(self, "planes", planes)

    @property
    def height(self) -> int:
        return self.planes.shape[1]

    @property
    def width(self) -> int:
        return self.planes.shape[2]

    @property
    def r(self) -> np.ndarray:
        return self.planes[0]

    @property
    def g(self) -> np.ndarray:
        return self.planes[1]

    @property
    def b(self) -> np.ndarray:
        return self.planes[2]


# Orthonormal opponent basis: rows are the Y, C1, C2 directions.  Y is the
# gray axis (R+G+B)/sqrt(3); C1 and C2 span the chromatic plane.
OPPONENT_MATRIX = np.array(
    [
        [1 / np.sqrt(3), 1 / np.sqrt(3), 1 / np.sqrt(3)],
        [1 / np.sqrt(2), 0.0, -1 / np.sqrt(2)],
        [1 / np.sqrt(6), -2 / np.sqrt(6), 1 / np.sqrt(6)],
    ]
)
OPPONENT_MATRIX.flags.writeable = False


def reflect_pad(a: np.ndarray, rows: tuple[int, int], cols: tuple[int, int]) -> np.ndarray:
    """`np.pad(a, ..., mode="reflect")` of the last two axes of a by (before, after) rows and cols.

    Built from slice copies: the centre, then each column strip from a
    reversed slice of a, then each row strip from a reversed slice of the
    padded rows, so the corners reflect along both axes.  That is one memcpy
    per strip, where np.pad's per-call Python overhead dominates at small
    sizes.  A width past its axis length minus one reflects more than once,
    and is left to np.pad.
    """
    (top, bottom), (left, right) = rows, cols
    h, w = a.shape[-2:]
    if max(top, bottom) >= h or max(left, right) >= w:
        return np.pad(a, [(0, 0)] * (a.ndim - 2) + [rows, cols], mode="reflect")
    out = np.empty(a.shape[:-2] + (top + h + bottom, left + w + right), a.dtype)
    mid = out[..., top : top + h, :]
    mid[..., left : left + w] = a
    mid[..., :left] = a[..., 1 : left + 1][..., ::-1]
    mid[..., left + w :] = a[..., w - 1 - right : w - 1][..., ::-1]
    out[..., :top, :] = out[..., top + 1 : 2 * top + 1, :][..., ::-1, :]
    out[..., top + h :, :] = out[..., top + h - 1 - bottom : top + h - 1, :][..., ::-1, :]
    return out


def opponent_planes(planes: np.ndarray) -> np.ndarray:
    """Apply the orthonormal RGB -> YC1C2 transform per pixel of a (3, h, w) array."""
    return np.einsum("ck,khw->chw", OPPONENT_MATRIX, planes)


def rgb_planes(planes: np.ndarray) -> np.ndarray:
    """Inverse (transpose) of :func:`opponent_planes`."""
    return np.einsum("kc,khw->chw", OPPONENT_MATRIX, planes)
