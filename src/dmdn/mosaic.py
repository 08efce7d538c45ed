"""Bayer CFA sampling and the half-image split/recombine adapter.

A CFA image is a single plane where each pixel holds one color sample; the
phase names the 2x2 block layout by the colors of its top-left corner.  The
split adapter turns a CFA into two half-resolution RGB images (sharing R and
B, each carrying one of the two greens) so that plain RGB denoisers can be
applied before demosaicing; recombining puts every green back on its own
site and averages the duplicated R and B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import ColorImage, DomainError, GrayImage

PHASES = ("RGGB", "GRBG", "GBRG", "BGGR")

# Per phase: (row, col) of each role inside the 2x2 block.  G1 is the green
# sharing a row with R, G2 the green sharing a row with B.
_BLOCK_LAYOUT = {
    "RGGB": {"R": (0, 0), "G1": (0, 1), "G2": (1, 0), "B": (1, 1)},
    "GRBG": {"R": (0, 1), "G1": (0, 0), "G2": (1, 1), "B": (1, 0)},
    "GBRG": {"R": (1, 0), "G1": (1, 1), "G2": (0, 0), "B": (0, 1)},
    "BGGR": {"R": (1, 1), "G1": (1, 0), "G2": (0, 1), "B": (0, 0)},
}

_ROLE_CHANNEL = {"R": 0, "G1": 1, "G2": 1, "B": 2}


def sites(values: np.ndarray, phase: str, role: str) -> np.ndarray:
    """The view `values[..., r::2, c::2]` of one role's sites (R, G1, G2, B).

    This is the one place the Bayer layout is read; the view can be written.
    """
    r, c = _BLOCK_LAYOUT[phase][role]
    return values[..., r::2, c::2]


def _check_phase(phase: str) -> str:
    if phase not in PHASES:
        raise DomainError(f"unknown Bayer phase {phase!r}; expected one of {PHASES}")
    return phase


@dataclass(frozen=True)
class CfaImage:
    """Single-plane Bayer mosaic with even dimensions and a named phase."""

    plane: np.ndarray
    phase: str = "RGGB"

    def __post_init__(self):
        gray = GrayImage(self.plane)
        if gray.height % 2 or gray.width % 2:
            raise DomainError(
                f"CfaImage requires even dimensions, got {gray.width}x{gray.height}"
            )
        _check_phase(self.phase)
        object.__setattr__(self, "plane", gray.plane)

    @property
    def height(self) -> int:
        return self.plane.shape[0]

    @property
    def width(self) -> int:
        return self.plane.shape[1]


@dataclass(frozen=True)
class HalfPair:
    """The two half-resolution RGB images produced by splitting a CFA."""

    first: ColorImage  # uses G1, the green in R's row
    second: ColorImage  # uses G2, the green in B's row

    def __post_init__(self):
        if self.first.planes.shape != self.second.planes.shape:
            raise DomainError("HalfPair halves must share dimensions")


def mosaick(img: ColorImage, phase: str = "RGGB") -> CfaImage:
    """Sample one color per pixel from a full RGB image under a Bayer phase."""
    _check_phase(phase)
    if img.height % 2 or img.width % 2:
        raise DomainError(
            f"mosaick requires even dimensions, got {img.width}x{img.height}"
        )
    plane = np.empty((img.height, img.width), dtype=np.float64)
    for role, channel in _ROLE_CHANNEL.items():
        sites(plane, phase, role)[...] = sites(img.planes[channel], phase, role)
    return CfaImage(plane, phase)


def split_cfa(cfa: CfaImage) -> HalfPair:
    """Split each 2x2 block (R, G1, G2, B) into two half-size RGB pixels.

    Both halves carry the block's R and B; the first takes G1 and the
    second G2.
    """
    r, g1, g2, b = (sites(cfa.plane, cfa.phase, role) for role in ("R", "G1", "G2", "B"))
    return HalfPair(ColorImage(np.stack([r, g1, b])), ColorImage(np.stack([r, g2, b])))


def recombine_cfa(pair: HalfPair, phase: str = "RGGB") -> CfaImage:
    """Reassemble a CFA: each green from its own half, R and B averaged."""
    _check_phase(phase)
    plane = np.empty((2 * pair.first.height, 2 * pair.first.width), dtype=np.float64)
    sites(plane, phase, "R")[...] = (pair.first.r + pair.second.r) / 2.0
    sites(plane, phase, "B")[...] = (pair.first.b + pair.second.b) / 2.0
    sites(plane, phase, "G1")[...] = pair.first.g
    sites(plane, phase, "G2")[...] = pair.second.g
    return CfaImage(plane, phase)

