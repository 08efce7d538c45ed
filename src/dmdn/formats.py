"""One bit-exact reader and one writer for binary PPM (P6), PGM (P5) and PFM (PF, Pf).

8-bit formats map sample byte k to the float value k with no rescaling;
writing them clamps to [0, 255] and rounds half away from zero.  PFM stores
32-bit floats (scale -1.0 means little-endian) with rows bottom-to-top, so a
float64 image survives a write/read cycle exactly whenever its values are
representable in float32.  A CFA mosaic is a one-plane file plus a
`<name>.meta` sidecar naming its Bayer phase (`phase=GRBG`; RGGB when absent).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .image import ColorImage, GrayImage
from .mosaic import PHASES, CfaImage


class ImageFormatError(ValueError):
    """Malformed or unsupported image file; a read error's message carries the byte offset."""

    def __init__(self, path, offset: int | None, message: str):
        where = f"{path}: " if offset is None else f"{path}: byte {offset}: "
        super().__init__(where + message)
        self.path = str(path)
        self.offset = offset


# magic -> (channels, sample type); "f4" samples are PFM floats.
_FORMATS = {b"P6": (3, "u1"), b"P5": (1, "u1"), b"PF": (3, "f4"), b"Pf": (1, "f4")}


def _read_token(data: bytes, pos: int, path, parse, what: str):
    """Parse one whitespace-delimited header token, skipping '#' comments.

    Returns (value, end); a parse failure is reported at `pos`.
    """
    n = len(data)
    start = pos
    while start < n:
        c = data[start : start + 1]
        if c == b"#":
            while start < n and data[start : start + 1] not in (b"\n", b"\r"):
                start += 1
        elif c.isspace():
            start += 1
        else:
            break
    if start >= n:
        raise ImageFormatError(path, start, "unexpected end of file in header")
    end = start
    while end < n and not data[end : end + 1].isspace():
        end += 1
    try:
        return parse(data[start:end]), end
    except ValueError:
        raise ImageFormatError(path, pos, f"invalid {what} {data[start:end]!r}") from None


def read_image(path) -> ColorImage | GrayImage | CfaImage:
    """Read a PPM/PGM/PFM file; returns ColorImage for P6/PF, and for P5/Pf a
    CfaImage when a `.meta` sidecar is present, else a GrayImage."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 2:
        raise ImageFormatError(path, 0, "file too short for a magic number")
    magic = data[:2]
    if magic not in _FORMATS:
        raise ImageFormatError(path, 0, f"unsupported magic {magic!r}")
    channels, kind = _FORMATS[magic]
    pfm = kind == "f4"
    width, pos = _read_token(data, 2, path, int, "width")
    height, pos = _read_token(data, pos, path, int, "height")
    # The third field is the PFM scale (its sign is the byte order) or the PNM maxval.
    third, end = _read_token(data, pos, path, float if pfm else int, "scale" if pfm else "maxval")
    if pfm and third == 0.0:
        raise ImageFormatError(path, pos, "scale must be nonzero")
    if width <= 0 or height <= 0:
        raise ImageFormatError(path, 2, f"invalid dimensions {width}x{height}")
    if not pfm and third != 255:
        raise ImageFormatError(path, end, f"unsupported maxval {third} (only 255)")
    # Exactly one whitespace byte separates the header from the payload.
    if end >= len(data) or not data[end : end + 1].isspace():
        raise ImageFormatError(path, end, "missing whitespace before pixel data")
    pos = end + 1
    dtype = np.dtype(("<" if third < 0 else ">") + kind if pfm else kind)
    need = width * height * channels * dtype.itemsize
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise ImageFormatError(
            path, pos + len(payload), f"truncated payload: expected {need} bytes, got {len(payload)}"
        )
    # A signalling NaN warns in the cast; the container rejects it as non-finite.
    with np.errstate(invalid="ignore"):
        rows = np.frombuffer(payload, dtype=dtype).astype(np.float64).reshape(height, width, channels)
    if pfm:
        rows = rows[::-1]  # PFM stores rows bottom-to-top
    if channels == 3:
        return ColorImage(np.transpose(rows, (2, 0, 1)))
    gray = GrayImage(rows[:, :, 0])
    side = Path(str(path) + ".meta")
    if not side.exists():
        return gray
    phase = read_meta(path).get("phase", "RGGB")
    if phase not in PHASES:
        raise ImageFormatError(side, None, f"unknown Bayer phase {phase!r}")
    return CfaImage(gray.plane, phase)


def write_image(path, img: ColorImage | GrayImage | CfaImage) -> None:
    """Write an image; format chosen by extension (.ppm/.pgm/.pfm), a CfaImage with its sidecar."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".ppm" and not isinstance(img, ColorImage):
        raise ImageFormatError(path, None, ".ppm requires a ColorImage")
    if suffix == ".pgm" and not isinstance(img, (GrayImage, CfaImage)):
        raise ImageFormatError(path, None, ".pgm requires a GrayImage")
    if suffix not in (".ppm", ".pgm", ".pfm"):
        raise ImageFormatError(path, None, f"unsupported extension {suffix!r} (use .ppm/.pgm/.pfm)")
    color = isinstance(img, ColorImage)
    rows = np.transpose(img.planes, (1, 2, 0)) if color else img.plane
    if suffix == ".pfm":
        magic, scale = ("PF" if color else "Pf"), "-1.0"
        payload = rows[::-1].astype("<f4")
    else:
        magic, scale = ("P6" if color else "P5"), "255"
        payload = np.floor(np.clip(rows, 0.0, 255.0) + 0.5).astype(np.uint8)
    header = f"{magic}\n{img.width} {img.height}\n{scale}\n".encode("ascii")
    path.write_bytes(header + payload.tobytes())
    if isinstance(img, CfaImage):
        write_meta(path, {"phase": img.phase})


def write_meta(path, meta: dict[str, str]) -> None:
    """Write the key=value sidecar next to an image (path + '.meta')."""
    side = Path(str(path) + ".meta")
    side.write_text("".join(f"{k}={v}\n" for k, v in meta.items()))


def read_meta(path) -> dict[str, str]:
    side = Path(str(path) + ".meta")
    try:
        text = side.read_text()
    except UnicodeDecodeError as exc:
        raise ImageFormatError(side, exc.start, "metadata is not text") from None
    meta = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ImageFormatError(side, None, f"invalid metadata line {line!r}")
        meta[key.strip()] = value.strip()
    return meta

