"""Bit-exact readers and writers for binary PPM (P6), PGM (P5) and PFM.

8-bit formats map sample byte k to the float value k with no rescaling;
writing them clamps to [0, 255] and rounds half away from zero.  PFM stores
32-bit floats (scale -1.0 means little-endian) with rows bottom-to-top, so a
float64 image survives a write/read cycle exactly whenever its values are
representable in float32.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .image import ColorImage, GrayImage


class ImageFormatError(ValueError):
    """Malformed or unsupported image file; a read error's message carries the byte offset."""

    def __init__(self, path, offset: int | None, message: str):
        where = f"{path}: " if offset is None else f"{path}: byte {offset}: "
        super().__init__(where + message)
        self.path = str(path)
        self.offset = offset


def _read_token(data: bytes, pos: int, path) -> tuple[bytes, int]:
    """Read one whitespace-delimited header token, skipping '#' comments."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise ImageFormatError(path, pos, "unexpected end of file in header")
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def _read_int_token(data: bytes, pos: int, path, what: str) -> tuple[int, int]:
    token, end = _read_token(data, pos, path)
    try:
        return int(token), end
    except ValueError:
        raise ImageFormatError(path, pos, f"invalid {what} {token!r}") from None


def read_image(path) -> ColorImage | GrayImage:
    """Read a PPM/PGM/PFM file; returns ColorImage for P6/PF, GrayImage for P5/Pf."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 2:
        raise ImageFormatError(path, 0, "file too short for a magic number")
    magic = data[:2]
    if magic in (b"P6", b"P5"):
        return _read_pnm(data, path, magic)
    if magic in (b"PF", b"Pf"):
        return _read_pfm(data, path, magic)
    raise ImageFormatError(path, 0, f"unsupported magic {magic!r}")


def _read_pnm(data: bytes, path, magic: bytes) -> ColorImage | GrayImage:
    width, pos = _read_int_token(data, 2, path, "width")
    height, pos = _read_int_token(data, pos, path, "height")
    maxval, pos = _read_int_token(data, pos, path, "maxval")
    if width <= 0 or height <= 0:
        raise ImageFormatError(path, 2, f"invalid dimensions {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(path, pos, f"unsupported maxval {maxval} (only 255)")
    # Exactly one whitespace byte separates the header from the payload.
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise ImageFormatError(path, pos, "missing whitespace before pixel data")
    pos += 1
    channels = 3 if magic == b"P6" else 1
    need = width * height * channels
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise ImageFormatError(
            path, pos + len(payload), f"truncated payload: expected {need} bytes, got {len(payload)}"
        )
    samples = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    if channels == 1:
        return GrayImage(samples.reshape(height, width))
    interleaved = samples.reshape(height, width, 3)
    return ColorImage(np.transpose(interleaved, (2, 0, 1)))


def _read_pfm(data: bytes, path, magic: bytes) -> ColorImage | GrayImage:
    width, pos = _read_int_token(data, 2, path, "width")
    height, pos = _read_int_token(data, pos, path, "height")
    scale_token, scale_pos = _read_token(data, pos, path)
    try:
        scale = float(scale_token)
    except ValueError:
        raise ImageFormatError(path, pos, f"invalid scale {scale_token!r}") from None
    if scale == 0.0:
        raise ImageFormatError(path, pos, "scale must be nonzero")
    if width <= 0 or height <= 0:
        raise ImageFormatError(path, 2, f"invalid dimensions {width}x{height}")
    pos = scale_pos
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise ImageFormatError(path, pos, "missing whitespace before pixel data")
    pos += 1
    channels = 3 if magic == b"PF" else 1
    need = width * height * channels * 4
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise ImageFormatError(
            path, pos + len(payload), f"truncated payload: expected {need} bytes, got {len(payload)}"
        )
    dtype = "<f4" if scale < 0 else ">f4"
    samples = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    rows = samples.reshape(height, width, channels)
    rows = rows[::-1]  # PFM stores rows bottom-to-top
    if channels == 1:
        return GrayImage(rows[:, :, 0])
    return ColorImage(np.transpose(rows, (2, 0, 1)))


def _quantize_u8(values: np.ndarray) -> np.ndarray:
    """Clamp to [0, 255], round half away from zero, to uint8."""
    clipped = np.clip(values, 0.0, 255.0)
    return np.floor(clipped + 0.5).astype(np.uint8)


def write_image(path, img: ColorImage | GrayImage) -> None:
    """Write an image; format chosen by extension (.ppm/.pgm/.pfm)."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".pfm":
        _write_pfm(path, img)
    elif suffix == ".ppm":
        if not isinstance(img, ColorImage):
            raise ImageFormatError(path, None, ".ppm requires a ColorImage")
        _write_ppm(path, img)
    elif suffix == ".pgm":
        if not isinstance(img, GrayImage):
            raise ImageFormatError(path, None, ".pgm requires a GrayImage")
        _write_pgm(path, img)
    else:
        raise ImageFormatError(path, None, f"unsupported extension {suffix!r} (use .ppm/.pgm/.pfm)")


def _write_ppm(path: Path, img: ColorImage) -> None:
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    interleaved = np.transpose(_quantize_u8(img.planes), (1, 2, 0))
    path.write_bytes(header + interleaved.tobytes())


def _write_pgm(path: Path, img: GrayImage) -> None:
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    path.write_bytes(header + _quantize_u8(img.plane).tobytes())


def _write_pfm(path: Path, img: ColorImage | GrayImage) -> None:
    if isinstance(img, ColorImage):
        magic = b"PF"
        rows = np.transpose(img.planes, (1, 2, 0))
    else:
        magic = b"Pf"
        rows = img.plane
    header = magic + f"\n{img.width} {img.height}\n-1.0\n".encode("ascii")
    payload = rows[::-1].astype("<f4").tobytes()
    path.write_bytes(header + payload)


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

