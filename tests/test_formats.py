import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmdn.formats import (
    ImageFormatError,
    read_image,
    read_meta,
    write_image,
    write_meta,
)
from dmdn.image import ColorImage, DomainError, GrayImage
from dmdn.mosaic import CfaImage


def test_pfm_color_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(1)
    # float32-representable values survive the 32-bit container exactly
    values = rng.uniform(-300, 300, size=(3, 6, 10)).astype(np.float32).astype(np.float64)
    img = ColorImage(values)
    path = tmp_path / "img.pfm"
    write_image(path, img)
    back = read_image(path)
    assert isinstance(back, ColorImage)
    assert np.array_equal(back.planes, img.planes)
    # writing the reread image reproduces the file byte for byte
    again = tmp_path / "img2.pfm"
    write_image(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_pfm_gray_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    img = GrayImage(rng.normal(size=(5, 7)).astype(np.float32).astype(np.float64))
    path = tmp_path / "img.pfm"
    write_image(path, img)
    back = read_image(path)
    assert isinstance(back, GrayImage)
    assert np.array_equal(back.plane, img.plane)


def test_pfm_rows_are_stored_bottom_to_top(tmp_path):
    img = GrayImage(np.array([[1.0, 2.0], [3.0, 4.0]]))
    path = tmp_path / "img.pfm"
    write_image(path, img)
    data = path.read_bytes()
    assert data.startswith(b"Pf\n2 2\n-1.0\n")
    payload = np.frombuffer(data[len(b"Pf\n2 2\n-1.0\n") :], dtype="<f4")
    # file order: bottom row first
    assert payload.tolist() == [3.0, 4.0, 1.0, 2.0]


def test_p6_identity_mapping(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P6\n1 1\n255\n" + bytes([0, 128, 255]))
    img = read_image(path)
    assert isinstance(img, ColorImage)
    assert img.planes[:, 0, 0].tolist() == [0.0, 128.0, 255.0]


def test_p6_write_clamps_and_rounds_half_away_from_zero(tmp_path):
    img = ColorImage(np.array([[[255.7]], [[-3.2]], [[127.5]]]))
    path = tmp_path / "img.ppm"
    write_image(path, img)
    data = path.read_bytes()
    assert data[-3:] == bytes([255, 0, 128])


def test_p5_round_trip_on_integer_images(tmp_path):
    img = GrayImage(np.arange(12, dtype=np.float64).reshape(3, 4))
    path = tmp_path / "img.pgm"
    write_image(path, img)
    back = read_image(path)
    assert np.array_equal(back.plane, img.plane)


def test_truncated_payload_reports_offset(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))  # needs 12 bytes
    with pytest.raises(ImageFormatError) as err:
        read_image(path)
    assert "truncated" in str(err.value)
    assert "byte" in str(err.value)


def test_header_errors_are_distinct(tmp_path):
    bad_magic = tmp_path / "a.ppm"
    bad_magic.write_bytes(b"P3\n1 1\n255\n abc")
    with pytest.raises(ImageFormatError, match="magic"):
        read_image(bad_magic)

    bad_maxval = tmp_path / "b.ppm"
    bad_maxval.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
    with pytest.raises(ImageFormatError, match="maxval"):
        read_image(bad_maxval)

    bad_dims = tmp_path / "c.ppm"
    bad_dims.write_bytes(b"P6\nxy 1\n255\n")
    with pytest.raises(ImageFormatError, match="width"):
        read_image(bad_dims)


def test_pnm_comments_are_skipped(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5 # comment\n2 1 # another\n255\n" + bytes([7, 9]))
    img = read_image(path)
    assert img.plane.tolist() == [[7.0, 9.0]]


def test_big_endian_pfm_is_readable(tmp_path):
    payload = np.array([1.5, -2.0], dtype=">f4").tobytes()
    path = tmp_path / "img.pfm"
    path.write_bytes(b"Pf\n2 1\n1.0\n" + payload)
    img = read_image(path)
    assert img.plane.tolist() == [[1.5, -2.0]]


def test_signalling_nan_pfm_is_only_a_domain_error(tmp_path):
    # 0x7f800001 is a signalling NaN; its float64 cast must not warn first
    path = tmp_path / "snan.pfm"
    path.write_bytes(b"Pf\n2 1\n-1.0\n" + np.array([0x7F800001, 0], dtype="<u4").tobytes())
    with pytest.raises(DomainError, match="non-finite values are not allowed"):
        read_image(path)


def test_meta_sidecar_round_trip(tmp_path):
    path = tmp_path / "img.pfm"
    write_meta(path, {"phase": "GRBG", "note": "x"})
    assert read_meta(path) == {"phase": "GRBG", "note": "x"}


@settings(max_examples=30)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_8bit_lossless_on_integer_images(width, height, seed):
    rng = np.random.default_rng(seed)
    img = GrayImage(rng.integers(0, 256, size=(height, width)).astype(np.float64))
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "img.pgm")
        write_image(path, img)
        back = read_image(path)
    assert np.array_equal(back.plane, img.plane)


# ---------------------------------------------------------------------------
# Reference codec: one reader and one writer per format, as they stood before
# the table-driven codec replaced them.  The properties below pin
# `read_image`/`write_image` to these byte for byte, message for message.


def _ref_read_token(data: bytes, pos: int, path) -> tuple[bytes, int]:
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


def _ref_read_int_token(data: bytes, pos: int, path, what: str) -> tuple[int, int]:
    token, end = _ref_read_token(data, pos, path)
    try:
        return int(token), end
    except ValueError:
        raise ImageFormatError(path, pos, f"invalid {what} {token!r}") from None


def reference_read_image(path):
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 2:
        raise ImageFormatError(path, 0, "file too short for a magic number")
    magic = data[:2]
    if magic in (b"P6", b"P5"):
        return _ref_read_pnm(data, path, magic)
    if magic in (b"PF", b"Pf"):
        return _ref_read_pfm(data, path, magic)
    raise ImageFormatError(path, 0, f"unsupported magic {magic!r}")


def _ref_read_pnm(data: bytes, path, magic: bytes):
    width, pos = _ref_read_int_token(data, 2, path, "width")
    height, pos = _ref_read_int_token(data, pos, path, "height")
    maxval, pos = _ref_read_int_token(data, pos, path, "maxval")
    if width <= 0 or height <= 0:
        raise ImageFormatError(path, 2, f"invalid dimensions {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(path, pos, f"unsupported maxval {maxval} (only 255)")
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


def _ref_read_pfm(data: bytes, path, magic: bytes):
    width, pos = _ref_read_int_token(data, 2, path, "width")
    height, pos = _ref_read_int_token(data, pos, path, "height")
    scale_token, scale_pos = _ref_read_token(data, pos, path)
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
    # As in `read_image`: a signalling NaN is reported as non-finite, not as a cast warning.
    with np.errstate(invalid="ignore"):
        samples = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    rows = samples.reshape(height, width, channels)
    rows = rows[::-1]
    if channels == 1:
        return GrayImage(rows[:, :, 0])
    return ColorImage(np.transpose(rows, (2, 0, 1)))


def _ref_quantize_u8(values: np.ndarray) -> np.ndarray:
    clipped = np.clip(values, 0.0, 255.0)
    return np.floor(clipped + 0.5).astype(np.uint8)


def reference_write_image(path, img) -> None:
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".pfm":
        _ref_write_pfm(path, img)
    elif suffix == ".ppm":
        if not isinstance(img, ColorImage):
            raise ImageFormatError(path, None, ".ppm requires a ColorImage")
        _ref_write_ppm(path, img)
    elif suffix == ".pgm":
        if not isinstance(img, GrayImage):
            raise ImageFormatError(path, None, ".pgm requires a GrayImage")
        _ref_write_pgm(path, img)
    else:
        raise ImageFormatError(path, None, f"unsupported extension {suffix!r} (use .ppm/.pgm/.pfm)")


def _ref_write_ppm(path: Path, img: ColorImage) -> None:
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    interleaved = np.transpose(_ref_quantize_u8(img.planes), (1, 2, 0))
    path.write_bytes(header + interleaved.tobytes())


def _ref_write_pgm(path: Path, img: GrayImage) -> None:
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    path.write_bytes(header + _ref_quantize_u8(img.plane).tobytes())


def _ref_write_pfm(path: Path, img) -> None:
    if isinstance(img, ColorImage):
        magic = b"PF"
        rows = np.transpose(img.planes, (1, 2, 0))
    else:
        magic = b"Pf"
        rows = img.plane
    header = magic + f"\n{img.width} {img.height}\n-1.0\n".encode("ascii")
    payload = rows[::-1].astype("<f4").tobytes()
    path.write_bytes(header + payload)


def _outcome(fn, path, *args):
    """What a codec call did: its error (type, message, offset) or its result."""
    try:
        result = fn(path, *args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    if result is None:  # a write
        data = Path(path).read_bytes()
        os.remove(path)
        return "written", data
    samples = result.planes if isinstance(result, ColorImage) else result.plane
    return type(result), samples.shape, samples.tobytes()


_IMAGE_KINDS = {
    "color": ColorImage,
    "gray": lambda values: GrayImage(values[0]),
    "cfa": lambda values: CfaImage(values[0]),
}


@settings(max_examples=150)
@given(
    kind=st.sampled_from(sorted(_IMAGE_KINDS)),
    suffix=st.sampled_from([".ppm", ".pgm", ".pfm", ".PFM", ".PPM", ".png"]),
    height=st.integers(1, 5),
    width=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="cfa", suffix=".pgm", height=2, width=2, seed=0)
@example(kind="color", suffix=".pfm", height=3, width=2, seed=1)
@example(kind="gray", suffix=".PFM", height=4, width=1, seed=2)
def test_writer_matches_reference_codec(kind, suffix, height, width, seed):
    rng = np.random.default_rng(seed)
    shape = (3, height + height % 2, width + width % 2)  # even, so every kind is valid
    values = rng.uniform(-40.0, 300.0, size=shape)
    halves = rng.random(shape) < 0.3  # exact .5 ties exercise the rounding
    values[halves] = np.floor(values[halves]) + 0.5
    img = _IMAGE_KINDS[kind](values)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d, "img" + suffix)
        assert _outcome(write_image, path, img) == _outcome(reference_write_image, path, img)


_SEPARATORS = st.lists(
    st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b" # note\n", b"\n#c\r"]), min_size=1, max_size=3
).map(b"".join)
_ODD_TOKENS = st.sampled_from(
    [b"0", b"-1", b"x", b"2#", b"+2", b"2.0", b"1_0", b"65535", b"255"]
    + [b"1.0", b"-0.5", b"0.0", b"nan", b"-inf"]
)


@st.composite
def _image_files(draw) -> bytes:
    """A mostly valid PNM/PFM file: random separators, then odd fields, byte edits, truncation."""
    magic = draw(st.sampled_from([b"P6", b"P5", b"PF", b"Pf"] * 3 + [b"P3", b"P"]))
    pfm = magic in (b"PF", b"Pf")
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    fields = [str(width).encode(), str(height).encode(), b"-1.0" if pfm else b"255"]
    if pfm and draw(st.booleans()):
        fields[2] = b"1.0"  # big-endian
    if draw(st.integers(0, 3)) == 0:
        fields[draw(st.integers(0, 2))] = draw(_ODD_TOKENS)
    header = magic + b"".join(draw(_SEPARATORS) + field for field in fields)
    header += draw(st.sampled_from([b"\n", b"\n", b"\n", b" ", b"", b"\n\n"]))
    need = width * height * (3 if magic in (b"P6", b"PF") else 1) * (4 if pfm else 1)
    data = bytearray(header + draw(st.binary(min_size=need, max_size=need + 2)))
    if draw(st.integers(0, 3)) == 0:
        for index, value in draw(st.lists(st.tuples(st.integers(0, len(header) + 3), st.integers(0, 255)))):
            if index < len(data):
                data[index] = value
    if draw(st.integers(0, 3)) == 0:
        del data[len(data) - draw(st.integers(0, len(data))) :]
    return bytes(data)


@settings(max_examples=400)
@given(_image_files())
@example(b"PF\n2 2\n-1.0\n" + np.arange(12, dtype="<f4").tobytes())
@example(b"Pf\n1 3\n1.0\n" + np.arange(3, dtype=">f4").tobytes())
@example(b"P6\n2 1\n255\n" + bytes(range(6)))
@example(b"P5 # c\n2 1\n255\n" + bytes([7, 9]))
@example(b"PF\n0 2\n0.0\n")  # PFM checks the scale before the dimensions
@example(b"P5\n0 2\n7\n")  # PNM checks the dimensions before maxval
@example(b"P6\n2 2\n255\n" + bytes(5))
@example(b"Pf\n2 1\n-1.0\n" + np.array([0x7F800001, 0], dtype="<u4").tobytes())  # signalling NaN
def test_reader_matches_reference_codec(data):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d, "img.bin")
        path.write_bytes(data)
        assert _outcome(read_image, path) == _outcome(reference_read_image, path)
