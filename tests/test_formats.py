import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdn.formats import (
    ImageFormatError,
    read_image,
    read_meta,
    write_image,
    write_meta,
)
from dmdn.image import ColorImage, GrayImage


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
