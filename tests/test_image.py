import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdn.image import ColorImage, DomainError, GrayImage, opponent_planes, reflect_pad, rgb_planes
from dmdn.noise import NoiseSpec, add_awgn


def single_pixel(a, b, c):
    return np.array([[[a]], [[b]], [[c]]], dtype=np.float64)


def test_gray_pixel_maps_to_pure_luminance():
    out = opponent_planes(single_pixel(1.0, 1.0, 1.0))
    np.testing.assert_allclose(out[:, 0, 0], [np.sqrt(3.0), 0.0, 0.0], atol=1e-15)


def test_red_minus_blue_maps_to_first_chroma():
    out = opponent_planes(single_pixel(1.0, 0.0, -1.0))
    np.testing.assert_allclose(out[:, 0, 0], [0.0, np.sqrt(2.0), 0.0], atol=1e-15)


def test_inverse_examples():
    rgb = rgb_planes(single_pixel(np.sqrt(3.0), 0.0, 0.0))
    np.testing.assert_allclose(rgb[:, 0, 0], [1.0, 1.0, 1.0], atol=1e-15)
    zero = rgb_planes(np.zeros((3, 1, 1)))
    assert np.array_equal(zero, np.zeros((3, 1, 1)))


def test_round_trip_and_norm_preservation():
    rng = np.random.default_rng(0)
    img = rng.uniform(-50, 300, size=(3, 17, 23))
    opp = opponent_planes(img)
    back = rgb_planes(opp)
    assert np.abs(back - img).max() <= 1e-12
    norms_in = np.sqrt((img**2).sum(axis=0))
    norms_out = np.sqrt((opp**2).sum(axis=0))
    assert np.abs(norms_in - norms_out).max() <= 1e-12


def test_iid_noise_variance_preserved_per_opponent_channel():
    # i.i.d. N(0, 20) per RGB channel keeps variance ~400 in every opponent
    # channel (orthonormal mixing of white noise).
    zero = ColorImage(np.zeros((3, 64, 64)))
    noisy = add_awgn(zero, NoiseSpec(20.0, seed=5))
    for chan in opponent_planes(noisy.planes):
        assert chan.var() == pytest.approx(400.0, rel=0.05)


def test_validation_rejects_bad_input():
    with pytest.raises(DomainError):
        ColorImage(np.zeros((2, 4, 4)))  # not 3 planes
    with pytest.raises(DomainError):
        ColorImage(np.full((3, 2, 2), np.nan))
    with pytest.raises(DomainError):
        GrayImage(np.array([np.inf]))
    with pytest.raises(DomainError):
        GrayImage(np.zeros((2, 2, 2)))


def test_images_are_immutable():
    img = ColorImage(np.zeros((3, 2, 2)))
    with pytest.raises(ValueError):
        img.planes[0, 0, 0] = 1.0


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_transform_is_orthonormal_for_any_image(seed):
    rng = np.random.default_rng(seed)
    img = rng.normal(scale=100.0, size=(3, 6, 6))
    back = rgb_planes(opponent_planes(img))
    assert np.abs(back - img).max() <= 1e-12


def test_reflect_pad_matches_np_pad():
    # Widths at or past an axis length minus one reflect repeatedly, and fall back to np.pad.
    rng = np.random.default_rng(0)
    for h in range(1, 20):
        for w in range(1, 20):
            planes = rng.normal(size=(3, w, h)).transpose(0, 2, 1)  # a non-contiguous (3, h, w) view
            widths = [(0, 0, 0, 0), (1, 2, 3, 4), (10, 10, 10, 10), (h - 1, h - 1, w - 1, w - 1)]
            widths += [(min(h, 10), 0, 0, min(w, 10)), tuple(rng.integers(0, 11, size=4))]
            for top, bottom, left, right in widths:
                for a in (planes, np.ascontiguousarray(planes), planes[1]):
                    rows, cols = (top, bottom), (left, right)
                    want = np.pad(a, [(0, 0)] * (a.ndim - 2) + [rows, cols], mode="reflect")
                    got = reflect_pad(a, rows, cols)
                    assert got.shape == want.shape and np.array_equal(got, want), (h, w, rows, cols, a.shape)
