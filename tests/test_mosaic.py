from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdn.demosaic import demosaic
from dmdn.formats import read_image, write_image
from dmdn.image import ColorImage, DomainError, GrayImage
from dmdn.mosaic import PHASES, CfaImage, mosaick, recombine_cfa, split_cfa


def constant_image(r, g, b, h=2, w=2):
    return ColorImage(np.stack([np.full((h, w), float(v)) for v in (r, g, b)]))


def random_cfa(seed, h=8, w=8, phase="RGGB"):
    rng = np.random.default_rng(seed)
    return CfaImage(rng.uniform(0, 255, size=(h, w)), phase)


def test_pattern_readout_rggb():
    cfa = mosaick(constant_image(10, 20, 30), "RGGB")
    assert cfa.plane.tolist() == [[10.0, 20.0], [20.0, 30.0]]


def test_pattern_readout_grbg():
    cfa = mosaick(constant_image(10, 20, 30), "GRBG")
    assert cfa.plane.tolist() == [[20.0, 10.0], [30.0, 20.0]]


def test_mosaick_then_bilinear_demosaic_restores_constant():
    img = constant_image(10, 20, 30, 6, 6)
    out = demosaic(mosaick(img, "RGGB"), "bilinear")
    assert np.array_equal(out.planes, img.planes)


def test_mosaick_rejects_odd_dimensions():
    with pytest.raises(DomainError):
        mosaick(ColorImage(np.zeros((3, 3, 4))))


def test_split_block_readout():
    cfa = CfaImage(np.array([[10.0, 20.0], [21.0, 30.0]]), "RGGB")
    first, second = split_cfa(cfa)
    assert first.planes[:, 0, 0].tolist() == [10.0, 20.0, 30.0]
    assert second.planes[:, 0, 0].tolist() == [10.0, 21.0, 30.0]


def test_split_dimensions_halve():
    first, second = split_cfa(random_cfa(0, 4, 4))
    assert first.planes.shape == (3, 2, 2)
    assert second.planes.shape == (3, 2, 2)


def test_split_halves_share_red_and_blue():
    first, second = split_cfa(random_cfa(1))
    assert np.array_equal(first.r, second.r)
    assert np.array_equal(first.b, second.b)


@pytest.mark.parametrize("phase", PHASES)
def test_split_recombine_identity(phase):
    cfa = random_cfa(2, phase=phase)
    assert np.array_equal(recombine_cfa(split_cfa(cfa), phase).plane, cfa.plane)


def test_recombine_averages_red_and_blue():
    first, second = split_cfa(random_cfa(3))
    bumped = ColorImage(np.stack([first.r + 4.0, first.g, first.b]))
    rec = recombine_cfa((bumped, second), "RGGB")
    # R sites moved by half the perturbation
    assert np.allclose(rec.plane[0::2, 0::2], first.r + 2.0)


def test_recombine_concrete_average():
    first = ColorImage(np.stack([np.full((1, 1), 10.0), np.zeros((1, 1)), np.zeros((1, 1))]))
    second = ColorImage(np.stack([np.full((1, 1), 14.0), np.zeros((1, 1)), np.zeros((1, 1))]))
    rec = recombine_cfa((first, second), "RGGB")
    assert rec.plane[0, 0] == 12.0


def test_greens_are_never_averaged():
    first, second = split_cfa(random_cfa(4))
    bumped = ColorImage(np.stack([first.r, first.g + 7.0, first.b]))
    rec = recombine_cfa((bumped, second), "RGGB")
    # G2 sites (row 1, col 0 of each block under RGGB) belong to the second half
    assert np.array_equal(rec.plane[1::2, 0::2], second.g)
    assert np.array_equal(rec.plane[0::2, 1::2], first.g + 7.0)


def test_recombine_rejects_mismatched_halves():
    a = ColorImage(np.zeros((3, 2, 2)))
    b = ColorImage(np.zeros((3, 2, 4)))
    with pytest.raises(DomainError, match="share dimensions"):
        recombine_cfa((a, b), "RGGB")


def test_cfa_requires_even_dims_and_known_phase():
    with pytest.raises(DomainError):
        CfaImage(np.zeros((3, 4)))
    with pytest.raises(DomainError):
        CfaImage(np.zeros((4, 4)), "XTRANS")


def test_cfa_is_a_gray_image_with_a_phase():
    assert issubclass(CfaImage, GrayImage)
    assert [f.name for f in fields(CfaImage)] == ["plane", "phase"]
    cfa = CfaImage([[1, 2], [3, 4]], "BGGR")
    assert (cfa.height, cfa.width, cfa.phase) == (2, 2, "BGGR")
    assert cfa.plane.dtype == np.float64 and not cfa.plane.flags.writeable
    with pytest.raises(DomainError, match="non-finite"):  # the GrayImage checks run first
        CfaImage(np.full((2, 2), np.nan))


def test_cfa_file_round_trip(tmp_path):
    cfa = random_cfa(6, phase="GBRG")
    path = tmp_path / "mosaic.pfm"
    write_image(path, cfa)
    back = read_image(path)
    assert back.phase == "GBRG"
    assert np.array_equal(
        back.plane, cfa.plane.astype(np.float32).astype(np.float64)
    )


@settings(max_examples=25)
@given(
    st.sampled_from(PHASES),
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_split_recombine_round_trip_property(phase, hb, wb, seed):
    rng = np.random.default_rng(seed)
    cfa = CfaImage(rng.uniform(-10, 300, size=(2 * hb, 2 * wb)), phase)
    assert np.array_equal(recombine_cfa(split_cfa(cfa), phase).plane, cfa.plane)
