import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdn.demosaic import demosaic
from dmdn.image import ColorImage, DomainError
from dmdn.mosaic import (
    PHASES,
    CfaImage,
    HalfPair,
    mosaick,
    read_cfa,
    recombine_cfa,
    split_cfa,
    write_cfa,
)


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
    pair = split_cfa(cfa)
    assert pair.first.planes[:, 0, 0].tolist() == [10.0, 20.0, 30.0]
    assert pair.second.planes[:, 0, 0].tolist() == [10.0, 21.0, 30.0]


def test_split_dimensions_halve():
    pair = split_cfa(random_cfa(0, 4, 4))
    assert pair.first.planes.shape == (3, 2, 2)
    assert pair.second.planes.shape == (3, 2, 2)


def test_split_halves_share_red_and_blue():
    pair = split_cfa(random_cfa(1))
    assert np.array_equal(pair.first.r, pair.second.r)
    assert np.array_equal(pair.first.b, pair.second.b)


@pytest.mark.parametrize("phase", PHASES)
def test_split_recombine_identity(phase):
    cfa = random_cfa(2, phase=phase)
    assert np.array_equal(recombine_cfa(split_cfa(cfa), phase).plane, cfa.plane)


def test_recombine_averages_red_and_blue():
    pair = split_cfa(random_cfa(3))
    bumped = HalfPair(
        ColorImage(np.stack([pair.first.r + 4.0, pair.first.g, pair.first.b])),
        pair.second,
    )
    rec = recombine_cfa(bumped, "RGGB")
    # R sites moved by half the perturbation
    assert np.allclose(rec.plane[0::2, 0::2], pair.first.r + 2.0)


def test_recombine_concrete_average():
    first = ColorImage(np.stack([np.full((1, 1), 10.0), np.zeros((1, 1)), np.zeros((1, 1))]))
    second = ColorImage(np.stack([np.full((1, 1), 14.0), np.zeros((1, 1)), np.zeros((1, 1))]))
    rec = recombine_cfa(HalfPair(first, second), "RGGB")
    assert rec.plane[0, 0] == 12.0


def test_greens_are_never_averaged():
    pair = split_cfa(random_cfa(4))
    bumped = HalfPair(
        ColorImage(np.stack([pair.first.r, pair.first.g + 7.0, pair.first.b])),
        pair.second,
    )
    rec = recombine_cfa(bumped, "RGGB")
    # G2 sites (row 1, col 0 of each block under RGGB) belong to the second half
    assert np.array_equal(rec.plane[1::2, 0::2], pair.second.g)
    assert np.array_equal(rec.plane[0::2, 1::2], pair.first.g + 7.0)


def test_recombine_rejects_mismatched_halves():
    a = ColorImage(np.zeros((3, 2, 2)))
    b = ColorImage(np.zeros((3, 2, 4)))
    with pytest.raises(DomainError):
        HalfPair(a, b)


def test_cfa_requires_even_dims_and_known_phase():
    with pytest.raises(DomainError):
        CfaImage(np.zeros((3, 4)))
    with pytest.raises(DomainError):
        CfaImage(np.zeros((4, 4)), "XTRANS")


def test_cfa_file_round_trip(tmp_path):
    cfa = random_cfa(6, phase="GBRG")
    path = tmp_path / "mosaic.pfm"
    write_cfa(path, cfa)
    back = read_cfa(path)
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
