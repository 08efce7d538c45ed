import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from dmdn.demosaic import demosaic
from dmdn.image import ColorImage, DomainError
from dmdn.mosaic import PHASES, CfaImage, mosaick, sites
from dmdn.noise import NoiseSpec, add_awgn

METHODS = ("bilinear", "ha", "malvar")


def constant_image(r, g, b, h=8, w=8):
    return ColorImage(np.stack([np.full((h, w), float(v)) for v in (r, g, b)]))


def random_cfa(seed, h=12, w=12, phase="RGGB"):
    rng = np.random.default_rng(seed)
    return CfaImage(rng.uniform(0, 255, size=(h, w)), phase)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("phase", PHASES)
def test_constant_restored_exactly(method, phase):
    img = constant_image(12, 34, 56)
    out = demosaic(mosaick(img, phase), method)
    assert np.array_equal(out.planes, img.planes)


@pytest.mark.parametrize("method", METHODS)
def test_observed_samples_preserved(method):
    cfa = random_cfa(0)
    out = demosaic(cfa, method)
    back = mosaick(out, cfa.phase)
    assert np.array_equal(back.plane, cfa.plane)


def test_unknown_method_rejected():
    with pytest.raises(DomainError):
        demosaic(random_cfa(1), "rcnn")


@pytest.mark.parametrize("method", ("bilinear", "malvar"))
def test_linearity_of_linear_methods(method):
    x = random_cfa(2)
    y = random_cfa(3)
    a, b = 0.7, -1.3
    combo = CfaImage(a * x.plane + b * y.plane, "RGGB")
    lhs = demosaic(combo, method).planes
    rhs = a * demosaic(x, method).planes + b * demosaic(y, method).planes
    assert np.abs(lhs - rhs).max() <= 1e-9


def test_hamilton_adams_reconstructs_ramp_exactly():
    # R=G=B=j: second differences vanish and both directional estimates
    # agree, so the reconstruction is exact away from the mirrored border.
    j = np.tile(np.arange(16.0), (16, 1))
    img = ColorImage(np.stack([j, j, j]))
    out = demosaic(mosaick(img, "RGGB"), "ha")
    inner = (slice(None), slice(3, -3), slice(3, -3))
    assert np.abs(out.planes[inner] - img.planes[inner]).max() <= 1e-12


def test_hamilton_adams_tie_averages_both_directions():
    # Symmetric neighborhood around an R site: both gradients equal 16, so
    # the green estimate is the mean of the two directional estimates.
    plane = np.full((10, 10), 20.0)
    sites(plane, "RGGB", "G1")[...] = 10.0
    sites(plane, "RGGB", "G2")[...] = 10.0
    center = (4, 4)
    for di, dj in ((0, -2), (0, 2), (-2, 0), (2, 0)):
        plane[center[0] + di, center[1] + dj] = 12.0
    out = demosaic(CfaImage(plane, "RGGB"), "ha")
    # per direction: (10+10)/2 + (2*20-12-12)/4 = 14; tie average stays 14
    assert out.planes[1][center] == pytest.approx(14.0, abs=1e-12)


@pytest.mark.parametrize("method", METHODS)
def test_dc_gain_is_unity_on_constant_mosaic(method):
    cfa = CfaImage(np.full((8, 8), 55.5), "RGGB")
    out = demosaic(cfa, method)
    # constant mosaic (same value at every site) maps to that constant
    assert np.abs(out.planes - 55.5).max() <= 1e-12


def test_bilinear_matches_hand_stencil_at_interior_sites():
    cfa = random_cfa(4)
    out = demosaic(cfa, "bilinear")
    p = cfa.plane
    # G at the R site (2,2): cross average of the four green neighbors
    assert out.planes[1][2, 2] == pytest.approx(
        (p[1, 2] + p[3, 2] + p[2, 1] + p[2, 3]) / 4.0, abs=1e-12
    )
    # R at the B site (3,3): average of the four diagonal red neighbors
    assert out.planes[0][3, 3] == pytest.approx(
        (p[2, 2] + p[2, 4] + p[4, 2] + p[4, 4]) / 4.0, abs=1e-12
    )
    # B at the G1 site (2,3): vertical blue neighbors
    assert out.planes[2][2, 3] == pytest.approx((p[1, 3] + p[3, 3]) / 2.0, abs=1e-12)


def test_bilinear_hand_stencils_under_grbg():
    cfa = random_cfa(7, phase="GRBG")
    out = demosaic(cfa, "bilinear")
    p = cfa.plane
    # (2,2) is a green site in an R row: R horizontal, B vertical
    assert out.planes[0][2, 2] == pytest.approx((p[2, 1] + p[2, 3]) / 2.0, abs=1e-12)
    assert out.planes[2][2, 2] == pytest.approx((p[1, 2] + p[3, 2]) / 2.0, abs=1e-12)
    # (2,3) is an R site: green from the cross
    assert out.planes[1][2, 3] == pytest.approx(
        (p[1, 3] + p[3, 3] + p[2, 2] + p[2, 4]) / 4.0, abs=1e-12
    )


def test_malvar_matches_published_green_kernel():
    cfa = random_cfa(5)
    out = demosaic(cfa, "malvar")
    p = cfa.plane
    i, j = 4, 4  # R site under RGGB
    expected = (
        2.0 * (p[i - 1, j] + p[i + 1, j] + p[i, j - 1] + p[i, j + 1])
        + 4.0 * p[i, j]
        - (p[i - 2, j] + p[i + 2, j] + p[i, j - 2] + p[i, j + 2])
    ) / 8.0
    assert out.planes[1][i, j] == pytest.approx(expected, abs=1e-12)


def test_noise_is_not_amplified_per_channel(natural_images):
    # demosaicing is an interpolation: per-channel residual stays ~sigma^2
    truth = natural_images[0]
    noisy = add_awgn(mosaick(truth), NoiseSpec(20.0, seed=2))
    out = demosaic(noisy, "ha")
    res = (out.planes - truth.planes)[:, 8:-8, 8:-8]
    assert res.var() <= 1.2 * 400.0


# ---------------------------------------------------------------- reference
# The full-plane demosaicers the per-site kernel tables replaced: masks and
# mirror-mode `ndimage.convolve`, with their own phase table (the RGB channel
# of each 2x2 block position).  The kernel tables must match them bit for bit.

_REF_GRID = {
    "RGGB": ((0, 1), (1, 2)),
    "GRBG": ((1, 0), (2, 1)),
    "GBRG": ((1, 2), (0, 1)),
    "BGGR": ((2, 1), (1, 0)),
}
_REF_CROSS = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.float64)
_REF_RING = np.array([[1, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=np.float64)
_REF_G = np.array(
    [[0, 0, -1, 0, 0], [0, 0, 2, 0, 0], [-1, 2, 4, 2, -1], [0, 0, 2, 0, 0], [0, 0, -1, 0, 0]],
    dtype=np.float64,
) / 8.0
_REF_H = np.array(
    [[0, 0, 0.5, 0, 0], [0, -1, 0, -1, 0], [-1, 4, 5, 4, -1], [0, -1, 0, -1, 0], [0, 0, 0.5, 0, 0]],
    dtype=np.float64,
) / 8.0
_REF_X = np.array(
    [[0, 0, -1.5, 0, 0], [0, 2, 0, 2, 0], [-1.5, 0, 6, 0, -1.5], [0, 2, 0, 2, 0], [0, 0, -1.5, 0, 0]],
    dtype=np.float64,
) / 8.0


def ref_masks(phase, h, w):
    chan = np.tile(np.array(_REF_GRID[phase]), (h // 2, w // 2))
    return chan == 0, chan == 1, chan == 2


def ref_interp(values, mask, kernel):
    maskf = mask.astype(np.float64)
    num = ndimage.convolve(values * maskf, kernel, mode="mirror")
    den = ndimage.convolve(maskf, kernel, mode="mirror")
    return num / np.where(den > 0, den, 1.0)


def ref_demosaic(raw, phase, method):
    r_mask, g_mask, b_mask = ref_masks(phase, *raw.shape)
    if method == "bilinear":
        g = np.where(g_mask, raw, ref_interp(raw, g_mask, _REF_CROSS))
        r = np.where(r_mask, raw, ref_interp(raw, r_mask, _REF_RING))
        b = np.where(b_mask, raw, ref_interp(raw, b_mask, _REF_RING))
    elif method == "malvar":
        rows_with_r = np.zeros_like(r_mask)
        rows_with_r[np.any(r_mask, axis=1)] = True
        g1_mask, g2_mask = g_mask & rows_with_r, g_mask & ~rows_with_r
        est_g, est_h, est_v, est_x = (
            ndimage.convolve(raw, k, mode="mirror") for k in (_REF_G, _REF_H, _REF_H.T, _REF_X)
        )
        g = np.where(g_mask, raw, est_g)
        r = np.select([r_mask, g1_mask, g2_mask], [raw, est_h, est_v], default=0.0)
        r = np.where(b_mask, est_x, r)
        b = np.select([b_mask, g2_mask, g1_mask], [raw, est_h, est_v], default=0.0)
        b = np.where(r_mask, est_x, b)
    else:
        h, w = raw.shape
        z = np.pad(raw, 2, mode="reflect")

        def s(di, dj):
            return z[2 + di : 2 + di + h, 2 + dj : 2 + dj + w]

        lap_h = 2.0 * s(0, 0) - s(0, -2) - s(0, 2)
        lap_v = 2.0 * s(0, 0) - s(-2, 0) - s(2, 0)
        grad_h = np.abs(s(0, -1) - s(0, 1)) + np.abs(lap_h)
        grad_v = np.abs(s(-1, 0) - s(1, 0)) + np.abs(lap_v)
        est_h = (s(0, -1) + s(0, 1)) / 2.0 + lap_h / 4.0
        est_v = (s(-1, 0) + s(1, 0)) / 2.0 + lap_v / 4.0
        est_tie = (est_h + est_v) / 2.0
        g_est = np.where(grad_h < grad_v, est_h, np.where(grad_v < grad_h, est_v, est_tie))
        g = np.where(g_mask, raw, g_est)
        r, b = (np.where(m, raw, g + ref_interp(raw - g, m, _REF_RING)) for m in (r_mask, b_mask))
    return np.stack([r, g, b])


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("phase", PHASES)
def test_matches_full_plane_reference(method, phase):
    for shape in ((2, 2), (2, 6), (6, 2), (4, 4), (10, 6), (34, 40), (130, 66)):
        rng = np.random.default_rng(sum(shape))
        raw = rng.uniform(-20, 275, size=shape)
        out = demosaic(CfaImage(raw, phase), method)
        assert np.array_equal(out.planes, ref_demosaic(raw, phase, method)), shape


@settings(max_examples=60)
@given(
    st.sampled_from(PHASES),
    st.integers(1, 12),
    st.integers(1, 12),
    st.floats(-1e3, 1e3),
    st.floats(1e-3, 1e3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_matches_full_plane_reference_property(phase, hb, wb, offset, scale, integral, seed):
    rng = np.random.default_rng(seed)
    raw = offset + scale * rng.standard_normal((2 * hb, 2 * wb))
    if integral:  # integer samples make Hamilton-Adams gradient ties common
        raw = np.round(raw)
    for method in METHODS:
        out = demosaic(CfaImage(raw, phase), method)
        assert np.array_equal(out.planes, ref_demosaic(raw, phase, method)), method
    color = offset + scale * rng.standard_normal((3, 2 * hb, 2 * wb))
    expected = np.select(ref_masks(phase, 2 * hb, 2 * wb), color)
    assert np.array_equal(mosaick(ColorImage(color), phase).plane, expected)
