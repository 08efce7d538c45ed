import numpy as np
import pytest

from dmdn.denoise import (
    H_GAIN,
    PATCH,
    WINDOW,
    DenoiseConfig,
    DenoiserId,
    _dct_matrix,
    denoise_cfa,
    denoise_rgb,
)
from dmdn.demosaic import site_masks
from dmdn.image import ColorImage, DomainError, opponent_planes
from dmdn.mosaic import CfaImage, mosaick
from dmdn.noise import NoiseSpec, add_awgn


def constant_image(r, g, b, h=16, w=16):
    return ColorImage(np.stack([np.full((h, w), float(v)) for v in (r, g, b)]))


def noise_image(seed, sigma=20.0, h=64, w=64):
    return add_awgn(ColorImage(np.zeros((3, h, w))), NoiseSpec(sigma, seed))


# ------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(DomainError):
        DenoiseConfig(sigma=-1.0)


def test_unknown_denoiser_rejected():
    with pytest.raises(DomainError):
        denoise_rgb(constant_image(1, 2, 3), "bm3d", DenoiseConfig(sigma=5.0))


# -------------------------------------------------------------- dct matrix


def test_dct_matrix_is_orthonormal_and_matches_scipy():
    from scipy.fft import dctn

    basis = _dct_matrix(8)
    assert np.abs(basis @ basis.T - np.eye(8)).max() <= 1e-12
    rng = np.random.default_rng(0)
    block = rng.normal(size=(8, 8))
    ours = basis @ block @ basis.T
    reference = dctn(block, norm="ortho")
    assert np.abs(ours - reference).max() <= 1e-12


# ---------------------------------------------------------------- denoisers


@pytest.mark.parametrize("method", ("dct8", "nlmeans"))
def test_constant_preserved_at_any_sigma(method):
    img = constant_image(40, 90, 160)
    out = denoise_rgb(img, method, DenoiseConfig(sigma=25.0))
    assert np.abs(out.planes - img.planes).max() <= 1e-10


@pytest.mark.parametrize("method", ("dct8", "nlmeans"))
def test_sigma_zero_is_bitwise_identity(method):
    img = noise_image(1, h=16, w=16)
    out = denoise_rgb(img, method, DenoiseConfig(sigma=0.0))
    assert out is img


def test_identity_denoiser_returns_input():
    img = noise_image(2, h=8, w=8)
    assert denoise_rgb(img, DenoiserId.IDENTITY, DenoiseConfig(sigma=50.0)) is img


def test_dct8_suppresses_pure_noise():
    # Monte Carlo oracle: hard 3-sigma threshold keeps ~3% of AC energy
    noisy = noise_image(3, sigma=20.0, h=256, w=256)
    out = denoise_rgb(noisy, "dct8", DenoiseConfig(sigma=20.0))
    assert out.planes.var() <= 0.05 * noisy.planes.var()


def test_dct8_smoothing_is_monotone_in_sigma():
    noisy = noise_image(4, sigma=20.0, h=128, w=128)
    variances = [
        denoise_rgb(noisy, "dct8", DenoiseConfig(sigma=s)).planes.var()
        for s in (5.0, 10.0, 20.0, 40.0)
    ]
    assert all(a >= b for a, b in zip(variances, variances[1:]))


def test_nlmeans_matches_brute_force_oracle():
    # Independent reimplementation of the weighting scheme on the interior
    # of a small image: patchwise Y distances, shared weights across
    # channels, max-neighbor self weight.
    n = 32
    rng = np.random.default_rng(5)
    img = ColorImage(rng.uniform(0, 255, size=(3, n, n)))
    sigma = 15.0
    out = denoise_rgb(img, "nlmeans", DenoiseConfig(sigma=sigma))

    opp = opponent_planes(img.planes)
    y = opp[0]
    hw = WINDOW // 2
    hp = PATCH // 2
    h2 = H_GAIN * sigma**2 * PATCH**2
    ypad = np.pad(y, hw + hp, mode="reflect")
    cpad = np.pad(opp, ((0, 0), (hw, hw), (hw, hw)), mode="reflect")
    expected = np.zeros_like(opp)
    interior = range(hw + hp, n - (hw + hp))
    for i in interior:
        for j in interior:
            num = np.zeros(3)
            den = 0.0
            wmax = 0.0
            pi, pj = i + hw + hp, j + hw + hp
            ref = ypad[pi - hp : pi + hp + 1, pj - hp : pj + hp + 1]
            for di in range(-hw, hw + 1):
                for dj in range(-hw, hw + 1):
                    if di == 0 and dj == 0:
                        continue
                    cand = ypad[pi + di - hp : pi + di + hp + 1, pj + dj - hp : pj + dj + hp + 1]
                    d2 = np.mean((ref - cand) ** 2)
                    w = np.exp(-max(d2 - 2 * sigma**2, 0.0) / h2)
                    wmax = max(wmax, w)
                    den += w
                    num += w * cpad[:, i + hw + di, j + hw + dj]
            den += wmax
            num += wmax * opp[:, i, j]
            expected[:, i, j] = num / den
    from dmdn.image import rgb_planes

    # border pixels see mirrored data differently in the sliding
    # implementation; the classic definition holds on the interior
    inner = (slice(None), slice(hw + hp, -(hw + hp)), slice(hw + hp, -(hw + hp)))
    assert np.abs(out.planes[inner] - rgb_planes(expected)[inner]).max() <= 1e-9


def test_denoise_cfa_identity_is_exact():
    rng = np.random.default_rng(6)
    cfa = CfaImage(rng.uniform(0, 255, size=(16, 16)), "GRBG")
    out = denoise_cfa(cfa, DenoiserId.IDENTITY, DenoiseConfig(sigma=10.0))
    assert np.array_equal(out.plane, cfa.plane)
    assert out.phase == "GRBG"


def test_denoise_cfa_preserves_constant_mosaic():
    cfa = mosaick(constant_image(10, 20, 30, 16, 16))
    out = denoise_cfa(cfa, "dct8", DenoiseConfig(sigma=15.0))
    assert np.abs(out.plane - cfa.plane).max() <= 1e-10


def test_denoise_cfa_reduces_noise_at_red_sites():
    base = ColorImage(np.full((3, 256, 256), 128.0))
    noisy = add_awgn(mosaick(base), NoiseSpec(20.0, seed=7))
    out = denoise_cfa(noisy, "dct8", DenoiseConfig(sigma=20.0))
    r_mask = site_masks(noisy)[0]
    residual = out.plane - 128.0
    assert residual[r_mask].var() <= 0.10 * 400.0
