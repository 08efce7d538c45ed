import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from dmdn.denoise import (
    BLOCK,
    H_GAIN,
    PATCH,
    STEP,
    THRESHOLD_GAIN,
    WINDOW,
    DenoiseConfig,
    DenoiserId,
    _dct_matrix,
    denoise_cfa,
    denoise_rgb,
)
from dmdn.image import ColorImage, DomainError, opponent_planes, rgb_planes
from dmdn.mosaic import CfaImage, mosaick, sites
from dmdn.noise import NoiseSpec, add_awgn


def constant_image(r, g, b, h=16, w=16):
    return ColorImage(np.stack([np.full((h, w), float(v)) for v in (r, g, b)]))


def noise_image(seed, sigma=20.0, h=64, w=64):
    return add_awgn(ColorImage(np.zeros((3, h, w))), NoiseSpec(sigma, seed))


# ------------------------------------------------------------------- config


def test_config_validation():
    for sigma in (-1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError, match=r"sigma must be in \[0, 255\]"):
            DenoiseConfig(sigma=sigma)


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


def _einsum_dct8_channel(x, sigma):
    # Reference sliding DCT: unfactored einsum transforms, then each block
    # added in place and every pixel divided by the number of blocks covering it.
    h, w = x.shape
    pad = BLOCK - STEP
    xp = np.pad(x, ((pad, pad + (-h) % STEP), (pad, pad + (-w) % STEP)), mode="reflect")
    basis = _dct_matrix(BLOCK)
    blocks = sliding_window_view(xp, (BLOCK, BLOCK))[::STEP, ::STEP]
    coeff = np.einsum("ij,rcjk,lk->rcil", basis, blocks, basis)
    keep = np.abs(coeff) >= THRESHOLD_GAIN * sigma
    keep[..., 0, 0] = True
    est = np.einsum("ji,rcjk,kl->rcil", basis, coeff * keep, basis)
    acc = np.zeros_like(xp)
    cnt = np.zeros_like(xp)
    for r in range(est.shape[0]):
        for c in range(est.shape[1]):
            acc[r * STEP : r * STEP + BLOCK, c * STEP : c * STEP + BLOCK] += est[r, c]
            cnt[r * STEP : r * STEP + BLOCK, c * STEP : c * STEP + BLOCK] += 1
    return (acc / cnt)[pad : pad + h, pad : pad + w]


def _assert_dct8_matches_einsum(img, sigma):
    # A 1e-9 match also means no coefficient flipped across the 3-sigma threshold.
    out = denoise_rgb(img, "dct8", DenoiseConfig(sigma=sigma))
    opp = opponent_planes(img.planes)
    expected = rgb_planes(np.stack([_einsum_dct8_channel(chan, sigma) for chan in opp]))
    assert np.abs(out.planes - expected).max() <= 1e-9


def _noisy_ramp(seed, h, w):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    base = np.stack([2.0 * yy + xx, np.full((h, w), 128.0), 255.0 - xx - yy])
    return ColorImage(base + rng.normal(0.0, 20.0, size=(3, h, w)))


@pytest.mark.parametrize("shape", ((37, 41), (64, 64), (130, 130)))
@pytest.mark.parametrize("sigma", (5.0, 20.0, 50.0))
def test_dct8_matches_einsum_reference(shape, sigma):
    _assert_dct8_matches_einsum(_noisy_ramp(11, *shape), sigma)


@settings(max_examples=25)
@given(
    st.integers(8, 72),
    st.integers(8, 72),
    st.floats(0.1, 80.0),
    st.integers(0, 2**32 - 1),
)
def test_dct8_matches_einsum_reference_property(h, w, sigma, seed):
    _assert_dct8_matches_einsum(_noisy_ramp(seed, h, w), sigma)


def test_dct8_peak_memory_at_256():
    # A 256x256 call peaks at 7.0 MiB (9.5 MiB with the einsum transforms);
    # batching the three channels into one call would pass the bound.
    img = _noisy_ramp(12, 256, 256)
    cfg = DenoiseConfig(sigma=20.0)
    denoise_rgb(img, "dct8", cfg)
    tracemalloc.start()
    try:
        denoise_rgb(img, "dct8", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.0 * 2**20


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
    residual = sites(out.plane - 128.0, noisy.phase, "R")
    assert residual.var() <= 0.10 * 400.0
