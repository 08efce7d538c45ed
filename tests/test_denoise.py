import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from dmdn.denoise import (
    BLOCK,
    H_GAIN,
    PATCH,
    STEP,
    THRESHOLD_GAIN,
    WINDOW,
    DenoiseConfig,
    DenoiserId,
    _bands,
    _dct8_channel,
    _dct_matrix,
    denoise_cfa,
    denoise_rgb,
)
from dmdn.demosaic import DemosaicerId, demosaic
from dmdn.image import ColorImage, DomainError, opponent_planes, reflect_pad, rgb_planes
from dmdn.mosaic import CfaImage, mosaick, recombine_cfa, sites, split_cfa
from dmdn.noise import NoiseSpec, add_awgn

from conftest import make_natural


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


# Sizes below one block reach the one- and two-band cases of the band
# transform and the overlap-add; CFA halves of small mosaics are that small.
@pytest.mark.parametrize(
    "shape", ((37, 41), (64, 64), (130, 130), (1, 1), (2, 3), (5, 7), (256, 256))
)
@pytest.mark.parametrize("sigma", (5.0, 20.0, 50.0))
def test_dct8_matches_einsum_reference(shape, sigma):
    _assert_dct8_matches_einsum(_noisy_ramp(11, *shape), sigma)


@settings(max_examples=25)
@given(
    st.integers(1, 72),
    st.integers(1, 72),
    st.floats(0.1, 80.0),
    st.integers(0, 2**32 - 1),
)
def test_dct8_matches_einsum_reference_property(h, w, sigma, seed):
    _assert_dct8_matches_einsum(_noisy_ramp(seed, h, w), sigma)


@pytest.mark.parametrize("shape", ((8, 1), (8, 8), (9, 5), (12, 13), (27, 40)))
def test_bands_is_the_read_only_sliding_window_view(shape):
    a = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
    for x in (a, np.asfortranarray(a), np.arange(2 * a.size, dtype=np.float64).reshape(shape[0], -1)[:, ::2]):
        bands = _bands(x)
        assert np.array_equal(bands, sliding_window_view(x, BLOCK, axis=0)[::STEP].transpose(0, 2, 1))
        assert not bands.flags.writeable  # bands overlap: a write through one would reach its neighbour
        with pytest.raises(ValueError):
            bands[0, -1, 0] = 0.0


def test_bands_of_two_blocks_every_block_is_the_read_only_sliding_window_view():
    # The inverse reads 16-row bands every 8 rows: two stacked blocks of coefficients.
    a = np.arange(40.0 * 7).reshape(40, 7)
    for x in (a, np.asfortranarray(a), np.arange(2 * a.size, dtype=np.float64).reshape(40, -1)[:, ::2]):
        bands = _bands(x, 16, 8)
        assert np.array_equal(bands, sliding_window_view(x, 16, axis=0)[::8].transpose(0, 2, 1))
        assert not bands.flags.writeable
        with pytest.raises(ValueError):
            bands[0, -1, 0] = 0.0


def _overlap_add(est):
    # Sum the (n, BLOCK, ...) estimates of bands that start every STEP rows:
    # band k covers STEP-row tiles k and k + 1, so two slab adds.
    n = est.shape[0]
    halves = est.reshape(n, 2, STEP, -1)
    acc = np.empty((n + 1, STEP, halves.shape[-1]))
    acc[:n] = halves[:, 0]
    acc[n] = 0.0
    acc[1:] += halves[:, 1]
    return acc.reshape((n + 1) * STEP, -1)


def _two_slab_dct8_channel(x, sigma):
    # The earlier kernel: the same forward transform and threshold, then per
    # axis a B.T matmul of every band, an overlap-add of all tiles, and / 4.
    h, w = x.shape
    pad = BLOCK - STEP
    xp = reflect_pad(x, (pad, pad + (-h) % STEP), (pad, pad + (-w) % STEP))
    basis = _dct_matrix(BLOCK)
    rows = (xp.shape[0] - BLOCK) // STEP + 1
    part = np.matmul(basis, _bands(xp)).reshape(rows * BLOCK, -1).T.copy()
    coeff = np.matmul(basis, _bands(part))
    keep = np.abs(coeff)
    keep.reshape(-1, BLOCK, rows, BLOCK)[:, 0, :, 0] = np.inf
    coeff *= keep >= THRESHOLD_GAIN * sigma
    part = _overlap_add(np.matmul(basis.T, coeff)).T.copy().reshape(rows, BLOCK, -1)
    acc = _overlap_add(np.matmul(basis.T, part))
    return acc[pad : pad + h, pad : pad + w] / 4


@pytest.mark.parametrize("sigma", (5.0, 20.0, 50.0))
def test_fused_inverse_matches_two_slab_oracle(sigma):
    # Same decisions, reordered 16-term sums: a few ulp of samples on the 0..255 scale.
    shapes = [(h, w) for h in range(1, 20) for w in range(1, 20)] + [(n, n) for n in (64, 128, 256, 512)]
    for h, w in shapes:
        x = np.random.default_rng(100 * h + w).uniform(0.0, 255.0, size=(h, w))
        out = _dct8_channel(x, sigma)
        assert out.shape == (h, w)
        assert np.abs(out - _two_slab_dct8_channel(x, sigma)).max() <= 2e-13, (h, w)


def test_kernels_do_not_call_np_pad(monkeypatch):
    # np.pad's per-call overhead dominated DCT8 and the demosaicers at 64-128 px; keep it out.
    def no_pad(*args, **kwargs):
        raise AssertionError("np.pad called")

    img = make_natural(3, size=64)
    cfa = mosaick(img, "RGGB")
    monkeypatch.setattr(np, "pad", no_pad)
    for method in DenoiserId:
        denoise_rgb(img, method, DenoiseConfig(sigma=10.0))
        denoise_cfa(cfa, method, DenoiseConfig(sigma=10.0))
    for method in DemosaicerId:
        demosaic(cfa, method)


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


def test_nlmeans_output_is_pinned_at_an_ordinary_sigma():
    # SHA-256 recorded before the tiny-sigma guard on h^2; it must not move ordinary outputs
    noisy = add_awgn(make_natural(3, size=32), NoiseSpec(20.0, 5))
    out = denoise_rgb(noisy, "nlmeans", DenoiseConfig(sigma=20.0))
    digest = hashlib.sha256(out.planes.tobytes()).hexdigest()
    assert digest == "c0212c937a643cf4b9d7b4257dc3068c872285066e80ba68826839089c3d6a6e"


def test_nlmeans_at_a_tiny_sigma_keeps_a_flat_image():
    # sigma**2 underflows to 0 here; the weights must stay finite and warn nothing
    img = constant_image(40, 90, 160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = denoise_rgb(img, "nlmeans", DenoiseConfig(sigma=1e-200))
    assert np.abs(out.planes - img.planes).max() <= 1e-9


def _scipy_nlmeans(opp, sigma):
    # The NL-means loop as it was with scipy's 5x5 box mean; the numpy
    # running sums must reproduce it bit for bit.
    y = opp[0]
    h, w = y.shape
    half = WINDOW // 2
    h2 = max(H_GAIN * sigma**2 * PATCH**2, np.finfo(np.float64).tiny)
    two_sigma2 = 2.0 * sigma**2
    padded = np.pad(opp, ((0, 0), (half, half), (half, half)), mode="reflect")
    num = np.zeros_like(opp)
    den = np.zeros((h, w))
    wmax = np.zeros((h, w))
    for di in range(-half, half + 1):
        for dj in range(-half, half + 1):
            if di == 0 and dj == 0:
                continue
            shifted = padded[:, half + di : half + di + h, half + dj : half + dj + w]
            d2 = ndimage.uniform_filter((y - shifted[0]) ** 2, size=PATCH, mode="mirror")
            with np.errstate(over="ignore"):
                wgt = np.exp(-np.maximum(d2 - two_sigma2, 0.0) / h2)
            wmax = np.maximum(wmax, wgt)
            den += wgt
            num += wgt * shifted
    wmax = np.where(wmax > 0.0, wmax, 1.0)
    den += wmax
    num += wmax * opp
    return num / den


def _scipy_nlmeans_rgb(img, sigma):
    return ColorImage(rgb_planes(_scipy_nlmeans(opponent_planes(img.planes), sigma)))


_NLMEANS_SIGMAS = (1e-200, 0.5, 20.0, 80.0)


@settings(max_examples=60)
@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.sampled_from(_NLMEANS_SIGMAS),
    st.sampled_from((1.0, 255.0, 1e4)),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(1, 1, 20.0, 255.0, False, 0)
@example(1, 37, 0.5, 1e4, False, 1)
@example(29, 1, 80.0, 255.0, True, 2)
@example(2, 2, 1e-200, 1e4, False, 3)
@example(40, 40, 20.0, 1e4, False, 4)
def test_nlmeans_matches_scipy_reference_property(h, w, sigma, top, rounded, seed):
    # Integer-rounded samples give exact zero distances and ties.
    values = np.random.default_rng(seed).uniform(0.0, top, size=(3, h, w))
    img = ColorImage(np.round(values) if rounded else values)
    out = denoise_rgb(img, "nlmeans", DenoiseConfig(sigma=sigma))
    assert np.array_equal(out.planes, _scipy_nlmeans_rgb(img, sigma).planes)


@pytest.mark.parametrize("shape", ((2, 2), (4, 4), (6, 8)))
@pytest.mark.parametrize("sigma", _NLMEANS_SIGMAS)
def test_nlmeans_cfa_matches_scipy_reference(shape, sigma):
    rng = np.random.default_rng(shape[0] * shape[1])
    cfa = CfaImage(rng.uniform(0.0, 255.0, size=shape), "GBRG")
    out = denoise_cfa(cfa, "nlmeans", DenoiseConfig(sigma=sigma))
    halves = [_scipy_nlmeans_rgb(half, sigma) for half in split_cfa(cfa)]
    assert np.array_equal(out.plane, recombine_cfa(halves, cfa.phase).plane)


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
