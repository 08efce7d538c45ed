import hashlib
import math

import numpy as np
import pytest

from dmdn.image import ColorImage, DomainError, GrayImage
from dmdn.mosaic import CfaImage
from dmdn.noise import (
    NoiseSpec,
    RngStream,
    add_awgn,
    anscombe,
    anscombe_inverse,
    derive_seed,
    poisson_sample,
    splitmix64,
)

# Published reference outputs of splitmix64 for seed 0.
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_splitmix64_reference_vector():
    state = 0
    outputs = []
    for _ in range(3):
        out, state = splitmix64(state)
        outputs.append(out)
    assert tuple(outputs) == SPLITMIX64_SEED0


def test_xoshiro_first_output_matches_definition():
    # State words come from splitmix64 expansion of the seed; the first
    # output is rotl64(s0 + s3, 23) + s0.
    seed = 12345
    state = seed
    words = []
    for _ in range(4):
        out, state = splitmix64(state)
        words.append(out)
    s0, s3 = words[0], words[3]
    t = (s0 + s3) & 0xFFFFFFFFFFFFFFFF
    rot = ((t << 23) | (t >> 41)) & 0xFFFFFFFFFFFFFFFF
    expected = (rot + s0) & 0xFFFFFFFFFFFFFFFF
    assert int(RngStream(seed)._u64_array(1)[0]) == expected


def test_uniform_stream_matches_recorded_digest():
    # Recorded reference: seeds, manifests and reruns depend on the stream
    # staying bit-exact.
    digest = hashlib.sha256(RngStream(2024).uniforms(1000).tobytes()).hexdigest()
    assert digest == "15d054eb9f168353d70d6d36d59d3fcca0ec47a3d95179ae7cf8a4b8209f6c19"


def test_stream_is_contiguous_across_calls():
    a = RngStream(9)
    b = RngStream(9)
    first = a.uniforms(10)
    second = a.uniforms(5)
    combined = b.uniforms(15)
    assert np.array_equal(np.concatenate([first, second]), combined)


def test_sigma_zero_is_identity():
    img = GrayImage(np.arange(16.0).reshape(4, 4))
    out = add_awgn(img, NoiseSpec(0.0, seed=1))
    assert np.array_equal(out.plane, img.plane)


def test_awgn_is_deterministic_per_seed():
    img = GrayImage(np.zeros((32, 32)))
    a = add_awgn(img, NoiseSpec(20.0, seed=7))
    b = add_awgn(img, NoiseSpec(20.0, seed=7))
    c = add_awgn(img, NoiseSpec(20.0, seed=8))
    assert np.array_equal(a.plane, b.plane)
    assert not np.array_equal(a.plane, c.plane)


def test_awgn_moments_at_512():
    img = GrayImage(np.zeros((512, 512)))
    out = add_awgn(img, NoiseSpec(20.0, seed=42))
    assert out.plane.var() == pytest.approx(400.0, rel=0.03)
    assert abs(out.plane.mean()) <= 0.15


def test_awgn_color_consumes_normals_channel_major():
    img = ColorImage(np.zeros((3, 4, 4)))
    out = add_awgn(img, NoiseSpec(2.0, seed=11))
    expected = 2.0 * RngStream(11).normals(48).reshape(3, 4, 4)
    assert np.array_equal(out.planes, expected)


def test_awgn_preserves_cfa_phase():
    cfa = CfaImage(np.zeros((4, 4)), "BGGR")
    out = add_awgn(cfa, NoiseSpec(1.0, seed=0))
    assert out.phase == "BGGR"


def test_independent_noise_variances_add():
    img = GrayImage(np.zeros((512, 512)))
    out = add_awgn(add_awgn(img, NoiseSpec(12.0, seed=1)), NoiseSpec(16.0, seed=2))
    assert out.plane.var() == pytest.approx(12.0**2 + 16.0**2, rel=0.05)


def test_negative_sigma_rejected():
    with pytest.raises(DomainError):
        NoiseSpec(-1.0, 0)


def test_derive_seed_matches_stated_rule():
    assert derive_seed(100, 3) == splitmix64((100 ^ 3) & 0xFFFFFFFFFFFFFFFF)[0]
    assert derive_seed(100, 3) != derive_seed(100, 4)


def test_poisson_of_zero_is_zero():
    img = GrayImage(np.zeros((8, 8)))
    out = poisson_sample(img, seed=3)
    assert np.array_equal(out.plane, img.plane)


def test_poisson_moments_large_mean():
    # Monte Carlo oracle: Poisson(50) has mean and variance 50.
    img = GrayImage(np.full((400, 250), 50.0))
    out = poisson_sample(img, seed=4)
    assert out.plane.mean() == pytest.approx(50.0, abs=0.5)
    assert out.plane.var() == pytest.approx(50.0, rel=0.05)


def test_poisson_moments_small_mean():
    img = GrayImage(np.full((100, 100), 3.0))
    out = poisson_sample(img, seed=5)
    assert out.plane.mean() == pytest.approx(3.0, abs=0.1)
    assert out.plane.var() == pytest.approx(3.0, rel=0.1)


def test_poisson_matches_recorded_digest():
    # lambda = 0 (no draw), inversion (lambda < 10) and PTRS (lambda >= 10)
    # interleaved; 1024 samples consume more than one bulk draw of uniforms.
    lam = np.array(
        [
            [0.0, 0.5, 3.0, 9.99],
            [10.0, 42.5, 0.0, 250.0],
            [7.0, 0.0, 12.0, 1.0],
            [100.0, 2.0, 60.0, 0.0],
        ]
    )
    out = poisson_sample(CfaImage(np.tile(lam, (8, 8)), "RGGB"), seed=77)
    assert out.phase == "RGGB"
    digest = hashlib.sha256(out.plane.tobytes()).hexdigest()
    assert digest == "3c0bc37edc23e8a182d4aa6deb8dc11c042133305c72484a2f68ed6518a49dc7"


def test_poisson_is_deterministic_and_rejects_negative():
    img = GrayImage(np.full((16, 16), 7.5))
    assert np.array_equal(poisson_sample(img, 6).plane, poisson_sample(img, 6).plane)
    with pytest.raises(DomainError):
        poisson_sample(GrayImage(np.full((2, 2), -1.0)), 0)


def test_anscombe_formula_values():
    img = GrayImage(np.zeros((1, 1)))
    out = anscombe(img)
    assert out.plane[0, 0] == pytest.approx(2.0 * math.sqrt(0.375), abs=1e-12)
    with pytest.raises(DomainError):
        anscombe(GrayImage(np.full((1, 1), -0.5)))


def test_anscombe_round_trip_offset():
    x = GrayImage(np.arange(0, 256, 0.25).reshape(32, 32))
    rt = anscombe_inverse(anscombe(x))
    # algebraically x + 1/4; exact up to one IEEE rounding of sqrt/square
    assert np.abs(rt.plane - (x.plane + 0.25)).max() <= 1e-13


def test_poisson_after_anscombe_is_unit_std():
    img = GrayImage(np.full((400, 250), 30.0))
    stabilized = anscombe(poisson_sample(img, seed=8))
    assert 0.9 <= stabilized.plane.std() <= 1.1
