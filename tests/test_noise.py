import ast
import hashlib
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmdn import noise
from dmdn.image import ColorImage, DomainError, GrayImage
from dmdn.mosaic import PHASES, CfaImage, mosaick
from dmdn.noise import (
    NoiseSpec,
    RngStream,
    add_awgn,
    anscombe,
    anscombe_inverse,
    derive_seed,
    noisy_mosaics,
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


def scalar_xoshiro(seed: int, n: int) -> np.ndarray:
    """Reference stream: the xoshiro256++ definition, one word at a time."""
    mask = 0xFFFFFFFFFFFFFFFF
    state = seed & mask
    s = []
    for _ in range(4):
        out, state = splitmix64(state)
        s.append(out)
    s0, s1, s2, s3 = s
    out = [0] * n
    for i in range(n):
        t = (s0 + s3) & mask
        out[i] = ((((t << 23) & mask) | (t >> 41)) + s0) & mask
        u = (s1 << 17) & mask
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= u
        s3 = ((s3 << 45) & mask) | (s3 >> 19)
    return np.array(out, dtype=np.uint64)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**64 - 1), n1=st.integers(0, 3000), n2=st.integers(0, 3000))
# n = 0, 1, powers of two and their neighbours; 3 draws 3 lanes of one word,
# 99 draws 25 lanes of 4 (the last lane has 3 words inside the draw).
@example(seed=0, n1=0, n2=1)
@example(seed=2**64 - 1, n1=1, n2=0)
@example(seed=1, n1=3, n2=99)
@example(seed=5, n1=255, n2=256)
@example(seed=6, n1=257, n2=1023)
@example(seed=7, n1=1024, n2=1025)
@example(seed=8, n1=2047, n2=2048)
def test_lane_stream_equals_scalar_definition(seed, n1, n2):
    expected = scalar_xoshiro(seed, n1 + n2)
    assert np.array_equal(RngStream(seed)._u64_array(n1 + n2), expected)
    # The stream advances by exactly the words drawn: split draws join up.
    stream = RngStream(seed)
    first, second = stream._u64_array(n1), stream._u64_array(n2)
    assert np.array_equal(np.concatenate([first, second]), expected)


def test_lane_stream_equals_scalar_definition_at_512_squared():
    seed = 2**63 + 11
    assert np.array_equal(RngStream(seed)._u64_array(512 * 512), scalar_xoshiro(seed, 512 * 512))


def test_gf2_product_is_the_integer_product_mod_2():
    rng = np.random.default_rng(23)
    a = rng.integers(0, 2, (256, 256), dtype=np.uint8)
    b = rng.integers(0, 2, (256, 300), dtype=np.uint8)
    # An all-ones row against an all-ones column sums to 256, which a uint8
    # cast of the float sum would wrap.
    a[7] = 1
    b[:, 11] = 1
    expected = (a.astype(np.int64) @ b.astype(np.int64)) % 2
    product = noise._gf2_product(a, b)
    assert product.dtype == np.uint8
    assert expected[7, 11] == 0
    assert np.array_equal(product, expected)


def test_jump_table_matches_recorded_digest(monkeypatch):
    # The digest of the tables for 2**0 ... 2**20 transitions, as built with
    # the parity taken by float `% 2`.
    monkeypatch.setattr(noise, "_JUMPS", [])
    digest = hashlib.sha256()
    for i in range(21):
        jump = noise._jump(i)
        assert jump.dtype == np.uint8 and jump.shape == (256, 256)
        digest.update(jump.tobytes())
    assert digest.hexdigest() == "38fc73d7611d2d21ad53fc275fbceca434ffa280014912f8297d792c61f75c41"


def test_first_normal_field_peak_memory_at_512(monkeypatch):
    # The jump table is built inside the measured call; it must stay compact.
    monkeypatch.setattr(noise, "_JUMPS", [])
    tracemalloc.start()
    try:
        noise.normal_field(3, (512, 512))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert noise._JUMPS
    assert peak <= 10.0 * 2**20


def test_import_leaves_jump_table_empty():
    # Importing the CLI (timed as set-up) must not build the jump table,
    # nor load scipy, which only the tests use, nor multiprocessing or
    # concurrent.futures, which only an ordered map with --jobs > 1 needs.
    src = str(Path(noise.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import dmdn, dmdn.cli, dmdn.noise; print(len(dmdn.noise._JUMPS)); "
        "print(sorted(m for m in sys.modules if m.startswith('scipy'))); "
        "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')));"
        "print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    )
    result = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "[]", "[]", "[]"]


def test_package_imports_only_stdlib_and_numpy():
    # Static, so an import inside a function that no test reaches still counts.
    package = Path(noise.__file__).resolve().parent
    foreign = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            top = {name.split(".")[0] for name in names}
            foreign += [(path.name, name) for name in sorted(top - sys.stdlib_module_names - {"numpy"})]
    assert foreign == []


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


@pytest.mark.parametrize("kind", ["gray", "color", *PHASES])
def test_noise_maps_keep_container_and_phase(kind):
    values = np.arange(3 * 4 * 6, dtype=np.float64).reshape(3, 4, 6)
    if kind == "color":
        img = ColorImage(values)
    else:
        img = GrayImage(values[0]) if kind == "gray" else CfaImage(values[0], kind)
    for out in (
        add_awgn(img, NoiseSpec(1.0, seed=0)),
        poisson_sample(img, seed=1),
        anscombe(img),
        anscombe_inverse(img),
    ):
        assert type(out) is type(img)
        assert getattr(out, "phase", None) == getattr(img, "phase", None)


def test_independent_noise_variances_add():
    img = GrayImage(np.zeros((512, 512)))
    out = add_awgn(add_awgn(img, NoiseSpec(12.0, seed=1)), NoiseSpec(16.0, seed=2))
    assert out.plane.var() == pytest.approx(12.0**2 + 16.0**2, rel=0.05)


def test_awgn_matches_recorded_digests():
    # The stream, Box-Muller and the sigma scaling must all stay bit-exact.
    color = ColorImage(np.arange(3 * 16 * 18, dtype=np.float64).reshape(3, 16, 18) % 256)
    out = add_awgn(color, NoiseSpec(7, seed=31)).planes
    assert hashlib.sha256(out.tobytes()).hexdigest() == (
        "0d51816a3bd445daf22d71c0c6fc55e38a3d6f341bf3f245614f4e290bba1f4a"
    )
    cfa = CfaImage((np.arange(20 * 22, dtype=np.float64) * 7 % 256).reshape(20, 22), "GRBG")
    out = add_awgn(cfa, NoiseSpec(3, seed=5)).plane
    assert hashlib.sha256(out.tobytes()).hexdigest() == (
        "d32117eaba060b684cd61de28ef93b3e6eed6a9ae8894fd507870d57888e2868"
    )


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**64 - 1),
    phase=st.sampled_from(PHASES),
    sigmas=st.lists(st.sampled_from([0.0, 0.5, 3.0, 20.0, 255.0]), min_size=1, max_size=4),
    count=st.integers(1, 3),
)
@example(seed=7, phase="GBRG", sigmas=[0.0, 20.0, 20.0], count=2)
def test_noisy_mosaics_equal_awgn_of_each_mosaic(seed, phase, sigmas, count):
    rng = np.random.default_rng(seed % 1000)
    dataset = [ColorImage(rng.uniform(0, 255, size=(3, 6, 8))) for _ in range(count)]
    got = list(noisy_mosaics(dataset, sigmas, seed, phase))
    assert [(i, k) for i, k, _ in got] == [(i, k) for i in range(count) for k in range(len(sigmas))]
    for i, k, noisy in got:
        expected = add_awgn(mosaick(dataset[i], phase), NoiseSpec(sigmas[k], derive_seed(seed, i)))
        assert noisy.phase == phase
        assert noisy.plane.tobytes() == expected.plane.tobytes()


def test_negative_sigma_rejected():
    for sigma in (-1.0, math.inf):
        with pytest.raises(DomainError, match=r"sigma must be in \[0, 255\]"):
            NoiseSpec(sigma, 0)
    dataset = [ColorImage(np.zeros((3, 4, 4)))]
    for sigmas in ([5.0, -1.0], [math.nan], [math.inf]):
        with pytest.raises(DomainError, match=r"sigma must be in \[0, 255\]"):
            next(noisy_mosaics(dataset, sigmas, seed=0))


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
