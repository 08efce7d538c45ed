"""Reproducible noise simulation: seeded AWGN, Poisson sampling, Anscombe VST.

Randomness comes from a self-contained xoshiro256++ generator seeded through
splitmix64, so identical seeds give identical sample streams on every
platform.  It is lane-stepped xoshiro256++ with GF(2) jump-ahead; the same
stream as the scalar definition: a draw of n words starts about sqrt(n) lanes
at evenly spaced stream offsets and steps them together with array
operations.  Normals are produced by Box-Muller (a fixed two-uniforms-per-pair
budget keeps stream consumption independent of the sampled values), consumed
in raster order and channel-major for color images.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .image import SIGMA_RANGE, ColorImage, DomainError, GrayImage, check_range
from .mosaic import CfaImage, mosaick

_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (output, next_state)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31), state


def derive_seed(master_seed: int, image_index: int) -> int:
    """Per-image seed: splitmix64 of (master XOR index), order-independent."""
    out, _ = splitmix64((master_seed ^ image_index) & _MASK64)
    return out


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian noise level (intensity units, within SIGMA_RANGE) and seed."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        check_range("sigma", self.sigma, SIGMA_RANGE)


def _to_bits(words: np.ndarray) -> np.ndarray:
    """(4, L) state words -> (256, L) bits; bit b of word w is row 64*w + b."""
    octets = np.ascontiguousarray(words.T, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, bitorder="little").T


def _from_bits(bits: np.ndarray) -> np.ndarray:
    """Inverse of `_to_bits`."""
    octets = np.packbits(bits.T, axis=1, bitorder="little")
    return np.ascontiguousarray(octets).view("<u8").astype(np.uint64).T


def _gf2_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # A float32 matmul of 0/1 matrices is exact: every sum is at most 256.
    return (a.astype(np.float32) @ b.astype(np.float32) % 2).astype(np.uint8)


def _advance(s: np.ndarray, t: np.ndarray, u: np.ndarray) -> None:
    """One xoshiro256++ state transition of every lane of s (4, L), in place.

    t and u are scratch arrays of shape (L,).  The transition is linear over
    GF(2); only the output scrambler (rotl(s0 + s3, 23) + s0) is not.
    """
    s0, s1, s2, s3 = s
    np.left_shift(s1, 17, out=u)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= u
    np.right_shift(s3, 19, out=t)
    s3 <<= 45
    s3 |= t


# _JUMPS[i] is the 256x256 GF(2) matrix of 2**i state transitions, one byte
# per bit.  It is extended on first use, not at import, and only as far as
# the largest draw so far needs.
_JUMPS: list[np.ndarray] = []
_JUMPS_LOCK = threading.Lock()


def _jump(i: int) -> np.ndarray:
    with _JUMPS_LOCK:
        if not _JUMPS:  # column b: one transition of the state with only bit b set
            unit = _from_bits(np.eye(256, dtype=np.uint8))
            _advance(unit, np.empty(256, np.uint64), np.empty(256, np.uint64))
            _JUMPS.append(_to_bits(unit))
        while len(_JUMPS) <= i:
            _JUMPS.append(_gf2_product(_JUMPS[-1], _JUMPS[-1]))
        return _JUMPS[i]


class RngStream:
    """xoshiro256++ stream; single-owner, advanced in place."""

    def __init__(self, seed: int):
        state = seed & _MASK64
        s = []
        for _ in range(4):
            out, state = splitmix64(state)
            s.append(out)
        self._s = np.array(s, dtype=np.uint64)

    def _u64_array(self, n: int) -> np.ndarray:
        """The next n words of the stream.

        L = ceil(n / m) lanes of m = 2**(floor(log2 n) // 2) words each, lane
        j starting j*m words ahead.  The lane starts come from doubling: with
        2**k lanes so far, one product with the jump 2**k * m appends the next
        2**k.  All lanes step together and are read lane-major.
        """
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        log_m = (n.bit_length() - 1) // 2
        m = 1 << log_m
        lanes = -(-n // m)
        bits = _to_bits(self._s[:, None])
        i = log_m
        while bits.shape[1] < lanes:
            more = bits[:, : lanes - bits.shape[1]]
            bits = np.concatenate([bits, _gf2_product(_jump(i), more)], axis=1)
            i += 1
        s = _from_bits(bits)
        s0, _, _, s3 = s
        out = np.empty((lanes, m), dtype=np.uint64)
        t = np.empty(lanes, dtype=np.uint64)
        u = np.empty(lanes, dtype=np.uint64)
        last = n - (lanes - 1) * m  # steps of the last lane inside the draw
        for k in range(m):
            np.add(s0, s3, out=t)
            np.left_shift(t, 23, out=u)
            t >>= 41
            u |= t
            np.add(u, s0, out=out[:, k])
            _advance(s, t, u)
            if k + 1 == last:
                self._s = s[:, -1].copy()
        return out.reshape(-1)[:n]

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on (0, 1] (top 53 bits of each word, + 1 ulp)."""
        bits = self._u64_array(n)
        return ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller, two uniforms per pair."""
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        u1, u2 = u[0::2], u[1::2]
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        z = np.empty(2 * pairs, dtype=np.float64)
        z[0::2] = radius * np.cos(angle)
        z[1::2] = radius * np.sin(angle)
        return z[:n]


def _map_values(img, fn):
    """Apply fn to the raw sample array of any image container."""
    if isinstance(img, ColorImage):
        return ColorImage(fn(img.planes))
    if isinstance(img, GrayImage):
        return GrayImage(fn(img.plane))
    if isinstance(img, CfaImage):
        return CfaImage(fn(img.plane), img.phase)
    raise TypeError(f"unsupported image type {type(img).__name__}")


def normal_field(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """The standard-normal field of a seed, in raster order (channel-major)."""
    return RngStream(seed).normals(math.prod(shape)).reshape(shape)


def add_awgn(img, spec: NoiseSpec):
    """Add i.i.d. N(0, sigma^2) noise; deterministic for a given seed.

    The standard-normal field depends only on the seed and the image shape,
    so the same seed at two sigmas yields proportionally scaled noise.
    """

    def add(values: np.ndarray) -> np.ndarray:
        return values + spec.sigma * normal_field(spec.seed, values.shape)

    return _map_values(img, add)


def noisy_mosaics(dataset: list[ColorImage], sigmas: list[float], seed: int, phase: str = "RGGB"):
    """Yield (image index, sigma index, noisy mosaic) for every image and sigma.

    Each equals `add_awgn(mosaick(u, phase), NoiseSpec(sigma, derive_seed(seed, i)))`
    for image u at position i, but an image's normal field is drawn only once.
    """
    if not dataset:
        raise DomainError("dataset must be non-empty")
    sigmas = [check_range("sigma", sigma, SIGMA_RANGE) for sigma in sigmas]
    for index, truth in enumerate(dataset):
        clean = mosaick(truth, phase)
        field = normal_field(derive_seed(seed, index), clean.plane.shape)
        for k, sigma in enumerate(sigmas):
            yield index, k, CfaImage(clean.plane + sigma * field, phase)


def _poisson_small(lam: float, uniform) -> int:
    # Inversion by sequential search; one uniform per sample.
    u = uniform()
    p = math.exp(-lam)
    k = 0
    cum = p
    while u > cum:
        k += 1
        p *= lam / k
        cum += p
        if k > 10_000_000:  # unreachable for lam < 10
            break
    return k


def _poisson_ptrs(lam: float, uniform) -> int:
    # Hoermann's transformed rejection (PTRS), valid for lam >= 10.
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_lam = math.log(lam)
    while True:
        u = uniform() - 0.5
        v = uniform()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if math.log(v * inv_alpha / (a / (us * us) + b)) <= (
            k * log_lam - lam - math.lgamma(k + 1.0)
        ):
            return int(k)


# Rejection consumes a variable number of uniforms, so Poisson sampling reads
# them one at a time, in stream order, from bulk draws of this size.  The
# stream is local to one call and is contiguous across draws, so the size
# changes no sample; it only sets how many words each lane-stepped draw makes.
_POISSON_CHUNK = 65536


def poisson_sample(img, seed: int):
    """Sample each output value from Poisson(input value); deterministic per seed."""
    stream = RngStream(seed)

    def draws():
        while True:
            yield from stream.uniforms(_POISSON_CHUNK).tolist()

    uniform = draws().__next__

    def sample(values: np.ndarray) -> np.ndarray:
        flat = values.ravel()
        if flat.size and flat.min() < 0:
            raise DomainError("poisson_sample requires nonnegative intensities")
        out = np.empty(flat.shape, dtype=np.float64)
        for i, lam in enumerate(flat):
            if lam == 0.0:
                out[i] = 0.0
            elif lam < 10.0:
                out[i] = _poisson_small(lam, uniform)
            else:
                out[i] = _poisson_ptrs(lam, uniform)
        return out.reshape(values.shape)

    return _map_values(img, sample)


def anscombe(img):
    """Variance-stabilizing transform x -> 2*sqrt(x + 3/8)."""

    def fwd(values: np.ndarray) -> np.ndarray:
        if values.size and values.min() < -0.375:
            raise DomainError("anscombe requires values >= -3/8")
        return 2.0 * np.sqrt(values + 0.375)

    return _map_values(img, fwd)


def anscombe_inverse(img):
    """Algebraic inverse y -> (y/2)^2 - 1/8.

    Composing with :func:`anscombe` returns x + 1/4 (the documented bias of
    the algebraic pair), up to one IEEE rounding of the sqrt/square chain.
    """

    def inv(values: np.ndarray) -> np.ndarray:
        return (values / 2.0) ** 2 - 0.125

    return _map_values(img, inv)
