"""Reproducible noise simulation: seeded AWGN, Poisson sampling, Anscombe VST.

Randomness comes from a self-contained xoshiro256++ generator seeded through
splitmix64, so identical seeds give identical sample streams on every
platform.  Normals are produced by Box-Muller (a fixed two-uniforms-per-pair
budget keeps stream consumption independent of the sampled values), consumed
in raster order and channel-major for color images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import ColorImage, DomainError, GrayImage
from .mosaic import CfaImage

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
    """Gaussian noise level (intensity units on the [0, 255] scale) and seed."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        if not (self.sigma >= 0):
            raise DomainError(f"sigma must be >= 0, got {self.sigma}")


class RngStream:
    """xoshiro256++ stream; single-owner, advanced in place."""

    def __init__(self, seed: int):
        state = seed & _MASK64
        s = []
        for _ in range(4):
            out, state = splitmix64(state)
            s.append(out)
        self._s = s

    def _u64_array(self, n: int) -> np.ndarray:
        s0, s1, s2, s3 = self._s
        out = [0] * n
        for i in range(n):
            t = (s0 + s3) & _MASK64
            out[i] = ((((t << 23) & _MASK64) | (t >> 41)) + s0) & _MASK64
            u = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= u
            s3 = ((s3 << 45) & _MASK64) | (s3 >> 19)
        self._s = [s0, s1, s2, s3]
        return np.array(out, dtype=np.uint64)

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


def add_awgn(img, spec: NoiseSpec):
    """Add i.i.d. N(0, sigma^2) noise; deterministic for a given seed.

    The standard-normal field depends only on the seed and the image shape,
    so the same seed at two sigmas yields proportionally scaled noise.
    """
    stream = RngStream(spec.seed)

    def add(values: np.ndarray) -> np.ndarray:
        z = stream.normals(values.size).reshape(values.shape)
        return values + spec.sigma * z

    return _map_values(img, add)


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
# them one at a time, in stream order, from bulk draws of this size.
_POISSON_CHUNK = 1024


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
