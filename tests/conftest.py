"""Shared fixtures: deterministic photo-like test images, optimizer test functions, pipeline oracles.

The generator mixes a 1/f-spectrum luminance field (contrast-stretched so
shadows and highlights saturate like real photos), much smoother chroma
fields, and a few soft-edged colored shapes.  Two smoothness variants are
provided: `natural_images` carries enough fine detail for demosaicing-error
and ordering experiments, `smooth_images` approximates low-texture photos
for the residual-statistics experiments.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from scipy import ndimage

from dmdn.demosaic import demosaic
from dmdn.denoise import DenoiseConfig, denoise_cfa, denoise_rgb
from dmdn.image import ColorImage, rgb_planes
from dmdn.mosaic import CfaImage
from dmdn.noise import anscombe, anscombe_inverse
from dmdn.pipeline import PipelineParams, PipelineSpec

# One Hypothesis policy for every property: no per-example deadline, because
# a shared host's slow phases can stretch single examples well past 200 ms.
# Each test still sets its own `max_examples`.
settings.register_profile("dmdn", deadline=None)
settings.load_profile("dmdn")


def sphere(x: np.ndarray) -> float:
    """Sum of squares; minimum 0 at the origin."""
    x = np.asarray(x)
    return float(np.dot(x, x))


def rosenbrock(x: np.ndarray) -> float:
    """Classic banana valley; minimum 0 at all-ones."""
    x = np.asarray(x)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def reference_pipeline(v: CfaImage, spec: PipelineSpec) -> ColorImage:
    """The blend computed stage by stage with no reuse, as in its definition."""
    p = spec.params
    if spec.vst:
        v = anscombe(v)
    if p.alpha != 0.0:
        d1 = denoise_cfa(v, spec.dn1, DenoiseConfig(sigma=p.sigma1))
        v = CfaImage(p.alpha * d1.plane + (1.0 - p.alpha) * v.plane, v.phase)
    u = demosaic(v, spec.dm)
    if p.beta != 0.0:
        d2 = denoise_rgb(u, spec.dn2, DenoiseConfig(sigma=p.sigma2))
        u = ColorImage(p.beta * d2.planes + (1.0 - p.beta) * u.planes)
    return anscombe_inverse(u) if spec.vst else u


def dm_key(p: PipelineParams) -> tuple:
    """What DM's result depends on: alpha = 0 feeds DM the input whatever sigma1 is."""
    return (0.0,) if p.alpha == 0.0 else (p.alpha, p.sigma1)


def count_calls(monkeypatch, module, *names) -> dict:
    """Count the calls of each `module.<name>`, which still runs: {name: calls so far}."""
    calls = dict.fromkeys(names, 0)
    for name in names:

        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def spectral_field(rng: np.random.Generator, size: int, slope: float) -> np.ndarray:
    """Random field with ~1/f^slope power spectrum, zero mean, unit std."""
    fy = np.fft.fftfreq(size)[:, None]
    fx = np.fft.rfftfreq(size)[None, :]
    radius = np.hypot(fy, fx)
    radius[0, 0] = 1.0
    amplitude = radius ** (-slope / 2.0)
    amplitude[0, 0] = 0.0
    spectrum = amplitude * np.exp(1j * rng.uniform(0, 2 * np.pi, size=amplitude.shape))
    field = np.fft.irfft2(spectrum, s=(size, size))
    return field / field.std()


def make_natural(
    seed: int,
    size: int = 256,
    lum_slope: float = 2.9,
    lum_std: float = 40.0,
    stretch: float = 1.6,
    chroma_std: float = 11.0,
    chroma_slope: float = 3.4,
    n_shapes: int = 10,
    edge_blur: float = 1.2,
) -> ColorImage:
    rng = np.random.default_rng(seed)
    gray = 125.0 + lum_std * spectral_field(rng, size, lum_slope)
    gray = 128.0 + stretch * (gray - 128.0)
    c1 = chroma_std * spectral_field(rng, size, chroma_slope)
    c2 = chroma_std * spectral_field(rng, size, chroma_slope)
    img = rgb_planes(np.stack([gray * np.sqrt(3.0), c1, c2]))
    yy, xx = np.mgrid[0:size, 0:size]
    for _ in range(n_shapes):
        cy, cx = rng.integers(0, size), rng.integers(0, size)
        radius = rng.integers(size // 14, size // 5)
        mask = ((yy - cy) ** 2 + (xx - cx) ** 2 < radius * radius).astype(float)
        mask = ndimage.gaussian_filter(mask, edge_blur)
        color = rng.uniform(-20, 275, size=3)  # lets shapes saturate
        blend = rng.uniform(0.5, 0.95)
        for c in range(3):
            img[c] += blend * mask * (color[c] - img[c])
    return ColorImage(np.clip(img, 0, 255))


def make_smooth(seed: int, size: int = 256) -> ColorImage:
    return make_natural(
        seed,
        size,
        lum_slope=3.2,
        stretch=1.5,
        chroma_std=9.0,
        n_shapes=6,
        edge_blur=2.0,
    )


def detailed_crop(img: ColorImage, size: int = 128) -> ColorImage:
    """The size x size window with the highest local gradient energy."""
    gray = img.planes.mean(axis=0)
    gy, gx = np.gradient(gray)
    energy = ndimage.uniform_filter(gy**2 + gx**2, size=31)
    best, pos = -1.0, (0, 0)
    for i in range(0, img.height - size, 16):
        for j in range(0, img.width - size, 16):
            e = energy[i + size // 2, j + size // 2]
            if e > best:
                best, pos = e, (i, j)
    i, j = pos
    return ColorImage(img.planes[:, i : i + size, j : j + size])


@pytest.fixture(scope="session")
def natural_images() -> list[ColorImage]:
    return [make_natural(seed) for seed in range(5)]


@pytest.fixture(scope="session")
def smooth_images() -> list[ColorImage]:
    return [make_smooth(seed) for seed in range(100, 105)]


@pytest.fixture(scope="session")
def imax_dir() -> Path | None:
    """Directory of the Imax dataset when available (DMDN_IMAX_DIR), else None."""
    path = os.environ.get("DMDN_IMAX_DIR")
    if path and Path(path).is_dir():
        return Path(path)
    return None
