"""Two-stage denoise/demosaic/denoise compositor and its named presets.

The pipeline blends an optional CFA denoising pass into the mosaic
(weight alpha), demosaics, then blends an optional color denoising pass
into the result (weight beta).  The classic orderings are the corner
cases: (1, 0) is denoise-then-demosaic, (0, 1) is demosaic-then-denoise,
and inflating the second-stage noise parameter by 1.5 gives the
recommended demosaic-first variant for white noise of known level.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .analysis import cpsnr
from .demosaic import DemosaicerId, demosaic
from .denoise import DenoiseConfig, DenoiserId, denoise_cfa, denoise_rgb
from .image import ColorImage, DomainError
from .mosaic import CfaImage
from .noise import anscombe, anscombe_inverse

PRESET_NAMES = ("dndm", "dmdn", "dm15dn")


@dataclass(frozen=True)
class PipelineParams:
    """Blend weights and per-stage noise parameters."""

    alpha: float
    beta: float
    sigma1: float
    sigma2: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise DomainError(f"{name} must be in [0, 1], got {v}")
        for name in ("sigma1", "sigma2"):
            v = getattr(self, name)
            if not (0.0 <= v <= 255.0):
                raise DomainError(f"{name} must be in [0, 255], got {v}")


@dataclass(frozen=True)
class PipelineSpec:
    """Parameters plus the concrete operators of each stage."""

    params: PipelineParams
    dn1: DenoiserId = DenoiserId.DCT8
    dm: DemosaicerId = DemosaicerId.HAMILTON_ADAMS
    dn2: DenoiserId = DenoiserId.DCT8
    vst: bool = False


@contextmanager
def stage(timings: dict | None, name: str):
    """Add the wall-clock seconds of the `with` body to `timings[name]`, if given.

    Yields `timings`, so `with stage({}, name) as timings:` starts a record.
    """
    clock = time.perf_counter
    t0 = clock()
    yield timings
    if timings is not None:
        timings[name] = timings.get(name, 0.0) + clock() - t0


def run_pipeline(v: CfaImage, spec: PipelineSpec, timings: dict | None = None) -> ColorImage:
    """Evaluate the two-stage blend.

    With vst set, the mosaic is Anscombe-transformed first, the sigma
    parameters are interpreted on the transformed scale, and the algebraic
    inverse is applied at the end.

    `timings`, when given, accumulates wall-clock seconds per stage under
    the keys "dn1", "dm", "dn2".
    """
    p = spec.params
    if spec.vst:
        v = anscombe(v)

    if p.alpha == 0.0:
        v_tilde = v  # blend degenerates to the input; skip the denoiser
    else:
        with stage(timings, "dn1"):
            d1 = denoise_cfa(v, spec.dn1, DenoiseConfig(sigma=p.sigma1))
        v_tilde = CfaImage(p.alpha * d1.plane + (1.0 - p.alpha) * v.plane, v.phase)

    with stage(timings, "dm"):
        u_dm = demosaic(v_tilde, spec.dm)

    if p.beta == 0.0:
        u_hat = u_dm
    else:
        with stage(timings, "dn2"):
            d2 = denoise_rgb(u_dm, spec.dn2, DenoiseConfig(sigma=p.sigma2))
        u_hat = ColorImage(p.beta * d2.planes + (1.0 - p.beta) * u_dm.planes)

    if spec.vst:
        u_hat = anscombe_inverse(u_hat)
    return u_hat


def preset(name: str, sigma: float) -> PipelineParams:
    """Named parameter mappings for the three classic orderings."""
    if sigma < 0:
        raise DomainError(f"sigma must be >= 0, got {sigma}")
    key = name.lower().replace("&", "").replace("_", "").replace("-", "").replace(".", "")
    if key in ("dndm", "dn1dm"):
        return PipelineParams(1.0, 0.0, sigma, 0.0)
    if key == "dmdn":
        return PipelineParams(0.0, 1.0, 0.0, sigma)
    if key in ("dm15dn", "dm1p5dn"):
        return PipelineParams(0.0, 1.0, 0.0, 1.5 * sigma)
    raise DomainError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")


def sweep_k(
    v: CfaImage,
    ground_truth: ColorImage,
    dm: DemosaicerId,
    dn: DenoiserId,
    sigma: float,
    k_list,
) -> list[tuple[float, float]]:
    """Score the demosaic-then-denoise pipeline at sigma2 = k * sigma.

    Duplicate k values produce duplicate rows.
    """
    k_list = list(k_list)
    if not k_list:
        raise DomainError("k_list must be non-empty")
    if any(k < 0 for k in k_list):
        raise DomainError("k values must be >= 0")
    rows = []
    for k in k_list:
        spec = PipelineSpec(PipelineParams(0.0, 1.0, 0.0, k * sigma), dm=dm, dn2=dn)
        rows.append((float(k), cpsnr(run_pipeline(v, spec), ground_truth)))
    return rows


def generalize_by_sigma(
    params_ref: PipelineParams, sigma_ref: float, sigma_star: float
) -> PipelineParams:
    """Rescale the stage noise parameters to a nearby noise level.

    Keeps the blend weights; sigma values scale by sigma_star/sigma_ref and
    clamp into [0, 255].
    """
    if sigma_star <= 0 or sigma_ref <= 0:
        raise DomainError("sigma_star and sigma_ref must be positive")
    ratio = sigma_star / sigma_ref
    sigma1 = float(np.clip(params_ref.sigma1 * ratio, 0.0, 255.0))
    sigma2 = float(np.clip(params_ref.sigma2 * ratio, 0.0, 255.0))
    return PipelineParams(params_ref.alpha, params_ref.beta, sigma1, sigma2)


def generalize_by_image(
    v: CfaImage,
    sigma_star: float,
    sigma_ref: float,
    params_ref: PipelineParams,
    spec: PipelineSpec,
) -> ColorImage:
    """Rescale the image to the reference noise level, run, rescale back.

    At sigma_star == sigma_ref this is bit-identical to running the
    reference parameters directly.
    """
    if sigma_star <= 0 or sigma_ref <= 0:
        raise DomainError("sigma_star and sigma_ref must be positive")
    spec = replace(spec, params=params_ref)
    scaled = CfaImage(v.plane * (sigma_ref / sigma_star), v.phase)
    out = run_pipeline(scaled, spec)
    return ColorImage(out.planes * (sigma_star / sigma_ref))
