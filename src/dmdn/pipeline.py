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
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from .analysis import cpsnr
from .demosaic import DemosaicerId, demosaic
from .denoise import DenoiseConfig, DenoiserId, denoise_cfa, denoise_rgb
from .image import SIGMA_RANGE, ColorImage, DomainError, check_range
from .mosaic import CfaImage
from .noise import anscombe, anscombe_inverse

PRESET_NAMES = ("dndm", "dmdn", "dm15dn")

# The blend's parameters and their closed ranges, in PipelineParams field order.
PARAMETERS = {"alpha": (0, 1), "beta": (0, 1), "sigma1": SIGMA_RANGE, "sigma2": SIGMA_RANGE}


@dataclass(frozen=True)
class PipelineParams:
    """Blend weights and per-stage noise parameters."""

    alpha: float
    beta: float
    sigma1: float
    sigma2: float

    def __post_init__(self):
        for name, bounds in PARAMETERS.items():
            check_range(name, getattr(self, name), bounds)


@dataclass(frozen=True)
class PipelineSpec:
    """Parameters plus the concrete operators of each stage."""

    params: PipelineParams
    dn1: DenoiserId = DenoiserId.DCT8
    dm: DemosaicerId = DemosaicerId.HAMILTON_ADAMS
    dn2: DenoiserId = DenoiserId.DCT8
    vst: bool = False


# This process's stage record: wall-clock seconds per `stage` name, keys in
# first-entry order.  `ordered_map` adds its workers' records to it.
STAGE_SECONDS = Counter()


@contextmanager
def stage(name: str):
    """Add the wall-clock seconds of the `with` body to this process's `STAGE_SECONDS[name]`."""
    STAGE_SECONDS.setdefault(name, 0.0)
    t0 = time.perf_counter()
    yield
    STAGE_SECONDS[name] += time.perf_counter() - t0


def dm_key(params: PipelineParams) -> tuple:
    """What `demosaic_stage`'s result depends on besides the mosaic and operators.

    That is (alpha, sigma1), or nothing at alpha = 0, where the blend feeds DM
    the input itself; sigma1 = 0 with alpha > 0 keeps its own key, since that
    blend equals the input only up to rounding.
    """
    return (0.0,) if params.alpha == 0.0 else (params.alpha, params.sigma1)


def demosaic_stage(v: CfaImage, spec: PipelineSpec) -> ColorImage:
    """The first half of the blend: DM(alpha * DN1(v) + (1 - alpha) * v).

    With vst set, v is Anscombe-transformed first.  Alpha = 0 prunes DN1.
    """
    p = spec.params
    x = anscombe(v) if spec.vst else v
    plane = x.plane
    if p.alpha != 0.0:
        with stage("dn1"):
            denoised = denoise_cfa(x, spec.dn1, DenoiseConfig(sigma=p.sigma1)).plane
        plane = p.alpha * denoised + (1.0 - p.alpha) * plane
    with stage("dm"):
        return demosaic(CfaImage(plane, x.phase), spec.dm)


def denoise_stage(u_dm: ColorImage, spec: PipelineSpec) -> ColorImage:
    """The second half: beta * DN2(u_dm) + (1 - beta) * u_dm.

    With vst set, the Anscombe inverse is applied last.  Beta = 0 prunes DN2.
    """
    p = spec.params
    u_hat = u_dm
    if p.beta != 0.0:
        with stage("dn2"):
            denoised = denoise_rgb(u_dm, spec.dn2, DenoiseConfig(sigma=p.sigma2)).planes
        u_hat = ColorImage(p.beta * denoised + (1.0 - p.beta) * u_dm.planes)
    return anscombe_inverse(u_hat) if spec.vst else u_hat


def run_pipeline(v: CfaImage, spec: PipelineSpec) -> ColorImage:
    """Evaluate the two-stage blend: `denoise_stage` of `demosaic_stage`.

    With vst set, the mosaic is Anscombe-transformed first, the sigma
    parameters are interpreted on the transformed scale, and the algebraic
    inverse is applied at the end.

    Its stages are timed as "dn1", "dm" and "dn2"; a zero blend weight prunes its denoiser.
    Specs with one `dm_key`, DN1, DM and vst setting can share one
    `demosaic_stage` result, bit-identical to this function's (`score_specs`).
    """
    return denoise_stage(demosaic_stage(v, spec), spec)


def score_specs(v: CfaImage, truth: ColorImage, specs) -> list[float]:
    """`cpsnr(run_pipeline(v, spec), truth)` for each spec, bit for bit.

    Consecutive specs with the same DN1, DM, vst setting and `dm_key` share
    one `demosaic_stage` result, dropped before the next one is computed.
    """
    scores = []
    for _, run in groupby(specs, key=lambda s: (s.dn1, s.dm, s.vst, dm_key(s.params))):
        run = list(run)
        u_dm = demosaic_stage(v, run[0])
        scores += [cpsnr(denoise_stage(u_dm, spec), truth) for spec in run]
        del u_dm
    return scores


def preset(name: str, sigma: float) -> PipelineParams:
    """Named parameter mappings for the three classic orderings."""
    check_range("sigma", sigma, SIGMA_RANGE)
    key = name.lower().replace("&", "").replace("_", "").replace("-", "").replace(".", "")
    if key in ("dndm", "dn1dm"):
        return PipelineParams(1.0, 0.0, sigma, 0.0)
    if key == "dmdn":
        return PipelineParams(0.0, 1.0, 0.0, sigma)
    if key in ("dm15dn", "dm1p5dn"):
        return PipelineParams(0.0, 1.0, 0.0, 1.5 * sigma)
    raise DomainError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")


def sweep_k_specs(dm: DemosaicerId, dn: DenoiserId, sigma: float, k_list: list[float]) -> list[PipelineSpec]:
    """The demosaic-then-denoise specs at sigma2 = k * sigma, one per k; one `dm_key`."""
    check_range("sigma", sigma, SIGMA_RANGE)
    if not k_list:
        raise DomainError("k_list must be non-empty")
    if any(k < 0 for k in k_list):
        raise DomainError("k values must be >= 0")
    return [PipelineSpec(PipelineParams(0.0, 1.0, 0.0, k * sigma), dm=dm, dn2=dn) for k in k_list]


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
    return list(zip(map(float, k_list), score_specs(v, ground_truth, sweep_k_specs(dm, dn, sigma, k_list))))


def generalize_by_sigma(
    params_ref: PipelineParams, sigma_ref: float, sigma_star: float
) -> PipelineParams:
    """Rescale the stage noise parameters to a nearby noise level.

    Keeps the blend weights; sigma values scale by sigma_star/sigma_ref and
    clamp into SIGMA_RANGE.
    """
    if sigma_star <= 0 or sigma_ref <= 0:
        raise DomainError("sigma_star and sigma_ref must be positive")
    ratio = sigma_star / sigma_ref
    sigma1 = float(np.clip(params_ref.sigma1 * ratio, *SIGMA_RANGE))
    sigma2 = float(np.clip(params_ref.sigma2 * ratio, *SIGMA_RANGE))
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
