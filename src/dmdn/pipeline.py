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


class StageCache:
    """The last demosaiced blend of one input mosaic.

    `run_pipeline` keeps the DM stage's output, DM(alpha * DN1(v) +
    (1 - alpha) * v), under the parameters it depends on: (alpha, sigma1),
    or alpha = 0 alone, since the blend then feeds DM the input itself
    (sigma1 = 0 with alpha > 0 keeps its own key: that blend equals the
    input only up to rounding).  A call that shares them with the previous
    one runs neither the Anscombe transform, DN1 nor DM; DN2 and the beta
    blend always run.  A miss drops the held result before computing its
    replacement, so the cache never holds two: its memory is one RGB image
    of the mosaic's size.  A call with another mosaic (by identity) or other
    DN1, DM or vst settings is a miss.  A cache is not thread-safe: give
    each worker its own.
    """

    def __init__(self):
        self.source: CfaImage | None = None
        self.binding: tuple | None = None  # (dn1, dm, vst, key) of `result`
        self.result: ColorImage | None = None

    def demosaiced(self, v: CfaImage, spec: PipelineSpec, compute) -> ColorImage:
        """The DM result for `v` under `spec`, from `compute()` on a miss."""
        p = spec.params
        key = (0.0,) if p.alpha == 0.0 else (p.alpha, p.sigma1)
        binding = (spec.dn1, spec.dm, spec.vst, key)
        if v is not self.source or binding != self.binding:
            self.source = self.binding = self.result = None  # evict first: never two results
            self.result = compute()
            self.source, self.binding = v, binding
        return self.result


def _blend(weight: float, denoised, base: np.ndarray) -> np.ndarray:
    """`weight * denoised() + (1 - weight) * base`; weight 0 prunes the stage behind `denoised`."""
    if weight == 0.0:
        return base
    return weight * denoised() + (1.0 - weight) * base


def run_pipeline(
    v: CfaImage, spec: PipelineSpec, timings: dict | None = None, cache: StageCache | None = None
) -> ColorImage:
    """Evaluate the two-stage blend.

    With vst set, the mosaic is Anscombe-transformed first, the sigma
    parameters are interpreted on the transformed scale, and the algebraic
    inverse is applied at the end.

    `timings`, when given, accumulates wall-clock seconds per stage under
    the keys "dn1", "dm", "dn2".  A zero blend weight prunes its denoiser.

    `cache` carries the DM result from call to call on the same mosaic (see
    StageCache); on a hit DN1 and DM do not run and add nothing to
    `timings`.  Results are bit-identical with or without it.
    """
    p = spec.params
    cache = StageCache() if cache is None else cache

    def dn1(x: CfaImage) -> np.ndarray:
        with stage(timings, "dn1"):
            return denoise_cfa(x, spec.dn1, DenoiseConfig(sigma=p.sigma1)).plane

    def dm() -> ColorImage:
        x = anscombe(v) if spec.vst else v
        v_tilde = _blend(p.alpha, lambda: dn1(x), x.plane)
        with stage(timings, "dm"):
            return demosaic(CfaImage(v_tilde, x.phase), spec.dm)

    def dn2() -> np.ndarray:
        with stage(timings, "dn2"):
            return denoise_rgb(u_dm, spec.dn2, DenoiseConfig(sigma=p.sigma2)).planes

    u_dm = cache.demosaiced(v, spec, dm)
    u_hat = ColorImage(_blend(p.beta, dn2, u_dm.planes))
    return anscombe_inverse(u_hat) if spec.vst else u_hat


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
    cache = StageCache()  # DM(v) is shared by every k
    for k in k_list:
        spec = PipelineSpec(PipelineParams(0.0, 1.0, 0.0, k * sigma), dm=dm, dn2=dn)
        rows.append((float(k), cpsnr(run_pipeline(v, spec, cache=cache), ground_truth)))
    return rows


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
