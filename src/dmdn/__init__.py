"""Demosaic/denoise pipeline toolkit.

Simulates noisy Bayer captures, applies sigma-parameterized denoisers before
or after demosaicing through a blended two-stage pipeline, tunes the blend
with CMA-ES, and measures the spatial/chromatic structure of demosaiced
noise.
"""

from .analysis import (
    NoiseStats,
    amplification_factor,
    cpsnr,
    mse,
    noise_stats,
    residual,
    rmse,
    rmse_table,
)
from .demosaic import DemosaicerId, demosaic
from .denoise import DenoiseConfig, DenoiserId, denoise_cfa, denoise_rgb
from .formats import ImageFormatError, read_image, write_image
from .image import ColorImage, DomainError, GrayImage, opponent_planes, rgb_planes
from .mosaic import CfaImage, mosaick, recombine_cfa, split_cfa
from .noise import (
    NoiseSpec,
    RngStream,
    add_awgn,
    anscombe,
    anscombe_inverse,
    derive_seed,
    poisson_sample,
)
from .optimize import (
    BoxBounds,
    CmaConfig,
    TuneResult,
    cmaes_maximize,
    tune_pipeline,
)
from .pipeline import (
    PipelineParams,
    PipelineSpec,
    generalize_by_image,
    generalize_by_sigma,
    preset,
    run_pipeline,
    sweep_k,
)

__version__ = "0.1.0"
