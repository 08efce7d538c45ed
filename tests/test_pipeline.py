from dataclasses import fields

import numpy as np
import pytest

from dmdn.analysis import cpsnr
from dmdn.demosaic import demosaic
from dmdn.denoise import DenoiseConfig, denoise_cfa, denoise_rgb
from dmdn.image import ColorImage, DomainError
from dmdn.mosaic import CfaImage, mosaick
from dmdn.noise import NoiseSpec, add_awgn, anscombe, anscombe_inverse
from dmdn.optimize import PIPELINE_BOUNDS
from dmdn.pipeline import (
    PARAMETERS,
    PipelineParams,
    PipelineSpec,
    generalize_by_image,
    generalize_by_sigma,
    preset,
    run_pipeline,
    sweep_k,
)


def noisy_cfa(seed=0, sigma=20.0, size=32):
    rng = np.random.default_rng(seed)
    truth = ColorImage(rng.uniform(30, 220, size=(3, size, size)))
    return add_awgn(mosaick(truth), NoiseSpec(sigma, seed)), truth


# ------------------------------------------------------------------ presets


def test_preset_mappings():
    assert preset("dndm", 20.0) == PipelineParams(1.0, 0.0, 20.0, 0.0)
    assert preset("dmdn", 20.0) == PipelineParams(0.0, 1.0, 0.0, 20.0)
    assert preset("dm15dn", 20.0) == PipelineParams(0.0, 1.0, 0.0, 30.0)


def test_preset_sigma_zero_disables_denoising():
    for name in ("dndm", "dmdn", "dm15dn"):
        params = preset(name, 0.0)
        assert params.sigma1 == 0.0 and params.sigma2 == 0.0


def test_preset_unknown_name():
    with pytest.raises(DomainError):
        preset("dn2dm", 5.0)


def test_params_validation():
    with pytest.raises(DomainError):
        PipelineParams(-0.1, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        PipelineParams(0.0, 1.1, 0.0, 0.0)
    with pytest.raises(DomainError):
        PipelineParams(0.0, 0.0, 300.0, 0.0)


def test_parameter_table_is_the_params_fields_and_the_tuner_box():
    assert tuple(PARAMETERS) == tuple(f.name for f in fields(PipelineParams))
    assert list(zip(PIPELINE_BOUNDS.lower, PIPELINE_BOUNDS.upper)) == list(PARAMETERS.values())


@pytest.mark.parametrize("name", list(PARAMETERS))
def test_params_accept_each_bound_and_reject_its_outer_neighbour(name):
    lo, hi = PARAMETERS[name]
    inside = {key: float(bounds[0]) for key, bounds in PARAMETERS.items()}
    for bound, outward in ((lo, -np.inf), (hi, np.inf)):
        assert getattr(PipelineParams(**{**inside, name: float(bound)}), name) == bound
        outside = float(np.nextafter(bound, outward))
        with pytest.raises(DomainError, match=rf"^{name} must be in \[{lo:g}, {hi:g}\], got {outside}$"):
            PipelineParams(**{**inside, name: outside})
    with pytest.raises(DomainError, match=rf"^{name} must be in .*, got nan$"):
        PipelineParams(**{**inside, name: np.nan})


# ------------------------------------------------------------- compositing


def test_zero_weights_reduce_to_plain_demosaicing():
    v, _ = noisy_cfa(1)
    spec = PipelineSpec(PipelineParams(0.0, 0.0, 13.0, 17.0))
    out = run_pipeline(v, spec)
    assert np.array_equal(out.planes, demosaic(v, spec.dm).planes)


def test_dn_dm_preset_equals_hand_assembly():
    v, _ = noisy_cfa(2)
    spec = PipelineSpec(preset("dndm", 20.0))
    out = run_pipeline(v, spec)
    expected = demosaic(denoise_cfa(v, spec.dn1, DenoiseConfig(sigma=20.0)), spec.dm)
    assert np.array_equal(out.planes, expected.planes)


def test_dm_dn_preset_equals_hand_assembly():
    v, _ = noisy_cfa(3)
    spec = PipelineSpec(preset("dm15dn", 20.0))
    out = run_pipeline(v, spec)
    expected = denoise_rgb(demosaic(v, spec.dm), spec.dn2, DenoiseConfig(sigma=30.0))
    assert np.array_equal(out.planes, expected.planes)


def test_blend_is_affine_in_beta():
    v, _ = noisy_cfa(4)

    def at(beta):
        return run_pipeline(v, PipelineSpec(PipelineParams(0.0, beta, 0.0, 20.0)))

    lo, mid, hi = at(0.0), at(0.5), at(1.0)
    assert np.abs(mid.planes - 0.5 * (lo.planes + hi.planes)).max() <= 1e-12
    quarter = at(0.25)
    assert np.abs(quarter.planes - (0.75 * lo.planes + 0.25 * hi.planes)).max() <= 1e-12


def test_blend_is_affine_in_alpha():
    v, _ = noisy_cfa(5)
    denoised = denoise_cfa(v, "dct8", DenoiseConfig(sigma=20.0))

    def at(alpha):
        return run_pipeline(v, PipelineSpec(PipelineParams(alpha, 0.0, 20.0, 0.0)))

    for alpha in (0.25, 0.5, 0.75):
        blend = CfaImage(alpha * denoised.plane + (1 - alpha) * v.plane, v.phase)
        expected = demosaic(blend, "ha")
        assert np.array_equal(at(alpha).planes, expected.planes)


def test_timings_report_stages():
    v, _ = noisy_cfa(6)
    timings = {}
    run_pipeline(v, PipelineSpec(PipelineParams(0.5, 0.5, 10.0, 10.0)), timings=timings)
    assert set(timings) == {"dn1", "dm", "dn2"}
    assert all(t >= 0.0 for t in timings.values())


# --------------------------------------------------------------------- vst


def test_vst_with_identity_components_offsets_sampled_sites_by_quarter():
    v, _ = noisy_cfa(7, sigma=2.0)
    spec = PipelineSpec(
        PipelineParams(0.0, 0.0, 0.0, 0.0), dn1="identity", dn2="identity", vst=True
    )
    out = run_pipeline(v, spec)
    sampled = mosaick(out, v.phase)
    assert np.abs(sampled.plane - (v.plane + 0.25)).max() <= 1e-12


def test_vst_constant_image_round_trip():
    cfa = CfaImage(np.full((8, 8), 50.0))
    spec = PipelineSpec(PipelineParams(0.0, 0.0, 0.0, 0.0), vst=True)
    out = run_pipeline(cfa, spec)
    assert np.abs(out.planes - 50.25).max() <= 1e-12


def test_vst_matches_manual_transform_chain():
    v, _ = noisy_cfa(8, sigma=2.0)
    params = PipelineParams(0.0, 1.0, 0.0, 2.0)  # sigma on the transformed scale
    out = run_pipeline(v, PipelineSpec(params, vst=True))
    manual = anscombe_inverse(
        denoise_rgb(demosaic(anscombe(v), "ha"), "dct8", DenoiseConfig(sigma=2.0))
    )
    assert np.array_equal(out.planes, manual.planes)


# ----------------------------------------------------------------- sweep_k


def test_sweep_k_zero_equals_plain_demosaicing():
    v, truth = noisy_cfa(9)
    rows = sweep_k(v, truth, "ha", "dct8", 20.0, [0.0])
    assert rows[0][1] == pytest.approx(cpsnr(demosaic(v, "ha"), truth), abs=1e-12)


def test_sweep_k_keeps_duplicates_and_validates():
    v, truth = noisy_cfa(10)
    rows = sweep_k(v, truth, "ha", "dct8", 20.0, [1.0, 1.0])
    assert len(rows) == 2 and rows[0] == rows[1]
    with pytest.raises(DomainError):
        sweep_k(v, truth, "ha", "dct8", 20.0, [])
    with pytest.raises(DomainError):
        sweep_k(v, truth, "ha", "dct8", 20.0, [-0.5])


# ---------------------------------------------------------- generalization


def test_generalize_by_sigma_identity_and_arithmetic():
    params = PipelineParams(0.72, 1.0, 30.55, 49.75)
    assert generalize_by_sigma(params, 50.0, 50.0) == params
    scaled = generalize_by_sigma(params, 50.0, 46.0)
    assert scaled.alpha == params.alpha and scaled.beta == params.beta
    assert scaled.sigma1 == pytest.approx(28.106, abs=0.01)
    assert scaled.sigma2 == pytest.approx(45.77, abs=0.01)


def test_generalize_by_sigma_clamps():
    params = PipelineParams(0.5, 0.5, 200.0, 200.0)
    scaled = generalize_by_sigma(params, 10.0, 20.0)
    assert scaled.sigma1 == 255.0 and scaled.sigma2 == 255.0
    with pytest.raises(DomainError):
        generalize_by_sigma(params, 0.0, 20.0)
    for sigma_star in (-5.0, 0.0):  # rescaling to no noise would zero both sigmas
        with pytest.raises(DomainError, match="sigma_star and sigma_ref must be positive"):
            generalize_by_sigma(PipelineParams(0.5, 1.0, 10.0, 30.0), 20.0, sigma_star)


def test_generalize_by_image_identity_at_equal_sigma():
    v, _ = noisy_cfa(11)
    params = PipelineParams(0.3, 0.8, 5.0, 12.0)
    spec = PipelineSpec(params)
    direct = run_pipeline(v, spec)
    routed = generalize_by_image(v, 20.0, 20.0, params, spec)
    assert np.array_equal(direct.planes, routed.planes)


def test_generalize_by_image_restores_noiseless_constant():
    cfa = CfaImage(np.full((8, 8), 60.0))
    params = PipelineParams(0.0, 0.0, 0.0, 0.0)
    spec = PipelineSpec(params, dn1="identity", dn2="identity")
    out = generalize_by_image(cfa, 54.0, 50.0, params, spec)
    assert np.abs(out.planes - 60.0).max() <= 1e-12
    with pytest.raises(DomainError):
        generalize_by_image(cfa, 0.0, 50.0, params, spec)
