import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdn import pipeline
from dmdn.analysis import amplification_factor, cpsnr, noise_stats
from dmdn.demosaic import demosaic
from dmdn.denoise import DenoiseConfig, DenoiserId, denoise_cfa, denoise_rgb
from dmdn.image import ColorImage, DomainError
from dmdn.mosaic import CfaImage, mosaick
from dmdn.noise import NoiseSpec, add_awgn, anscombe, anscombe_inverse
from dmdn.optimize import PIPELINE_BOUNDS
from dmdn.pipeline import (
    PARAMETERS,
    PipelineParams,
    PipelineSpec,
    demosaic_stage,
    denoise_stage,
    generalize_by_image,
    generalize_by_sigma,
    preset,
    run_pipeline,
    sweep_k,
)
from dmdn.stages import STAGE_SECONDS

from conftest import dm_key, reference_pipeline


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
    STAGE_SECONDS.clear()
    run_pipeline(v, PipelineSpec(PipelineParams(0.5, 0.5, 10.0, 10.0)))
    assert list(STAGE_SECONDS) == ["dn1", "dm", "dn2"]
    assert all(t >= 0.0 for t in STAGE_SECONDS.values())


# ------------------------------------------------------------- the two stages


# The functions the two stages call, by the stage they belong to.
STAGE_FUNCTIONS = {"vst": "anscombe", "dn1": "denoise_cfa", "dm": "demosaic", "dn2": "denoise_rgb"}

# Few values per parameter, so two draws often share a DM key.
_params = st.builds(
    PipelineParams,
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    beta=st.sampled_from([0.0, 0.5, 1.0]),
    sigma1=st.sampled_from([0.0, 10.0, 20.0]),
    sigma2=st.sampled_from([0.0, 10.0, 30.0]),
)
_denoisers = st.sampled_from([DenoiserId.DCT8, DenoiserId.IDENTITY])


@settings(max_examples=60)
@given(_params, _denoisers, _denoisers, st.booleans())
def test_run_pipeline_matches_the_reference(params, dn1, dn2, vst):
    v, _ = noisy_cfa(12, sigma=5.0, size=16)  # stays above -3/8, so vst applies
    spec = PipelineSpec(params, dn1=dn1, dn2=dn2, vst=vst)
    assert np.array_equal(run_pipeline(v, spec).planes, reference_pipeline(v, spec).planes)


@settings(max_examples=60)
@given(_params, _params, st.booleans(), _denoisers, _denoisers, st.booleans())
def test_one_demosaic_stage_serves_every_spec_with_its_dm_key(first, second, share, dn1, dn2, vst):
    if share:  # at alpha = 0 sigma1 may still differ
        second = replace(second, alpha=first.alpha, sigma1=first.sigma1 if first.alpha != 0.0 else second.sigma1)
    assert (pipeline.dm_key(first) == pipeline.dm_key(second)) == (dm_key(first) == dm_key(second))
    v, _ = noisy_cfa(12, sigma=5.0, size=16)
    s1, s2 = (PipelineSpec(p, dn1=dn1, dn2=dn2, vst=vst) for p in (first, second))
    u_dm = demosaic_stage(v, s1)
    computed = []
    STAGE_SECONDS.clear()

    def watch(stage_name, fn):
        return lambda *args, **kwargs: computed.append(stage_name) or fn(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        for name, func in STAGE_FUNCTIONS.items():
            mp.setattr(pipeline, func, watch(name, getattr(pipeline, func)))
        out = denoise_stage(u_dm, s2)
    # The second half runs DN2 when beta > 0, and times only that.
    ran = ["dn2"] if second.beta != 0.0 else []
    assert computed == ran and sorted(STAGE_SECONDS) == ran
    if dm_key(first) == dm_key(second):
        assert np.array_equal(out.planes, run_pipeline(v, s2).planes)


_specs = st.builds(
    PipelineSpec, _params, dn1=_denoisers, dm=st.sampled_from(["ha", "bilinear"]), dn2=_denoisers, vst=st.booleans()
)


# How a spec takes one of its predecessor's DM-sharing fields.
_TAKE = {
    "dn1": lambda spec, prev: replace(spec, dn1=prev.dn1),
    "dm": lambda spec, prev: replace(spec, dm=prev.dm),
    "vst": lambda spec, prev: replace(spec, vst=prev.vst),
    # at alpha = 0 sigma1 may still differ
    "dm_key": lambda spec, prev: replace(spec, params=replace(
        spec.params, alpha=prev.params.alpha,
        sigma1=prev.params.sigma1 if prev.params.alpha != 0.0 else spec.params.sigma1)),
}


@st.composite
def _spec_runs(draw):
    """1-4 specs; each takes all, all but one or none of its predecessor's DM-sharing fields."""
    specs = [draw(_specs)]
    for spec in draw(st.lists(_specs, max_size=3)):
        own = draw(st.sampled_from(["all", "none", *_TAKE]))  # the fields it keeps as drawn
        for name, take in _TAKE.items():
            if own not in ("all", name):
                spec = take(spec, specs[-1])
        specs.append(spec)
    return specs


@settings(max_examples=60)
@given(_spec_runs())
def test_score_specs_demosaics_once_per_run_of_shared_dm(specs):
    v, truth = noisy_cfa(12, sigma=5.0, size=16)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "demosaic", lambda *a: calls.append(1) or demosaic(*a))
        scores = pipeline.score_specs(v, truth, specs)
    assert scores == [cpsnr(reference_pipeline(v, spec), truth) for spec in specs]
    keys = [(s.dn1, s.dm, s.vst, dm_key(s.params)) for s in specs]
    assert len(calls) == 1 + sum(a != b for a, b in zip(keys, keys[1:]))


def test_sweep_k_demosaics_once(monkeypatch):
    v, truth = noisy_cfa(15)
    calls = []
    monkeypatch.setattr(pipeline, "demosaic", lambda *a: calls.append(1) or demosaic(*a))
    rows = sweep_k(v, truth, "ha", "dct8", 20.0, [0.0, 1.0, 1.5, 1.0])
    assert len(calls) == 1 and rows[1] == rows[3]


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
    with pytest.raises(DomainError, match="sigma must be in"):  # even where k = 0 leaves sigma2 in range
        sweep_k(v, truth, "ha", "dct8", 300.0, [0.0])


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_sigma_arguments_must_be_positive_and_finite(bad):
    params = PipelineParams(0.5, 1.0, 10.0, 30.0)
    v, truth = noisy_cfa(3)
    for name, call in (
        ("sigma_ref", lambda: generalize_by_sigma(params, bad, 20.0)),
        ("sigma_star", lambda: generalize_by_sigma(params, 20.0, bad)),
        ("sigma_star", lambda: generalize_by_image(v, bad, 20.0, params, PipelineSpec(params))),
        ("sigma_ref", lambda: generalize_by_image(v, 20.0, bad, params, PipelineSpec(params))),
        ("sigma", lambda: amplification_factor(noise_stats(truth, "yc1c2"), bad)),
    ):
        got = f"got {name}={bad}" if name != "sigma" else f"sigma must be positive and finite, got {bad}"
        with pytest.raises(DomainError, match=re.escape(got)):
            call()


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
