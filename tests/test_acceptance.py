"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria marked Imax-conditional run only when DMDN_IMAX_DIR points at the
dataset directory; they are skipped otherwise.

Criterion 8's "sigma2 >= sigma" clause is asserted as stated and is
expected to fail with the DCT8 stand-in components: the coarse grid oracle
itself places the optimum at sigma2 ~ 0.75*sigma (a partial first-stage
denoise absorbs about half the noise).  See the decisions ledger for the
full analysis; the criterion's other clauses pass.
"""

import json
import math
import time

import numpy as np
import pytest

from dmdn import formats
from dmdn.analysis import (
    cpsnr,
    noise_stats,
    residual,
    rmse_table,
)
from dmdn.cli import main as cli_main
from dmdn.demosaic import demosaic
from dmdn.image import ColorImage
from dmdn.mosaic import CfaImage, mosaick, recombine_cfa, split_cfa
from dmdn.noise import (
    NoiseSpec,
    add_awgn,
    anscombe,
    anscombe_inverse,
    derive_seed,
    poisson_sample,
)
from dmdn.optimize import (
    BoxBounds,
    CmaConfig,
    cmaes_maximize,
    pipeline_objective,
    tune_pipeline,
)
from dmdn.pipeline import (
    PipelineParams,
    PipelineSpec,
    generalize_by_image,
    generalize_by_sigma,
    preset,
    run_pipeline,
    sweep_k,
)

from conftest import detailed_crop, make_natural, rosenbrock, sphere


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


def load_imax(imax_dir):
    paths = sorted(
        p for p in imax_dir.iterdir() if p.suffix.lower() in (".ppm", ".pfm")
    )
    return [img for img in (formats.read_image(p) for p in paths) if isinstance(img, ColorImage)]


# ------------------------------------------------------------- criterion 1


def test_criterion_1_exactness_suite():
    t0 = time.perf_counter()
    failures = []

    const = ColorImage(np.stack([np.full((8, 8), v) for v in (15.0, 120.0, 240.0)]))
    for phase in ("RGGB", "GRBG", "GBRG", "BGGR"):
        cfa = mosaick(const, phase)
        for method in ("bilinear", "ha", "malvar"):
            if not np.array_equal(demosaic(cfa, method).planes, const.planes):
                failures.append(f"constant {method}/{phase}")

    rng = np.random.default_rng(0)
    cfa = CfaImage(rng.uniform(0, 255, size=(12, 12)))
    if not np.array_equal(recombine_cfa(split_cfa(cfa), cfa.phase).plane, cfa.plane):
        failures.append("split/recombine identity")

    if preset("dndm", 20.0) != PipelineParams(1.0, 0.0, 20.0, 0.0):
        failures.append("preset dndm")
    if preset("dmdn", 20.0) != PipelineParams(0.0, 1.0, 0.0, 20.0):
        failures.append("preset dmdn")
    if preset("dm15dn", 20.0) != PipelineParams(0.0, 1.0, 0.0, 30.0):
        failures.append("preset dm15dn")

    params = PipelineParams(0.4, 0.9, 8.0, 22.0)
    spec = PipelineSpec(params)
    noisy = add_awgn(cfa, NoiseSpec(5.0, 3))
    direct = run_pipeline(noisy, spec)
    routed = generalize_by_image(noisy, 20.0, 20.0, params, spec)
    if not np.array_equal(direct.planes, routed.planes):
        failures.append("generalize_by_image identity")
    if generalize_by_sigma(params, 20.0, 20.0) != params:
        failures.append("generalize_by_sigma identity")

    a = ColorImage(rng.uniform(0, 255, size=(3, 16, 16)))
    b = ColorImage(rng.uniform(0, 255, size=(3, 16, 16)))
    total = 0.0
    for c in range(3):
        for i in range(16):
            for j in range(16):
                d = a.planes[c, i, j] - b.planes[c, i, j]
                total += d * d
    oracle = 10.0 * math.log10(255.0**2 / (total / a.planes.size))
    if abs(cpsnr(a, b) - oracle) > 1e-9:
        failures.append("cpsnr oracle")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report(1, not failures, f"exactness suite in {elapsed:.2f}s" + (f"; failures: {failures}" if failures else ""))
    assert not failures


# ------------------------------------------------------------- criterion 2


def test_criterion_2_awgn_statistics():
    t0 = time.perf_counter()
    res = add_awgn(ColorImage(np.zeros((3, 512, 512))), NoiseSpec(20.0, seed=2024))
    stats_rgb = noise_stats(res, "rgb")
    stats_opp = noise_stats(res, "yc1c2")

    checks = []
    for stats in (stats_rgb, stats_opp):
        for c in range(3):
            checks.append(abs(stats.variance[c] - 400.0) <= 0.03 * 400.0)
            off = np.abs(stats.corr[c]).copy()
            off[0, 0] = 0.0
            checks.append(off.max() <= 0.01)
        cross = np.abs(stats.cross_corr - np.eye(3))
        checks.append(cross.max() <= 0.01)
    elapsed = time.perf_counter() - t0
    checks.append(elapsed <= 10.0)
    ok = all(checks)
    off_lags = np.abs(stats_rgb.corr).copy()
    off_lags[:, 0, 0] = 0.0
    report(
        2,
        ok,
        f"512x512 sigma=20: var={stats_rgb.variance.round(1).tolist()}, "
        f"max off-lag corr={off_lags.max():.4f}, "
        f"max cross corr={np.abs(stats_rgb.cross_corr - np.eye(3)).max():.4f} in {elapsed:.1f}s",
    )
    assert ok


# ------------------------------------------------------------- criterion 3


def test_criterion_3_demosaiced_noise_structure(smooth_images):
    sigma = 20.0
    var_y, var_c1, var_c2, lag_corr = [], [], [], []
    for index, truth in enumerate(smooth_images):
        noisy = add_awgn(mosaick(truth), NoiseSpec(sigma, derive_seed(1009, index)))
        res = residual(demosaic(noisy, "ha"), truth)
        opp = noise_stats(res, "yc1c2")
        rgb = noise_stats(res, "rgb")
        var_y.append(opp.variance[0] / sigma**2)
        var_c1.append(opp.variance[1] / sigma**2)
        var_c2.append(opp.variance[2] / sigma**2)
        lag_corr.append(rgb.corr[0, 0, 1])
    mean_y = float(np.mean(var_y))
    mean_c1 = float(np.mean(var_c1))
    mean_c2 = float(np.mean(var_c2))
    mean_lag = float(np.mean(lag_corr))
    ok = (
        len(smooth_images) >= 5
        and all(img.height >= 256 and img.width >= 256 for img in smooth_images)
        and 1.3 <= mean_y <= 2.2
        and mean_c1 <= 0.8
        and mean_c2 <= 0.5
        and mean_lag >= 0.25
    )
    report(
        3,
        ok,
        f"HA sigma=20: Var(Y)/s2={mean_y:.3f} (in [1.3,2.2]), C1={mean_c1:.3f}<=0.8, "
        f"C2={mean_c2:.3f}<=0.5, R lag(0,1) corr={mean_lag:.3f}>=0.25",
    )
    assert ok


def test_criterion_3_imax_column(imax_dir):
    if imax_dir is None:
        pytest.skip("Imax dataset not present (set DMDN_IMAX_DIR)")
    images = load_imax(imax_dir)
    # reference variances measured on Imax for HA at sigma=20
    reference = {"R": 359.6, "G": 359.3, "B": 377.4, "Y": 654.4, "C1": 274.6, "C2": 167.2}
    acc = {k: [] for k in reference}
    for index, truth in enumerate(images):
        noisy = add_awgn(mosaick(truth), NoiseSpec(20.0, derive_seed(77, index)))
        res = residual(demosaic(noisy, "ha"), truth)
        rgb = noise_stats(res, "rgb")
        opp = noise_stats(res, "yc1c2")
        for c, name in enumerate(("R", "G", "B")):
            acc[name].append(rgb.variance[c])
        for c, name in enumerate(("Y", "C1", "C2")):
            acc[name].append(opp.variance[c])
    ok = True
    details = []
    for name, expected in reference.items():
        got = float(np.mean(acc[name]))
        details.append(f"{name}={got:.1f} (reference {expected})")
        ok &= abs(got - expected) <= 0.15 * expected
    report(3, ok, "Imax demosaiced-noise variances: " + ", ".join(details))
    assert ok


# ------------------------------------------------------------- criterion 4


def test_criterion_4_rmse_trend(natural_images):
    rows = rmse_table(natural_images, "ha", [1.0, 3.0, 5.0, 10.0, 20.0, 40.0], seed=123)
    values = [v for _, v in rows]
    ratio40 = values[-1] / 40.0
    monotone = all(a <= b for a, b in zip(values, values[1:]))
    ok = values[0] >= 3.0 and 0.70 <= ratio40 <= 0.95 and monotone
    report(
        4,
        ok,
        f"HA rmse(1)={values[0]:.2f}>=3.0, rmse(40)/40={ratio40:.3f} in [0.70,0.95], "
        f"monotone={monotone}",
    )
    assert ok


def test_criterion_4_imax_value(imax_dir):
    if imax_dir is None:
        pytest.skip("Imax dataset not present (set DMDN_IMAX_DIR)")
    images = load_imax(imax_dir)
    rows = rmse_table(images, "ha", [20.0], seed=123)
    got = rows[0][1]
    ok = abs(got - 17.75) <= 1.0
    report(4, ok, f"Imax HA sigma=20 rmse={got:.2f} (reference 17.75 +/- 1.0)")
    assert ok


# ------------------------------------------------------------- criterion 5


def test_criterion_5_k_sweep(natural_images):
    t0 = time.perf_counter()
    sigma = 20.0
    k_values = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    sums = np.zeros(len(k_values))
    for index, truth in enumerate(natural_images):
        noisy = add_awgn(mosaick(truth), NoiseSpec(sigma, derive_seed(5, index)))
        rows = sweep_k(noisy, truth, "ha", "dct8", sigma, k_values)
        sums += np.array([value for _, value in rows])
    means = sums / len(natural_images)
    best_k = k_values[int(np.argmax(means))]
    gain = means[k_values.index(1.5)] - means[k_values.index(1.0)]
    elapsed = time.perf_counter() - t0
    ok = best_k >= 1.2 and gain >= 0.15 and elapsed <= 300.0
    report(
        5,
        ok,
        f"k-sweep: argmax k={best_k} (>=1.2), cpsnr(1.5)-cpsnr(1.0)={gain:.3f} dB (>=0.15) "
        f"in {elapsed:.0f}s (<=300s)",
    )
    assert ok


# ------------------------------------------------------------- criterion 6


def test_criterion_6_ordering(natural_images):
    sigma = 20.0
    means = {}
    for name in ("dndm", "dmdn", "dm15dn"):
        spec = PipelineSpec(preset(name, sigma))
        values = []
        for index, truth in enumerate(natural_images):
            noisy = add_awgn(mosaick(truth), NoiseSpec(sigma, derive_seed(77, index)))
            values.append(cpsnr(run_pipeline(noisy, spec), truth))
        means[name] = math.fsum(values) / len(values)
    margin_dndm = means["dm15dn"] - means["dndm"]
    margin_dmdn = means["dm15dn"] - means["dmdn"]
    ok = margin_dndm > 0.0 and margin_dmdn > 0.0
    report(
        6,
        ok,
        f"ordering at sigma=20: DM&1.5DN={means['dm15dn']:.2f} > DN&DM={means['dndm']:.2f} "
        f"(+{margin_dndm:.2f}) and > DM&DN={means['dmdn']:.2f} (+{margin_dmdn:.2f})",
    )
    assert ok


# ------------------------------------------------------------- criterion 7


def test_criterion_7_cmaes_sanity():
    t0 = time.perf_counter()

    bounds10 = BoxBounds(np.full(10, -5.0), np.full(10, 5.0))
    cfg10 = CmaConfig(max_evals=20_000, stagnation_tol=0.0, seed=1)
    res_sphere = cmaes_maximize(lambda x: -sphere(x), bounds10, cfg10)
    sphere_value = -res_sphere.best_value

    bounds6 = BoxBounds(np.full(6, -5.0), np.full(6, 5.0))
    cfg6 = CmaConfig(max_evals=60_000, stagnation_tol=0.0, seed=1)
    res_rosen = cmaes_maximize(lambda x: -rosenbrock(x), bounds6, cfg6)
    rosen_value = -res_rosen.best_value

    def record_candidates(transform, seed):
        seen = []

        def objective(x):
            seen.append(tuple(x))
            return transform(-sphere(x))

        cfg = CmaConfig(max_evals=400, stagnation_tol=0.0, seed=seed)
        cmaes_maximize(objective, BoxBounds(np.full(4, -5.0), np.full(4, 5.0)), cfg)
        return seen

    invariant = record_candidates(lambda v: v, 9) == record_candidates(math.exp, 9)

    cfg_det = CmaConfig(max_evals=600, seed=4)
    b3 = BoxBounds(np.full(3, -5.0), np.full(3, 5.0))
    r1 = cmaes_maximize(lambda x: -sphere(x), b3, cfg_det)
    r2 = cmaes_maximize(lambda x: -sphere(x), b3, cfg_det)
    deterministic = (
        np.array_equal(r1.best_params, r2.best_params) and r1.trace == r2.trace
    )

    elapsed = time.perf_counter() - t0
    ok = (
        sphere_value < 1e-10
        and rosen_value < 1e-6
        and invariant
        and deterministic
        and elapsed <= 60.0
    )
    report(
        7,
        ok,
        f"sphere(10D)={sphere_value:.2e}<1e-10 in {res_sphere.evaluations} evals, "
        f"rosenbrock(6D)={rosen_value:.2e}<1e-6 in {res_rosen.evaluations} evals, "
        f"rank-invariance={invariant}, deterministic={deterministic}, {elapsed:.0f}s<=60s",
    )
    assert ok


# ------------------------------------------------------------- criterion 8


def test_criterion_8_pipeline_tuning():
    t0 = time.perf_counter()
    sigma = 20.0
    crops = [
        ColorImage(make_natural(seed).planes[:, 64:192, 64:192]) for seed in (0, 1, 2)
    ]
    spec = PipelineSpec(PipelineParams(0.0, 0.0, 0.0, 0.0))

    cfg = CmaConfig(max_evals=3000, seed=11)
    result = tune_pipeline(crops, sigma, spec, cfg)
    alpha, beta, sigma1, sigma2 = (float(v) for v in result.best_params)

    objective = pipeline_objective(crops, sigma, spec, noise_seed=cfg.seed)
    preset_scores = {
        name: objective(np.array([p.alpha, p.beta, p.sigma1, p.sigma2]))
        for name, p in ((n, preset(n, sigma)) for n in ("dndm", "dmdn", "dm15dn"))
    }
    best_preset = max(preset_scores.values())

    grid_best = -math.inf
    grid_point = None
    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
        for b in (0.0, 0.25, 0.5, 0.75, 1.0):
            for s1 in range(0, 45, 5):
                for s2 in range(0, 45, 5):
                    value = objective(np.array([a, b, float(s1), float(s2)]))
                    if value > grid_best:
                        grid_best, grid_point = value, (a, b, s1, s2)

    elapsed = time.perf_counter() - t0
    evals_ok = result.evaluations <= 3000
    beta_ok = beta >= 0.8
    preset_ok = result.best_value >= best_preset - 0.05
    grid_ok = result.best_value >= grid_best - 0.1
    runtime_ok = elapsed <= 1800.0
    sigma2_ok = sigma2 >= sigma

    report(
        8,
        evals_ok and beta_ok and preset_ok and grid_ok and runtime_ok and sigma2_ok,
        f"tuned (a={alpha:.2f}, b={beta:.2f}, s1={sigma1:.1f}, s2={sigma2:.1f}) "
        f"cpsnr={result.best_value:.3f} with {result.evaluations} evals in {elapsed:.0f}s; "
        f"best preset={best_preset:.3f}, grid best={grid_best:.3f} at {grid_point}; "
        f"beta>=0.8 {beta_ok}, tuned>=preset-0.05 {preset_ok}, tuned>=grid-0.1 {grid_ok}, "
        f"sigma2>=sigma {sigma2_ok}" + ("" if sigma2_ok else " (expected red; see ledger)"),
    )
    assert evals_ok, "evaluation budget exceeded"
    assert runtime_ok, f"runtime {elapsed:.0f}s exceeds 30 min"
    assert preset_ok, f"tuned {result.best_value:.3f} below best preset {best_preset:.3f} - 0.05"
    assert grid_ok, f"tuned {result.best_value:.3f} below grid {grid_best:.3f} - 0.1"
    assert beta_ok, f"beta {beta:.3f} < 0.8"
    # Honest red with the DCT8 stand-in: the grid oracle itself prefers
    # sigma2 ~ 0.75*sigma once alpha > 0 (see decisions ledger).
    assert sigma2_ok, f"returned sigma2 {sigma2:.2f} < sigma {sigma}"


# ------------------------------------------------------------- criterion 9


def test_criterion_9_vst():
    from dmdn.image import GrayImage

    stds = {}
    for lam in (5.0, 10.0, 30.0, 100.0):
        field = GrayImage(np.full((400, 250), lam))  # 1e5 samples
        samples = poisson_sample(field, seed=int(lam))
        stds[lam] = float(anscombe(samples).plane.std())
    std_ok = all(0.9 <= s <= 1.1 for s in stds.values())

    x = GrayImage(np.arange(0.0, 200.0, 0.125).reshape(40, 40))
    rt = anscombe_inverse(anscombe(x))
    max_err = float(np.abs(rt.plane - (x.plane + 0.25)).max())
    round_trip_ok = max_err <= 1e-13  # exact up to IEEE rounding of sqrt/square

    ok = std_ok and round_trip_ok
    report(
        9,
        ok,
        f"post-Anscombe std: {dict((k, round(v, 4)) for k, v in stds.items())} in [0.9,1.1]; "
        f"round trip = x + 1/4 with max |err|={max_err:.1e} (<=1e-13)",
    )
    assert ok


# ------------------------------------------------------------ criterion 10


def test_criterion_10_manifest_reproducibility(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    for i in range(2):
        formats.write_image(data / f"img{i}.ppm", make_natural(300 + i, size=64))
    out_dir = tmp_path / "run"
    argv = [
        "eval", "--dataset", str(data), "--sigmas", "5,20",
        "--seed", "17", "--out", str(out_dir),
    ]
    assert cli_main(argv) == 0
    manifest_path = out_dir / "eval.manifest.json"
    before = json.loads(manifest_path.read_text())
    assert cli_main(["rerun", "--manifest", str(manifest_path)]) == 0
    after = json.loads(manifest_path.read_text())
    ok = (
        before["aggregate_metrics"] == after["aggregate_metrics"]
        and before["per_image_metrics"] == after["per_image_metrics"]
        and before["per_image_seeds"] == after["per_image_seeds"]
    )
    report(10, ok, "manifest rerun reproduces per-image and aggregate metrics bit-exactly")
    assert ok
