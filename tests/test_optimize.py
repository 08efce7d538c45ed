import concurrent.futures
import functools
import math
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmdn import optimize, pipeline
from dmdn.analysis import cpsnr
from dmdn.image import ColorImage, DomainError
from dmdn.noise import noisy_mosaics
from dmdn.optimize import (
    AllCandidatesInvalid,
    BoxBounds,
    CmaConfig,
    cmaes_maximize,
    ordered_map,
    pipeline_objective,
    tune_pipeline,
)
from dmdn.pipeline import PRESET_NAMES, PipelineParams, PipelineSpec, preset, run_pipeline

from conftest import make_natural, rosenbrock, sphere


def box(n, lo=-5.0, hi=5.0):
    return BoxBounds(np.full(n, lo), np.full(n, hi))


def test_bounds_validation():
    with pytest.raises(DomainError):
        BoxBounds(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        BoxBounds(np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(DomainError, match="non-empty"):
        BoxBounds(np.array([]), np.array([]))


def test_config_rejects_budget_below_one_generation():
    with pytest.raises(DomainError):
        CmaConfig(max_evals=7).resolved_population(4)  # population 8
    with pytest.raises(DomainError):
        CmaConfig(population=6, max_evals=0).resolved_population(2)
    with pytest.raises(DomainError, match="population must be >= 2"):
        CmaConfig(population=1).resolved_population(2)
    assert CmaConfig(max_evals=8).resolved_population(4) == 8
    spec = PipelineSpec(PipelineParams(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(DomainError, match="below the population 8"):  # checked before the dataset
        tune_pipeline([], 20.0, spec, CmaConfig(max_evals=7))


def test_default_population_rule():
    assert CmaConfig().resolved_population(10) == 4 + int(3 * math.log(10))
    assert CmaConfig().resolved_population(4) == 8


def test_determinism_per_seed():
    cfg = CmaConfig(max_evals=600, seed=21)
    a = cmaes_maximize(lambda x: -sphere(x), box(3), cfg)
    b = cmaes_maximize(lambda x: -sphere(x), box(3), cfg)
    assert np.array_equal(a.best_params, b.best_params)
    assert a.best_value == b.best_value
    assert a.trace == b.trace and a.termination == b.termination


def test_jobs_score_on_worker_processes_with_identical_result(monkeypatch):
    monkeypatch.setattr(optimize, "usable_cpus", lambda: 2)  # two workers even on a one-CPU host
    cfg = CmaConfig(max_evals=600, seed=21)
    # A lambda objective works: forked workers inherit it, nothing pickles it.
    one, two = (dict(vars(cmaes_maximize(lambda x: -sphere(x), box(3), cfg, jobs))) for jobs in (1, 2))
    assert multiprocessing.active_children() == []
    assert (one.pop("workers"), two.pop("workers")) == (1, 2)
    assert np.array_equal(one.pop("best_params"), two.pop("best_params"))
    assert one == two


def test_worker_error_reaches_caller_and_no_worker_survives(monkeypatch):
    monkeypatch.setattr(optimize, "usable_cpus", lambda: 2)

    def objective(x):
        if x[0] > 0:
            raise DomainError("candidate outside the objective's domain")
        return -sphere(x)

    with pytest.raises(DomainError, match="outside the objective's domain"):
        cmaes_maximize(objective, box(2), CmaConfig(max_evals=100, seed=1), jobs=2)
    assert multiprocessing.active_children() == []


class PoolStarted(Exception):
    pass


@pytest.mark.parametrize(
    "cpus, methods, workers",
    [(3, ["fork", "spawn"], 3), (16, ["fork", "spawn"], 8), (1, ["fork", "spawn"], None), (3, ["spawn"], None)],
)
def test_worker_count_is_capped_by_jobs_population_and_cpus(monkeypatch, cpus, methods, workers):
    started = []

    def recorder(max_workers, **kwargs):  # starts no process
        started.append(max_workers)
        raise PoolStarted

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recorder)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
    monkeypatch.setattr(optimize, "usable_cpus", lambda: cpus)
    cfg = CmaConfig(max_evals=16, seed=0)  # population 8 over four dimensions
    if workers is None:
        assert cmaes_maximize(lambda x: -sphere(x), box(4), cfg, jobs=10000).workers == 1
    else:
        with pytest.raises(PoolStarted):
            cmaes_maximize(lambda x: -sphere(x), box(4), cfg, jobs=10000)
    assert started == ([] if workers is None else [workers])


@pytest.mark.parametrize(
    "jobs, limit, cpus, methods, workers",
    [
        (10000, 8, 3, ["fork", "spawn"], 3),
        (10000, 4, 8, ["fork", "spawn"], 4),
        (2, 8, 16, ["fork", "spawn"], 2),
        (10000, 8, 1, ["fork", "spawn"], 1),
        (10000, 8, 3, ["spawn"], 1),
    ],
    ids=["cpu-cap", "limit-cap", "jobs-cap", "one-cpu", "no-fork"],
)
def test_ordered_map_worker_count_is_capped_by_jobs_limit_and_cpus(monkeypatch, jobs, limit, cpus, methods, workers):
    started = []

    def recorder(max_workers, **kwargs):  # starts no process
        started.append(max_workers)
        raise PoolStarted

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recorder)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
    monkeypatch.setattr(optimize, "usable_cpus", lambda: cpus)
    if workers == 1:  # in-process
        with ordered_map(str, jobs, limit) as (count, run):
            assert (count, run(range(3))) == (1, ["0", "1", "2"])
    else:
        with pytest.raises(PoolStarted), ordered_map(str, jobs, limit):
            pass
    assert started == ([] if workers == 1 else [workers])


def test_ordered_map_draws_items_only_as_results_are_taken(monkeypatch):
    monkeypatch.setattr(optimize, "usable_cpus", lambda: 2)
    taken = []
    result = concurrent.futures.Future.result
    monkeypatch.setattr(concurrent.futures.Future, "result", lambda self: taken.append(self) or result(self))
    ahead = []

    def items():
        for i in range(20):
            ahead.append(i + 1 - len(taken))  # items drawn, this one included, less the results taken
            yield i

    # A lambda works: forked workers inherit it, nothing pickles it.
    with ordered_map(lambda i: i * i, 2, 20) as (workers, run):
        assert run(items()) == [i * i for i in range(20)]
    assert multiprocessing.active_children() == []
    assert workers == 2
    assert max(ahead) == 4  # two per worker


def test_ordered_map_turns_a_dead_worker_into_an_oserror(monkeypatch):
    monkeypatch.setattr(optimize, "usable_cpus", lambda: 2)
    parent = os.getpid()

    def die(i):
        if os.getpid() != parent:  # only ever in a worker: in this process it would end the session
            os._exit(1)
        return i

    with pytest.raises(OSError, match="worker process ended abruptly"), ordered_map(die, 2, 4) as (workers, run):
        assert workers == 2
        run(range(4))
    assert multiprocessing.active_children() == []


def test_sphere_trajectory_matches_recorded_result():
    # Recorded reference: the generation loop must reproduce it bit for bit.
    cfg = CmaConfig(max_evals=600, seed=21)
    result = cmaes_maximize(lambda x: -sphere(x), box(3), cfg)
    assert result.best_value == -2.260687393631141e-09
    assert result.evaluations == 378
    assert result.generations == 54
    assert result.termination == "stagnation"


def test_monotone_transform_invariance_of_candidates():
    # Rank-only contract: exp() of the objective must not change the
    # sequence of evaluated candidates.
    def run(transform):
        seen = []

        def objective(x):
            seen.append(np.array(x))
            return transform(-sphere(x))

        cfg = CmaConfig(max_evals=400, stagnation_tol=0.0, seed=3)
        cmaes_maximize(objective, box(4), cfg)
        return seen

    plain = run(lambda v: v)
    warped = run(math.exp)
    assert len(plain) == len(warped)
    for a, b in zip(plain, warped):
        assert np.array_equal(a, b)


def test_best_trace_is_non_decreasing():
    cfg = CmaConfig(max_evals=800, seed=5)
    result = cmaes_maximize(lambda x: -sphere(x), box(5), cfg)
    bests = [b for b, _ in result.trace]
    assert all(x <= y for x, y in zip(bests, bests[1:]))
    assert result.best_value == max(bests)


def test_search_telemetry_per_generation():
    cfg = CmaConfig(max_evals=800, seed=5)
    result = cmaes_maximize(lambda x: -sphere(x), box(5), cfg)
    lam = cfg.resolved_population(5)
    assert len(result.search) == result.generations
    steps, conditions, evaluations = zip(*result.search)
    assert evaluations == tuple(lam * (g + 1) for g in range(result.generations))
    assert evaluations[-1] == result.evaluations
    assert steps[0] == optimize.INITIAL_STEP and conditions[0] == 1.0
    assert min(conditions) >= 1.0
    assert steps[-1] < steps[0]  # converging on the sphere shrinks the step


def test_optimum_at_box_edge():
    # 1-D quadratic with the optimum outside the box: clamped candidates
    # put the best parameter on the edge.  Grid oracle confirms the edge
    # is the in-box argmax.
    objective = lambda x: -((x[0] - 6.0) ** 2)
    grid = np.linspace(-5.0, 5.0, 10001)
    assert grid[np.argmax(-((grid - 6.0) ** 2))] == 5.0
    cfg = CmaConfig(population=6, max_evals=600, seed=7)
    result = cmaes_maximize(objective, box(1), cfg)
    assert abs(result.best_params[0] - 5.0) <= 1e-6


def test_nan_candidates_rank_worst():
    def objective(x):
        if x[0] > 0:
            return math.nan
        return -sphere(x)

    cfg = CmaConfig(max_evals=500, seed=11)
    result = cmaes_maximize(objective, box(2), cfg)
    assert result.best_params[0] <= 0.0
    assert math.isfinite(result.best_value)


def test_all_nan_generation_aborts():
    cfg = CmaConfig(max_evals=100, seed=1)
    with pytest.raises(AllCandidatesInvalid):
        cmaes_maximize(lambda x: math.nan, box(2), cfg)


def test_stagnation_termination_and_budget():
    cfg = CmaConfig(max_evals=10_000, seed=2)
    result = cmaes_maximize(lambda x: 1.0, box(2), cfg)
    assert result.termination == "stagnation"
    assert result.generations == 21  # window of 20 + 1
    capped = cmaes_maximize(
        lambda x: -sphere(x), box(2), CmaConfig(max_evals=50, seed=2, stagnation_tol=0.0)
    )
    assert capped.termination == "max_evals"
    assert capped.evaluations <= 50
    assert capped.generations >= 1


def test_rosenbrock_smoke():
    cfg = CmaConfig(max_evals=12_000, stagnation_tol=0.0, seed=13)
    result = cmaes_maximize(lambda x: -rosenbrock(x), box(4), cfg)
    assert -result.best_value < 1e-6


def test_tune_pipeline_degenerate_constant_dataset():
    dataset = [ColorImage(np.full((3, 24, 24), 77.0)) for _ in range(2)]
    spec = PipelineSpec(PipelineParams(0.0, 0.0, 0.0, 0.0))
    cfg = CmaConfig(max_evals=2000, seed=3)
    result = tune_pipeline(dataset, 0.0, spec, cfg)
    # every parameter choice reproduces the constant exactly: CPSNR is
    # infinite everywhere and the tuner stops by stagnation
    assert math.isinf(result.best_value)
    assert result.termination == "stagnation"


def test_tune_pipeline_rejects_empty_dataset():
    spec = PipelineSpec(PipelineParams(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        tune_pipeline([], 20.0, spec, CmaConfig(max_evals=100, seed=0))


def test_tune_pipeline_is_deterministic():
    rng = np.random.default_rng(8)
    dataset = [ColorImage(rng.uniform(20, 230, size=(3, 24, 24))) for _ in range(2)]
    spec = PipelineSpec(PipelineParams(0.0, 0.0, 0.0, 0.0))
    cfg = CmaConfig(max_evals=64, seed=6)
    a = tune_pipeline(dataset, 10.0, spec, cfg)
    b = tune_pipeline(dataset, 10.0, spec, cfg)
    assert np.array_equal(a.best_params, b.best_params)
    assert a.best_value == b.best_value and a.trace == b.trace


# ------------------------------------------------- the tune objective's memo

OBJECTIVE_SIGMA = 20.0
OBJECTIVE_SEED = 5
# pipeline_objective's stated bound on the gap to direct scoring.
MOMENT_GAP_DB = 1e-12


def oracle_points():
    """The benchmark tune oracle's 84 points in its order: 3 presets, then a 3x3x3x3 grid."""
    presets = (preset(name, OBJECTIVE_SIGMA) for name in PRESET_NAMES)
    points = [(p.alpha, p.beta, p.sigma1, p.sigma2) for p in presets]
    weights, sigmas = (0.0, 0.5, 1.0), (0.0, 20.0, 40.0)
    return points + [(a, b, s1, s2) for a in weights for b in weights for s1 in sigmas for s2 in sigmas]


def small_dataset(count=2, size=32):
    return [ColorImage(make_natural(seed, size=64).planes[:, 16 : 16 + size, 16 : 16 + size]) for seed in range(count)]


def objective_for(dn2="dct8", count=2):
    images = small_dataset(count)
    spec = PipelineSpec(PipelineParams(0.0, 0.0, 0.0, 0.0), dn2=dn2)
    return pipeline_objective(images, OBJECTIVE_SIGMA, spec, noise_seed=OBJECTIVE_SEED), images, spec


def direct_score(images, spec, x):
    """The objective's value by definition: mean CPSNR of run_pipeline on the frozen mosaics."""
    run_spec = replace(spec, params=PipelineParams(*x))
    captures = noisy_mosaics(images, [OBJECTIVE_SIGMA], OBJECTIVE_SEED)
    values = [cpsnr(run_pipeline(v, run_spec), images[i]) for i, _, v in captures]
    return math.fsum(values) / len(values)


@functools.lru_cache(maxsize=None)
def shared_objective(dn2):
    """One objective per DN2 for the whole property test, so its memo sees hits and misses."""
    return objective_for(dn2)


weight = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
stage_sigma = st.one_of(st.just(0.0), st.floats(0.0, 60.0))


@settings(max_examples=60, derandomize=True)
@given(dn2=st.sampled_from(["dct8", "nlmeans", "identity"]), a=weight, b=weight, s1=stage_sigma, s2=stage_sigma)
@example(dn2="dct8", a=0.0, b=1.0, s1=0.0, s2=20.0)
@example(dn2="nlmeans", a=0.5, b=0.0, s1=0.0, s2=20.0)
@example(dn2="dct8", a=1.0, b=0.5, s1=10.0, s2=0.0)
@example(dn2="identity", a=0.5, b=1.0, s1=20.0, s2=30.0)
def test_moment_scoring_matches_direct_scoring(dn2, a, b, s1, s2):
    objective, images, spec = shared_objective(dn2)
    x = (a, b, s1, s2)
    value, direct = objective(np.array(x)), direct_score(images, spec, x)
    assert abs(value - direct) <= MOMENT_GAP_DB, (x, value, direct)
    if b == 0.0:  # no DN2 term: both score mean((U - T)^2) the same way
        assert value == direct


@pytest.mark.parametrize("dn2", ["dct8", "nlmeans", "identity"])
def test_moment_scoring_matches_direct_scoring_on_the_oracle_grid(dn2):
    objective, images, spec = objective_for(dn2, count=1)
    gaps = [abs(objective(np.array(x)) - direct_score(images, spec, x)) for x in oracle_points()]
    assert max(gaps) <= MOMENT_GAP_DB


def test_objective_value_does_not_depend_on_evaluation_order():
    rng = np.random.default_rng(3)
    points = oracle_points() + [tuple(rng.uniform([0, 0, 0, 0], [1, 1, 60, 60])) for _ in range(10)]
    orders = [points, points[::-1], [points[i] for i in rng.permutation(len(points))]]
    scored = []
    for order in orders:
        objective = objective_for()[0]  # a fresh memo for every order
        scored.append({x: objective(np.array(x)) for x in order})
    # Bit-identical: a memo hit scores exactly as the miss that filled it.
    assert scored[1] == scored[0] and scored[2] == scored[0]


def test_vst_objective_scores_directly():
    # Bright images, so that no noisy sample falls below the Anscombe domain.
    images = [ColorImage(100.0 + 0.5 * image.planes) for image in small_dataset()]
    spec = PipelineSpec(PipelineParams(0.0, 0.0, 0.0, 0.0), vst=True)
    objective = pipeline_objective(images, OBJECTIVE_SIGMA, spec, noise_seed=OBJECTIVE_SEED)
    for x in [(0.5, 0.7, 1.0, 2.0), (0.0, 1.0, 0.0, 1.5), (1.0, 0.0, 3.0, 0.0), (0.5, 0.7, 1.0, 2.0)]:
        assert objective(np.array(x)) == direct_score(images, spec, x)


def test_objective_scores_a_non_positive_moment_sum_as_infinite(monkeypatch):
    # A constant image and a DN2 that returns the truth exactly: D - U = T - U,
    # so the blend's MSE is m (1 - beta)^2 with m = mean((U - T)^2), and
    # rounding leaves the moment sum at 0 or just below it for beta near 1.
    truth = 77.0
    images = [ColorImage(np.full((3, 16, 16), truth))]
    monkeypatch.setattr(optimize, "denoise_rgb", lambda img, method, cfg: ColorImage(np.full_like(img.planes, truth)))
    spec = PipelineSpec(PipelineParams(0.0, 0.0, 0.0, 0.0))
    objective = pipeline_objective(images, OBJECTIVE_SIGMA, spec, noise_seed=1)
    (_, _, v), = noisy_mosaics(images, [OBJECTIVE_SIGMA], 1)
    u = run_pipeline(v, spec).planes
    m = float(np.mean((u - truth) * (u - truth)))
    betas = [1.0 - k * 2.0**-30 for k in range(40)]
    sums = [b * b * m + 2.0 * b * -m + m for b in betas]
    assert min(sums) < 0.0  # the case under test occurs
    for b, err in zip(betas, sums):
        value = objective(np.array([0.0, b, 0.0, 20.0]))
        assert value == math.inf if err <= 0.0 else math.isfinite(value)


def count_dn2_calls(monkeypatch):
    """Count the objective's DN2 calls that denoise (sigma > 0), through run_pipeline or not."""
    calls = []
    denoise_rgb = pipeline.denoise_rgb

    def counted(img, method, cfg):
        if cfg.sigma > 0.0:
            calls.append(cfg.sigma)
        return denoise_rgb(img, method, cfg)

    monkeypatch.setattr(pipeline, "denoise_rgb", counted)
    monkeypatch.setattr(optimize, "denoise_rgb", counted)
    return calls


def test_oracle_points_run_fifteen_dn2_per_image(monkeypatch):
    calls = count_dn2_calls(monkeypatch)
    objective = objective_for(count=3)[0]
    for x in oracle_points():
        objective(np.array(x))
    # 7 DM keys (alpha = 0, and alpha in {0.5, 1} x sigma1 in {0, 20, 40})
    # x sigma2 in {20, 40}, plus dm15dn's sigma2 = 30: 15 keys per image.
    assert len(calls) == 15 * 3


def test_criterion_8_grid_runs_dn2_once_per_memo_key(monkeypatch):
    calls = count_dn2_calls(monkeypatch)
    objective = objective_for(count=1)[0]
    weights, sigmas = (0.0, 0.25, 0.5, 0.75, 1.0), [float(s) for s in range(0, 45, 5)]
    keys = set()
    for a in weights:  # criterion 8's loop order: beta outside sigma1 and sigma2
        for b in weights:
            for s1 in sigmas:
                for s2 in sigmas:
                    objective(np.array([a, b, s1, s2]))
                    if b > 0.0 and s2 > 0.0:
                        keys.add(((0.0,) if a == 0.0 else (a, s1)) + (s2,))
    assert len(keys) == 296 and len(calls) == len(keys)
