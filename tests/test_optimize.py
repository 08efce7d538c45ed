import concurrent.futures
import math
import multiprocessing

import numpy as np
import pytest

from dmdn import optimize
from dmdn.image import ColorImage, DomainError
from dmdn.optimize import (
    AllCandidatesInvalid,
    BoxBounds,
    CmaConfig,
    cmaes_maximize,
    ordered_map,
    tune_pipeline,
)
from dmdn.pipeline import PipelineParams, PipelineSpec

from conftest import rosenbrock, sphere


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
