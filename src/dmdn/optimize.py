"""Box-constrained CMA-ES maximizer and the pipeline tuning objective.

The strategy is the standard (mu/mu_w, lambda) CMA-ES with rank-one and
rank-mu covariance updates and cumulative step-size adaptation.  The search
runs in box-normalized coordinates ([0, 1] per dimension); candidates are
clamped into the box before evaluation and the clamped vectors feed the
update, which keeps the dynamics rank-only.  Everything is driven by the
package's own seeded generator, so runs are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import cpsnr
from .image import ColorImage, DomainError
from .noise import RngStream, noisy_mosaics
from .pipeline import PARAMETERS, PipelineParams, PipelineSpec, run_pipeline


@dataclass(frozen=True)
class BoxBounds:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        if lower.shape != upper.shape or lower.ndim != 1 or lower.size == 0:
            raise DomainError("bounds must be non-empty 1-d arrays of equal length")
        if not np.all(lower < upper):
            raise DomainError("every lower bound must be strictly below its upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dimension(self) -> int:
        return self.lower.size


# Start at the box centre with step size 0.3 (box-normalized units); stop once
# the best value gained less than the tolerance over the last 20 generations.
INITIAL_STEP = 0.3
STAGNATION_WINDOW = 20


@dataclass(frozen=True)
class CmaConfig:
    population: int | None = None  # default 4 + floor(3 ln n) for an n-dimensional box
    max_evals: int = 10_000
    stagnation_tol: float = 1e-4
    seed: int = 0

    def resolved_population(self, n: int) -> int:
        """The population of a search over n dimensions; the budget must cover one generation."""
        lam = 4 + int(3 * math.log(n)) if self.population is None else self.population
        if lam < 2:
            raise DomainError("population must be >= 2")
        if self.max_evals < lam:
            raise DomainError(f"max_evals {self.max_evals} is below the population {lam}")
        return lam


@dataclass
class TuneResult:
    best_params: np.ndarray
    best_value: float
    trace: list[tuple[float, float]]  # per generation: (best so far, generation mean)
    termination: str  # "max_evals" or "stagnation"
    evaluations: int = 0
    generations: int = field(init=False)

    def __post_init__(self):
        self.generations = len(self.trace)


class AllCandidatesInvalid(RuntimeError):
    """Every candidate of a generation scored NaN."""


def _recombination_weights(lam: int, mu: int) -> tuple[np.ndarray, float]:
    raw = np.log(lam / 2 + 0.5) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mueff = 1.0 / np.sum(weights**2)
    return weights, float(mueff)


def cmaes_maximize(objective, bounds: BoxBounds, cfg: CmaConfig) -> TuneResult:
    """Maximize a black-box objective over a box.

    The update consumes candidate scores only through their ranking, so any
    strictly increasing transform of the objective leaves the visited
    candidate sequence unchanged for a fixed seed.  NaN scores rank worst;
    a generation of only NaNs raises AllCandidatesInvalid.
    """
    n = bounds.dimension
    lam = cfg.resolved_population(n)
    mu = lam // 2
    weights, mueff = _recombination_weights(lam, mu)

    cc = (4 + mueff / n) / (n + 4 + 2 * mueff / n)
    cs = (mueff + 2) / (n + mueff + 5)
    c1 = 2 / ((n + 1.3) ** 2 + mueff)
    cmu = min(1 - c1, 2 * (mueff - 2 + 1 / mueff) / ((n + 2) ** 2 + mueff))
    damps = 1 + 2 * max(0.0, math.sqrt((mueff - 1) / (n + 1)) - 1) + cs
    chi_n = math.sqrt(n) * (1 - 1 / (4 * n) + 1 / (21 * n * n))

    span = bounds.upper - bounds.lower
    mean = np.full(n, 0.5)
    sigma = INITIAL_STEP
    cov = np.eye(n)
    p_c = np.zeros(n)
    p_s = np.zeros(n)
    stream = RngStream(cfg.seed)

    best_value = -math.inf
    best_params = bounds.lower + mean * span
    trace: list[tuple[float, float]] = []
    evaluations = 0
    termination = "max_evals"

    # Stop before any generation that would exceed the evaluation budget.
    while evaluations + lam <= cfg.max_evals:
        eigvals, eigvecs = np.linalg.eigh(cov)
        scales = np.sqrt(np.maximum(eigvals, 1e-30))

        z = stream.normals(lam * n).reshape(lam, n)
        steps = (z * scales) @ eigvecs.T
        candidates = np.clip(mean + sigma * steps, 0.0, 1.0)

        scores = np.empty(lam)
        for k in range(lam):
            scores[k] = objective(bounds.lower + candidates[k] * span)
        evaluations += lam

        nan_mask = np.isnan(scores)
        if nan_mask.all():
            raise AllCandidatesInvalid("all candidates in a generation scored NaN")
        loss = np.where(nan_mask, math.inf, -scores)
        order = np.argsort(loss, kind="stable")

        gen_best = scores[order[0]]
        if gen_best > best_value:
            best_value = float(gen_best)
            best_params = bounds.lower + candidates[order[0]] * span
        finite = scores[~nan_mask & np.isfinite(scores)]
        gen_mean = float(np.mean(finite)) if finite.size else float(gen_best)
        trace.append((best_value, gen_mean))

        selected = candidates[order[:mu]]
        old_mean = mean
        mean = weights @ selected
        shift = (mean - old_mean) / sigma

        inv_sqrt = eigvecs @ np.diag(1.0 / scales) @ eigvecs.T
        p_s = (1 - cs) * p_s + math.sqrt(cs * (2 - cs) * mueff) * (inv_sqrt @ shift)
        gens_done = len(trace)
        h_sig = float(
            np.dot(p_s, p_s) / n / (1 - (1 - cs) ** (2 * gens_done)) < 2 + 4 / (n + 1)
        )
        p_c = (1 - cc) * p_c + h_sig * math.sqrt(cc * (2 - cc) * mueff) * shift

        deltas = (selected - old_mean) / sigma
        rank_mu = np.einsum("k,ki,kj->ij", weights, deltas, deltas)
        c1a = c1 * (1 - (1 - h_sig**2) * cc * (2 - cc))
        cov = (1 - c1a - cmu) * cov + c1 * np.outer(p_c, p_c) + cmu * rank_mu
        cov = (cov + cov.T) / 2

        sigma *= math.exp((cs / damps) * (np.linalg.norm(p_s) / chi_n - 1))

        if len(trace) > STAGNATION_WINDOW:
            improvement = trace[-1][0] - trace[-1 - STAGNATION_WINDOW][0]
            if math.isnan(improvement):  # inf plateau counts as no improvement
                improvement = 0.0
            if improvement < cfg.stagnation_tol:
                termination = "stagnation"
                break

    return TuneResult(
        best_params=best_params,
        best_value=best_value,
        trace=trace,
        termination=termination,
        evaluations=evaluations,
    )


PIPELINE_BOUNDS = BoxBounds(*zip(*PARAMETERS.values()))


def pipeline_objective(
    dataset: list[ColorImage],
    sigma: float,
    spec: PipelineSpec,
    noise_seed: int,
    phase: str = "RGGB",
):
    """Mean-CPSNR objective over frozen noisy mosaics of a dataset.

    The noisy mosaics are drawn once by `noisy_mosaics` (per-image seeds
    derived from noise_seed and the image index), so the objective is a
    deterministic function of the pipeline parameters.
    """
    frozen = [(v, dataset[i]) for i, _, v in noisy_mosaics(dataset, [sigma], noise_seed, phase)]

    def objective(x: np.ndarray) -> float:
        params = PipelineParams(*(float(v) for v in x))
        run_spec = replace(spec, params=params)
        values = [cpsnr(run_pipeline(v, run_spec), u) for v, u in frozen]
        return math.fsum(values) / len(values)

    return objective


def tune_pipeline(
    dataset: list[ColorImage],
    sigma: float,
    spec: PipelineSpec,
    cfg: CmaConfig,
    phase: str = "RGGB",
) -> TuneResult:
    """CMA-ES search for the best pipeline PARAMETERS over PIPELINE_BOUNDS."""
    cfg.resolved_population(PIPELINE_BOUNDS.dimension)  # reject the budget before drawing any noise
    objective = pipeline_objective(dataset, sigma, spec, noise_seed=cfg.seed, phase=phase)
    return cmaes_maximize(objective, PIPELINE_BOUNDS, cfg)
