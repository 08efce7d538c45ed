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

from .analysis import cpsnr, cpsnr_from_mse
from .denoise import DenoiseConfig, denoise_rgb
from .image import ColorImage, DomainError
from .noise import RngStream, noisy_mosaics
from .pipeline import PARAMETERS, PipelineParams, PipelineSpec, denoise_stage, dm_key, held_demosaic
from .stages import ordered_map, stage


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
    workers: int = 1  # processes that scored the candidates; 1 means in-process
    # Per generation: (step size, condition number of C, evaluations so far),
    # the step size and covariance its candidates were drawn with.
    search: list[tuple[float, float, int]] = field(default_factory=list)
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


def cmaes_maximize(objective, bounds: BoxBounds, cfg: CmaConfig, jobs: int = 1) -> TuneResult:
    """Maximize a black-box objective over a box.

    The update consumes candidate scores only through their ranking, so any
    strictly increasing transform of the objective leaves the visited
    candidate sequence unchanged for a fixed seed.  NaN scores rank worst;
    a generation of only NaNs raises AllCandidatesInvalid.

    Each generation's candidates are scored as one ordered map on up to
    `jobs` worker processes, so the result is the same for every `jobs`
    apart from `workers`.  An objective's exception reaches the caller.
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
    search: list[tuple[float, float, int]] = []
    evaluations = 0
    termination = "max_evals"

    with ordered_map(objective, jobs, lam) as (workers, score):
        # Stop before any generation that would exceed the evaluation budget.
        while evaluations + lam <= cfg.max_evals:
            eigvals, eigvecs = np.linalg.eigh(cov)
            scales = np.sqrt(np.maximum(eigvals, 1e-30))

            z = stream.normals(lam * n).reshape(lam, n)
            steps = (z * scales) @ eigvecs.T
            candidates = np.clip(mean + sigma * steps, 0.0, 1.0)

            scores = np.array(score(list(bounds.lower + candidates * span)), dtype=np.float64)
            evaluations += lam
            search.append((sigma, float(scales.max() / scales.min()) ** 2, evaluations))

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
        workers=workers,
        search=search,
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

    Beta only mixes two arrays, and CPSNR does not clip, so the blend's
    MSE is exactly quadratic in beta.  With U the DM output, D = DN2(U) and
    T the truth, MSE(beta) = beta^2 m_DD + 2 beta m_DR + m_RR, where
    m_DD = mean((D-U)^2), m_DR = mean((D-U)(U-T)) and m_RR = mean((U-T)^2).
    Each mosaic keeps a memo of these three floats keyed by `dm_key`
    (alpha = 0 ignores sigma1, sigma1 = 0 with alpha > 0 keeps its own key)
    plus sigma2, where sigma2 = 0 or beta = 0 share one key that runs no
    DN2.  So one DN2 serves every beta: over the
    benchmark's 84-point oracle (3 presets and a 3x3x3x3 grid) DN2 runs 15
    times per image instead of 38.  Every point, hit or miss, is scored from
    its moments, so the value does not depend on the order of evaluation;
    a sum that rounding leaves at or below 0 scores +inf, as an MSE of 0
    does in `cpsnr`.  Each mosaic also has a `held_demosaic` slot, so memo
    misses in a row with one `dm_key` run DN1 and DM once.

    Against direct scoring, cpsnr(run_pipeline(v, spec), truth), the
    moments round differently, and the sum cancels: its error is a few
    ulps of beta^2 m_DD + 2 beta |m_DR| + m_RR, which can be many times
    MSE(beta).  On acceptance criterion 8's crops (2025 grid points and
    60 random ones) that ratio stays below 15 and the gap at most 7.1e-15 dB,
    two ulps of a 28 dB value.  The tests assert 1e-12 dB for DN2 dct8,
    nlmeans and identity.  At beta = 0 the two agree bit for bit.

    With spec.vst set, every point is scored directly from the held DM
    result: the Anscombe inverse is nonlinear, so MSE is not quadratic.

    Memory per mosaic: one held RGB image, dropped before the next is
    computed, and 24 B of moments per memo key, about 270 B with the dict,
    its tuples and floats.  A 3000-evaluation CMA-ES tune on three images,
    which misses on nearly every point, holds 2996 keys per image and
    2.3 MiB of memos in all.
    """
    captures = noisy_mosaics(dataset, [sigma], noise_seed, phase)
    frozen = [(v, dataset[i], {}, {}) for i, _, v in captures]  # mosaic, truth, held DM result, memo

    def moments(v, truth, held, memo, run_spec):
        p = run_spec.params
        dn2 = p.beta != 0.0 and p.sigma2 != 0.0
        key = dm_key(p) + (p.sigma2 if dn2 else 0.0,)
        if key not in memo:
            dm = held_demosaic(v, run_spec, held)
            r = dm.planes - truth.planes
            m_dd = m_dr = 0.0
            if dn2:
                with stage("dn2"):
                    d = denoise_rgb(dm, run_spec.dn2, DenoiseConfig(sigma=p.sigma2)).planes - dm.planes
                m_dd, m_dr = float(np.mean(d * d)), float(np.mean(d * r))
            memo[key] = (m_dd, m_dr, float(np.mean(r * r)))
        return memo[key]

    def objective(x: np.ndarray) -> float:
        params = PipelineParams(*(float(v) for v in x))
        run_spec = replace(spec, params=params)
        if spec.vst:  # the Anscombe inverse is nonlinear: MSE is not quadratic in beta
            values = [
                cpsnr(denoise_stage(held_demosaic(v, run_spec, held), run_spec), u) for v, u, held, _ in frozen
            ]
        else:
            b = params.beta
            values = [
                cpsnr_from_mse(b * b * m_dd + 2.0 * b * m_dr + m_rr)
                for m_dd, m_dr, m_rr in (moments(*item, run_spec) for item in frozen)
            ]
        return math.fsum(values) / len(values)

    return objective


def tune_pipeline(
    dataset: list[ColorImage],
    sigma: float,
    spec: PipelineSpec,
    cfg: CmaConfig,
    phase: str = "RGGB",
    jobs: int = 1,
) -> TuneResult:
    """CMA-ES search for the best pipeline PARAMETERS over PIPELINE_BOUNDS.

    With jobs > 1 the forked workers inherit the frozen mosaics and keep
    their own held DM results and memos.
    """
    cfg.resolved_population(PIPELINE_BOUNDS.dimension)  # reject the budget before drawing any noise
    objective = pipeline_objective(dataset, sigma, spec, noise_seed=cfg.seed, phase=phase)
    return cmaes_maximize(objective, PIPELINE_BOUNDS, cfg, jobs)
