"""The three benchmark workloads: their inputs, timed commands and output checks.

Every workload is built from the benchmark seed alone.  Set-up writes the
synthetic inputs as files; a timed *unit* then runs the workload's `dmdn`
commands on those files in-process through `dmdn.cli.main` (and, in `tune`,
the public `dmdn.optimize.pipeline_objective`).  Checks run outside the
timed region and count failed items against attempted ones.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

import dmdn.cli
import dmdn.formats
import dmdn.optimize
from dmdn.image import ColorImage, GrayImage, rgb_planes
from dmdn.noise import NoiseSpec, add_awgn, derive_seed
from dmdn.pipeline import PRESET_NAMES, PipelineParams, PipelineSpec, preset

EVAL_SIGMAS = (5.0, 20.0, 50.0)
TUNE_SIGMA = 20.0
# Criterion 8's grid, coarsened: alpha, beta in {0, 1/2, 1}; sigma1, sigma2 in {0, 20, 40}.
GRID_WEIGHTS = (0.0, 0.5, 1.0)
GRID_SIGMAS = (0.0, 20.0, 40.0)
RMSE_METHODS = ("bilinear", "ha", "malvar")
RMSE_SIGMAS = (5.0, 20.0, 50.0)
CHAIN_SIGMA = 20.0

# Image counts and edge lengths.  "tiny" exists only for the self-test.
SIZES = {
    "full": {"eval": (5, 256), "tune": (3, 128), "noise": (2, 512), "poisson": 256, "max_evals": 64},
    "tiny": {"eval": (2, 64), "tune": (2, 64), "noise": (1, 64), "poisson": 32, "max_evals": 16},
}

# Tolerances against recorded references.  The DCT8 hard threshold turns
# rounding differences (say, from a matmul instead of an einsum) into a few
# flipped coefficients, each worth up to ~1e-4 dB of CPSNR; 1e-3 dB allows
# those but not a changed algorithm.  RMSE tables and variances involve no
# threshold, so only reordered sums can move them.
CPSNR_TOL_DB = 1e-3
RMSE_TOL = 1e-6
VARIANCE_REL_TOL = 1e-9
PARAM_NAMES = ("alpha", "beta", "sigma1", "sigma2")
AWGN_PREFIX = 64


class CheckLog:
    """Failed-check messages plus the failed-item count they add up to."""

    def __init__(self):
        self.messages: list[str] = []
        self.failed_items = 0

    def fail(self, items: int, message: str) -> None:
        self.failed_items += items
        self.messages.append(message)


@dataclass
class Unit:
    """One timed pass of a workload: its items, and its outputs once collected."""

    items: int
    failed_items: int = 0  # items whose command returned non-zero or raised
    outputs: dict = field(default_factory=dict)
    manifest_bytes: int = 0


# ------------------------------------------------------------------ inputs


def _spectral_field(rng: np.random.Generator, size: int, slope: float) -> np.ndarray:
    """Zero-mean, unit-std random field with a ~1/f^slope power spectrum."""
    fy = np.fft.fftfreq(size)[:, None]
    fx = np.fft.rfftfreq(size)[None, :]
    radius = np.hypot(fy, fx)
    radius[0, 0] = 1.0
    amplitude = radius ** (-slope / 2.0)
    amplitude[0, 0] = 0.0
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=amplitude.shape))
    out = np.fft.irfft2(amplitude * phases, s=(size, size))
    return out / out.std()


def photo_like(seed: int, size: int) -> ColorImage:
    """Photo-like test image: 1/f luminance that saturates, smooth chroma, soft disks."""
    rng = np.random.default_rng(seed)
    gray = 128.0 + 1.6 * 40.0 * _spectral_field(rng, size, 2.9)
    c1 = 11.0 * _spectral_field(rng, size, 3.4)
    c2 = 11.0 * _spectral_field(rng, size, 3.4)
    img = rgb_planes(np.stack([gray * np.sqrt(3.0), c1, c2]))
    yy, xx = np.mgrid[0:size, 0:size]
    for _ in range(10):
        cy, cx = rng.integers(0, size, size=2)
        radius = rng.integers(size // 14, size // 5)
        disk = ndimage.gaussian_filter(((yy - cy) ** 2 + (xx - cx) ** 2 < radius**2).astype(float), 1.2)
        color = rng.uniform(-20.0, 275.0, size=3)
        img += rng.uniform(0.5, 0.95) * disk * (color[:, None, None] - img)
    return ColorImage(np.clip(img, 0.0, 255.0))


def _image_seed(seed: int, index: int) -> int:
    return derive_seed(seed, 1000 + index) % 2**32


def _write_dataset(directory: Path, images: list[ColorImage]) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, img in enumerate(images):
        path = directory / f"img{i}.ppm"
        dmdn.formats.write_image(path, img)
        paths.append(path)
    return paths


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _run_cli(argv: list[str]) -> int:
    """Run one `dmdn` command in-process; an exception counts as exit code 1."""
    try:
        return dmdn.cli.main([str(a) for a in argv])
    except Exception as exc:  # the benchmark must keep running to report the failure
        print(f"dmdn {' '.join(map(str, argv))}: {type(exc).__name__}: {exc}", flush=True)
        return 1


# --------------------------------------------------------------- workloads


class Workload:
    """One named workload.

    `setup` writes the inputs, `unit` runs the timed commands, `collect`
    reads their outputs afterwards, and `check` compares them with
    invariants and, where recorded, references.
    """

    name = ""

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = SIZES[size]
        self.noise_seed = seed  # the program's own --seed

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def unit(self, out_dir: Path) -> Unit:
        raise NotImplementedError

    def collect(self, unit: Unit, out_dir: Path) -> None:
        """Read the unit's outputs; subclasses add theirs to `unit.outputs`."""
        manifests = sorted(out_dir.rglob("*.manifest.json"))
        unit.manifest_bytes = sum(p.stat().st_size for p in manifests)
        unit.outputs["aggregate_metrics"] = {
            p.name: json.loads(p.read_text()).get("aggregate_metrics") for p in manifests
        }

    def check(self, unit: Unit, reference: dict | None, log: CheckLog) -> None:
        raise NotImplementedError

    def awgn_fields(self) -> list[tuple[int, tuple[int, ...]]]:
        """Distinct (seed, shape) standard-normal fields the program draws."""
        return [(derive_seed(self.noise_seed, i), (self.edge, self.edge)) for i in range(self.count)]


class EvalWorkload(Workload):
    name = "eval"

    def setup(self, work: Path) -> None:
        self.count, self.edge = self.size["eval"]
        self.dataset = work / "eval_data"
        images = [photo_like(_image_seed(self.seed, i), self.edge) for i in range(self.count)]
        self.names = [p.name for p in _write_dataset(self.dataset, images)]

    def unit(self, out_dir: Path) -> Unit:
        # One worker thread: on a shared two-vCPU machine the wall time of two
        # threads varied by up to 40% between runs, beyond any usable bound.
        argv = ["eval", "--dataset", self.dataset, "--sigmas", ",".join(f"{s:g}" for s in EVAL_SIGMAS),
                "--seed", self.noise_seed, "--jobs", 1, "--out", out_dir]
        items = self.count * len(EVAL_SIGMAS) * len(PRESET_NAMES)
        return Unit(items, failed_items=items if _run_cli(argv) != 0 else 0)

    def collect(self, unit: Unit, out_dir: Path) -> None:
        super().collect(unit, out_dir)
        path = out_dir / "eval.manifest.json"
        if not unit.failed_items and path.exists():
            unit.outputs["per_image"] = json.loads(path.read_text())["per_image_metrics"]

    def check(self, unit: Unit, reference: dict | None, log: CheckLog) -> None:
        if unit.failed_items:
            return  # the command failed; its items are already counted
        per_image = unit.outputs.get("per_image", {})
        for name in self.names:
            for sigma in EVAL_SIGMAS:
                for preset_name in PRESET_NAMES:
                    key = f"{preset_name}_sigma{sigma:g}"
                    value = per_image.get(name, {}).get(key)
                    if value is None or not (10.0 < value < 60.0):
                        log.fail(1, f"eval {name} {key}: CPSNR {value} missing or implausible")
                    elif reference and abs(value - reference["per_image"][name][key]) > CPSNR_TOL_DB:
                        log.fail(1, f"eval {name} {key}: CPSNR {value!r} != reference "
                                    f"{reference['per_image'][name][key]!r}")


class TuneWorkload(Workload):
    name = "tune"

    def setup(self, work: Path) -> None:
        self.count, self.edge = self.size["tune"]
        self.max_evals = self.size["max_evals"]
        self.dataset = work / "tune_data"
        # Centre crops of photo-like images, as in acceptance criterion 8.
        lo, hi = self.edge // 2, self.edge // 2 + self.edge
        crops = [
            ColorImage(photo_like(_image_seed(self.seed, i), 2 * self.edge).planes[:, lo:hi, lo:hi])
            for i in range(self.count)
        ]
        _write_dataset(self.dataset, crops)

    def _objective(self):
        """The tune's objective on the dataset's images and the program's frozen noise."""
        images = [dmdn.formats.read_image(p) for p in sorted(self.dataset.glob("*.ppm"))]
        return dmdn.optimize.pipeline_objective(
            images, TUNE_SIGMA, PipelineSpec(PipelineParams(0.0, 0.0, 0.0, 0.0)), noise_seed=self.noise_seed
        )

    def unit(self, out_dir: Path) -> Unit:
        argv = ["tune", "--dataset", self.dataset, "--sigma", f"{TUNE_SIGMA:g}", "--max-evals", self.max_evals,
                "--seed", self.noise_seed, "--jobs", 2, "--out", out_dir]
        tune_failed = _run_cli(argv) != 0

        # The oracle half: presets and the coarse grid on the same frozen noise.
        points = {name: (p.alpha, p.beta, p.sigma1, p.sigma2)
                  for name, p in ((name, preset(name, TUNE_SIGMA)) for name in PRESET_NAMES)}
        points.update({f"{a:g},{b:g},{s1:g},{s2:g}": (a, b, s1, s2) for a in GRID_WEIGHTS
                       for b in GRID_WEIGHTS for s1 in GRID_SIGMAS for s2 in GRID_SIGMAS})
        try:
            objective = self._objective()
            scores = {key: objective(np.array(x)) for key, x in points.items()}
        except Exception as exc:  # counted as failed items, like a failing command
            print(f"tune oracle: {type(exc).__name__}: {exc}", flush=True)
            scores = {}
        presets = {name: scores[name] for name in PRESET_NAMES if name in scores}
        grid = {key: value for key, value in scores.items() if key not in presets}
        failed = (self.max_evals if tune_failed else 0) + (len(points) - len(scores))
        # Until the result file is read, the tune counts its full budget.
        return Unit(self.max_evals + len(points), failed_items=failed, outputs={"presets": presets, "grid": grid})

    def collect(self, unit: Unit, out_dir: Path) -> None:
        super().collect(unit, out_dir)
        path = out_dir / "tune_result.json"
        if not path.exists():
            return  # the command failed; its items are already counted
        tuned = json.loads(path.read_text())
        unit.outputs["tuned"] = tuned
        unit.items += tuned["evaluations"] - self.max_evals
        # The reported optimum, scored again on the same frozen noise.
        unit.outputs["rescored"] = self._objective()(np.array([tuned["best_params"][k] for k in PARAM_NAMES]))

    def check(self, unit: Unit, reference: dict | None, log: CheckLog) -> None:
        presets, grid = unit.outputs["presets"], unit.outputs["grid"]
        if reference:
            expected = {**reference["presets"], **reference["grid"]}
            for key, value in {**presets, **grid}.items():
                if abs(value - expected[key]) > CPSNR_TOL_DB:
                    log.fail(1, f"tune objective at {key}: {value!r} != reference {expected[key]!r}")
        tuned = unit.outputs.get("tuned")
        if tuned is None:
            return  # the command failed; its items are already counted
        evaluations, best = tuned["evaluations"], tuned["best_cpsnr"]
        if evaluations > self.max_evals:
            log.fail(evaluations, f"tune used {evaluations} evaluations > budget {self.max_evals}")
        elif best is None or abs(unit.outputs["rescored"] - best) > CPSNR_TOL_DB:
            log.fail(evaluations, f"tune reported {best} dB but its best parameters score {unit.outputs['rescored']!r}")
        elif reference and (abs(best - reference["tuned"]["best_cpsnr"]) > CPSNR_TOL_DB
                            or evaluations != reference["tuned"]["evaluations"]):
            log.fail(evaluations, f"tune result {best!r} dB in {evaluations} evaluations != reference "
                                  f"{reference['tuned']['best_cpsnr']!r} in {reference['tuned']['evaluations']}")


class NoiseStudyWorkload(Workload):
    name = "noise-study"

    def setup(self, work: Path) -> None:
        self.count, self.edge = self.size["noise"]
        self.dataset = work / "noise_data"
        _write_dataset(self.dataset, [photo_like(_image_seed(self.seed, i), self.edge) for i in range(self.count)])
        # The Poisson input: a smaller image, in its own directory so rmse-table skips it.
        self.poisson_truth = _write_dataset(
            work / "poisson_data", [photo_like(_image_seed(self.seed, 100), self.size["poisson"])])[0]

    def unit(self, out_dir: Path) -> Unit:
        failed = 0
        out_dir.mkdir(parents=True, exist_ok=True)
        sigmas = ",".join(f"{s:g}" for s in RMSE_SIGMAS)
        for method in RMSE_METHODS:
            argv = ["rmse-table", "--dataset", self.dataset, "--method", method, "--sigmas", sigmas,
                    "--seed", self.noise_seed, "--out", out_dir / f"rmse_{method}.csv"]
            if _run_cli(argv) != 0:
                failed += self.count * len(RMSE_SIGMAS)
        for i in range(self.count):
            truth = self.dataset / f"img{i}.ppm"
            # rmse-table's per-image seed, so the chain redraws a field already drawn.
            seed = derive_seed(self.noise_seed, i)
            chain = [
                ["mosaic", "--input", truth, "--out", out_dir / f"v{i}.pfm"],
                ["noise", "--input", out_dir / f"v{i}.pfm", "--sigma", f"{CHAIN_SIGMA:g}", "--seed", seed,
                 "--out", out_dir / f"vn{i}.pfm"],
                ["demosaic", "--input", out_dir / f"vn{i}.pfm", "--method", "ha", "--out", out_dir / f"u{i}.pfm"],
                ["stats", "--estimate", out_dir / f"u{i}.pfm", "--truth", truth, "--space", "yc1c2",
                 "--out", out_dir / f"stats{i}.csv"],
            ]
            failed += any(_run_cli(argv) != 0 for argv in chain)
        poisson = [
            ["mosaic", "--input", self.poisson_truth, "--out", out_dir / "p.pfm"],
            ["noise", "--input", out_dir / "p.pfm", "--poisson", "--seed", self.noise_seed,
             "--out", out_dir / "pn.pfm"],
        ]
        failed += any(_run_cli(argv) != 0 for argv in poisson)
        items = len(RMSE_METHODS) * self.count * len(RMSE_SIGMAS) + self.count + 1
        return Unit(items, failed_items=failed)

    def collect(self, unit: Unit, out_dir: Path) -> None:
        super().collect(unit, out_dir)
        out = unit.outputs
        out.update({"rmse": {}, "variance": {}, "noisy_digest": {}})
        for method in RMSE_METHODS:
            path = out_dir / f"rmse_{method}.manifest.json"
            if path.exists():
                out["rmse"][method] = json.loads(path.read_text())["aggregate_metrics"]
        for i in range(self.count):
            path = out_dir / f"stats{i}.manifest.json"
            if path.exists():
                out["variance"][f"img{i}"] = json.loads(path.read_text())["aggregate_metrics"]["variance"]
            noisy = out_dir / f"vn{i}.pfm"
            if noisy.exists():
                out["noisy_digest"][f"img{i}"] = hashlib.sha256(noisy.read_bytes()).hexdigest()
        if (out_dir / "pn.pfm").exists():
            clean = dmdn.formats.read_image(out_dir / "p.pfm").plane
            noisy = dmdn.formats.read_image(out_dir / "pn.pfm").plane
            # Poisson counts: non-negative integers whose mean follows the input's.
            integral = bool(np.all(noisy >= 0) and np.array_equal(noisy, np.round(noisy)))
            out["poisson_plausible"] = integral and bool(abs(noisy.mean() / clean.mean() - 1.0) <= 0.02)
            out["poisson_digest"] = _digest(noisy)

    def check(self, unit: Unit, reference: dict | None, log: CheckLog) -> None:
        out = unit.outputs
        for method in RMSE_METHODS:
            table = out["rmse"].get(method)
            if table is None:
                continue  # the command failed; its items are already counted
            values = [table.get(f"rmse_sigma{s:g}") for s in RMSE_SIGMAS]
            if None in values or not all(a < b for a, b in zip(values, values[1:])):
                log.fail(self.count * len(values), f"rmse-table {method}: RMSE not increasing with sigma: {values}")
            elif reference:
                for s, v in zip(RMSE_SIGMAS, values):
                    if abs(v - reference["rmse"][method][f"rmse_sigma{s:g}"]) > RMSE_TOL:
                        log.fail(self.count, f"rmse-table {method} sigma {s:g}: {v!r} != reference")
        for i in range(self.count):
            key = f"img{i}"
            variance = out["variance"].get(key)
            if variance is None:
                continue
            if not all(v > 0 and math.isfinite(v) for v in variance):
                log.fail(1, f"stats {key}: implausible variances {variance}")
            elif reference and any(abs(v - r) > VARIANCE_REL_TOL * r
                                   for v, r in zip(variance, reference["variance"][key])):
                log.fail(1, f"stats {key}: variances {variance} != reference {reference['variance'][key]}")
            elif reference and out["noisy_digest"].get(key) != reference["noisy_digest"][key]:
                log.fail(1, f"noise {key}: output file differs from reference")
        if "poisson_digest" in out:
            if not out["poisson_plausible"]:
                log.fail(1, "noise --poisson: output is not Poisson counts around the input")
            elif reference and out["poisson_digest"] != reference["poisson_digest"]:
                log.fail(1, "noise --poisson: output differs from reference")


WORKLOADS = {w.name: w for w in (EvalWorkload, TuneWorkload, NoiseStudyWorkload)}


# ------------------------------------------------------------- AWGN checks


def _xoshiro_words(seed: int, n: int) -> list[int]:
    """First n outputs of xoshiro256++ seeded through splitmix64 (Blackman & Vigna)."""
    mask = (1 << 64) - 1
    state, s = seed & mask, []
    for _ in range(4):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        s.append(z ^ (z >> 31))
    out = []
    for _ in range(n):
        t = (s[0] + s[3]) & mask
        out.append(((((t << 23) | (t >> 41)) & mask) + s[0]) & mask)
        u = (s[1] << 17) & mask
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= u
        s[3] = ((s[3] << 45) | (s[3] >> 19)) & mask
    return out


def reference_normals(seed: int, n: int) -> np.ndarray:
    """The first n (even) standard normals of a field: Box-Muller over (0, 1] uniforms."""
    words = np.array(_xoshiro_words(seed, n), dtype=np.uint64)
    u = ((words >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u[0::2]))
    angle = 2.0 * np.pi * u[1::2]
    z = np.empty(n)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z


def check_awgn(fields, reference: dict | None, log: CheckLog, items: int) -> dict:
    """Bit-exactness of every drawn normal field: prefix against an independent
    xoshiro256++, repeatability, and the whole-field digest where recorded.

    Every item depends on the noise, so a mismatch fails all `items`.
    Returns the digests by "seed:shape".
    """
    digests = {}
    for seed, shape in fields:
        key = f"{seed}:{'x'.join(map(str, shape))}"
        first = add_awgn(GrayImage(np.zeros(shape)), NoiseSpec(1.0, seed)).plane.ravel()
        again = add_awgn(GrayImage(np.zeros(shape)), NoiseSpec(1.0, seed)).plane.ravel()
        digests[key] = _digest(first)
        if not np.array_equal(first[:AWGN_PREFIX], reference_normals(seed, AWGN_PREFIX)):
            log.fail(items, f"AWGN {key}: stream differs from the xoshiro256++ reference")
        elif not np.array_equal(first, again):
            log.fail(items, f"AWGN {key}: two draws of one (seed, shape) differ")
        elif reference and reference.get(key) not in (None, digests[key]):
            log.fail(items, f"AWGN {key}: field digest differs from reference")
    return digests
