"""Command-line front end: reproducible pipeline experiments with run manifests.

Every file-producing subcommand writes a JSON manifest next to its outputs
recording the exact argv, resolved configuration, seeds, per-image and
aggregate metrics, and per-stage wall-clock timings.  `dmdn rerun
--manifest M` re-executes the recorded command; on the same machine this
reproduces all aggregate metrics bit for bit.

Exit codes: 0 success, 2 argument errors, 3 I/O errors (missing or
malformed files), 4 domain errors (invalid values).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple
from pathlib import Path

from . import formats
from .analysis import cpsnr, noise_stats, residual, rmse_table
from .demosaic import DemosaicerId, demosaic
from .denoise import DenoiseConfig, DenoiserId, denoise_cfa, denoise_rgb
from .image import ColorImage, DomainError
from .mosaic import PHASES, CfaImage, mosaick, read_cfa, write_cfa
from .noise import NoiseSpec, add_awgn, derive_seed, noisy_mosaics, poisson_sample
from .optimize import CmaConfig, tune_pipeline
from .pipeline import (
    PARAMETERS,
    PRESET_NAMES,
    PipelineParams,
    PipelineSpec,
    preset,
    run_pipeline,
    stage,
    sweep_k,
)

EXIT_IO = 3
EXIT_DOMAIN = 4

_DEMOSAIC_CHOICES = [m.value for m in DemosaicerId]
_DENOISE_CHOICES = [m.value for m in DenoiserId]


def _load_dataset(directory) -> list[tuple[str, ColorImage]]:
    """Ground-truth images from a flat directory, sorted lexicographically.

    The sorted position fixes each image's index for seed derivation.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"dataset directory not found: {directory}")
    paths = sorted(
        p for p in directory.iterdir() if p.suffix.lower() in (".ppm", ".pfm")
    )
    images = []
    for p in paths:
        img = formats.read_image(p)
        if isinstance(img, ColorImage):
            images.append((p.name, img))
    if not images:
        raise FileNotFoundError(f"no color images (.ppm/.pfm) in {directory}")
    return images


def _read_any(path):
    """Read a color/gray image, or a CFA when a .meta sidecar is present."""
    if Path(str(path) + ".meta").exists():
        return read_cfa(path)
    return formats.read_image(path)


def _write_any(path, img) -> None:
    if isinstance(img, CfaImage):
        write_cfa(path, img)
    else:
        formats.write_image(path, img)


def _read_color(path) -> ColorImage:
    img = formats.read_image(path)
    if not isinstance(img, ColorImage):
        raise DomainError(f"{path}: expected a color image")
    return img


def _map_jobs(fn, items, jobs: int) -> list:
    if jobs <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _image_seeds(master_seed: int, dataset) -> dict[str, int]:
    """Per-image noise seeds; an image's sorted position fixes its seed."""
    return {name: derive_seed(master_seed, i) for i, (name, _) in enumerate(dataset)}


def _write_csv(path: Path, header: list, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, allow_nan=True) + "\n")


def _write_manifest(args, outputs: list[Path], **extra) -> None:
    """Record argv, resolved flags, outputs and `extra` next to the first output."""
    config = {
        k: v
        for k, v in vars(args).items()
        if not k.startswith("_") and k not in ("command", "pipeline_command", "func")
        and (isinstance(v, (int, float, str, bool, list)) or v is None)
    }
    payload = {
        "command": list(getattr(args, "_argv", [])),
        "cwd": str(Path.cwd()),
        "subcommand": args.command if args.command != "pipeline" else f"pipeline {args.pipeline_command}",
        "config": config,
        "outputs": [str(o) for o in outputs],
        **extra,
    }
    _write_json(outputs[0].with_name(outputs[0].stem + ".manifest.json"), payload)


def _spec_from_args(args, params: PipelineParams) -> PipelineSpec:
    return PipelineSpec(
        params,
        dn1=DenoiserId(args.dn1),
        dm=DemosaicerId(args.dm),
        dn2=DenoiserId(args.dn2),
        vst=getattr(args, "vst", False),
    )


def _distinct_labels(flag: str, what: str, values: list[float]) -> list[str]:
    """The `{value:g}` labels that key a list flag's manifest metrics; each must be unique."""
    labels = [f"{value:g}" for value in values]
    if len(set(labels)) != len(labels):
        raise DomainError(f"{flag} repeats a {what}: {','.join(labels)}")
    return labels


def _finite_or_none(value: float):
    return value if math.isfinite(value) else None


# ---------------------------------------------------------------- subcommands


def cmd_mosaic(args) -> None:
    img = _read_color(args.input)
    out = Path(args.out)
    write_cfa(out, mosaick(img, args.phase))
    _write_manifest(args, [out])


def cmd_noise(args) -> None:
    img = _read_any(args.input)
    out = Path(args.out)
    with stage({}, "noise") as timings:
        if args.poisson:
            noisy = poisson_sample(img, args.seed)
        else:
            noisy = add_awgn(img, NoiseSpec(args.sigma, args.seed))
        _write_any(out, noisy)
    _write_manifest(args, [out], master_seed=args.seed, timings=timings)


def cmd_demosaic(args) -> None:
    cfa = read_cfa(args.input)
    out = Path(args.out)
    with stage({}, "dm") as timings:
        formats.write_image(out, demosaic(cfa, args.method))
    _write_manifest(args, [out], timings=timings)


def cmd_denoise(args) -> None:
    img = _read_any(args.input)
    cfg = DenoiseConfig(sigma=args.sigma)
    if args.cfa and not isinstance(img, CfaImage):
        raise DomainError(f"{args.input}: --cfa requires a CFA input (.meta sidecar)")
    if not args.cfa and not isinstance(img, ColorImage):
        raise DomainError(f"{args.input}: denoise needs a color image (or --cfa)")
    out = Path(args.out)
    with stage({}, "dn") as timings:
        denoise = denoise_cfa if args.cfa else denoise_rgb
        _write_any(out, denoise(img, args.method, cfg))
    _write_manifest(args, [out], timings=timings)


def cmd_pipeline_run(args) -> None:
    v = read_cfa(args.input)
    spec = _spec_from_args(args, PipelineParams(*(getattr(args, name) for name in PARAMETERS)))
    truth = _read_color(args.truth) if args.truth else None
    timings: dict = {}
    out_img = run_pipeline(v, spec, timings=timings)
    metrics = {} if truth is None else {"cpsnr": _finite_or_none(cpsnr(out_img, truth))}
    out = Path(args.out)
    formats.write_image(out, out_img)
    _write_manifest(
        args,
        [out],
        components={"dn1": args.dn1, "dm": args.dm, "dn2": args.dn2, "vst": spec.vst},
        aggregate_metrics=metrics,
        timings=timings,
    )


def cmd_pipeline_preset(args) -> None:
    print(json.dumps(asdict(preset(args.name, args.sigma))))


def cmd_pipeline_sweep_k(args) -> None:
    _distinct_labels("--k-list", "factor", args.k_list)
    dataset = _load_dataset(args.dataset)

    def one(task):
        index, _, noisy = task
        return sweep_k(noisy, dataset[index][1], args.dm, args.dn, args.sigma, args.k_list)

    with stage({}, "sweep") as timings:
        captures = noisy_mosaics([img for _, img in dataset], [args.sigma], args.seed, args.phase)
        per_image = _map_jobs(one, captures, args.jobs)
    means = [
        math.fsum(rows[i][1] for rows in per_image) / len(per_image)
        for i in range(len(args.k_list))
    ]
    out = Path(args.out)
    _write_csv(out, ["k", "mean_cpsnr"], ([k, f"{m:.6f}"] for k, m in zip(args.k_list, means)))
    _write_manifest(
        args,
        [out],
        master_seed=args.seed,
        per_image_seeds=_image_seeds(args.seed, dataset),
        per_image_metrics={
            name: {f"cpsnr_k{k:g}": rows[i][1] for i, k in enumerate(args.k_list)}
            for (name, _), rows in zip(dataset, per_image)
        },
        aggregate_metrics={f"mean_cpsnr_k{k:g}": m for k, m in zip(args.k_list, means)},
        timings=timings,
    )


def cmd_tune(args) -> None:
    dataset = _load_dataset(args.dataset)
    spec = _spec_from_args(args, PipelineParams(0.0, 0.0, 0.0, 0.0))
    cfg = CmaConfig(population=args.population, max_evals=args.max_evals, seed=args.seed)
    with stage({}, "tune") as timings:
        result = tune_pipeline([img for _, img in dataset], args.sigma, spec, cfg, phase=args.phase)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / "tune_result.json"
    _write_json(
        result_path,
        {
            "best_params": dict(zip(PARAMETERS, map(float, result.best_params))),
            "best_cpsnr": _finite_or_none(result.best_value),
            "termination": result.termination,
            "evaluations": result.evaluations,
            "generations": result.generations,
        },
    )
    trace_path = out_dir / "trace.csv"
    _write_csv(
        trace_path,
        ["generation", "best_cpsnr", "mean_cpsnr"],
        ([gen, f"{best:.6f}", f"{mean:.6f}"] for gen, (best, mean) in enumerate(result.trace)),
    )
    _write_manifest(
        args,
        [result_path, trace_path],
        master_seed=args.seed,
        per_image_seeds=_image_seeds(args.seed, dataset),
        aggregate_metrics={"best_cpsnr": _finite_or_none(result.best_value)},
        timings=timings,
    )


def cmd_stats(args) -> None:
    if args.residual:
        res = _read_color(args.residual)
    elif args.estimate and args.truth:
        res = residual(_read_color(args.estimate), _read_color(args.truth))
    else:
        raise DomainError("stats needs either --residual or both --estimate and --truth")
    stats = noise_stats(res, space=args.space, border_crop=args.crop, max_lag=args.lags)

    lags = [(s, t) for s in range(args.lags + 1) for t in range(args.lags + 1)]
    rows = [
        [kind, name] + [f"{table[c, s, t]:.6f}" for s, t in lags]
        for kind, table in (("covariance", stats.cov), ("correlation", stats.corr))
        for c, name in enumerate(stats.channels)
    ]
    rows += [[], ["table", "channel", *stats.channels]]
    rows += [
        [kind, name] + [f"{table[c, j]:.6f}" for j in range(3)]
        for kind, table in (("cross_covariance", stats.cross_cov), ("cross_correlation", stats.cross_corr))
        for c, name in enumerate(stats.channels)
    ]
    out = Path(args.out)
    _write_csv(out, ["table", "channel"] + [f"({s},{t})" for s, t in lags], rows)
    _write_manifest(
        args,
        [out],
        aggregate_metrics={
            "variance": [float(v) for v in stats.variance],
            "sample_count": stats.sample_count,
            "degenerate": list(stats.degenerate),
        },
    )


def cmd_rmse_table(args) -> None:
    _distinct_labels("--sigmas", "noise level", args.sigmas)
    dataset = _load_dataset(args.dataset)
    with stage({}, "rmse_table") as timings:
        rows = rmse_table([img for _, img in dataset], args.method, args.sigmas, args.seed, phase=args.phase)
    out = Path(args.out)
    _write_csv(out, ["sigma", "mean_rmse"], ([sigma, f"{value:.6f}"] for sigma, value in rows))
    _write_manifest(
        args,
        [out],
        master_seed=args.seed,
        per_image_seeds=_image_seeds(args.seed, dataset),
        aggregate_metrics={f"rmse_sigma{s:g}": v for s, v in rows},
        timings=timings,
    )


def cmd_eval(args) -> None:
    labels = _distinct_labels("--sigmas", "noise level", args.sigmas)
    params = [{name: preset(name, sigma) for name in PRESET_NAMES} for sigma in args.sigmas]
    dataset = _load_dataset(args.dataset)

    def run_one(task):
        index, k, noisy = task
        name, truth = dataset[index]
        timings: dict = {}
        scores = {}
        for preset_name, preset_params in params[k].items():
            spec = _spec_from_args(args, preset_params)
            scores[f"{preset_name}_sigma{labels[k]}"] = cpsnr(run_pipeline(noisy, spec, timings=timings), truth)
        return name, scores, timings

    with stage({}, "total") as timings:
        captures = noisy_mosaics([img for _, img in dataset], args.sigmas, args.seed, args.phase)
        results = _map_jobs(run_one, captures, args.jobs)

    per_image: dict = {name: {} for name, _ in dataset}
    for name, scores, task_timings in results:
        per_image[name].update(scores)
        for key, seconds in task_timings.items():
            timings[key] = timings.get(key, 0.0) + seconds

    aggregate = {}
    rows = []
    for sigma, label, by_preset in zip(args.sigmas, labels, params):
        for preset_name, preset_params in by_preset.items():
            key = f"{preset_name}_sigma{label}"
            aggregate[key] = math.fsum(scores[key] for scores in per_image.values()) / len(dataset)
            rows.append([sigma, preset_name, *astuple(preset_params), f"{aggregate[key]:.6f}"])
    csv_path = Path(args.out) / "eval.csv"
    _write_csv(csv_path, ["sigma", "method", *PARAMETERS, "mean_cpsnr"], rows)
    _write_manifest(
        args,
        [csv_path],
        master_seed=args.seed,
        per_image_seeds=_image_seeds(args.seed, dataset),
        components={"dn1": args.dn1, "dm": args.dm, "dn2": args.dn2},
        per_image_metrics={
            name: {key: _finite_or_none(value) for key, value in scores.items()} for name, scores in per_image.items()
        },
        aggregate_metrics=aggregate,
        timings=timings,
    )


# Flags whose values are file or directory paths.
_PATH_FLAGS = ("--input", "--dataset", "--out", "--truth", "--residual", "--estimate")


def _absolute_argv(argv: list[str], cwd: str) -> list[str]:
    """`argv` with every path-valued flag made absolute against `cwd`.

    Both `--flag value` and `--flag=value` are rewritten, as are the
    unambiguous prefixes argparse accepts for a path flag (`--dat`).
    """
    out = list(argv)
    for i, token in enumerate(argv):
        flag, eq, value = token.partition("=")
        if sum(f.startswith(flag) for f in _PATH_FLAGS) != 1:
            continue
        if eq:
            out[i] = f"{flag}={Path(cwd, value)}"
        elif i + 1 < len(argv):
            out[i + 1] = str(Path(cwd, argv[i + 1]))
    return out


def cmd_rerun(args) -> int:
    try:
        manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise OSError(f"{args.manifest}: malformed manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise OSError(f"{args.manifest}: malformed manifest: not a JSON object")
    argv, cwd = manifest.get("command"), manifest.get("cwd")
    if argv is not None and not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        raise OSError(f"{args.manifest}: malformed manifest: command is not a list of strings")
    if not argv:
        raise DomainError(f"{args.manifest}: manifest has no recorded command")
    if argv[0] == "rerun":
        raise OSError(f"{args.manifest}: malformed manifest: command is itself a rerun")
    if cwd is not None and not isinstance(cwd, str):
        raise OSError(f"{args.manifest}: malformed manifest: cwd is not a string")
    # Relative paths were given against the recording's working directory.
    return main(argv if cwd is None else _absolute_argv(argv, cwd))


# -------------------------------------------------------------------- parser


def _float_list(text: str) -> list[float]:
    """Parse a comma-separated list of numbers such as "5,10,20"."""
    try:
        return [float(item) for item in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _positive_int(text: str) -> int:
    """Parse an integer >= 1, such as a worker count."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


# Flags several subcommands share; their dest names key manifests' `config`.
_SHARED_FLAGS = {
    "input": {"required": True},
    "dataset": {"required": True},
    "phase": {"default": "RGGB", "choices": PHASES},
    "seed": {"type": int, "default": 0},
    "jobs": {"type": _positive_int, "default": 1},
    "out": {"required": True},
}


def _command(sub, name: str, func, help: str, *shared: str) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, help=help)
    for flag in shared:
        parser.add_argument(f"--{flag}", **_SHARED_FLAGS[flag])
    parser.set_defaults(func=func)
    return parser


def _add_component_flags(parser, with_vst=True):
    parser.add_argument("--dn1", default="dct8", choices=_DENOISE_CHOICES)
    parser.add_argument("--dm", default="ha", choices=_DEMOSAIC_CHOICES)
    parser.add_argument("--dn2", default="dct8", choices=_DENOISE_CHOICES)
    if with_vst:
        parser.add_argument("--vst", action="store_true", help="Anscombe before, inverse after")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmdn", description="Demosaic/denoise pipeline experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "mosaic", cmd_mosaic, "Bayer-sample a color image", "input", "phase", "out")

    p = _command(sub, "noise", cmd_noise, "add seeded AWGN (or Poisson-sample)", "input", "seed", "out")
    level = p.add_mutually_exclusive_group()
    level.add_argument("--sigma", type=float, default=0.0)
    level.add_argument("--poisson", action="store_true")

    p = _command(sub, "demosaic", cmd_demosaic, "interpolate RGB from a CFA", "input", "out")
    p.add_argument("--method", default="ha", choices=_DEMOSAIC_CHOICES)

    p = _command(sub, "denoise", cmd_denoise, "denoise a color image (or CFA with --cfa)", "input", "out")
    p.add_argument("--method", default="dct8", choices=_DENOISE_CHOICES)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--cfa", action="store_true")

    pipe = sub.add_parser("pipeline", help="two-stage pipeline operations")
    pipe_sub = pipe.add_subparsers(dest="pipeline_command", required=True)

    p = _command(pipe_sub, "run", cmd_pipeline_run, "run the blended pipeline on a CFA", "input", "out")
    for name in PARAMETERS:
        p.add_argument(f"--{name}", type=float, required=True)
    _add_component_flags(p)
    p.add_argument("--truth", default=None)

    p = _command(pipe_sub, "preset", cmd_pipeline_preset, "print the parameters of a named preset")
    p.add_argument("--name", required=True)
    p.add_argument("--sigma", type=float, required=True)

    p = _command(pipe_sub, "sweep-k", cmd_pipeline_sweep_k, "score DM&kDN over a list of k factors",
                 "dataset", "phase", "seed", "jobs", "out")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--dm", default="ha", choices=_DEMOSAIC_CHOICES)
    p.add_argument("--dn", default="dct8", choices=_DENOISE_CHOICES)
    p.add_argument("--k-list", type=_float_list, default="1.0,1.1,1.2,1.3,1.4,1.5,1.6,1.7,1.8,1.9")

    p = _command(sub, "tune", cmd_tune, "CMA-ES search for pipeline parameters",
                 "dataset", "phase", "seed", "jobs", "out")
    p.add_argument("--sigma", type=float, required=True)
    _add_component_flags(p)
    p.add_argument("--max-evals", type=int, default=3000)
    p.add_argument("--population", type=int, default=None)

    p = _command(sub, "stats", cmd_stats, "residual noise statistics tables", "out")
    for name in ("--residual", "--estimate", "--truth"):
        p.add_argument(name)
    p.add_argument("--space", default="rgb", choices=["rgb", "yc1c2"])
    p.add_argument("--lags", type=int, default=2)
    p.add_argument("--crop", type=int, default=8)

    p = _command(sub, "rmse-table", cmd_rmse_table, "mean demosaicing RMSE per noise level",
                 "dataset", "phase", "seed", "out")
    p.add_argument("--method", default="ha", choices=_DEMOSAIC_CHOICES)
    p.add_argument("--sigmas", type=_float_list, default="1,3,5,10,15,20,30,40,50,60")

    p = _command(sub, "eval", cmd_eval, "preset comparison over a dataset and sigma list",
                 "dataset", "phase", "seed", "jobs", "out")
    p.add_argument("--sigmas", type=_float_list, default="5,10,20,40,50,60")
    _add_component_flags(p, with_vst=False)

    p = _command(sub, "rerun", cmd_rerun, "re-execute the command recorded in a manifest")
    p.add_argument("--manifest", required=True)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    try:
        return args.func(args) or 0  # a command returns None on success
    except (OSError, formats.ImageFormatError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN if isinstance(exc, DomainError) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
