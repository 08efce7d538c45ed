"""Command-line front end: reproducible pipeline experiments with run manifests.

Every file-producing subcommand writes a JSON manifest next to its outputs
recording the exact argv, resolved configuration, seeds, per-image and
aggregate metrics, and wall-clock timings per stage, worker processes'
included.  `dmdn rerun --manifest M` re-executes the recorded command in its
recorded directory; on the same machine this reproduces all aggregate
metrics bit for bit.

Exit codes: 0 success, 2 argument errors, 3 I/O errors (missing or
malformed files, a worker process that died), 4 domain errors (invalid values).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import os
import platform
import sys
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np

from . import __version__, formats
from .analysis import cpsnr, noise_stats, residual, rmse_table
from .demosaic import DemosaicerId, demosaic
from .denoise import DenoiseConfig, DenoiserId, denoise_cfa, denoise_rgb
from .image import SIGMA_RANGE, ColorImage, DomainError, GrayImage, check_range
from .mosaic import PHASES, CfaImage, mosaick
from .noise import NoiseSpec, add_awgn, derive_seed, noisy_mosaics, poisson_sample
from .optimize import CmaConfig, tune_pipeline
from .pipeline import PARAMETERS, PRESET_NAMES, PipelineParams, PipelineSpec, preset, run_pipeline
from .pipeline import score_specs, sweep_k_specs
from .stages import STAGE_SECONDS, ordered_map, stage, usable_cpus

EXIT_IO = 3
EXIT_DOMAIN = 4

# Numpy temporaries of 0.5-2 MiB (padded planes, DCT8 bands) come from the heap, not a fresh mmap each.
MMAP_THRESHOLD = 32 << 20
# Freed memory at the heap top stays with the process up to this much, not handed back to the kernel.
TRIM_THRESHOLD = 256 << 20

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


def _cfa_input(path) -> CfaImage:
    """A CFA input: a gray image with its `.meta` phase sidecar."""
    img = formats.read_image(path)
    if isinstance(img, CfaImage):  # before GrayImage: every CfaImage is one
        return img
    if isinstance(img, GrayImage):
        raise FileNotFoundError(f"{path}.meta: missing CFA phase sidecar")
    raise DomainError(f"{path}: CFA file must be a gray image")


def _read_color(path) -> ColorImage:
    img = formats.read_image(path)
    if not isinstance(img, ColorImage):
        raise DomainError(f"{path}: expected a color image")
    return img


def _reuse_freed_memory() -> dict | None:
    """Make glibc's malloc keep freed memory for this process: the thresholds in force, or None.

    Under glibc's default policy each large numpy temporary is a fresh mmap
    whose pages the kernel zero-fills again; outputs do not depend on this.
    Without glibc's `mallopt`, or if it refuses the mmap threshold, nothing is
    set.  If it takes the mmap threshold and refuses the trim threshold, the
    mmap threshold stays in force alone (glibc cannot undo it), and only it
    is returned.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # Both together: either one alone switches off glibc's dynamic mmap threshold and faults more.
    in_force = {}
    if mallopt(-3, MMAP_THRESHOLD):  # M_MMAP_THRESHOLD
        in_force["mmap_threshold"] = MMAP_THRESHOLD
        if mallopt(-1, TRIM_THRESHOLD):  # M_TRIM_THRESHOLD
            in_force["trim_threshold"] = TRIM_THRESHOLD
    return in_force or None


def _environment(args) -> dict:
    """What a manifest's timings depend on besides the command: versions, machine, allocator."""
    return {
        "dmdn": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        # platform.platform()'s leading fields: it would start `uname -p` for the processor.
        "platform": "-".join((platform.system(), platform.release(), platform.machine())),
        "usable_cpus": usable_cpus(),
        "malloc": getattr(args, "_malloc", None),
    }


def _children_cpu_s() -> float:
    """CPU seconds of this process's ended children, such as an ordered map's workers."""
    times = os.times()
    return times.children_user + times.children_system


def _usable_out(out, directory: bool) -> Path:
    """`--out` as a Path; an OSError before any work if it cannot be made. Creates nothing."""
    out = Path(out)
    if out.exists() and out.is_dir() != directory:
        raise FileExistsError(f"--out {out}: " + ("not a directory" if directory else "is a directory"))
    ancestor = next((a for a in out.parents if a.exists()), None)
    if ancestor is not None and not ancestor.is_dir():
        raise NotADirectoryError(f"--out {out}: {ancestor} is not a directory")
    return out


def _image_seeds(master_seed: int, dataset) -> dict[str, int]:
    """Per-image noise seeds; an image's sorted position fixes its seed."""
    return {name: derive_seed(master_seed, i) for i, (name, _) in enumerate(dataset)}


def _write_csv(path: Path, header: list, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _finite_or_none(value):
    """`value` with every non-finite float, however deeply nested, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    return value


def _write_json(path: Path, payload: dict) -> None:
    """Write strict JSON: a non-finite number (an infinite CPSNR, say) is null."""
    path.write_text(json.dumps(_finite_or_none(payload), indent=2, allow_nan=False) + "\n")


def _write_manifest(args, outputs: list[Path], workers: int | None = None, **extra) -> None:
    """Record argv, resolved flags, outputs, `extra` and the stage record next to the first output.

    Given `workers`, also record it and the CPU seconds of the command's ended child processes.
    """
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
        "env": _environment(args),
        **extra,
        "timings": dict(STAGE_SECONDS),
    }
    if workers is not None:
        payload.update(workers=workers, worker_cpu_s=_children_cpu_s() - args._children_cpu_start)
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


def _score_dataset(args, dataset, sigmas: list[float], tables: list[dict[str, PipelineSpec]]) -> dict:
    """Score every image's capture at `sigmas[j]` with each spec of `tables[j]`, {metric: spec}.

    Returns the manifest fields from `per_image_metrics` on: the scores, their
    means over the images, and the workers.
    """

    def one(task):
        index, j, noisy = task
        scores = score_specs(noisy, dataset[index][1], tables[j].values())
        return dataset[index][0], dict(zip(tables[j], scores))

    with stage("total"), ordered_map(one, args.jobs, len(dataset) * len(sigmas)) as (workers, run):
        results = run(noisy_mosaics([img for _, img in dataset], sigmas, args.seed, args.phase))

    per_image: dict = {name: {} for name, _ in dataset}
    for name, scores in results:
        per_image[name].update(scores)
    means = {key: math.fsum(s[key] for s in per_image.values()) / len(dataset) for t in tables for key in t}
    return dict(per_image_metrics=per_image, aggregate_metrics=means, workers=workers)


# ---------------------------------------------------------------- subcommands


def cmd_mosaic(args) -> None:
    img = _read_color(args.input)
    out = Path(args.out)
    with stage("mosaic"):
        cfa = mosaick(img, args.phase)
    with stage("write"):
        formats.write_image(out, cfa)
    _write_manifest(args, [out])


def cmd_noise(args) -> None:
    img = formats.read_image(args.input)
    out = Path(args.out)
    with stage("noise"):
        if args.poisson:
            noisy = poisson_sample(img, args.seed)
        else:
            noisy = add_awgn(img, NoiseSpec(args.sigma, args.seed))
    with stage("write"):
        formats.write_image(out, noisy)
    _write_manifest(args, [out], master_seed=args.seed)


def cmd_demosaic(args) -> None:
    cfa = _cfa_input(args.input)
    out = Path(args.out)
    with stage("dm"):
        rgb = demosaic(cfa, args.method)
    with stage("write"):
        formats.write_image(out, rgb)
    _write_manifest(args, [out])


def cmd_denoise(args) -> None:
    img = formats.read_image(args.input)
    cfg = DenoiseConfig(sigma=args.sigma)
    if args.cfa and not isinstance(img, CfaImage):
        raise DomainError(f"{args.input}: --cfa requires a CFA input (.meta sidecar)")
    if not args.cfa and not isinstance(img, ColorImage):
        raise DomainError(f"{args.input}: denoise needs a color image (or --cfa)")
    out = Path(args.out)
    denoise = denoise_cfa if args.cfa else denoise_rgb
    with stage("dn"):
        clean = denoise(img, args.method, cfg)
    with stage("write"):
        formats.write_image(out, clean)
    _write_manifest(args, [out])


def cmd_pipeline_run(args) -> None:
    v = _cfa_input(args.input)
    spec = _spec_from_args(args, PipelineParams(*(getattr(args, name) for name in PARAMETERS)))
    truth = _read_color(args.truth) if args.truth else None
    out_img = run_pipeline(v, spec)
    metrics = {} if truth is None else {"cpsnr": cpsnr(out_img, truth)}
    out = Path(args.out)
    formats.write_image(out, out_img)
    components = {"dn1": args.dn1, "dm": args.dm, "dn2": args.dn2, "vst": spec.vst}
    _write_manifest(args, [out], components=components, aggregate_metrics=metrics)


def cmd_pipeline_preset(args) -> None:
    print(json.dumps(asdict(preset(args.name, args.sigma))))


def cmd_pipeline_sweep_k(args) -> None:
    labels = _distinct_labels("--k-list", "factor", args.k_list)
    specs = sweep_k_specs(args.dm, args.dn, args.sigma, args.k_list)
    out = _usable_out(args.out, directory=False)
    dataset = _load_dataset(args.dataset)
    table = {f"cpsnr_k{label}": spec for label, spec in zip(labels, specs)}
    scored = _score_dataset(args, dataset, [args.sigma], [table])
    means = scored["aggregate_metrics"] = {f"mean_{key}": m for key, m in scored["aggregate_metrics"].items()}
    _write_csv(out, ["k", "mean_cpsnr"], ([k, f"{m:.6f}"] for k, m in zip(args.k_list, means.values())))
    seeds = _image_seeds(args.seed, dataset)
    _write_manifest(args, [out], master_seed=args.seed, per_image_seeds=seeds, **scored)


def cmd_tune(args) -> None:
    check_range("sigma", args.sigma, SIGMA_RANGE)
    out_dir = _usable_out(args.out, directory=True)
    dataset = _load_dataset(args.dataset)
    spec = _spec_from_args(args, PipelineParams(0.0, 0.0, 0.0, 0.0))
    cfg = CmaConfig(population=args.population, max_evals=args.max_evals, seed=args.seed)
    with stage("tune"):
        result = tune_pipeline([img for _, img in dataset], args.sigma, spec, cfg, args.phase, args.jobs)

    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / "tune_result.json"
    _write_json(
        result_path,
        {
            "best_params": dict(zip(PARAMETERS, map(float, result.best_params))),
            "best_cpsnr": result.best_value,
            "termination": result.termination,
            "evaluations": result.evaluations,
            "generations": result.generations,
        },
    )
    trace_path = out_dir / "trace.csv"
    _write_csv(
        trace_path,
        ["generation", "best_cpsnr", "mean_cpsnr", "step_size", "condition", "evaluations"],
        (
            [gen, f"{best:.6f}", f"{mean:.6f}", f"{step:.6g}", f"{cond:.6g}", evals]
            for gen, ((best, mean), (step, cond, evals)) in enumerate(zip(result.trace, result.search))
        ),
    )
    _write_manifest(
        args,
        [result_path, trace_path],
        master_seed=args.seed,
        per_image_seeds=_image_seeds(args.seed, dataset),
        aggregate_metrics={"best_cpsnr": result.best_value},
        workers=result.workers,
    )
    print(
        f"tune: {result.termination} after {result.evaluations} evaluations in {result.generations} "
        f"generations, best CPSNR {result.best_value:.4f} dB, {STAGE_SECONDS['tune']:.1f} s",
        file=sys.stderr,
    )


def cmd_stats(args) -> None:
    if args.residual and not (args.estimate or args.truth):
        res = _read_color(args.residual)
    elif args.estimate and args.truth and not args.residual:
        res = residual(_read_color(args.estimate), _read_color(args.truth))
    else:
        raise DomainError("stats needs either --residual alone or both --estimate and --truth")
    with stage("stats"):
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
    for sigma in args.sigmas:
        check_range("sigma", sigma, SIGMA_RANGE)
    _distinct_labels("--sigmas", "noise level", args.sigmas)
    out = _usable_out(args.out, directory=False)
    dataset = _load_dataset(args.dataset)
    with stage("rmse_table"):
        rows = rmse_table([img for _, img in dataset], args.method, args.sigmas, args.seed, phase=args.phase)
    _write_csv(out, ["sigma", "mean_rmse"], ([sigma, f"{value:.6f}"] for sigma, value in rows))
    metrics = {f"rmse_sigma{s:g}": v for s, v in rows}
    _write_manifest(args, [out], master_seed=args.seed, per_image_seeds=_image_seeds(args.seed, dataset),
                    aggregate_metrics=metrics)


def cmd_eval(args) -> None:
    labels = _distinct_labels("--sigmas", "noise level", args.sigmas)
    # In preset order, so dmdn and dm15dn, one DM key, share one DM(v).
    tables = [
        {f"{name}_sigma{label}": _spec_from_args(args, preset(name, sigma)) for name in PRESET_NAMES}
        for sigma, label in zip(args.sigmas, labels)
    ]
    out_dir = _usable_out(args.out, directory=True)
    dataset = _load_dataset(args.dataset)
    scored = _score_dataset(args, dataset, args.sigmas, tables)
    rows = [
        [sigma, name, *astuple(spec.params), f"{scored['aggregate_metrics'][key]:.6f}"]
        for sigma, table in zip(args.sigmas, tables)
        for name, (key, spec) in zip(PRESET_NAMES, table.items())
    ]
    csv_path = out_dir / "eval.csv"
    _write_csv(csv_path, ["sigma", "method", *PARAMETERS, "mean_cpsnr"], rows)
    _write_manifest(
        args,
        [csv_path],
        master_seed=args.seed,
        per_image_seeds=_image_seeds(args.seed, dataset),
        components={"dn1": args.dn1, "dm": args.dm, "dn2": args.dn2},
        **scored,
    )


def cmd_rerun(args) -> int:
    """Replay a manifest's argv unchanged in its recorded `cwd`, then return to the caller's.

    So every relative path means what it meant when recorded.  The working
    directory is process-wide: an in-process caller's other threads see the
    change while a replay runs.
    """
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
    if cwd is None:
        return main(argv)
    caller = os.getcwd()
    try:
        os.chdir(cwd)
    except OSError as exc:
        raise OSError(f"{args.manifest}: recorded cwd {cwd}: {exc.strerror}") from None
    try:
        return main(argv)
    finally:
        os.chdir(caller)


# -------------------------------------------------------------------- parser


def _float_list(text: str) -> list[float]:
    """Parse a comma-separated list of numbers such as "5,10,20"."""
    try:
        return [float(item) for item in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _seed(text: str) -> int:
    """Parse a seed in [0, 2**64): the noise streams would alias any other integer to one of these."""
    if not text.isdigit() or int(text) >= 1 << 64:
        raise argparse.ArgumentTypeError(f"expected an integer in [0, 2**64), got {text!r}")
    return int(text)


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
    "seed": {"type": _seed, "default": 0},
    "jobs": {"type": _positive_int, "default": 1,
             "help": "worker processes, at most one per task and usable CPU; the result does not depend on it"},
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
    malloc = _reuse_freed_memory()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    args._malloc = malloc
    STAGE_SECONDS.clear()  # a command's manifest records its own stages and workers only
    args._children_cpu_start = _children_cpu_s()
    try:
        return args.func(args) or 0  # a command returns None on success
    except (OSError, formats.ImageFormatError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN if isinstance(exc, DomainError) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
