#!/usr/bin/env python3
"""dmdn benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload {eval,tune,noise-study} --seed N --seconds S --trace {0,1}

Run from the root of a dmdn source tree; the program is imported from
`src/`.  Set-up (timed as `setup_s`) writes the workload's synthetic inputs;
then timed *units* (one pass of the workload's `dmdn` commands) repeat
until the next one would end after `--seconds`.  Every unit's outputs are
checked outside the timed region.  The last line of standard output is the
result: `{"correct", "attempted", "failed", "metrics"}`, with the
end-to-end metrics for `--trace 0` and the per-layer metrics for
`--trace 1`.  A line before it carries the environment fingerprint, and
`.bench_out/` keeps the full record of the run (and its spans, if traced).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS/OpenMP thread per process: `--jobs 2` on two cores must not
# become 2 x 64 OpenBLAS threads.  Set before numpy is first imported.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPS = 3


def _import_seconds() -> float:
    """Seconds to import the `dmdn` command line in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import dmdn.cli; print(time.perf_counter() - t)"
    )
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read through its own API."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def fingerprint() -> dict:
    """What a result depends on besides the code: versions, machine, thread pools."""
    import numpy
    import scipy

    import dmdn

    try:
        # The ceiling keeps git from reporting a repository that merely contains this tree.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              env=env, timeout=30).stdout.strip() or None
    except OSError:
        head = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "dmdn": getattr(dmdn, "__version__", None),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_head": head,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model or platform.processor(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "platform": platform.platform(),
    }


def _reset(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run(args) -> dict:
    import tracer as tracing
    import workloads

    # References exist for some seeds at the full size only.
    recorded = json.loads((BENCH / "reference.json").read_text()) if args.size == "full" else {}
    reference = recorded.get(args.workload, {}).get(str(args.seed))
    awgn_reference = recorded.get("awgn")

    work = _reset(OUT / f"work-{args.workload}-{os.getpid()}")
    try:
        # Set-up: a fresh interpreter's import of the program, then input
        # generation and writing, repeated; `setup_s` is the median.
        setups = []
        for rep in range(SETUP_REPS):
            t_import = _import_seconds()
            workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
            t0 = time.perf_counter()
            workload.setup(_reset(work / f"setup{rep}"))
            setups.append(t_import + time.perf_counter() - t0)

        tracer = tracing.Tracer() if args.trace else None
        log = workloads.CheckLog()
        units = []  # (traced, wall_s, cpu_s, Unit, per-layer metrics or None)
        first_outputs = None
        loop_start = time.perf_counter()
        while True:
            traced = tracer is not None and len(units) % 2 == 1
            out_dir = _reset(work / "out")
            if traced:
                tracer.reset_unit()
                mark = len(tracer.spans)
                tracer.install()
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                unit = workload.unit(out_dir)
            finally:
                wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
                if traced:
                    tracer.uninstall()
            workload.collect(unit, out_dir)
            workload.check(unit, reference, log)
            log.failed_items += unit.failed_items
            if first_outputs is None:
                first_outputs = unit.outputs
            elif unit.outputs != first_outputs:
                log.fail(unit.items, "outputs differ between two units of one run")
            layer = tracing.unit_metrics(tracer.spans[mark:], unit) if traced else None
            units.append((traced, wall, cpu, unit, layer))

            elapsed = time.perf_counter() - loop_start
            enough = len(units) >= (2 if tracer else 1)
            if enough and elapsed * (len(units) + 1) / len(units) > args.seconds:
                break

        attempted = sum(u[3].items for u in units)
        awgn_digests = workloads.check_awgn(workload.awgn_fields(), awgn_reference, log, attempted)
        failed = min(log.failed_items, attempted)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [u for u in units if not u[0]]
    walls = [u[1] for u in plain]
    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["items_per_s"] = (statistics.median([u[3].items / u[1] for u in plain]), "1/s")
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
        metrics["ok_share"] = ((attempted - failed) / attempted, "ratio")
    else:
        layers = [u[4] for u in units if u[0]]
        values = {name: statistics.median([layer[name] for layer in layers]) for name in layers[0]}
        values["process.cpu_util"] = sum(u[2] for u in plain) / sum(walls)
        traced_wall = statistics.median([u[1] for u in units if u[0]])
        values["trace.overhead_share"] = traced_wall / statistics.median(walls) - 1.0
        values["failed_share"] = failed / attempted
        metrics = {name: (value, tracing.metric_unit(name)) for name, value in values.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "env": fingerprint(), "setup_s": setups,
        "units": [{"traced": t, "wall_s": w, "cpu_s": c, "items": u.items, "layers": layer}
                  for t, w, c, u, layer in units],
        "checks": log.messages, "outputs": first_outputs, "awgn_digests": awgn_digests,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if tracer is not None:
        record["spans"] = [s.as_json() for s in tracer.spans]
    return {
        "record": record,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["eval", "tune", "noise-study"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: small inputs for the self-test; no references apply")
    args = parser.parse_args(argv)

    if not (SRC / "dmdn" / "cli.py").is_file():
        print(f"error: no dmdn sources under {SRC}; run from a dmdn source tree", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))

    out = run(args)
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    record_path.write_text(json.dumps(out["record"]) + "\n")
    for message in out["record"]["checks"]:
        print(f"check failed: {message}")
    print("env: " + json.dumps(out["record"]["env"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
