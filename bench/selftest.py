#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny input size.

    python3 bench/selftest.py

For every workload it runs `bench/run.py --size tiny` once untraced and
once traced, and checks that

- both runs pass their own output checks, and tracing leaves every output
  and every manifest's `aggregate_metrics` identical;
- every span's self time is >= 0, and in every traced unit each layer's
  busy time is at most that unit's wall time;
- every metric name matches `[A-Za-z0-9_.-]+`, and the untraced and traced
  runs print exactly the `end_to_end` and `per_layer` metrics that
  `BENCHMARK.json` declares, with the declared units.

Exits 0 when all checks hold.  Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

from tracer import Span, self_times

BENCH = Path(__file__).resolve().parent
OUT = BENCH.parent / ".bench_out"
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SEED = 3


def run(workload: str, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / f"{workload}-seed{SEED}-trace{trace}-tiny.json").read_text())
    return result, record


def main() -> int:
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    problems = []
    for workload in ("eval", "tune", "noise-study"):
        plain, plain_record = run(workload, 0)
        traced, traced_record = run(workload, 1)
        for label, result, record, kind in (("untraced", plain, plain_record, "end_to_end"),
                                            ("traced", traced, traced_record, "per_layer")):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} {label}: checks failed: {record['checks']}")
            for name in result["metrics"]:
                if not NAME.match(name):
                    problems.append(f"{workload} {label}: bad metric name {name!r}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != {m["name"]: m["unit"] for m in declared[kind]}:
                problems.append(f"{workload} {label}: printed metrics differ from BENCHMARK.json {kind}")
        if plain_record["outputs"] != traced_record["outputs"]:
            problems.append(f"{workload}: traced and untraced runs produced different outputs")
        spans = [Span(d["id"], d["name"], d["start"], d["end"], d["parent"]) for d in traced_record["spans"]]
        negative = [sid for sid, t in self_times(spans).items() if t < -1e-9]
        if negative:
            problems.append(f"{workload}: {len(negative)} spans with negative self time")
        traced_units = [u for u in traced_record["units"] if u["traced"]]
        if not traced_units:
            problems.append(f"{workload}: the traced run traced no unit")
        for unit in traced_units:
            for name, value in unit["layers"].items():
                if name.endswith("busy_s") and value > unit["wall_s"]:
                    problems.append(f"{workload}: {name} = {value:.4f} s exceeds the unit's wall "
                                    f"{unit['wall_s']:.4f} s")
        print(f"{workload}: untraced {plain['attempted']} items, traced {traced['attempted']} items, "
              f"{len(traced_record['spans'])} spans, overhead "
              f"{traced['metrics']['trace.overhead_share']['value']:+.3f}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
