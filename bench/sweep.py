#!/usr/bin/env python3
"""Run one workload over several seeds and summarise the spread of each metric.

    python3 bench/sweep.py --workload eval --seeds 0-9 --seconds 20 [--trace 1]
                           [--out bench/baseline/eval.json] [--record-reference]

Each seed is a separate `bench/run.py` process.  For every metric the
summary gives the values, their median and quartiles (as
`statistics.quantiles(values, n=4)` computes them) and the spread
(q3 - q1) / median.  `--record-reference` stores each seed's checked outputs
and AWGN digests in `bench/reference.json`, so later runs of those seeds
compare against them; use it only on a program whose outputs are trusted.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    runs, env = [], None
    for seed in parse_seeds(args.seeds):
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        env = next((json.loads(line[5:]) for line in lines if line.startswith("env: ")), env)
        runs.append({"seed": seed, **result})
        shown = "  ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if "." not in k)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}  {shown}",
              flush=True)

    summary = {}
    for name, metric in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        spread = (q3 - q1) / abs(median) if median else 0.0
        summary[name] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3, "spread": spread,
                         "values": values}
        if "." not in name or args.trace:
            print(f"{name:32s} median {median:12.6g} {metric['unit']:7s} spread {spread:8.4f}")

    if args.out:
        out = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
               "seeds": [r["seed"] for r in runs], "env": env,
               "correct": all(r["correct"] for r in runs), "metrics": summary}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")

    if args.record_reference:
        path = BENCH / "reference.json"
        reference = json.loads(path.read_text())
        for r in runs:
            record = json.loads((ROOT / ".bench_out" /
                                 f"{args.workload}-seed{r['seed']}-trace{args.trace}-full.json").read_text())
            if not r["correct"]:
                print(f"seed {r['seed']}: not recorded, its checks failed", file=sys.stderr)
                continue
            reference.setdefault(args.workload, {})[str(r["seed"])] = record["outputs"]
            reference.setdefault("awgn", {}).update(record["awgn_digests"])
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
