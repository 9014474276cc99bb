"""Run a workload once per seed and print each metric's median, quartiles
and spread (interquartile distance as a share of the median).

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds 3] [--trace 0]

Runs one at a time, so the figures are those of a single loaded process.
Each run's JSON line is also appended to ``perfbench/results/runs.jsonl``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds)
    parser.add_argument("--seconds", type=int, default=3)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    (HERE / "results").mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    failures = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = {"workload": args.workload, "seed": seed, "trace": args.trace, **result,
                  "stderr": proc.stderr.strip().splitlines()}
        with open(HERE / "results" / "runs.jsonl", "a") as f:
            f.write(json.dumps(record) + "\n")
        failures.append((result["correct"], result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']}", file=sys.stderr, flush=True)

    print(f"{'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:40s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}")
    print(f"correct/failed/attempted per run: {failures}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
