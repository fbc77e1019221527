"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 tvbench/sweep.py --workloads product-near cli-small --seeds 1-10 --seconds 24 \
        --out .tvbench/sweeps/first.json

For every workload and end-to-end metric it prints the median of the runs
and the spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median.  With --trace 1 it
prints the per-layer metrics instead, with their medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=int(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="also write every run's result here")
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in seeds(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["wall_s"] = time.perf_counter() - start
            runs.setdefault(workload, []).append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items() if not args.trace}
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} wall={result['wall_s']:.1f}s {values}", flush=True)

    print()
    for workload, results in runs.items():
        names = list(results[0]["metrics"])
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            line = f"{workload:20s} {name:45s} median {statistics.median(values):.6g}"
            if len(values) >= 2 and statistics.median(values):
                line += f"  spread {spread(values):.4f}"
            print(line)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
