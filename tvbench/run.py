"""tvdist benchmark: one workload per invocation, checked and timed.

    python3 tvbench/run.py --workload product-near --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; tvdist is imported from its `src`.  The
workload's inputs are generated here from --seed, and its references are
computed apart from tvdist (see refs.py).  Set-up is measured in fresh
processes before and after the measuring one and in the measuring one
itself, which then runs whole passes over the instance set for about
--seconds.

With --trace 0 the metrics are the end-to-end ones (pass_s, setup_s,
peak_rss_mb, max_support); with --trace 1 they are the per-layer ones, from
a run that alternates untraced and traced passes.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Records of
each run and the spans of traced runs go under .tvbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import refs as rf
import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Set-up probes run before and after the measuring worker; with its own
#: sample that makes seven, spread over the whole run.
SETUP_PROBES = 3
#: Slack past --seconds before a worker is killed; a run must end in 180 s.
WORKER_GRACE_S = 100


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, record: dict, refs: dict) -> list[str]:
    """Every failure of the workload's output checks, as text."""
    passes = record["outputs"]
    problems = rf.check_repeats(passes)
    eps = wl.EPS[workload]
    # Failed operations (None) are counted in `failed`, not checked.
    estimates = [None if out is None else float.fromhex(out[0]) for out in passes[0]]
    if workload in ("product-near", "markov-near"):
        return problems + rf.check_near(estimates, refs, eps)
    if workload == "product-saturating":
        return problems + rf.check_saturating(estimates, refs, eps)
    reports = [None if out is None else {"estimate": e, "digest": out[2]} for e, out in zip(estimates, passes[0])]
    return problems + rf.check_cli(reports, refs, eps)


def layer_metrics(record: dict) -> dict:
    """Per-layer metrics: counts of one pass, self times averaged over passes."""
    per_pass = record["layers"]
    metrics = {}
    for name, unit in tracing.metric_names():
        prefix, stat = name.rsplit(".", 1)
        if prefix == "trace":
            continue
        values = [stats[prefix][stat] for stats in per_pass]
        value = statistics.fmean(values) if stat == "self_s" else values[0]
        metrics[name] = {"value": value, "unit": unit}
    traced = statistics.fmean(record["traced_pass_s"])
    metrics["trace.pass_s"] = {"value": traced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - statistics.fmean(record["pass_s"]), "unit": "s"}
    return metrics


def count_drift(record: dict) -> list[str]:
    """Counts must repeat exactly from one traced pass to the next."""
    first = record["layers"][0]
    bad = []
    for k, stats in enumerate(record["layers"][1:], start=1):
        for prefix, row in stats.items():
            for stat, value in row.items():
                if stat not in ("self_s", "mass") and value != first[prefix][stat]:
                    bad.append(f"traced pass {k}: {prefix}.{stat} {value} != {first[prefix][stat]}")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tvdist" / "__init__.py").is_file():
        return _fail(f"no tvdist sources under {ROOT / 'src'}; run from the root of a checkout")
    if args.workload not in wl.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; expected one of {', '.join(wl.WORKLOADS)}")

    work = ROOT / rf.WORK_DIR
    items = wl.generate(args.workload, args.seed)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.workload == "cli-small":
        cli_dir = work / "cli-small" / f"seed-{args.seed}"
        wl.write_cli_files(items, cli_dir)
        common += ["--cli-dir", str(cli_dir)]
    refs = rf.load_or_compute(ROOT, args.workload, args.seed, items)

    timeout = args.seconds + WORKER_GRACE_S
    try:
        setups = [_worker([*common, "--setup-only"], timeout)["setup_s"] for _ in range(SETUP_PROBES)]
        spans = work / "spans" / f"{args.workload}.jsonl"
        record = _worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", str(spans)],
            timeout,
        )
        setups.append(record["setup_s"])
        setups += [_worker([*common, "--setup-only"], timeout)["setup_s"] for _ in range(SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))

    problems = check(args.workload, record, refs)
    if args.trace:
        problems += count_drift(record)
        metrics = layer_metrics(record)
    else:
        first = [out for out in record["outputs"][0] if out is not None]
        metrics = {
            "pass_s": {"value": statistics.median(record["pass_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
            "max_support": {"value": sum(out[1] for out in first), "unit": "count"},
        }

    result = {
        "correct": not problems,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "setup_samples": setups, "record": record, "problems": problems}) + "\n"
    )
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    print(
        f"{args.workload} seed {args.seed}: {len(record['pass_s'])} untraced passes"
        f" (pass_s is their median), {len(setups)} set-up samples (setup_s is their median)"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
