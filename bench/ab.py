"""A/B timing of two tvdist source trees on one benchmark workload.

    python3 bench/ab.py --parent ../parent/src --change src --workload markov-near --seed 1 --pairs 8 --passes 15
    python3 bench/ab.py --parent ../parent/src --change src --workload battery --pairs 1 --passes 1

Runs `--pairs` pairs of processes, one per side, alternating which side runs
first.  Each process imports tvdist from its side's `src` directory, builds
the workload's inputs (imported read-only from `tvbench/workloads.py`, the
same seeded arrays and files the benchmark uses) and runs `--passes` whole
passes over them in process; its time is the best pass.  The report gives
each side's median and quartiles over its processes, the pairs the change
won (ties count for neither), whether every process of both sides gave the
same outputs (each call's `MATCHED` report fields, floats as hex) and the
first process's count of calls by `tries`.

The `battery` workload is the same-bits check of a change that keeps the
estimates: 8,008 library runs over generated and near pairs (`battery`),
each also giving its `iterations` and its table's sha256, with the
certificate (`product._holds`) forced to miss on the runs at n <= 4.  Its
seed is not read.

The last line of standard output is one JSON object; the lines before it
say the same in words.  The exit status is 0 when every process ran, also
when the outputs differ (`match` is then false), and 2 on bad arguments or a
failed process.  Timings depend on the machine, so nothing here gates them.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tvbench"))

import workloads as wl  # noqa: E402

#: A side's process that runs longer is stopped and reported as failed; a
#: pass of any workload takes well under a second.
PROCESS_TIMEOUT_S = 600

#: The report fields `match` compares for each call, from the library's
#: report or the CLI's document; a field the document leaves out is None.
MATCHED = ("estimate", "max_support", "tries", "upper", "eps_s")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _source(text: str) -> Path:
    """A `src` directory holding the tvdist package, for argparse."""
    path = Path(text).resolve()
    if not (path / "tvdist" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"no tvdist package under {text}")
    return path


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def matched(fields: dict) -> list:
    """One call's `MATCHED` fields, in order, each float as its hex."""
    return [value.hex() if isinstance(value, float) else value for value in map(fields.get, MATCHED)]


def _near_rows(seed: int, shape: tuple) -> tuple:
    """Gamma(1) rows and their log-normal perturbation by `wl.SIGMA`, renormalized."""
    rng = np.random.default_rng(seed)
    p = rng.gamma(1.0, size=shape)
    p /= p.sum(axis=-1, keepdims=True)
    q = p * np.exp(wl.SIGMA * rng.standard_normal(p.shape))
    return p, q / q.sum(axis=-1, keepdims=True)


def battery(tvdist) -> list[tuple]:
    """The battery's runs, each (estimate, pair, eps, return_ratio, forced).

    Generated products and chains at n 2, 3, 4, 8 and 16, q 2, 3, 4 and 6,
    skew 0.3, 0.7, 1 and 2 and seeds 0 to 3, and near pairs of seeds 1 to 6,
    a product of n 50 and q 10 and a chain of n 16 and q 10, run at eps
    0.2, 0.05 and 0.0125, and 1e-3 at n <= 8, each with and without the
    final table: 4,936 runs.  The 3,072 of them at n <= 4 run again with
    every certificate forced to miss, so they end at the paper's width.
    """
    pairs = [
        (estimate, generate(n, q, seed=seed, skew=skew))
        for estimate, generate in (
            (tvdist.estimate_product_tv, tvdist.generate_product_instance),
            (tvdist.estimate_markov_tv, tvdist.generate_markov_instance),
        )
        for n in (2, 3, 4, 8, 16) for q in (2, 3, 4, 6) for skew in (0.3, 0.7, 1.0, 2.0) for seed in range(4)
    ]
    for seed in range(1, 7):
        p, q = _near_rows(seed, (50, 10))
        pairs.append((tvdist.estimate_product_tv, tvdist.ProductPair(p, q)))
        p, q = _near_rows(seed, (16, 10, 10))
        pairs.append((tvdist.estimate_markov_tv, tvdist.MarkovPair(p[0, 0], q[0, 0], p[1:], q[1:])))
    return [
        (estimate, pair, eps, return_ratio, forced)
        for forced in (False, True)
        for estimate, pair in pairs if not forced or pair.n <= 4
        for eps in (0.2, 0.05, 0.0125, 1e-3) if eps > 1e-3 or pair.n <= 8
        for return_ratio in (False, True)
    ]


def battery_outputs(tvdist, runs: list[tuple]) -> list:
    """Each run's `MATCHED` fields, then its iterations and its table's sha256 (None without one)."""
    product, holds = tvdist.product, getattr(tvdist.product, "_holds", None)
    if holds is None:
        raise SystemExit(f"{tvdist.__file__}: no product._holds to force")
    outputs = []
    try:
        for estimate, pair, eps, return_ratio, forced in runs:
            product._holds = (lambda *args: False) if forced else holds
            report, table = estimate(pair, eps, return_ratio=True) if return_ratio else (estimate(pair, eps), None)
            sha = None if table is None else hashlib.sha256(table.values.tobytes() + table.masses.tobytes()).hexdigest()
            outputs.append([*matched(vars(report)), report.iterations, sha])
    finally:
        product._holds = holds
    return outputs


def _side(src: Path, workload: str, seed: int, passes: int) -> dict:
    """One process's side: the best of `passes` passes and the first pass's outputs."""
    sys.path.insert(0, str(src))
    import tvdist
    import tvdist.cli

    if not Path(tvdist.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"tvdist imported from {tvdist.__file__}, not from {src}")
    items = [] if workload == "battery" else wl.generate(workload, seed)
    eps = wl.EPS.get(workload)
    with tempfile.TemporaryDirectory() as workdir:
        if workload == "battery":
            runs = battery(tvdist)

            def one_pass():
                return battery_outputs(tvdist, runs)
        elif workload == "cli-small":
            paths = [str(p) for p in wl.write_cli_files(items, Path(workdir))]
            modes = (["--epsilon", repr(eps)], ["--mode", "exact"])
            calls = [["estimate", "--input", p, *mode] for p in paths for mode in modes]

            def one_pass():
                outputs = []
                for argv in calls:
                    out = io.StringIO()
                    with redirect_stdout(out), redirect_stderr(io.StringIO()):
                        code = tvdist.cli.main(argv)
                    if code != 0:
                        outputs.append(None)
                        continue
                    outputs.append(matched(json.loads(out.getvalue())))
                return outputs
        else:
            if workload == "markov-near":
                pairs = [tvdist.MarkovPair(m.p_init, m.q_init, m.p_kernels, m.q_kernels) for m in items]
                estimate = tvdist.estimate_markov_tv
            else:
                pairs = [tvdist.ProductPair(x.p, x.q) for x in items]
                estimate = tvdist.estimate_product_tv

            def one_pass():
                outputs = []
                for pair in pairs:
                    outputs.append(matched(vars(estimate(pair, eps))))
                return outputs

        best, first = float("inf"), None
        for _ in range(passes):
            t = time.perf_counter()
            outputs = one_pass()
            best = min(best, time.perf_counter() - t)
            first = outputs if first is None else first
    return {"best_s": best, "outputs": first}


def _run_side(src: Path, args) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--side", str(src),
        "--workload", args.workload, "--seed", str(args.seed), "--passes", str(args.passes),
    ]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: process exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles, exclusive method); one value is all three."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def tally(outputs: list) -> dict:
    """Calls by `tries`, the third `MATCHED` field; a run with no tries counts under "None"."""
    return dict(sorted(Counter(str(fields[2]) for fields in outputs).items()))


def summarize(parent: list[float], change: list[float], match: bool) -> dict:
    """The report of paired best-pass times, pair i being (parent[i], change[i])."""
    return {
        "pairs": len(parent),
        "parent": spread(parent),
        "change": spread(change),
        "change_wins": sum(c < p for p, c in zip(parent, change)),
        "parent_wins": sum(p < c for p, c in zip(parent, change)),
        "match": match,
        "parent_best_s": parent,
        "change_best_s": change,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=_source, help="the parent's src directory")
    parser.add_argument("--change", type=_source, help="the change's src directory")
    parser.add_argument("--workload", choices=(*wl.WORKLOADS, "battery"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=_positive, default=8, help="processes per side, alternating")
    parser.add_argument("--passes", type=_positive, default=15, help="in-process passes; a process reports its best")
    parser.add_argument("--side", type=_source, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.side is not None:
        print(json.dumps(_side(args.side, args.workload, args.seed, args.passes)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are both required")

    times = {"parent": [], "change": []}
    outputs = []
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                record = _run_side(getattr(args, side), args)
                times[side].append(record["best_s"])
                outputs.append(record["outputs"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))

    report = summarize(times["parent"], times["change"], all(out == outputs[0] for out in outputs))
    report = {"workload": args.workload, "seed": args.seed, "passes": args.passes, **report, "tries": tally(outputs[0])}
    for side in ("parent", "change"):
        s = report[side]
        print(f"{side}: median {s['median'] * 1e3:.3f} ms [q1 {s['q1'] * 1e3:.3f}, q3 {s['q3'] * 1e3:.3f}]")
    print(
        f"{args.workload} seed {args.seed}: change won {report['change_wins']} of {report['pairs']} pairs"
        f" (best of {args.passes} passes per process); outputs {'match' if report['match'] else 'DIFFER'}"
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
