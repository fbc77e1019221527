"""One workload in one process: set up, then run whole passes in a closed loop.

One thread issues one library call at a time and waits for it.  The process
imports numpy first, untimed, since tvdist cannot change its cost, then times
`import tvdist` and `import tvdist.cli` from the checkout's `src`.  The last
line of standard output is a JSON record for run.py; with --setup-only the
process stops after set-up and reports only its set-up time.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402, F401

_t0 = time.perf_counter()
import tvdist  # noqa: E402
import tvdist.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

if not Path(tvdist.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"tvdist imported from {tvdist.__file__}, not from this checkout")


def _module(name: str):
    # Looked up at call time, so a traced pass calls the installed wrappers.
    return sys.modules[name]


def build(workload: str, items: list, cli_paths: list[Path]) -> list:
    """The library-side set-up: typed pairs, or parsed instance files."""
    if workload == "cli-small":
        return [tvdist.parse_instance(path.read_text()) for path in cli_paths]
    if workload == "markov-near":
        return [tvdist.MarkovPair(m.p_init, m.q_init, m.p_kernels, m.q_kernels) for m in items]
    return [tvdist.ProductPair(x.p, x.q) for x in items]


def run_pass(workload: str, built: list, cli_paths: list[Path]) -> tuple[list, int, int]:
    """One pass over the instance set: (outputs, attempted, failed)."""
    eps = wl.EPS[workload]
    outputs, failed = [], 0
    if workload == "cli-small":
        for path in cli_paths:
            for mode_args in (["--epsilon", repr(eps)], ["--mode", "exact"]):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = _module("tvdist.cli").main(["estimate", "--input", str(path), *mode_args])
                if code != 0:
                    failed += 1
                    outputs.append(None)
                    continue
                doc = json.loads(out.getvalue())
                outputs.append([float(doc["estimate"]).hex(), doc["max_support"], doc["instance_digest"]])
        return outputs, 2 * len(cli_paths), failed
    module, function = (
        ("tvdist.markov", "estimate_markov_tv") if workload == "markov-near" else ("tvdist.product", "estimate_product_tv")
    )
    for pair in built:
        try:
            report = getattr(_module(module), function)(pair, eps)
        except tvdist.TVDistError:
            failed += 1
            outputs.append(None)
            continue
        outputs.append([report.estimate.hex(), report.max_support])
    return outputs, len(built), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cli-dir", type=Path, default=None, help="instance files written by run.py")
    parser.add_argument("--spans", type=Path, default=None, help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    items = wl.generate(args.workload, args.seed)
    cli_paths = [args.cli_dir / item.name for item in items] if args.workload == "cli-small" else []
    t0 = time.perf_counter()
    built = build(args.workload, items, cli_paths)
    setup_s = IMPORT_S + (time.perf_counter() - t0)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    plain_s, traced_s, outputs = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        # A traced run alternates untraced and traced passes, so both see
        # the same stretch of machine time.
        traced = tracer is not None and len(plain_s) > len(traced_s)
        if traced:
            tracer.install()
        t = time.perf_counter()
        try:
            out, tried, bad = run_pass(args.workload, built, cli_paths)
        finally:
            elapsed = time.perf_counter() - t
            if traced:
                tracer.uninstall()
        (traced_s if traced else plain_s).append(elapsed)
        outputs.append(out)
        attempted += tried
        failed += bad
        # Whole rounds only: stop once the next round would end past the
        # deadline, but never before two passes (one round of each kind
        # when tracing), which the repeat check needs.
        round_len = 2 if tracer else 1
        if len(outputs) % round_len:
            continue
        typical = statistics.median(plain_s + traced_s) * round_len
        if len(outputs) >= 2 and time.perf_counter() - start + typical > args.seconds:
            break

    record = {
        "setup_s": setup_s,
        "pass_s": plain_s,
        "outputs": outputs,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        per_pass = [tracer.pass_stats(spans) for spans in tracer.passes]
        record["traced_pass_s"] = traced_s
        record["layers"] = per_pass
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
