"""Command-line front end: estimate, gen and bench subcommands."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .errors import ParameterError, ParseError, TVDistError
from .files import (
    KINDS,
    derive_seed,
    emit_instance,
    emit_report,
    generate_instance,
    instance_digest,
    parse_instance,
    region_csv,
)
from .markov import MarkovPair, estimate_markov_tv, markov_lower_bound
from .oracle import (
    brute_force_tv_markov,
    brute_force_tv_product,
    exact_ratio_markov,
    exact_ratio_product,
)
from .product import EstimateReport, ProductPair, estimate_product_tv, product_lower_bound
from .ratios import np_boundary, tv_of_ratio

#: Per pair type: (estimator, exact pipeline, brute-force oracle, lower
#: bound).  Each entry looks the functions up when it is called, so a function
#: replaced on this module, as the benchmark's per-layer tracer does, is the
#: one that runs.
_PIPELINES = {
    ProductPair: lambda: (
        estimate_product_tv, exact_ratio_product, brute_force_tv_product, product_lower_bound
    ),
    MarkovPair: lambda: (
        estimate_markov_tv, exact_ratio_markov, brute_force_tv_markov, markov_lower_bound
    ),
}


def _run_estimate(pair: ProductPair | MarkovPair, mode: str, epsilon, want_ratio: bool):
    """Run one estimate; return its report and final ratio.

    The ratio is None for the oracle, and for fptas runs that need no table:
    those make the same call as the library, so they print the same bits
    and may skip the fold when the Hellinger bound certifies them.
    """
    estimate, exact, brute_force, lower_bound = _PIPELINES[type(pair)]()
    if mode == "fptas":
        if epsilon is None:
            raise ParameterError("mode fptas requires --epsilon")
        if want_ratio:
            return estimate(pair, epsilon, return_ratio=True)
        return estimate(pair, epsilon), None
    if mode == "oracle" and want_ratio:
        raise ParameterError("--emit-region needs a final ratio; use mode fptas or exact")
    start = time.perf_counter()
    if mode == "exact":
        ratio = exact(pair)
        value, support = tv_of_ratio(ratio), len(ratio)
    else:
        ratio, value, support = None, brute_force(pair), 0
    report = EstimateReport(
        estimate=value,
        epsilon=None,
        d_lb=lower_bound(pair),
        max_support=support,
        iterations=0,
        elapsed=time.perf_counter() - start,
    )
    return report, ratio


def cmd_estimate(args) -> int:
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.input} is not UTF-8 text: {exc}") from exc
    pair = parse_instance(text)
    report, ratio = _run_estimate(pair, args.mode, args.epsilon, args.emit_region is not None)
    if args.emit_region is not None:
        Path(args.emit_region).write_text(region_csv(np_boundary(ratio)))
    sys.stdout.write(emit_report(report, args.mode, instance_digest(pair)))
    return 0


def cmd_gen(args) -> int:
    pair = generate_instance(args.kind, args.n, args.q, args.seed, args.skew)
    Path(args.out).write_text(emit_instance(pair))
    return 0


BENCH_HEADER = "kind,n,q,epsilon,estimate,d_lb,max_support,elapsed_ms"


def cmd_bench(args) -> int:
    rows = [BENCH_HEADER]
    for n in args.n:
        for q in args.q:
            pair = generate_instance(args.kind, n, q, derive_seed(args.seed, n, q), args.skew)
            estimate = _PIPELINES[type(pair)]()[0]
            for eps in args.epsilon:
                result = estimate(pair, eps)
                rows.append(
                    f"{args.kind},{n},{q},{eps!r},{result.estimate!r},"
                    f"{result.d_lb!r},{result.max_support},{result.elapsed * 1e3!r}"
                )
    table = "\n".join(rows) + "\n"
    sys.stdout.write(table)
    if args.out is not None:
        Path(args.out).write_text(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvdist",
        description="Estimate the total variation distance between two product "
        "distributions or two Markov chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate the distance for an instance file")
    est.add_argument("--input", required=True, help="instance document to read")
    est.add_argument("--epsilon", type=float, default=None, help="relative error target")
    est.add_argument(
        "--mode",
        choices=("fptas", "exact", "oracle"),
        default="fptas",
        help="fptas: sparsified pipeline; exact: unmerged pipeline; oracle: brute force",
    )
    est.add_argument(
        "--emit-region",
        default=None,
        metavar="PATH",
        help="also write the final ratio's decision-region boundary as CSV",
    )
    est.set_defaults(func=cmd_estimate)

    gen = sub.add_parser("gen", help="write a seeded random instance file")
    gen.add_argument("--kind", choices=KINDS, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--q", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--skew", type=float, default=1.0, help="gamma shape; small = spiky rows")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    bench = sub.add_parser("bench", help="run the estimator over a parameter grid")
    bench.add_argument("--kind", choices=KINDS, required=True)
    bench.add_argument("--n", type=int, nargs="+", required=True)
    bench.add_argument("--q", type=int, nargs="+", required=True)
    bench.add_argument("--epsilon", type=float, nargs="+", required=True)
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--skew", type=float, default=1.0)
    bench.add_argument("--out", default=None, help="also write the CSV table here")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TVDistError as exc:
        print(f"error: {exc.kind}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
