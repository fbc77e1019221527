"""Deterministic relative-error estimator for products of marginals.

A product is the one-state case of the shared fold (`ratios._fold`): each
coordinate is one step whose single row pair multiplies into the running
table, in coordinate order, and the table is sparsified before each step so
its support stays bounded.  The returned estimate always lower-bounds the
true total variation distance and is within a (1 - eps) factor of it.  One
function (`_estimate`) holds every exit of a run, and its width schedule
proves that by one rule, estimate >= (1 - eps) * upper (`_holds`, exact),
for a proven upper bound that starts at 1: first for the Hellinger lower
bound 1 - BC (BC the Bhattacharyya coefficient), with no fold, where the
free upper bound from the per-step distances says it could hold, then for
merge folds at up to two law-sized cell widths against spread folds at the
same widths.  When both widths miss, a third merge fold at the paper's a
priori width eps / (slack * n), which needs no certificate, ends the run.
A caller that asks for the final table (`return_ratio=True`, the CLI's
`--emit-region`) always gets a fold.  The Markov estimator runs its steps
through `_estimate` here as well.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionError, ParameterError, SizeError, ValidityError
from .ratios import (
    ROW_SUM_EXACT, VALIDITY_TOL, _fold, _is_real, _live_pairs, _table, _tv, _validate_rows,
    tv_discrete,
)
from .sparsify import _merge_cells, _spread_cells, build_partition


@dataclass(frozen=True)
class ProductPair:
    """Two product distributions over [q]^n, given by their marginal rows."""

    p_marginals: np.ndarray
    q_marginals: np.ndarray

    def __post_init__(self) -> None:
        p = _validate_rows(self.p_marginals, "p_marginals")
        q = _validate_rows(self.q_marginals, "q_marginals")
        if p.shape != q.shape:
            raise DimensionError(f"marginal shapes differ: {p.shape} vs {q.shape}")
        if p.shape[0] < 1:
            raise DimensionError("a product needs at least one coordinate")
        object.__setattr__(self, "p_marginals", p)
        object.__setattr__(self, "q_marginals", q)

    @property
    def n(self) -> int:
        return self.p_marginals.shape[0]

    @property
    def q(self) -> int:
        return self.p_marginals.shape[1]


@dataclass(frozen=True)
class EstimateReport:
    """The record of one run: its estimate, accuracy target and diagnostics.

    The estimators fill in `epsilon`; exact and oracle runs, which merge
    nothing, leave it None and report no iterations and no tries.  `tries`
    counts the partitions the run folded at (`_estimate`), and `iterations`
    is n - 1 when it folded at any, else 0.  `upper` is the smallest upper
    bound on the distance the run proved, and `eps_s` the relative cell
    width of the fold whose estimate it reports, or `epsilon` when no fold
    ran (`tries` 0, `upper` 1.0, `max_support` 0); only a single step and a
    zero d_lb leave both None.  `tries` 0 to 2 are certified, estimate >=
    (1 - epsilon) * upper exactly for the floats reported; `tries` 3 ends at
    the paper's width, whose guarantee is a priori.
    """

    estimate: float
    epsilon: float | None
    d_lb: float
    max_support: int
    iterations: int
    elapsed: float
    upper: float | None = None
    eps_s: float | None = None
    tries: int = 0

    def __post_init__(self) -> None:
        if not -VALIDITY_TOL <= self.estimate <= 1.0 + VALIDITY_TOL:
            raise ValidityError(f"estimate {self.estimate!r} outside [0, 1]")
        if not self.d_lb <= 1.0 + VALIDITY_TOL:
            raise ValidityError(f"lower bound {self.d_lb!r} exceeds 1")
        if self.upper is not None and not self.estimate <= self.upper + VALIDITY_TOL:
            raise ValidityError(f"upper bound {self.upper!r} below the estimate {self.estimate!r}")


#: The estimators' one size cap, read at call time.  A fold step may build at
#: most this many entries (`ratios._fold` checks them before the step
#: allocates), and a partition may have at most this many low-side cells m
#: (`_partition`, before any fold runs at it).  In bytes, a fold peaked at
#: about 38 B per entry of its largest step (tracemalloc, chains of q 100 to
#: 300 and n 3: 37.5 to 38.2 B), the step and the merge of its table alike:
#: about 2.5 GB at 2**26 entries.  A merge's slot map (`sparsify._slot_sums`)
#: is dense, 32 B a slot for its four float64 sums, only where it has at
#: most max(entries, 2**16) slots; a larger one, from a fine partition of up
#: to 2 * cap + 3 slots a state, first numbers its occupied slots by
#: `np.unique`, so it costs memory per entry, not per slot.  One merge of a
#: 1,000-entry one-state table at m = 2**26 took 0.08 ms and 0.09 MiB
#: (tracemalloc, best of five; 2 cores, numpy 2.4.6), and one of 10**6
#: entries, nearly all in cells of their own, 95 B per entry.  Only the
#: paper-width fold after two missed law passes comes near the cap in m: the
#: benchmark's estimates build no partition past m = 44, the tests' past
#: m = 1,471,928 (a chain made to miss twice), while a product estimate at
#: eps = 1e-3 and n = 10**4 would need m = 336,224,866 at the paper's width.
MAX_TABLE_ENTRIES = 2**26

#: The schedule's first law width is sqrt(BRACKET_LAW_K * eps / (n * s)),
#: with s the pair's free bound S clamped to [1/2, 1] (`_estimate`).  The
#: relative bracket of a pass at width w measured about c * n * w**2, so
#: K = 25 aims it at eps / 2 when c = 0.02 and S >= 1.  At the width that
#: ignores S, c measured 0.012 to 0.016 on the benchmark's near pairs (S 0.1
#: to 0.4, eps 0.05), 0 to 0.040 on its small far instances (eps 0.1), and
#: up to 0.069 on generated far products and chains (n 4 to 16, eps 0.05).
BRACKET_LAW_K = 25


def _bounds(pair: ProductPair) -> tuple[float, float]:
    """(d_lb, S) from the coordinates' half-L1 distances, computed once.

    Each coordinate's distance is at most the product's, since dropping the
    other coordinates is a garbling, so their largest is d_lb.  Swapping
    one coordinate at a time (the hybrid argument) moves the distance by at
    most that coordinate's, so their sum S bounds it from above, up to a
    rounding term (`_free_rounding`).
    """
    per_coord = 0.5 * np.sum(np.abs(pair.p_marginals - pair.q_marginals), axis=1)
    return float(np.max(per_coord)), math.fsum(per_coord.tolist())


def product_lower_bound(pair: ProductPair) -> float:
    """Largest per-coordinate distance: within a factor n of the true one."""
    return _bounds(pair)[0]


def _steps(pair: ProductPair) -> list[tuple[np.ndarray, np.ndarray]]:
    """The fold's steps as one stack: each coordinate's single row pair, in order."""
    return [(pair.p_marginals[:, None], pair.q_marginals[:, None])]


def _affinity_gap(stacks) -> float:
    """1 - BC, where BC is the Bhattacharyya coefficient of the folded pair.

    TV >= 1 - BC (Le Cam), and BC = sum_x sqrt(p(x) q(x)) factorizes over the
    steps the way the ratio tables do: v <- sqrt(P * Q) @ v from v = 1, with
    a single entry serving every column, for each step of each stack in
    turn.  Each step rescales v to a maximum of 1 and keeps the scale as a
    logarithm, so thousands of steps cannot underflow.  Disjoint supports
    give BC = 0 and a gap of exactly 1.

    v holds one entry or one per column.  One entry is exactly 1.0: it
    starts as np.ones(1), and a rescale divides a finite nonzero x by
    itself, which rounds to 1 exactly.  So each stack builds one read-only
    stride-0 vector of ones, the array np.broadcast_to(v, cols) would return
    for that v (with one column, a single 1.0 either way), and a step with a
    one-entry v multiplies by it; a v with one entry per column is the view
    broadcast_to would return.  The matmul sees the same values, dtype and
    strides, so the bits are those of a per-step broadcast_to, without its
    fixed cost at every step.  A contiguous np.ones in place of the stride-0
    vector moves bits: the matmul then takes another summation path.
    """
    v, log_bc = np.ones(1), 0.0
    for p_stack, q_stack in stacks:
        ones = np.broadcast_to(1.0, p_stack.shape[-1])
        for p_rows, q_rows in zip(p_stack, q_stack):
            v = np.sqrt(p_rows * q_rows) @ (ones if v.size == 1 else v)
            top = float(v.max())
            if top == 0.0:
                return 1.0
            v /= top
            log_bc += math.log(top)
    return -math.expm1(log_bc)


def _free_rounding(pair) -> float:
    """The free bound's rounding term: S plus it bounds TV and the float max(d_lb, 1 - BC).

    S is the float sum of the run's per-step distances (`_bounds`,
    `markov._bounds`); with rows that sum to 1 exactly, TV <= S.  The term
    is n * (n + 1) * (ROW_SUM_EXACT + (q + 8) * ulp(1)) for n steps of q
    columns, a derived bound on every rounding and row-mass term between S
    and the two floats the fold-free exit tests.  With u = ulp(1) / 2 and
    delta = ROW_SUM_EXACT + q * u, how far a stored row's exact sum may lie
    from 1:

    - row masses scale each hybrid swap by at most (1 + delta)**(n - 1), so
      TV <= S_exact * (1 + (n - 1) * delta), and S <= n * (1 + delta)**n;
    - S_exact exceeds S by at most ((n + 1) * (q + 1) + n) * u relative: a
      chain's term carries its q-marginal's n - 1 products of q terms, and
      `math.fsum` rounds once;
    - the exact 1 - BC exceeds TV by at most the paths' mass deficit,
      n * delta, as BC >= sum_x min(p(x), q(x));
    - `_affinity_gap` exceeds the exact 1 - BC by at most n * (q + 4) * u +
      3 * u: each step rounds a product, a square root, a q-term dot product
      and a rescale, and the logarithms and `expm1` add at most
      (n + 2) * u * |log BC| * BC <= (n + 2) * u / e;
    - d_lb is at most S, as a float sum of nonnegative terms is at least
      each of them (a chain's d_lb is half its largest term).

    The terms add to n**2 * delta + (2*n**2*q + 2*n**2 + 2*n*q + 5*n + 3) * u,
    which leaves the bound more than 14 * n**2 * u for second-order terms.

    Subtracted from max(d_lb, 1 - BC), the same term keeps the fold-free
    estimate at or below TV (`_estimate`): a certified difference is
    positive, so the subtraction rounds by at most u, and each float exceeds
    TV by far less than the term.  The float 1 - BC does so by at most
    n * delta + n * (q + 4) * u + 3 * u (the third and fourth items), and
    d_lb by at most about n * delta + (n + 1) * (q + 1) * u / 2.  For d_lb,
    TV is at least the distance between the two measures' marginals on one
    coordinate, or on two consecutive steps of a chain, whose points the
    other rows' masses scale by (1 +- delta)**(n - 1).  So a product's exact
    per-coordinate distance exceeds TV by about (n - 1) * delta at most.  A
    chain's exact term sum_x qm(x) * d(x), for the q-marginal qm and the
    rows' distances d, is at most that two-step marginal's distance plus
    (1 + delta) times the one-step marginal's (triangle inequality), so
    half of it, like half its first term, the initial rows' distance,
    exceeds TV by about n * delta at most.  The float d_lb adds the
    relative rounding of the second item.
    """
    n, q = pair.n, pair.q
    return n * (n + 1) * (ROW_SUM_EXACT + (q + 8) * math.ulp(1.0))


def _holds(estimate: float, upper: float, eps: float) -> bool:
    """estimate >= (1 - eps) * upper, exactly: a*d*f >= (d-c)*e*b for the floats' ratios a/b, c/d and e/f."""
    a, b = estimate.as_integer_ratio()
    c, d = eps.as_integer_ratio()
    e, f = upper.as_integer_ratio()
    return a * d * f >= (d - c) * e * b


def _partition(eps_s: float, delta_s: float):
    """The partition at width eps_s and tail delta_s, refused past MAX_TABLE_ENTRIES low-side cells.

    Every fold of the schedule runs at one of these, and a merge's slot map
    has 2m + 3 slots, so m is checked before any fold does.
    """
    part = build_partition(eps_s, delta_s)
    if part.m > MAX_TABLE_ENTRIES:
        raise SizeError(
            f"partition for eps_s={eps_s!r}, delta_s={delta_s!r} "
            f"needs m={part.m:.4g} low-side intervals, beyond the cap of {MAX_TABLE_ENTRIES}"
        )
    return part


def _merged(pairs, part):
    """The merge fold at `part`: its final table, its estimate and its peak.

    The estimate lower-bounds the distance at any width: merging a cell to
    its mean is a garbling.
    """
    values, masses, peak = _fold(pairs, partial(_merge_cells, part), MAX_TABLE_ENTRIES)
    return (values, masses), _tv(values, masses), peak


def _spread(pairs, part):
    """The spread fold at `part`: an upper bound on the distance, and its peak.

    The fold's distance plus the q-mass it dropped (`_fold`) bounds the
    distance from above at any width: a mean-preserving spread under a
    convex functional.
    """
    values, masses, peak = _fold(pairs, partial(_spread_cells, part), MAX_TABLE_ENTRIES)
    return _tv(values, masses) + max(0.0, 1.0 - float(np.sum(masses))), peak


def _estimate(pair, eps, bounds, steps, slack: int, return_ratio: bool):
    """Shared body of the product and Markov estimators: every exit of a run, in order.

    `bounds` gives the pair's (d_lb, S) from one pass over its per-step
    distances.  Every exit returns through `done`, which builds the report
    by name, with iterations n - 1 when the run folded at any partition,
    else 0, and with `return_ratio` the exit's final table beside it.  Two
    exits are exact and fold at no partition: a single step reports the
    half-L1 distance of its rows, rounded toward 0 (`tv_discrete`), and a
    zero d_lb, which forces the distance to 0, an estimate of 0.

    Every certified exit is one rule, estimate >= (1 - eps) * upper, decided
    exactly on the floats (`_holds`), with upper starting at 1 because
    TV <= 1.  Unless a table is asked for, max(d_lb, 1 - BC) less the free
    bound's rounding term (`_free_rounding` derives why that is at most TV)
    is held against it first and returns with no fold, no table, width eps
    and tries 0.  That exit costs an O(n) pass (`_affinity_gap`), so it runs
    only when the free bound on both of its terms, S = `total` plus that
    term, passes the rule; a run it skips could not have certified there.
    Then up to three passes fold, the first two at law widths, the first
    sqrt(BRACKET_LAW_K * eps / (n * s)) with s = min(1, max(S, 1/2)): a pair
    with S >= 1 folds at sqrt(BRACKET_LAW_K * eps / n), and a near pair,
    whose bracket law has a smaller c, at up to sqrt(2) times that.  A pass
    holds its own merge estimate (`_merged`) against the smallest spread
    bound (`_spread`) so far, running its spread fold unless the rule
    already holds: both ends are sound at any width.  A pass that certifies
    returns its own table and width.  A miss brackets more than eps exactly,
    b = 1 - estimate / upper, which grows about as c * n * w**2, and
    predicts the width w * sqrt(eps / (4 * b)) that would bracket eps / 4,
    so a second try that brackets up to 4 times its prediction still
    certifies.  The float b is floored at 2**-53, the least positive 1 - x
    for a float x, and is below it only at eps < 2**-54, whose law partition
    already needs over MAX_TABLE_ENTRIES cells, or where tests force every
    pass to miss (the rule holds at estimate == upper).  An eps whose paper
    width underflows to 0 is refused (SizeError) before any fold.  After two
    misses the third pass merges at the paper's width eps / (slack * n) and
    tail (eps / (2 * n)) * d_lb, whose a priori guarantee needs no
    certificate, so it runs no spread fold and returns its merge whether the
    rule holds or not.  A pass at width w takes that tail times w over the
    paper's width, the tail itself bit for bit at the paper's width.  The
    tail is at least ulp(1)**2, so it cannot underflow, and that floor
    changes no fold: a smaller tail only raises m, and the
    clip of the keys at m never binds below 1 - 2**-53, whose closed form is
    about half the m of a tail of 2**-104, so every float keeps its cell.
    The folds share the steps' live pairs, read once after the fold-free
    exit (`_live_pairs`), and each partition is held against
    MAX_TABLE_ENTRIES before any of them runs at it (`_partition`).
    `max_support` is the largest table any fold built.
    """
    if not (_is_real(eps) and math.isfinite(eps) and 0.0 < eps < 1.0):
        raise ParameterError(f"eps must lie strictly between 0 and 1, got {eps}")
    eps = float(eps)
    start = time.perf_counter()
    d_lb, total = bounds(pair)
    n = pair.n

    def done(estimate, table, max_support, tries=0, upper=None, eps_s=None):
        report = EstimateReport(
            estimate=estimate, epsilon=eps, d_lb=d_lb, max_support=max_support, iterations=n - 1 if tries else 0,
            elapsed=time.perf_counter() - start, upper=upper, eps_s=eps_s, tries=tries,
        )
        return (report, _table(*table)) if return_ratio else report

    if n == 1:
        p_rows, q_rows = steps[-1]
        # one step: its live pairs' (ratio, weight) are the exact table; its support counts equal values once
        table = _live_pairs(steps)[-1][2:4]
        return done(tv_discrete(p_rows[0, 0], q_rows[0, 0]), table, np.unique(table[0]).size)
    if d_lb == 0.0:
        return done(0.0, (np.ones(1), np.ones(1)), 1)
    upper = 1.0
    rounding = _free_rounding(pair)
    if (
        not return_ratio
        and _holds(total + rounding, upper, eps)
        and _holds(gap := max(d_lb, _affinity_gap(steps)) - rounding, upper, eps)
    ):
        return done(gap, None, 0, upper=upper, eps_s=eps)
    paper_eps, paper_delta = eps / (slack * n), max((eps / (2 * n)) * d_lb, math.ulp(1.0) ** 2)
    if paper_eps == 0.0:
        raise SizeError(f"the paper's width eps / {slack * n} underflows to 0 at eps={eps!r}")
    pairs = _live_pairs(steps)
    peak, width = 0, math.sqrt(BRACKET_LAW_K * eps / (n * min(1.0, max(total, 0.5))))
    for tries in (1, 2, 3):
        part = _partition(width, min(width / paper_eps * paper_delta, 0.5))
        table, estimate, support = _merged(pairs, part)
        peak = max(peak, support)
        if tries < 3 and not _holds(estimate, upper, eps):
            bound, support = _spread(pairs, part)
            upper, peak = min(upper, bound), max(peak, support)
        if tries == 3 or _holds(estimate, upper, eps):
            return done(estimate, table, peak, tries, upper, width)
        width = paper_eps if tries == 2 else width * math.sqrt(eps / (4.0 * max(1.0 - estimate / upper, 2.0**-53)))


def estimate_product_tv(pair: ProductPair, eps: float, *, return_ratio: bool = False):
    """Estimate the distance between the two products with relative error eps.

    Returns an EstimateReport whose estimate lies in
    [(1 - eps) * true distance, true distance].  With `return_ratio` the
    final ratio table comes back alongside the report, for boundary plots.
    The true distance is at most n times the lower bound.
    """
    return _estimate(pair, eps, _bounds, _steps(pair), 2, return_ratio)
