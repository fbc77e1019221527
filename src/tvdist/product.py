"""Deterministic relative-error estimator for products of marginals.

A product is the one-state case of the shared fold (`ratios._fold`): each
coordinate is one step whose single row pair multiplies into the running
table, in coordinate order, and the table is sparsified before each step so
its support stays bounded.  The returned estimate always lower-bounds the
true total variation distance and is within a (1 - eps) factor of it:
either by the paper's a priori choice of cell width, or, at a coarser
width, by an upper bound the run computes for itself with a second fold
that spreads cells instead of merging them.  When the Hellinger lower bound
1 - BC (BC the Bhattacharyya coefficient, computed in one pass over the
steps) already reaches 1 - eps, it is the estimate and no step is folded:
such a report has `iterations` 0 and `upper` 1.0.  A caller that asks for
the final table (`return_ratio=True`, the CLI's `--emit-region`) always
gets a fold, since no table matches the certificate.  The Markov estimator
runs its steps through `_estimate` here as well.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionError, ParameterError, ValidityError
from .ratios import VALIDITY_TOL, RatioDist, _fold, _validate_rows, tv_discrete, tv_of_ratio
from .sparsify import (
    _is_real,
    _low_cell_count,
    build_partition,
    sparsify_wrt_intervals,
    spread_wrt_intervals,
)


def _read_only_copy(a) -> np.ndarray:
    """A float copy the caller cannot change: pairs keep their own inputs."""
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ProductPair:
    """Two product distributions over [q]^n, given by their marginal rows."""

    p_marginals: np.ndarray
    q_marginals: np.ndarray

    def __post_init__(self) -> None:
        p = _validate_rows(_read_only_copy(self.p_marginals), "p_marginals")
        q = _validate_rows(_read_only_copy(self.q_marginals), "q_marginals")
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
    nothing, leave it None and report no iterations.  A run that certified
    its own accuracy sets `upper`, a proven upper bound on the distance with
    estimate >= (1 - epsilon) * upper, and `eps_s`, the relative cell width
    it was certified at.  A run at the paper's a priori width leaves both
    None.  A run certified by the Hellinger bound alone folded no step: it
    reports `iterations` 0, `max_support` 0, `upper` 1.0 and `eps_s` equal
    to `epsilon`.  Asking for the final table (`return_ratio=True`) forces
    the fold.
    """

    estimate: float
    epsilon: float | None
    d_lb: float
    max_support: int
    iterations: int
    elapsed: float
    upper: float | None = None
    eps_s: float | None = None

    def __post_init__(self) -> None:
        if not -VALIDITY_TOL <= self.estimate <= 1.0 + VALIDITY_TOL:
            raise ValidityError(f"estimate {self.estimate!r} outside [0, 1]")
        if not self.d_lb <= 1.0 + VALIDITY_TOL:
            raise ValidityError(f"lower bound {self.d_lb!r} exceeds 1")
        if self.upper is not None and not self.estimate <= self.upper + VALIDITY_TOL:
            raise ValidityError(f"upper bound {self.upper!r} below the estimate {self.estimate!r}")


#: Largest table, in entries, that an estimator's step may build: each merged
#: or spread table's length times the step's column count is checked against
#: it before the step allocates.  Measured at the paper's width, before the
#: certified schedule, the largest such product in the tests was 2,920,310
#: and in the benchmark 352,030.
MAX_TABLE_ENTRIES = 2**26

#: A try is certified when estimate >= (1 - eps) * upper * CERTIFY_MARGIN.
#: Both ends of the bracket come out of floating-point folds, so, like the
#: paper-width estimate, the certificate holds up to the folds' rounding; the
#: few ulps of margin only keep the final comparison from accepting a tie.
CERTIFY_MARGIN = 1.0 + 4 * math.ulp(1.0)


def product_lower_bound(pair: ProductPair) -> float:
    """Largest per-coordinate distance: within a factor n of the true one."""
    per_coord = 0.5 * np.sum(np.abs(pair.p_marginals - pair.q_marginals), axis=1)
    return float(np.max(per_coord))


def _steps(pair: ProductPair) -> list[tuple[np.ndarray, np.ndarray]]:
    """The fold's steps: one single-row pair per coordinate, in order."""
    return [(pair.p_marginals[k : k + 1], pair.q_marginals[k : k + 1]) for k in range(pair.n)]


def _affinity_gap(steps) -> float:
    """1 - BC, where BC is the Bhattacharyya coefficient of the folded pair.

    TV >= 1 - BC (Le Cam), and BC = sum_x sqrt(p(x) q(x)) factorizes over the
    steps the way the ratio tables do: v <- sqrt(P * Q) @ v from v = 1, with
    a single entry serving every column.  Each step rescales v to a maximum
    of 1 and keeps the scale as a logarithm, so thousands of steps cannot
    underflow.  Disjoint supports give BC = 0 and a gap of exactly 1.
    """
    v, log_bc = np.ones(1), 0.0
    for p_rows, q_rows in steps:
        v = np.sqrt(p_rows * q_rows) @ np.broadcast_to(v, p_rows.shape[1])
        top = float(np.max(v))
        if top == 0.0:
            return 1.0
        v /= top
        log_bc += math.log(top)
    return -math.expm1(log_bc)


def _certified(steps, eps: float, paper_eps: float, paper_delta: float):
    """One try at cells of width eps; return (ratio, peak support, upper).

    The merge fold's estimate lower-bounds the distance at any width
    (merging a cell to its mean is a garbling).  Unless that estimate
    already reaches 1 - eps, which certifies it with upper = 1, the spread
    fold's distance plus any q-mass that underflowed to 0 upper-bounds the
    distance (a mean-preserving spread under a convex functional).  The tail
    mass is the paper's, scaled by the factor the width exceeds the paper's.
    `upper` comes back None when the bracket is too wide to certify.
    """
    part = build_partition(eps, min(eps / paper_eps * paper_delta, 0.5))
    ratio, peak = _fold(steps, partial(sparsify_wrt_intervals, part=part), MAX_TABLE_ENTRIES)
    estimate = tv_of_ratio(ratio)
    if estimate >= 1.0 - eps:
        return ratio, peak, 1.0
    spread, support = _fold(steps, partial(spread_wrt_intervals, part=part), MAX_TABLE_ENTRIES)
    upper = tv_of_ratio(spread) + max(0.0, 1.0 - float(np.sum(spread.masses)))
    if estimate < (1.0 - eps) * upper * CERTIFY_MARGIN:
        upper = None
    return ratio, max(peak, support), upper


def _outgrows(n: int, q: int, cells: float) -> bool:
    """Whether the unmerged tables could outgrow a partition of 2m + 3 cells.

    (n - 1) * log q > log(2m + 3), where `cells` is m before rounding up.
    A partition too large to count, at an epsilon near the float range's
    end, holds every table, so the run stays at the paper's width and meets
    build_partition's SizeError there.
    """
    return math.isfinite(cells) and (n - 1) * math.log(q) > math.log(2 * math.ceil(cells) + 3)


def _estimate(pair, eps, lower_bound, steps, slack: int, return_ratio: bool):
    """Shared body of the product and Markov estimators.

    The paper's partition has relative width eps / (slack * n) and tail mass
    (eps / (2 * n)) * d_lb.  When the unmerged tables could outgrow it
    before the last step, the run first tries cells of width eps
    (`_certified`) and keeps that try if its bracket proves the (1 - eps)
    band.  Otherwise, or when no coarse try could shrink the tables, it
    folds once at the paper's width, where the a priori guarantee needs no
    certificate and `upper` and `eps_s` stay None.  A single
    step is never sparsified, so it reports the half-L1 distance of its rows,
    bit-identical to it.  A zero lower bound forces the true distance to
    zero, so that case returns 0 outright rather than dividing the tail
    parameter by zero.  When no table is asked for and a lower bound, d_lb
    or the affinity gap 1 - BC, already reaches 1 - eps, that bound is the
    estimate: it lies in [(1 - eps) * TV, TV] with upper = 1, and nothing is
    folded.
    """
    if not (_is_real(eps) and math.isfinite(eps) and 0.0 < eps < 1.0):
        raise ParameterError(f"eps must lie strictly between 0 and 1, got {eps}")
    eps = float(eps)
    start = time.perf_counter()
    d_lb = lower_bound(pair)
    n = len(steps)
    iterations = max_support = 0
    upper = eps_s = None
    if n == 1:
        [(p_rows, q_rows)] = steps
        estimate = tv_discrete(p_rows[0], q_rows[0])
        ratio, max_support = _fold(steps, None, MAX_TABLE_ENTRIES)  # one step: nothing to reduce
    elif d_lb == 0.0:
        estimate, ratio, max_support = 0.0, RatioDist([1.0], [1.0]), 1
    elif not return_ratio and (gap := max(d_lb, _affinity_gap(steps))) >= 1.0 - eps:
        estimate, ratio, upper, eps_s = gap, None, 1.0, eps
    else:
        paper_eps, paper_delta = eps / (slack * n), (eps / (2 * n)) * d_lb
        if _outgrows(n, pair.q, _low_cell_count(paper_eps, paper_delta)):
            ratio, max_support, upper = _certified(steps, eps, paper_eps, paper_delta)
        if upper is None:
            merge = partial(sparsify_wrt_intervals, part=build_partition(paper_eps, paper_delta))
            ratio, support = _fold(steps, merge, MAX_TABLE_ENTRIES)
            max_support = max(max_support, support)
        else:
            eps_s = eps
        iterations = n - 1
        estimate = tv_of_ratio(ratio)
    report = EstimateReport(
        estimate=estimate,
        epsilon=eps,
        d_lb=d_lb,
        max_support=max_support,
        iterations=iterations,
        elapsed=time.perf_counter() - start,
        upper=upper,
        eps_s=eps_s,
    )
    return (report, ratio) if return_ratio else report


def estimate_product_tv(pair: ProductPair, eps: float, *, return_ratio: bool = False):
    """Estimate the distance between the two products with relative error eps.

    Returns an EstimateReport whose estimate lies in
    [(1 - eps) * true distance, true distance].  With `return_ratio` the
    final ratio table comes back alongside the report, for boundary plots.
    The true distance is at most n times the lower bound.
    """
    return _estimate(pair, eps, product_lower_bound, _steps(pair), 2, return_ratio)
