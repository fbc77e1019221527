"""Deterministic relative-error estimator for products of marginals.

A product is the one-state case of the shared fold (`ratios._fold`): each
coordinate is one step whose single row pair multiplies into the running
table, in coordinate order, and the table is sparsified before each step so
its support stays bounded.  The returned estimate always lower-bounds the
true total variation distance and is within a (1 - eps) factor of it.  The
Markov estimator runs its steps through `_estimate` here as well.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError, ValidityError
from .ratios import VALIDITY_TOL, RatioDist, _fold, tv_discrete, tv_of_ratio
from .sparsify import _prune_negligible, build_partition, sparsify_wrt_intervals


def _validate_rows(rows: np.ndarray, name: str) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise DimensionError(f"{name} must be a 2-D array, got shape {rows.shape}")
    if not np.all(np.isfinite(rows)) or np.any(rows < 0):
        raise ValidityError(f"{name} must be finite and nonnegative")
    sums = np.sum(rows, axis=1)
    if np.any(np.abs(sums - 1.0) > VALIDITY_TOL):
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise ValidityError(f"{name} row {worst} sums to {sums[worst]!r}, expected 1")
    return rows


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
    nothing, leave it None and report no iterations.
    """

    estimate: float
    epsilon: float | None
    d_lb: float
    max_support: int
    iterations: int
    elapsed: float

    def __post_init__(self) -> None:
        if not -VALIDITY_TOL <= self.estimate <= 1.0 + VALIDITY_TOL:
            raise ValidityError(f"estimate {self.estimate!r} outside [0, 1]")
        if not self.d_lb <= 1.0 + VALIDITY_TOL:
            raise ValidityError(f"lower bound {self.d_lb!r} exceeds 1")


#: Largest table, in entries, that an estimator's step may build: each merged
#: table's length times the step's column count is checked against it before
#: the step allocates.  The largest such product in the tests is 2,920,310
#: and in the benchmark 352,030.
MAX_TABLE_ENTRIES = 2**26


def product_lower_bound(pair: ProductPair) -> float:
    """Largest per-coordinate distance: within a factor n of the true one."""
    per_coord = 0.5 * np.sum(np.abs(pair.p_marginals - pair.q_marginals), axis=1)
    return float(np.max(per_coord))


def _steps(pair: ProductPair) -> list[tuple[np.ndarray, np.ndarray]]:
    """The fold's steps: one single-row pair per coordinate, in order."""
    return [(pair.p_marginals[k : k + 1], pair.q_marginals[k : k + 1]) for k in range(pair.n)]


def _estimate(pair, eps, lower_bound, steps, slack: int, return_ratio: bool):
    """Shared body of the product and Markov estimators.

    The partition has relative width eps / (slack * n) and tail mass
    (eps / (2 * n)) * d_lb.  A single step is never sparsified, so it
    reports the half-L1 distance of its rows, bit-identical to it.  A zero
    lower bound forces the true distance to zero, so that case returns 0
    outright rather than dividing the tail parameter by zero.
    """
    if not (isinstance(eps, (int, float)) and math.isfinite(eps) and 0.0 < eps < 1.0):
        raise ParameterError(f"eps must lie strictly between 0 and 1, got {eps!r}")
    start = time.perf_counter()
    d_lb = lower_bound(pair)
    n = len(steps)
    iterations = 0
    if n == 1:
        [(p_rows, q_rows)] = steps
        estimate = tv_discrete(p_rows[0], q_rows[0])
        ratio, max_support = _fold(steps, None, MAX_TABLE_ENTRIES)  # one step: nothing to reduce
    elif d_lb == 0.0:
        estimate, ratio, max_support = 0.0, RatioDist([1.0], [1.0]), 1
    else:
        part = build_partition(eps / (slack * n), (eps / (2 * n)) * d_lb)
        ratio, max_support = _fold(
            steps,
            lambda table: _prune_negligible(sparsify_wrt_intervals(table, part)),
            MAX_TABLE_ENTRIES,
        )
        iterations = n - 1
        estimate = tv_of_ratio(ratio)
    report = EstimateReport(
        estimate=estimate,
        epsilon=float(eps),
        d_lb=d_lb,
        max_support=max_support,
        iterations=iterations,
        elapsed=time.perf_counter() - start,
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
