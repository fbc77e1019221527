"""Deterministic relative-error estimator for n-step Markov chains.

Works backwards from the last step through the shared fold
(`ratios._fold`), keeping one ratio table per conditioning state.  Each
step merges every state's table and mixes them all with the preceding
transition rows at once; the final step mixes against the initial
distributions, yielding the trajectory-level ratio.  The Bhattacharyya
coefficient of the two trajectory distributions factorizes over the same
steps, so the product estimator's stopping rule (`product._estimate`) can
certify the Hellinger lower bound 1 - BC with no fold: the report then has
`iterations` 0 and `upper` 1.0.  The hybrid terms behind d_lb are computed
once per run (`_bounds`); their sum bounds the distance from above, and
1 - BC is computed only when that bound, with its rounding, could reach
the rule.  `return_ratio=True` (the CLI's `--emit-region`) always folds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .product import _estimate
from .ratios import _validate_rows, tv_discrete


@dataclass(frozen=True)
class MarkovPair:
    """Two n-step chains over [q]: initial distributions plus n-1 kernels.

    kernels[k][x][y] is the probability of moving to y from x at step k+1;
    rows are given for every state, including states the q-chain never
    reaches (those rows cannot influence the estimate).
    """

    p_init: np.ndarray
    q_init: np.ndarray
    p_kernels: np.ndarray
    q_kernels: np.ndarray

    def __post_init__(self) -> None:
        p_init = _validate_rows(self.p_init, "p_init", 1)
        q_init = _validate_rows(self.q_init, "q_init", 1)
        object.__setattr__(self, "p_init", p_init)
        object.__setattr__(self, "q_init", q_init)
        q = p_init.size
        if q_init.size != q:
            raise DimensionError(f"initial distributions differ in length: {q} vs {q_init.size}")
        pk = _validate_rows(self.p_kernels, "p_kernels", 3)
        qk = _validate_rows(self.q_kernels, "q_kernels", 3)
        if pk.shape[1:] != (q, q) or pk.shape != qk.shape:
            raise DimensionError(
                f"kernels must both have shape (n-1, {q}, {q}), got {pk.shape} and {qk.shape}"
            )
        object.__setattr__(self, "p_kernels", pk)
        object.__setattr__(self, "q_kernels", qk)

    @property
    def n(self) -> int:
        return self.p_kernels.shape[0] + 1

    @property
    def q(self) -> int:
        return self.p_init.size


def _steps(pair: MarkovPair) -> list[tuple[np.ndarray, np.ndarray]]:
    """The fold's steps as two stacks: the kernels, last to first (none if n = 1), then the start."""
    return [(pair.p_kernels[::-1], pair.q_kernels[::-1]), (pair.p_init[None, None], pair.q_init[None, None])]


def _bounds(pair: MarkovPair) -> tuple[float, float]:
    """(d_lb, S) from the chain's hybrid terms, computed once.

    Swaps the chains one step at a time; the distance between consecutive
    hybrids reduces to the initial-distribution distance for the first step
    and to a q-marginal-weighted row distance for each later step.  Half the
    largest term is d_lb, and the sum S of the terms bounds the distance
    from above, up to a rounding term (`product._free_rounding`).
    """
    terms = [tv_discrete(pair.p_init, pair.q_init)]
    qmarg = pair.q_init
    row_tvs = 0.5 * np.abs(pair.p_kernels - pair.q_kernels).sum(axis=2)
    for row_tv, qk in zip(row_tvs, pair.q_kernels):
        terms.append(float(np.sum(qmarg * row_tv)))
        qmarg = np.sum(qmarg[:, None] * qk, axis=0)
    return 0.5 * max(terms), math.fsum(terms)


def markov_lower_bound(pair: MarkovPair) -> float:
    """Hybrid-step lower bound: within a factor 2n of the true distance."""
    return _bounds(pair)[0]


def estimate_markov_tv(pair: MarkovPair, eps: float, *, return_ratio: bool = False):
    """Estimate the trajectory-distribution distance with relative error eps.

    Returns an EstimateReport whose estimate lies in
    [(1 - eps) * true distance, true distance].  The true distance is at
    most 2n times the lower bound.
    """
    return _estimate(pair, eps, _bounds, _steps(pair), 4, return_ratio)
