"""Deterministic relative-error estimator for n-step Markov chains.

Works backwards from the last step through the shared fold
(`ratios._fold`), keeping one ratio table per conditioning state.  Each
step sparsifies the per-state tables and then concatenates them with the
preceding transition rows; the final step mixes against the initial
distributions, yielding the trajectory-level ratio.  The Bhattacharyya
coefficient of the two trajectory distributions factorizes over the same
steps, so when the Hellinger lower bound 1 - BC already reaches 1 - eps the
estimate is that bound and nothing is folded: the report then has
`iterations` 0 and `upper` 1.0.  `return_ratio=True` (the CLI's
`--emit-region`) always folds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .product import _estimate, _read_only_copy
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
        p_init = _validate_rows(_read_only_copy(self.p_init), "p_init", 1)
        q_init = _validate_rows(_read_only_copy(self.q_init), "q_init", 1)
        object.__setattr__(self, "p_init", p_init)
        object.__setattr__(self, "q_init", q_init)
        q = p_init.size
        if q_init.size != q:
            raise DimensionError(f"initial distributions differ in length: {q} vs {q_init.size}")
        pk = _read_only_copy(self.p_kernels)
        qk = _read_only_copy(self.q_kernels)
        if pk.ndim != 3 or pk.shape[1:] != (q, q) or pk.shape != qk.shape:
            raise DimensionError(
                f"kernels must both have shape (n-1, {q}, {q}), got {pk.shape} and {qk.shape}"
            )
        object.__setattr__(self, "p_kernels", _validate_rows(pk, "p_kernels", 3))
        object.__setattr__(self, "q_kernels", _validate_rows(qk, "q_kernels", 3))

    @property
    def n(self) -> int:
        return self.p_kernels.shape[0] + 1

    @property
    def q(self) -> int:
        return self.p_init.size


def _steps(pair: MarkovPair) -> list[tuple[np.ndarray, np.ndarray]]:
    """The fold's steps: kernels from the last back to the first, then the start."""
    kernels = [(pair.p_kernels[k], pair.q_kernels[k]) for k in reversed(range(pair.n - 1))]
    return kernels + [(pair.p_init[None, :], pair.q_init[None, :])]


def markov_lower_bound(pair: MarkovPair) -> float:
    """Hybrid-step lower bound: within a factor 2n of the true distance.

    Swaps the chains one step at a time; the distance between consecutive
    hybrids reduces to the initial-distribution distance for the first step
    and to a q-marginal-weighted row distance for each later step.
    """
    terms = [tv_discrete(pair.p_init, pair.q_init)]
    qmarg = pair.q_init
    for step in range(pair.n - 1):
        pk = pair.p_kernels[step]
        qk = pair.q_kernels[step]
        row_tv = 0.5 * np.sum(np.abs(pk - qk), axis=1)
        terms.append(float(np.sum(qmarg * row_tv)))
        qmarg = np.sum(qmarg[:, None] * qk, axis=0)
    return 0.5 * max(terms)


def estimate_markov_tv(pair: MarkovPair, eps: float, *, return_ratio: bool = False):
    """Estimate the trajectory-distribution distance with relative error eps.

    Returns an EstimateReport whose estimate lies in
    [(1 - eps) * true distance, true distance].  The true distance is at
    most 2n times the lower bound.
    """
    return _estimate(pair, eps, markov_lower_bound, _steps(pair), 4, return_ratio)
