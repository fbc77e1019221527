"""Exact reference implementations used to validate the estimators.

Brute force enumerates the whole sample space in lexicographic order; the
exact pipelines run the estimators' fold (`ratios._fold`) over the same
steps and merge nothing: they combine equal values before each step.  Both
are capped, at ENUMERATION_CAP outcomes and SUPPORT_CAP table entries, read
at call time: past the caps the problem is genuinely out of reach for exact
methods.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeError
from .markov import MarkovPair
from .markov import _steps as _chain_steps
from .product import ProductPair
from .product import _steps as _product_steps
from .ratios import RatioDist, _combine, _fold, _live_pairs, _table

ENUMERATION_CAP = 10_000_000
SUPPORT_CAP = 1_000_000


def _check_enumeration(q: int, n: int) -> None:
    if q**n > ENUMERATION_CAP:
        raise SizeError(f"enumeration needs {q}**{n} outcomes, beyond the cap of {ENUMERATION_CAP}")


def _enumerated_tv(pair, p_first, q_first, p_rows, q_rows) -> float:
    """Half-L1 distance over all outcomes, in lexicographic order, extended forward one row stack a step."""
    _check_enumeration(pair.q, pair.n)
    vp, vq = p_first, q_first
    for p_step, q_step in zip(p_rows, q_rows):
        vp = (vp.reshape(-1, len(p_step))[:, :, None] * p_step).ravel()
        vq = (vq.reshape(-1, len(q_step))[:, :, None] * q_step).ravel()
    return 0.5 * float(np.sum(np.abs(vp - vq)))


def brute_force_tv_product(pair: ProductPair) -> float:
    """Half-L1 distance over all of [q]^n, enumerated lexicographically."""
    p, q = pair.p_marginals, pair.q_marginals
    return _enumerated_tv(pair, p[0], q[0], p[1:, None], q[1:, None])


def brute_force_tv_markov(pair: MarkovPair) -> float:
    """Half-L1 distance over all length-n trajectories."""
    return _enumerated_tv(pair, pair.p_init, pair.q_init, pair.p_kernels, pair.q_kernels)


def exact_ratio_product(pair: ProductPair) -> RatioDist:
    """Fold the per-coordinate ratios into the full product ratio, unmerged.

    The total variation distance of the result is the exact distance between
    the two products.  The cap is checked against the entries of each step
    before the step builds them.
    """
    return _table(*_fold(_live_pairs(_product_steps(pair)), _combine, SUPPORT_CAP)[:2])


def exact_ratio_markov(pair: MarkovPair) -> RatioDist:
    """Run the backward concatenation recursion with no sparsification."""
    return _table(*_fold(_live_pairs(_chain_steps(pair)), _combine, SUPPORT_CAP)[:2])
