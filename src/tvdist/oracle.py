"""Exact reference implementations used to validate the estimators.

Brute force enumerates the whole sample space in lexicographic order; the
exact pipelines run the estimators' fold (`ratios._fold`) over the same
steps and merge nothing.  Both are capped: past the caps the problem is
genuinely out of reach for exact methods.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeError
from .markov import MarkovPair
from .markov import _steps as _chain_steps
from .product import ProductPair
from .product import _steps as _product_steps
from .ratios import RatioDist, _fold

DEFAULT_ENUMERATION_CAP = 10_000_000
DEFAULT_SUPPORT_CAP = 1_000_000


def _check_enumeration(q: int, n: int, cap: int) -> None:
    if q**n > cap:
        raise SizeError(f"enumeration needs {q}**{n} outcomes, beyond the cap of {cap}")


def brute_force_tv_product(pair: ProductPair, *, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Half-L1 distance over all of [q]^n, enumerated lexicographically."""
    _check_enumeration(pair.q, pair.n, cap)
    vp = pair.p_marginals[0]
    vq = pair.q_marginals[0]
    for i in range(1, pair.n):
        vp = np.multiply.outer(vp, pair.p_marginals[i]).ravel()
        vq = np.multiply.outer(vq, pair.q_marginals[i]).ravel()
    return 0.5 * float(np.sum(np.abs(vp - vq)))


def brute_force_tv_markov(pair: MarkovPair, *, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Half-L1 distance over all length-n trajectories."""
    _check_enumeration(pair.q, pair.n, cap)
    q = pair.q
    vp = pair.p_init
    vq = pair.q_init
    for step in range(pair.n - 1):
        vp = (vp.reshape(-1, q)[:, :, None] * pair.p_kernels[step][None, :, :]).ravel()
        vq = (vq.reshape(-1, q)[:, :, None] * pair.q_kernels[step][None, :, :]).ravel()
    return 0.5 * float(np.sum(np.abs(vp - vq)))


def exact_ratio_product(pair: ProductPair, *, support_cap: int = DEFAULT_SUPPORT_CAP) -> RatioDist:
    """Fold the per-coordinate ratios into the full product ratio, unmerged.

    The total variation distance of the result is the exact distance between
    the two products.  The cap is checked against the worst-case table size
    before each multiplication.
    """
    return _fold(_product_steps(pair), None, support_cap)[0]


def exact_ratio_markov(pair: MarkovPair, *, support_cap: int = DEFAULT_SUPPORT_CAP) -> RatioDist:
    """Run the backward concatenation recursion with no sparsification."""
    return _fold(_chain_steps(pair), None, support_cap)[0]
