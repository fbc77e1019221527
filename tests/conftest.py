"""Shared generators for random distributions, ratios and instances, and an
exact distance oracle for small pairs."""

from fractions import Fraction

import numpy as np
import pytest

from tvdist import ProductPair, RatioDist, exact_ratio_product
from tvdist.sparsify import _merge_cells, _spread_cells


def entries(r):
    """A table's (value, mass) pairs in order, as plain floats."""
    return list(zip(r.values.tolist(), r.masses.tolist()))


def random_dist(rng, size, allow_zeros=False):
    """Normalized positive vector; optionally with some outcomes zeroed."""
    raw = rng.gamma(shape=1.0, scale=1.0, size=size) + 1e-12
    if allow_zeros and size > 1:
        mask = rng.random(size) < 0.25
        if mask.all():
            mask[rng.integers(size)] = False
        raw = np.where(mask, 0.0, raw)
    return raw / raw.sum()


def random_dist_pair(rng, size, zeros_in_p=False, zeros_in_q=False):
    return (
        random_dist(rng, size, allow_zeros=zeros_in_p),
        random_dist(rng, size, allow_zeros=zeros_in_q),
    )


def one_step_ratio(p, q):
    """The ratio table of the pair (p, q): the exact pipeline on one coordinate.

    The fold of one step, its live pairs, behind the pair's row check.
    """
    return exact_ratio_product(ProductPair([p], [q]))


def random_ratio(rng, support, zeros=True):
    """Valid ratio built as the ratio of a random pair over `support` outcomes.

    Zeroing some p-outcomes produces value-0 entries and expectation deficit,
    so the infinity-mass paths get exercised too.
    """
    p, q = random_dist_pair(rng, support, zeros_in_p=zeros)
    return one_step_ratio(p, q)


def _one_state(reduce, r, part):
    return RatioDist(*reduce(part, r.values, r.masses, np.array([len(r)]))[:2])


def merge_table(r, part):
    """`_merge_cells` on the single table r: one state holding all of r."""
    return _one_state(_merge_cells, r, part)


def spread_table(r, part):
    """`_spread_cells` on the single table r: one state holding all of r."""
    return _one_state(_spread_cells, r, part)


def _scaled(rows):
    """Float rows as integer numerators over one common power-of-two denominator.

    Every float is a dyadic rational, so the largest denominator is a
    multiple of all the others and the conversion is exact.
    """
    fractions = [Fraction(float(x)) for x in np.ravel(rows)]
    den = max(f.denominator for f in fractions)
    nums = [f.numerator * (den // f.denominator) for f in fractions]
    return np.array(nums, dtype=object).reshape(np.shape(rows)), den


def _half_l1(p, q, den) -> Fraction:
    return Fraction(int(np.sum(np.abs(p - q))), 2 * den)


def exact_tv_product(pair) -> Fraction:
    """The exact distance between the pair's stored products, by enumeration."""
    p = q = np.ones(1, dtype=object)
    den = 1
    for p_row, q_row in zip(pair.p_marginals, pair.q_marginals):
        (p_nums, q_nums), d = _scaled([p_row, q_row])
        p, q, den = np.multiply.outer(p, p_nums).ravel(), np.multiply.outer(q, q_nums).ravel(), den * d
    return _half_l1(p, q, den)


def exact_tv_markov(pair) -> Fraction:
    """The exact distance between the pair's stored path distributions, by enumeration.

    Paths are kept flat, their last state the fastest-varying index.
    """
    (p, q), den = _scaled([pair.p_init, pair.q_init])
    for p_kernel, q_kernel in zip(pair.p_kernels, pair.q_kernels):
        (p_nums, q_nums), d = _scaled([p_kernel, q_kernel])
        p = (p.reshape(-1, pair.q)[:, :, None] * p_nums).ravel()
        q = (q.reshape(-1, pair.q)[:, :, None] * q_nums).ravel()
        den *= d
    return _half_l1(p, q, den)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
