"""Shared generators for random distributions, ratios and instances."""

import numpy as np
import pytest

from tvdist import ratio_of


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


def random_ratio(rng, support, zeros=True):
    """Valid ratio built as the ratio of a random pair over `support` outcomes.

    Zeroing some p-outcomes produces value-0 entries and expectation deficit,
    so the infinity-mass paths get exercised too.
    """
    p, q = random_dist_pair(rng, support, zeros_in_p=zeros)
    return ratio_of(p, q)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
