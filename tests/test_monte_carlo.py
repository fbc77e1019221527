"""A band check that never calls the fold: seeded Monte Carlo against the estimators.

The exact oracles reach n of about 8 to 12.  Past that, the merge and spread
folds would check each other only, and they share `_live_pairs`, `_step` and
the cell keys, so one defect there could move both ends together and still
certify.  Here TV = E_q[(1 - R)+] is estimated from log-ratios of draws
from q, with numpy alone, and each run must land in the band
(1 - eps) * (mc - Z * se) <= estimate <= mc + Z * se, with upper >= mc - Z * se.
"""

import functools
import math

import numpy as np
import pytest

from tvdist import MarkovPair, ProductPair, estimate_markov_tv, estimate_product_tv

#: Width of the acceptance interval in standard errors.
Z = 5.0
EPS = 0.05
CHUNK = 2**15


def _near(rng, shape, sigma):
    """Gamma(1) rows p and q = p * exp(sigma * N(0, 1)), renormalized."""
    p = rng.gamma(1.0, size=shape)
    p /= p.sum(axis=-1, keepdims=True)
    q = p * np.exp(sigma * rng.standard_normal(shape))
    return p, q / q.sum(axis=-1, keepdims=True)


def _draw(rng, cdf, u):
    """Index of each u in the rows of cumulative sums `cdf`, clipped to the last outcome."""
    return np.minimum(np.sum(cdf <= u[..., None], axis=-1), cdf.shape[-1] - 1)


def _log_ratio(p, q):
    with np.errstate(divide="ignore"):
        return np.where(q > 0, np.log(p) - np.log(q), 0.0)


def _band(gaps):
    """(mc, se) of the per-draw values of (1 - R)+."""
    return float(np.mean(gaps)), float(np.std(gaps, ddof=1) / math.sqrt(gaps.size))


def mc_product(pair, seed, draws):
    """Monte Carlo (mc, se) of E_q[(1 - R)+], R the product of p_i(X_i) / q_i(X_i), X ~ q."""
    rng = np.random.default_rng(seed)
    lr = _log_ratio(pair.p_marginals, pair.q_marginals)
    cdfs = np.cumsum(pair.q_marginals, axis=1)
    gaps = []
    for start in range(0, draws, CHUNK):
        size = min(CHUNK, draws - start)
        log_r = np.zeros(size)
        for i in range(pair.n):
            log_r += lr[i, _draw(rng, cdfs[i], rng.random(size) * cdfs[i, -1])]
        gaps.append(np.maximum(-np.expm1(log_r), 0.0))
    return _band(np.concatenate(gaps))


def mc_markov(pair, seed, draws):
    """Monte Carlo (mc, se) of E_q[(1 - R)+] over trajectories drawn from the q-chain."""
    rng = np.random.default_rng(seed)
    lr_init = _log_ratio(pair.p_init, pair.q_init)
    lr_kernels = _log_ratio(pair.p_kernels, pair.q_kernels)
    cdf_init = np.cumsum(pair.q_init)
    cdf_kernels = np.cumsum(pair.q_kernels, axis=2)
    gaps = []
    for start in range(0, draws, CHUNK):
        size = min(CHUNK, draws - start)
        x = _draw(rng, cdf_init, rng.random(size) * cdf_init[-1])
        log_r = lr_init[x]
        for k in range(pair.n - 1):
            cdf = cdf_kernels[k][x]  # each draw's row
            y = _draw(rng, cdf, rng.random(size) * cdf[:, -1])
            log_r = log_r + lr_kernels[k, x, y]
            x = y
        gaps.append(np.maximum(-np.expm1(log_r), 0.0))
    return _band(np.concatenate(gaps))


def _product(n, sigma, seed):
    return ProductPair(*_near(np.random.default_rng(seed), (n, 10), sigma))


def _chain(n, sigma, seed):
    rng = np.random.default_rng(seed)
    p_init, q_init = _near(rng, (10,), sigma)
    p_kernels, q_kernels = _near(rng, (n - 1, 10, 10), sigma)
    return MarkovPair(p_init, q_init, p_kernels, q_kernels)


#: (estimator, pair, Monte Carlo, draws): near products at n 200 and 1000 and
#: near chains at n 16 and 64, all with q 10.  TV is about 0.10, 0.11, 0.03
#: and 0.06, and each se under 0.8% of it, so at eps 0.05 and 0.2 eps sets the
#: band; at 0.0125 its lower end is mostly the Z standard errors.
CASES = {
    "product-n200": (estimate_product_tv, _product(200, 0.02, seed=11), mc_product, 2**17),
    "product-n1000": (estimate_product_tv, _product(1000, 0.01, seed=12), mc_product, 2**15),
    "chain-n16": (estimate_markov_tv, _chain(16, 0.02, seed=13), mc_markov, 2**16),
    "chain-n64": (estimate_markov_tv, _chain(64, 0.02, seed=14), mc_markov, 2**15),
}


@functools.cache
def monte_carlo(name):
    """The case's (mc, se), drawn once for every eps it is checked at."""
    _, pair, mc, draws = CASES[name]
    return mc(pair, seed=1, draws=draws)


def check_band(name, eps):
    estimate, pair, _, _ = CASES[name]
    report = estimate(pair, eps)
    assert report.tries >= 1  # a near pair folds: the fold-free exit cannot certify it
    mean, se = monte_carlo(name)
    low, high = mean - Z * se, mean + Z * se
    assert se < 0.01 * mean
    assert (1.0 - eps) * low <= report.estimate <= high
    assert report.upper >= low


@pytest.mark.parametrize("name", CASES)
def test_the_estimate_lands_in_the_monte_carlo_band(name):
    check_band(name, EPS)


@pytest.mark.parametrize("eps", [0.2, 0.0125])
@pytest.mark.parametrize("name", CASES)
def test_the_band_holds_at_a_coarse_and_a_fine_eps(name, eps):
    check_band(name, eps)
