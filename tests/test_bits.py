"""Same input, same bits: fixed runs pinned to the exact floats they return.

Each pin holds the `float.hex` of the estimate and the upper bound, with
`tries`, `max_support` and `iterations`, the `float.hex` of a fold-free
run's estimate, upper bound and d_lb, or the sha256 of a table's values and
masses.  A change that alters any of them on purpose updates the pins
and says in CHANGES.md which moved and by how much.  The floats come out of
libm (`log1p`, `sqrt`, `expm1`), so a mismatch on another platform alone is
a finding to report, not a reason to loosen a pin.
"""

import hashlib
import math

import numpy as np
import pytest

import tvdist.product as product_mod
from tvdist import (
    MarkovPair, ProductPair, estimate_markov_tv, estimate_product_tv, exact_ratio_markov,
    exact_ratio_product, generate_markov_instance, generate_product_instance,
)


def near_product(seed, n, q, sigma):
    rng = np.random.default_rng(seed)
    p = rng.gamma(1.0, size=(n, q))
    p /= p.sum(axis=1, keepdims=True)
    q = p * np.exp(sigma * rng.standard_normal(p.shape))
    return ProductPair(p, q / q.sum(axis=1, keepdims=True))


def near_chain(seed, n, q, sigma):
    rng = np.random.default_rng(seed)
    p = rng.gamma(1.0, size=(n, q, q))
    p /= p.sum(axis=2, keepdims=True)
    q = p * np.exp(sigma * rng.standard_normal(p.shape))
    q /= q.sum(axis=2, keepdims=True)
    return MarkovPair(p[0, 0], q[0, 0], p[1:], q[1:])


def sha256(table):
    return hashlib.sha256(table.values.tobytes() + table.masses.tobytes()).hexdigest()


RUNS = {
    # one-state merge and spread folds, certified on the first try
    "near-product": (
        estimate_product_tv, near_product(6, 40, 10, 0.02),
        ("0x1.5e97c7cec1716p-5", "0x1.6b36bcf2a812ep-5", 1, 1080, 39),
        "862779575ef5a1486bfc2376a9cacd28fd2c3346b8126e861f5a178d59b2c3d1",
    ),
    # many-state folds: four tables per step
    "near-chain": (
        estimate_markov_tv, near_chain(3, 16, 4, 0.02),
        ("0x1.a7a71579aba40p-6", "0x1.b04fff1bdbe2dp-6", 1, 223, 15),
        "b0116f1d56fcdab223013ea77ed408d684909d1f4c80c36173f0c09cbec56fe6",
    ),
    # the first law width misses; the predicted second one certifies
    "second-try": (
        estimate_product_tv, generate_product_instance(8, 4, seed=8, skew=1.0),
        ("0x1.ac6c29f737bebp-1", "0x1.bfef18cee27adp-1", 2, 116, 7),
        None,
    ),
}


@pytest.mark.parametrize("name", RUNS)
def test_estimates_keep_their_bits(name):
    estimate, pair, pins, table_sha = RUNS[name]
    report = estimate(pair, 0.05)
    got = (report.estimate.hex(), report.upper.hex(), report.tries, report.max_support, report.iterations)
    assert got == pins
    if table_sha is not None:
        again, table = estimate(pair, 0.05, return_ratio=True)
        assert (again.estimate, again.upper) == (report.estimate, report.upper)
        assert sha256(table) == table_sha


@pytest.mark.parametrize(
    "estimate, pair, pins",
    [
        # both certify by 1 - BC, above their d_lb, less the free bound's rounding term, with no fold
        (
            estimate_product_tv, generate_product_instance(8, 4, seed=0, skew=0.3),
            ("0x1.f599df76e5504p-1", "0x1.0000000000000p+0", "0x1.c90cd879a21e4p-1"),
        ),
        (
            estimate_markov_tv, generate_markov_instance(8, 4, seed=0, skew=0.3),
            ("0x1.ec2f148af041dp-1", "0x1.0000000000000p+0", "0x1.55451f5c12373p-2"),
        ),
    ],
    ids=["product", "chain"],
)
def test_fold_free_runs_keep_their_bits(estimate, pair, pins):
    report = estimate(pair, 0.05)
    assert (report.estimate.hex(), report.upper.hex(), report.d_lb.hex()) == pins
    assert (report.tries, report.max_support, report.iterations) == (0, 0, 0)


@pytest.mark.parametrize(
    "estimate, pair, pins, table_sha",
    [
        (
            estimate_product_tv, near_product(2, 10, 4, 0.05),
            ("0x1.a4bb0ce62efe5p-5", 7808, 9, "0x1.ab9a5d71893b3p-5", 0.005),
            "0e4f9776d93b73be7cc09629367677ed45468ae031032f0d67b4288ac3faf91b",
        ),
        (
            estimate_markov_tv, near_chain(2, 8, 3, 0.05),
            ("0x1.4260ca35ce4b6p-5", 3817, 7, "0x1.46367981e08ecp-5", 0.003125),
            "5ac88660a154bac142af2ac565f26bdeb8e91590af310a4a93cc932d1f630454",
        ),
    ],
    ids=["product", "chain"],
)
def test_paper_width_runs_keep_their_bits(estimate, pair, pins, table_sha, monkeypatch):
    # no certificate can hold, so both law widths miss and the paper's width
    # ends the run with its own table, the law passes' smaller spread bound
    # and its own width, eps / (slack * n)
    monkeypatch.setattr(product_mod, "CERTIFY_MARGIN", math.inf)
    report, table = estimate(pair, 0.1, return_ratio=True)
    got = (report.estimate.hex(), report.max_support, report.iterations, report.upper.hex(), report.eps_s)
    assert got == pins and report.tries == 3
    assert sha256(table) == table_sha


@pytest.mark.parametrize(
    "exact, pair, size, table_sha",
    [
        (
            exact_ratio_product, generate_product_instance(6, 3, seed=2), 729,
            "852458a30b9fa00fa81ce8a5f8d6437b5bf615978a9dc7513796c36f11a804c8",
        ),
        (
            exact_ratio_markov, generate_markov_instance(5, 3, seed=2), 243,
            "1a2f87c14b9e8eedf0ecd24002c2574e5e49cd7bd4aee22990cdb23a1e68fada",
        ),
        # tie-heavy: every step repeats values, so equal values' masses are
        # summed, and their q-masses are not dyadic, so the order of the sum
        # shows in the bits
        (
            exact_ratio_product, ProductPair([[0.6, 0.15, 0.25]] * 6, [[0.3, 0.3, 0.4]] * 6), 28,
            "98faac72dfec3bb23116013abf28790b664ecb1ef0a3e0d2cba7f94614b96a41",
        ),
        (
            exact_ratio_markov,
            MarkovPair(
                [0.6, 0.15, 0.25], [0.3, 0.3, 0.4], [[[0.5, 0.2, 0.3]] * 3] * 5, [[[0.25, 0.4, 0.35]] * 3] * 5
            ),
            48,
            "33dc8ec6a323f5fc84556f454d6bfc709393471bc4182f08595230236a955c35",
        ),
    ],
)
def test_exact_tables_keep_their_bits(exact, pair, size, table_sha):
    table = exact(pair)
    assert (len(table), sha256(table)) == (size, table_sha)
