"""Cross-checks between the brute-force and exact-pipeline oracles."""

import numpy as np
import pytest

from tvdist import (
    MarkovPair,
    ProductPair,
    SizeError,
    brute_force_tv_markov,
    brute_force_tv_product,
    exact_ratio_markov,
    exact_ratio_product,
    generate_markov_instance,
    generate_product_instance,
    tv_of_ratio,
)

import tvdist.oracle as oracle_mod
import tvdist.ratios as ratios_mod

from conftest import entries


class TestBruteForce:
    def test_product_identical(self):
        pair = ProductPair([[0.5, 0.5], [0.2, 0.8]], [[0.5, 0.5], [0.2, 0.8]])
        assert brute_force_tv_product(pair) == 0.0

    def test_product_worked(self):
        pair = ProductPair([[0.75, 0.25]] * 2, [[0.25, 0.75]] * 2)
        assert brute_force_tv_product(pair) == 0.5

    def test_product_disjoint(self):
        assert brute_force_tv_product(ProductPair([[1.0, 0.0]], [[0.0, 1.0]])) == 1.0

    def test_product_cap(self):
        pair = generate_product_instance(30, 4, seed=0)
        with pytest.raises(SizeError):
            brute_force_tv_product(pair)

    def test_markov_disjoint_trajectories(self):
        ident = np.eye(2)
        pair = MarkovPair([1.0, 0.0], [0.0, 1.0], [ident], [ident])
        assert brute_force_tv_markov(pair) == 1.0

    def test_markov_late_divergence(self):
        # equal start, step two splits with probability one half
        pk = np.array([[[1.0, 0.0], [0.5, 0.5]]])
        qk = np.array([[[0.5, 0.5], [0.5, 0.5]]])
        pair = MarkovPair([1.0, 0.0], [1.0, 0.0], pk, qk)
        assert brute_force_tv_markov(pair) == 0.5

    def test_markov_cap(self):
        pair = generate_markov_instance(30, 4, seed=0)
        with pytest.raises(SizeError):
            brute_force_tv_markov(pair)


class TestExactPipelines:
    def test_product_single_coordinate(self):
        pair = ProductPair([[0.8, 0.2]], [[0.3, 0.7]])
        out = exact_ratio_product(pair)
        assert entries(out) == [(0.2 / 0.7, 0.7), (0.8 / 0.3, 0.3)]

    def test_product_worked_table(self):
        pair = ProductPair([[0.75, 0.25]] * 2, [[0.25, 0.75]] * 2)
        out = exact_ratio_product(pair)
        np.testing.assert_allclose(out.values, [1 / 9, 1.0, 9.0], rtol=1e-12)
        np.testing.assert_allclose(out.masses, [0.5625, 0.375, 0.0625], atol=0)

    def test_product_support_cap(self):
        pair = generate_product_instance(25, 4, seed=1)
        with pytest.raises(SizeError):
            exact_ratio_product(pair)

    def test_the_cap_counts_only_the_outcomes_q_can_take(self, monkeypatch):
        # each q row puts mass on 2 of 4 outcomes, so the second step builds
        # 2 * 2 entries, within a cap of 4, not 2 * 4
        monkeypatch.setattr(oracle_mod, "SUPPORT_CAP", 4)
        pair = ProductPair([[0.4, 0.3, 0.2, 0.1]] * 2, [[0.5, 0.5, 0.0, 0.0]] * 2)
        out = exact_ratio_product(pair)
        assert len(out) == 3 and tv_of_ratio(out) == pytest.approx(brute_force_tv_product(pair), abs=1e-15)

    def test_the_cap_counts_every_row_of_a_chain_step(self, monkeypatch):
        # the last kernel's live pairs give each of the 4 states 4 entries,
        # and the next kernel mixes all 4 tables into each of its 4 rows: 64
        # entries, refused before the fold's first step builds them
        built, step = [], ratios_mod._step
        monkeypatch.setattr(ratios_mod, "_step", lambda *args: built.append(1) or step(*args))
        monkeypatch.setattr(oracle_mod, "SUPPORT_CAP", 63)
        with pytest.raises(SizeError, match="a step would build 64 entries"):
            exact_ratio_markov(generate_markov_instance(3, 4, seed=2))
        assert len(built) == 0

    def test_markov_single_step(self):
        pair = MarkovPair([0.8, 0.2], [0.3, 0.7], np.zeros((0, 2, 2)), np.zeros((0, 2, 2)))
        out = exact_ratio_markov(pair)
        ref = exact_ratio_product(ProductPair([[0.8, 0.2]], [[0.3, 0.7]]))
        np.testing.assert_array_equal(out.values, ref.values)

    def test_markov_identical_chains(self):
        pair = generate_markov_instance(5, 3, seed=9)
        same = MarkovPair(pair.p_init, pair.p_init, pair.p_kernels, pair.p_kernels)
        assert entries(exact_ratio_markov(same)) == [(1.0, 1.0)]

    def test_cross_oracle_agreement(self, rng):
        for trial in range(100):
            n, q = int(rng.integers(1, 9)), int(rng.integers(2, 5))
            pair = generate_product_instance(n, q, seed=7000 + trial, skew=0.6)
            exact = tv_of_ratio(exact_ratio_product(pair))
            assert abs(exact - brute_force_tv_product(pair)) <= 1e-10
        for trial in range(100):
            n, q = int(rng.integers(1, 8)), int(rng.integers(2, 4))
            pair = generate_markov_instance(n, q, seed=8000 + trial, skew=0.6)
            exact = tv_of_ratio(exact_ratio_markov(pair))
            assert abs(exact - brute_force_tv_markov(pair)) <= 1e-10


def _dyadic_chain(rows_p, rows_q, n):
    """A chain whose every kernel is (rows_p, rows_q), from their first rows."""
    return MarkovPair(rows_p[0], rows_q[0], [rows_p] * (n - 1), [rows_q] * (n - 1))


def _permuted(row, k, n):
    """n copies of `row`, the i-th rolled by i * k places."""
    return [np.roll(row, i * k) for i in range(n)]


DYADIC = [0.5, 0.25, 0.125, 0.125]

#: Tie-heavy pairs whose rows are dyadic with few bits, so every ratio, and
#: every product of ratios, is exact in float: values equal in exact
#: arithmetic are equal floats, and the exact table must combine every one
#: of them.
TIED_PAIRS = {
    "uniform-p-rows": ProductPair([[0.25] * 4] * 8, [DYADIC] * 8),
    "repeated-coordinates": ProductPair([[0.5, 0.375, 0.125]] * 8, [[0.25, 0.25, 0.5]] * 8),
    "permuted-rows": ProductPair(_permuted(DYADIC, 1, 7), _permuted(DYADIC, 3, 7)),
    "zero-in-p": ProductPair([[0.5, 0.5, 0.0]] * 6, [[0.25, 0.25, 0.5]] * 6),
    "chain-uniform-rows": _dyadic_chain([[0.25] * 4] * 4, [DYADIC] * 4, 8),
    "chain-repeated-row": _dyadic_chain([[0.5, 0.375, 0.125]] * 3, [[0.25, 0.25, 0.5]] * 3, 8),
    "chain-permuted-rows": _dyadic_chain(_permuted(DYADIC, 1, 4), _permuted(DYADIC, 3, 4), 6),
}


def _outcome_masses(pair):
    """Every outcome's (p, q) mass, enumerated the way the brute-force oracles do."""
    if isinstance(pair, ProductPair):
        vp, vq = pair.p_marginals[0], pair.q_marginals[0]
        for p_row, q_row in zip(pair.p_marginals[1:], pair.q_marginals[1:]):
            vp, vq = np.multiply.outer(vp, p_row).ravel(), np.multiply.outer(vq, q_row).ravel()
        return vp, vq
    vp, vq = pair.p_init, pair.q_init
    for p_kernel, q_kernel in zip(pair.p_kernels, pair.q_kernels):
        vp = (vp.reshape(-1, pair.q)[:, :, None] * p_kernel).ravel()
        vq = (vq.reshape(-1, pair.q)[:, :, None] * q_kernel).ravel()
    return vp, vq


@pytest.mark.parametrize("name", TIED_PAIRS)
def test_tie_heavy_tables_combine_every_equal_value(name):
    pair = TIED_PAIRS[name]
    if isinstance(pair, ProductPair):
        table, brute = exact_ratio_product(pair), brute_force_tv_product(pair)
    else:
        table, brute = exact_ratio_markov(pair), brute_force_tv_markov(pair)
    assert abs(tv_of_ratio(table) - brute) <= 1e-10
    vp, vq = _outcome_masses(pair)
    live = vq > 0
    assert len(table) == np.unique(vp[live] / vq[live]).size < live.sum()
