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
        # after the last kernel each of the 4 states holds 4 entries, and the
        # next kernel mixes all 4 tables into each of its 4 rows: 64 entries,
        # refused before that step builds them
        built, step = [], ratios_mod._step
        monkeypatch.setattr(ratios_mod, "_step", lambda *args: built.append(1) or step(*args))
        monkeypatch.setattr(oracle_mod, "SUPPORT_CAP", 63)
        with pytest.raises(SizeError, match="a step would build 64 entries"):
            exact_ratio_markov(generate_markov_instance(3, 4, seed=2))
        assert len(built) == 1

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
