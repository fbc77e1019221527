"""Markov-chain estimator: conditional ratios, concatenation, lower bound."""

import math
import tracemalloc

import numpy as np
import pytest

import tvdist.product as product_mod
from tvdist import (
    DimensionError,
    MarkovPair,
    ParameterError,
    SizeError,
    ValidityError,
    brute_force_tv_markov,
    estimate_markov_tv,
    estimate_product_tv,
    exact_ratio_markov,
    generate_markov_instance,
    markov_lower_bound,
    tv_discrete,
    tv_of_ratio,
)
from tvdist.product import ProductPair
from tvdist.ratios import _live_pairs, _step, _table
from tvdist.sparsify import build_partition

from conftest import entries, one_step_ratio, random_dist_pair, random_ratio


class TestMarkovPair:
    def test_dimensions(self):
        pair = generate_markov_instance(4, 3, seed=1)
        assert pair.n == 4 and pair.q == 3

    def test_single_step_chain(self):
        pair = MarkovPair([1.0], [1.0], np.zeros((0, 1, 1)), np.zeros((0, 1, 1)))
        assert pair.n == 1 and pair.q == 1

    def test_keeps_its_own_copy(self):
        p_init, q_init = np.array([0.5, 0.5]), np.array([0.25, 0.75])
        pk, qk = np.full((2, 2, 2), 0.5), np.full((2, 2, 2), 0.5)
        pair = MarkovPair(p_init, q_init, pk, qk)
        p_init[:] = [1.0, 0.0]
        qk[1, 0] = [1.0, 0.0]
        assert pair.p_init.tolist() == [0.5, 0.5]
        assert pair.q_kernels.tolist() == np.full((2, 2, 2), 0.5).tolist()
        for array in (pair.p_init, pair.q_init, pair.p_kernels, pair.q_kernels):
            assert not array.flags.writeable

    def test_rejects_entries_that_are_not_real(self):
        eye = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(ValidityError, match=r"^q_init entries must be real numbers$"):
            MarkovPair([0.5, 0.5], ["0.5", 0.5], [eye], [eye])
        with pytest.raises(ValidityError, match=r"^q_kernels entries must be real numbers$"):
            MarkovPair([0.5, 0.5], [0.5, 0.5], [eye], [[[True, 0.0], [0.0, 1.0]]])

    def test_rejects_bad_kernel_rows(self):
        kernels = np.full((3, 2, 2), 0.5)
        bad = kernels.copy()
        bad[1, 0] = [0.6, 0.5]
        with pytest.raises(ValidityError, match=r"^p_kernels\[1\] row 0 sums to 1\.1, expected 1$"):
            MarkovPair([0.5, 0.5], [0.5, 0.5], bad, kernels)
        bad = kernels.copy()
        bad[2, 1] = [0.5, 0.4]
        with pytest.raises(ValidityError, match=r"^q_kernels\[2\] row 1 sums to 0\.9, expected 1$"):
            MarkovPair([0.5, 0.5], [0.5, 0.5], kernels, bad)
        bad[2, 1] = [0.5, 0.5 + 2e-6]  # off by twice ROW_SUM_TOL
        with pytest.raises(ValidityError, match=r"^q_kernels\[2\] row 1 sums to 1\.0000019999999998, expected 1$"):
            MarkovPair([0.5, 0.5], [0.5, 0.5], kernels, bad)

    def test_rejects_mismatched_inits(self):
        with pytest.raises(DimensionError):
            MarkovPair([0.5, 0.5], [1.0], np.zeros((0, 2, 2)), np.zeros((0, 2, 2)))

    @pytest.mark.parametrize(
        "kernels",
        [
            [[0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 0.5]],  # 2x4: would read as two 2x2 kernels
            [[0.5, 0.5], [0.5, 0.5]],  # one kernel without its step axis
            np.full((1, 3, 3), 1 / 3),  # kernels for three states, chain of two
            [[[1, 0], [0, 1]], [[1, 0]]],  # ragged: the second kernel has one row
        ],
    )
    def test_rejects_kernels_of_the_wrong_shape(self, kernels):
        with pytest.raises(DimensionError):
            MarkovPair([0.5, 0.5], [0.5, 0.5], kernels, kernels)


def kernel_conditional_ratio(pk, qk):
    """Row-wise ratios of two kernels: the chain fold's first step."""
    return [one_step_ratio(p, q) for p, q in zip(pk, qk)]


class TestKernelConditionalRatio:
    def test_identical_kernels(self):
        kern = np.array([[0.3, 0.7], [0.6, 0.4]])
        for r in kernel_conditional_ratio(kern, kern):
            assert entries(r) == [(1.0, 1.0)]

    def test_worked_example(self):
        pk = np.array([[1.0, 0.0], [0.0, 1.0]])
        qk = np.array([[0.5, 0.5], [0.5, 0.5]])
        per_state = kernel_conditional_ratio(pk, qk)
        assert entries(per_state[0]) == [(0.0, 0.5), (2.0, 0.5)]
        assert entries(per_state[1]) == [(0.0, 0.5), (2.0, 0.5)]

    def test_single_state(self):
        (r,) = kernel_conditional_ratio(np.array([[1.0]]), np.array([[1.0]]))
        assert entries(r) == [(1.0, 1.0)]


def mix(px, qx, tables):
    """One fold step (`_step`) from one (values, masses) table per state, read off as one table."""
    sizes = np.array([len(values) for values, _ in tables])
    values, masses = (np.concatenate(column) for column in zip(*tables))
    [pairs] = _live_pairs([(np.array([[px]]), np.array([[qx]]))])
    return _table(*_step(values, masses, sizes, *pairs)[:2])


class TestConcatenate:
    # a chain's second step mixes the tables its kernel rows give each state
    def test_identical_chains(self):
        kernel = [[[0.3, 0.7], [0.6, 0.4]]]
        out = exact_ratio_markov(MarkovPair([0.5, 0.5], [0.5, 0.5], kernel, kernel))
        assert entries(out) == [(1.0, 1.0)]

    def test_uninformative_tail(self):
        kernel = [[[0.3, 0.7], [0.6, 0.4]]]
        out = exact_ratio_markov(MarkovPair([0.8, 0.2], [0.5, 0.5], kernel, kernel))
        assert entries(out) == [(0.4, 0.5), (1.6, 0.5)]
        assert tv_of_ratio(out) == pytest.approx(0.3, abs=1e-15)
        assert tv_of_ratio(out) == pytest.approx(tv_discrete([0.8, 0.2], [0.5, 0.5]), abs=1e-15)

    def test_merges_identical_scaled_lists(self):
        # both states' rows give the table [(0, 0.5), (2, 0.5)]
        pk, qk = [[[0.0, 1.0], [0.0, 1.0]]], [[[0.5, 0.5], [0.5, 0.5]]]
        out = exact_ratio_markov(MarkovPair([0.5, 0.5], [0.5, 0.5], pk, qk))
        assert entries(out) == [(0.0, 0.5), (2.0, 0.5)]

    def test_skips_unreachable_states(self):
        # q never enters state 1, so its table, here not even a valid one,
        # never touches the result
        poison = ([np.nan, -1.0], [np.inf, np.nan])
        out = mix([0.5, 0.5], [1.0, 0.0], (([1.0], [1.0]), poison))
        assert entries(out) == [(0.5, 1.0)]
        # the same with a valid table that would shift the result if mixed in
        pk, qk = [[[0.5, 0.5], [0.25, 0.75]]], [[[0.5, 0.5], [1.0, 0.0]]]
        out = exact_ratio_markov(MarkovPair([0.5, 0.5], [1.0, 0.0], pk, qk))
        assert entries(out) == [(0.5, 1.0)]

    def test_matches_explicit_joint(self, rng):
        # realize each per-state ratio by its canonical pair, build the fully
        # explicit joint distributions over (state, outcome), and compare
        for _ in range(25):
            q = int(rng.integers(1, 5))
            px, qx = random_dist_pair(rng, q)
            cond = tuple(random_ratio(rng, int(rng.integers(1, 6))) for _ in range(q))
            joint_p, joint_q = [], []
            for x in range(q):
                r = cond[x]
                deficit = max(0.0, 1.0 - float(np.sum(r.values * r.masses)))
                # canonical pair on r's support plus one deficit outcome:
                # p-row re-weights each mass by its value, q-row keeps it
                joint_p.extend(px[x] * np.append(r.values * r.masses, deficit))
                joint_q.extend(qx[x] * np.append(r.masses, 0.0))
            direct = one_step_ratio(np.array(joint_p), np.array(joint_q))
            composed = mix(px, qx, [(r.values, r.masses) for r in cond])
            assert len(direct) == len(composed)
            np.testing.assert_allclose(direct.values, composed.values, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(direct.masses, composed.masses, rtol=1e-12, atol=1e-15)


class TestMarkovLowerBound:
    def test_zero_for_identical(self):
        pair = generate_markov_instance(4, 3, seed=2)
        same = MarkovPair(pair.p_init, pair.p_init, pair.p_kernels, pair.p_kernels)
        assert markov_lower_bound(same) == 0.0

    def test_disjoint_starts_identity_kernels(self):
        ident = np.eye(2)
        pair = MarkovPair([1.0, 0.0], [0.0, 1.0], [ident], [ident])
        assert markov_lower_bound(pair) == 0.5
        assert brute_force_tv_markov(pair) == 1.0

    def test_unreachable_state_has_zero_weight(self):
        # kernels differ only out of state 1, which q never starts in
        pk = np.array([[[0.5, 0.5], [1.0, 0.0]]])
        qk = np.array([[[0.5, 0.5], [0.0, 1.0]]])
        pair = MarkovPair([1.0, 0.0], [1.0, 0.0], pk, qk)
        assert markov_lower_bound(pair) == 0.0

    def test_bracket_against_oracle(self, rng):
        for seed in range(30):
            n, q = int(rng.integers(1, 6)), int(rng.integers(2, 4))
            pair = generate_markov_instance(n, q, seed=5000 + seed)
            star = brute_force_tv_markov(pair)
            d_lb = markov_lower_bound(pair)
            assert star / (2 * n) - 1e-9 <= d_lb <= star + 1e-9


class TestEstimateMarkovTv:
    def test_rejects_bad_epsilon(self):
        pair = generate_markov_instance(3, 2, seed=3)
        with pytest.raises(ParameterError):
            estimate_markov_tv(pair, 1.0)

    def test_single_step_is_exact(self):
        pair = MarkovPair([0.9, 0.1], [0.4, 0.6], np.zeros((0, 2, 2)), np.zeros((0, 2, 2)))
        report = estimate_markov_tv(pair, 0.5)
        assert report.estimate == tv_discrete([0.9, 0.1], [0.4, 0.6])

    def test_paper_width_chain_stays_within_its_memory(self, monkeypatch):
        # m = 1,471,928 low-side cells for each of 10 states: 29.4 M slots,
        # which a merge numbers by its occupied ones first, so it costs
        # memory per entry (0.16 MiB peak measured).  The law's width
        # certifies this chain, so both of its passes are made to miss
        pair = generate_markov_instance(3, 10, seed=3)
        eps = 1e-4
        d_lb = markov_lower_bound(pair)
        assert math.ceil(-math.log(eps / 6 * d_lb) / math.log1p(eps / 12)) == 1_471_928
        monkeypatch.setattr(product_mod, "_holds", lambda *args: False)
        tracemalloc.start()
        try:
            report = estimate_markov_tv(pair, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.tries == 3 and report.eps_s == eps / (4 * pair.n) and report.upper >= report.estimate
        assert peak <= 2**20
        assert report.estimate == pytest.approx(0.7741855854552042, rel=1e-14, abs=0)

    def test_identical_chains_short_circuit(self):
        pair = generate_markov_instance(5, 3, seed=4)
        same = MarkovPair(pair.p_init, pair.p_init, pair.p_kernels, pair.p_kernels)
        assert estimate_markov_tv(same, 0.9).estimate == 0.0

    def test_sandwich_random(self, rng):
        for trial in range(40):
            n, q = int(rng.integers(1, 7)), int(rng.integers(2, 4))
            pair = generate_markov_instance(n, q, seed=6000 + trial, skew=0.7)
            star = brute_force_tv_markov(pair)
            for eps in (0.5, 0.05):
                report = estimate_markov_tv(pair, eps)
                assert (1 - eps) * star - 1e-9 <= report.estimate <= star + 1e-9

    def test_state_blind_kernels_reduce_to_product(self, rng):
        # kernels whose rows ignore the conditioning state describe a product
        for trial in range(10):
            n, q = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            prod = ProductPair(*map(np.stack, _row_pairs(rng, n, q)))
            pk = np.repeat(prod.p_marginals[1:, None, :], q, axis=1)
            qk = np.repeat(prod.q_marginals[1:, None, :], q, axis=1)
            chain = MarkovPair(prod.p_marginals[0], prod.q_marginals[0], pk, qk)
            star = brute_force_tv_markov(chain)
            eps = 0.1
            via_chain = estimate_markov_tv(chain, eps).estimate
            via_product = estimate_product_tv(prod, eps).estimate
            assert (1 - eps) * star - 1e-9 <= via_chain <= star + 1e-9
            assert (1 - eps) * star - 1e-9 <= via_product <= star + 1e-9

    def test_deterministic_rerun(self):
        pair = generate_markov_instance(6, 3, seed=11)
        a = estimate_markov_tv(pair, 0.2)
        b = estimate_markov_tv(pair, 0.2)
        assert a.estimate == b.estimate

    def test_table_cap(self, monkeypatch):
        # each state's first table has at most 3 entries, and q = 3 of them mix
        import tvdist.product as product_mod

        pair = generate_markov_instance(4, 3, seed=5)
        monkeypatch.setattr(product_mod, "MAX_TABLE_ENTRIES", 8)
        with pytest.raises(SizeError):
            estimate_markov_tv(pair, 0.1)

    def test_single_state_chain(self):
        pair = MarkovPair([1.0], [1.0], np.ones((3, 1, 1)), np.ones((3, 1, 1)))
        assert estimate_markov_tv(pair, 0.5).estimate == 0.0
        assert brute_force_tv_markov(pair) == 0.0

    def test_relative_accuracy_at_tiny_distance(self):
        ident = np.eye(2)
        pair = MarkovPair([0.5, 0.5], [0.5 + 1e-7, 0.5 - 1e-7], [ident] * 3, [ident] * 3)
        star = brute_force_tv_markov(pair)
        assert 0 < star < 2e-7
        for eps in (0.5, 0.05):
            est = estimate_markov_tv(pair, eps).estimate
            assert (1 - eps) * star - 1e-22 <= est <= star + 1e-22

    def test_per_state_support_control(self):
        pair = generate_markov_instance(7, 3, seed=12)
        eps = 0.1
        report = estimate_markov_tv(pair, eps)
        assert report.d_lb > 0
        part = build_partition(eps / (4 * pair.n), (eps / (2 * pair.n)) * report.d_lb)
        assert report.max_support <= pair.q * part.interval_count


def _row_pairs(rng, n, q):
    p_rows = [random_dist_pair(rng, q)[0] for _ in range(n)]
    q_rows = [random_dist_pair(rng, q)[0] for _ in range(n)]
    return p_rows, q_rows
