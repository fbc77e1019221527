"""Markov-chain estimator: conditional ratios, concatenation, lower bound."""

import numpy as np
import pytest

from tvdist import (
    DimensionError,
    MarkovPair,
    ParameterError,
    RatioDist,
    SizeError,
    ValidityError,
    brute_force_tv_markov,
    concatenate,
    estimate_markov_tv,
    estimate_product_tv,
    generate_markov_instance,
    markov_lower_bound,
    ratio_of,
    tv_discrete,
    tv_of_ratio,
)
from tvdist.product import ProductPair

from conftest import random_dist_pair, random_ratio


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

    def test_rejects_mismatched_inits(self):
        with pytest.raises(DimensionError):
            MarkovPair([0.5, 0.5], [1.0], np.zeros((0, 2, 2)), np.zeros((0, 2, 2)))

    @pytest.mark.parametrize(
        "kernels",
        [
            [[0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 0.5]],  # 2x4: would read as two 2x2 kernels
            [[0.5, 0.5], [0.5, 0.5]],  # one kernel without its step axis
            np.full((1, 3, 3), 1 / 3),  # kernels for three states, chain of two
        ],
    )
    def test_rejects_kernels_of_the_wrong_shape(self, kernels):
        with pytest.raises(DimensionError):
            MarkovPair([0.5, 0.5], [0.5, 0.5], kernels, kernels)


def kernel_conditional_ratio(pk, qk):
    """Row-wise ratios of two kernels: the chain fold's first step."""
    ones = (RatioDist([1.0], [1.0]),) * len(qk)
    return [concatenate(p, q, ones) for p, q in zip(pk, qk)]


class TestKernelConditionalRatio:
    def test_identical_kernels(self):
        kern = np.array([[0.3, 0.7], [0.6, 0.4]])
        for r in kernel_conditional_ratio(kern, kern):
            assert r.points == [(1.0, 1.0)]

    def test_worked_example(self):
        pk = np.array([[1.0, 0.0], [0.0, 1.0]])
        qk = np.array([[0.5, 0.5], [0.5, 0.5]])
        per_state = kernel_conditional_ratio(pk, qk)
        assert per_state[0].points == [(0.0, 0.5), (2.0, 0.5)]
        assert per_state[1].points == [(0.0, 0.5), (2.0, 0.5)]

    def test_single_state(self):
        (r,) = kernel_conditional_ratio(np.array([[1.0]]), np.array([[1.0]]))
        assert r.points == [(1.0, 1.0)]


class TestConcatenate:
    def test_identical_chains(self):
        cond = (RatioDist([1.0], [1.0]), RatioDist([1.0], [1.0]))
        out = concatenate([0.5, 0.5], [0.5, 0.5], cond)
        assert out.points == [(1.0, 1.0)]

    def test_uninformative_tail(self):
        cond = (RatioDist([1.0], [1.0]), RatioDist([1.0], [1.0]))
        out = concatenate([0.8, 0.2], [0.5, 0.5], cond)
        assert out.points == [(0.4, 0.5), (1.6, 0.5)]
        assert tv_of_ratio(out) == pytest.approx(0.3, abs=1e-15)
        assert tv_of_ratio(out) == pytest.approx(tv_discrete([0.8, 0.2], [0.5, 0.5]), abs=1e-15)

    def test_merges_identical_scaled_lists(self):
        half = RatioDist.from_points([(0.0, 0.5), (2.0, 0.5)])
        out = concatenate([0.5, 0.5], [0.5, 0.5], (half, half))
        assert out.points == [(0.0, 0.5), (2.0, 0.5)]

    def test_skips_unreachable_states(self):
        poison = RatioDist([0.25], [1.0])  # would shift the result if mixed in
        ok = RatioDist([1.0], [1.0])
        out = concatenate([0.5, 0.5], [1.0, 0.0], (ok, poison))
        assert out.points == [(0.5, 1.0)]

    def test_rejects_mismatched_sizes(self):
        cond = (RatioDist([1.0], [1.0]),)
        with pytest.raises(DimensionError):
            concatenate([0.5, 0.5], [0.5, 0.5], cond)

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
            direct = ratio_of(np.array(joint_p), np.array(joint_q))
            composed = concatenate(px, qx, cond)
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
        from tvdist import build_partition

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
