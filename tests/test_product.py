"""Product-distribution estimator: examples, guarantees, support control."""

import numpy as np

import pytest

from tvdist import (
    DimensionError,
    ParameterError,
    ProductPair,
    SizeError,
    ValidityError,
    brute_force_tv_product,
    build_partition,
    estimate_product_tv,
    generate_product_instance,
    product_lower_bound,
    tv_discrete,
)


def small_pair():
    return ProductPair(
        [[0.75, 0.25], [0.75, 0.25]],
        [[0.25, 0.75], [0.25, 0.75]],
    )


class TestProductPair:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ProductPair([[0.5, 0.5]], [[0.5, 0.25, 0.25]])

    def test_rejects_bad_rows(self):
        with pytest.raises(ValidityError, match=r"p_marginals row 0 sums to 0\.9, "):
            ProductPair([[0.5, 0.4]], [[0.5, 0.5]])

    def test_rejects_zero_coordinates(self):
        empty = np.zeros((0, 3))
        with pytest.raises(DimensionError):
            ProductPair(empty, empty)

    def test_dimensions(self):
        pair = small_pair()
        assert pair.n == 2 and pair.q == 2

    def test_keeps_its_own_copy(self):
        p = np.array([[0.75, 0.25], [0.5, 0.5]])
        q = np.array([[0.25, 0.75], [0.5, 0.5]])
        pair = ProductPair(p, q)
        p[0] = [0.0, 1.0]
        q[1] = [1.0, 0.0]
        assert pair.p_marginals.tolist() == [[0.75, 0.25], [0.5, 0.5]]
        assert pair.q_marginals.tolist() == [[0.25, 0.75], [0.5, 0.5]]
        with pytest.raises(ValueError):
            pair.p_marginals[0, 0] = 0.5


class TestProductLowerBound:
    def test_zero_for_identical(self):
        pair = ProductPair([[0.5, 0.5]], [[0.5, 0.5]])
        assert product_lower_bound(pair) == 0.0

    def test_max_over_coordinates(self):
        pair = ProductPair([[0.75, 0.25], [0.5, 0.5]], [[0.25, 0.75], [0.5, 0.5]])
        assert product_lower_bound(pair) == 0.5

    def test_disjoint_single(self):
        pair = ProductPair([[1.0, 0.0]], [[0.0, 1.0]])
        assert product_lower_bound(pair) == 1.0

    def test_bracket_against_oracle(self, rng):
        for seed in range(30):
            n, q = int(rng.integers(1, 7)), int(rng.integers(2, 5))
            pair = generate_product_instance(n, q, seed=1000 + seed)
            star = brute_force_tv_product(pair)
            d_lb = product_lower_bound(pair)
            assert star / n - 1e-9 <= d_lb <= star + 1e-9


class TestEstimateProductTv:
    def test_rejects_bad_epsilon(self):
        # a numpy scalar prints as a plain number
        for eps in (0.0, 1.0, -0.5, 1.5, float("nan"), True, np.float64(1.5)):
            with pytest.raises(ParameterError, match=r"got (-?[\d.]+|nan|True)$"):
                estimate_product_tv(small_pair(), eps)

    def test_accepts_numpy_epsilon(self):
        pair = generate_product_instance(6, 3, seed=21)
        assert estimate_product_tv(pair, np.float32(0.25)).estimate == (
            estimate_product_tv(pair, float(np.float32(0.25))).estimate
        )

    def test_single_coordinate_is_exact(self):
        pair = ProductPair([[0.7, 0.2, 0.1]], [[0.3, 0.3, 0.4]])
        report = estimate_product_tv(pair, 0.5)
        assert report.estimate == tv_discrete([0.7, 0.2, 0.1], [0.3, 0.3, 0.4])
        assert report.iterations == 0

    def test_identical_pair_short_circuits(self):
        pair = ProductPair([[0.5, 0.5], [0.1, 0.9]], [[0.5, 0.5], [0.1, 0.9]])
        report = estimate_product_tv(pair, 0.9)
        assert report.estimate == 0.0
        assert report.d_lb == 0.0

    def test_worked_instance_sandwich(self):
        report = estimate_product_tv(small_pair(), 0.1)
        assert 0.45 <= report.estimate <= 0.5 + 1e-12
        assert brute_force_tv_product(small_pair()) == 0.5

    def test_sandwich_random(self, rng):
        for trial in range(40):
            n, q = int(rng.integers(1, 8)), int(rng.integers(2, 5))
            pair = generate_product_instance(n, q, seed=2000 + trial, skew=0.7)
            star = brute_force_tv_product(pair)
            for eps in (0.5, 0.05):
                report = estimate_product_tv(pair, eps)
                assert (1 - eps) * star - 1e-9 <= report.estimate <= star + 1e-9

    def test_support_control(self, rng):
        for trial in range(10):
            pair = generate_product_instance(6, 4, seed=3000 + trial)
            eps = 0.1
            report = estimate_product_tv(pair, eps)
            if report.d_lb > 0:
                part = build_partition(eps / (2 * pair.n), (eps / (2 * pair.n)) * report.d_lb)
                assert report.max_support <= pair.q * part.interval_count

    def test_single_outcome_alphabet(self):
        pair = ProductPair(np.ones((4, 1)), np.ones((4, 1)))
        assert estimate_product_tv(pair, 0.5).estimate == 0.0

    def test_relative_accuracy_at_tiny_distance(self):
        # nearly identical marginals: the distance is ~1.9e-7 and the band
        # is relative, far tighter than any absolute tolerance
        p = np.tile([0.5, 0.5], (5, 1))
        q = np.tile([0.5 + 1e-7, 0.5 - 1e-7], (5, 1))
        pair = ProductPair(p, q)
        star = brute_force_tv_product(pair)
        assert star < 2e-7
        for eps in (0.5, 0.05):
            est = estimate_product_tv(pair, eps).estimate
            assert (1 - eps) * star - 1e-22 <= est <= star + 1e-22

    def test_deterministic_rerun(self):
        pair = generate_product_instance(12, 3, seed=77)
        a = estimate_product_tv(pair, 0.2)
        b = estimate_product_tv(pair, 0.2)
        assert a.estimate == b.estimate
        assert a.max_support == b.max_support

    def test_table_cap(self, monkeypatch):
        # the first table has 3 entries, so the second step could build 3 * 3
        import tvdist.product as product_mod

        pair = generate_product_instance(4, 3, seed=5)
        monkeypatch.setattr(product_mod, "MAX_TABLE_ENTRIES", 8)
        with pytest.raises(SizeError):
            estimate_product_tv(pair, 0.1)

    def test_returns_final_ratio(self):
        report, ratio = estimate_product_tv(small_pair(), 0.1, return_ratio=True)
        assert abs(sum(m for _, m in ratio.points) - 1.0) <= 1e-9

    def test_intermediate_tables_stay_valid(self, monkeypatch):
        # every intermediate construction runs the RatioDist invariants; spy
        # on them to make sure the loop actually builds tables to validate
        import tvdist.ratios as ratios_mod

        seen = []
        orig = ratios_mod.RatioDist.__post_init__

        def spy(self):
            orig(self)
            seen.append(len(self.values))

        monkeypatch.setattr(ratios_mod.RatioDist, "__post_init__", spy)
        pair = generate_product_instance(5, 3, seed=4)
        estimate_product_tv(pair, 0.2)
        assert len(seen) >= 2 * (pair.n - 1)
