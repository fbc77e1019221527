"""Interval partition construction and sparsification guarantees."""

import math

import numpy as np
import pytest

from tvdist import ParameterError, RatioDist, SizeError, tv_of_ratio
from tvdist.sparsify import _interval_keys, build_partition

from conftest import entries, merge_table, random_ratio


def support_bound(eps_s, delta_s):
    return 2 * math.ceil(-math.log(delta_s) / math.log1p(eps_s)) + 3


class TestBuildPartition:
    def test_worked_example(self):
        part = build_partition(1.0, 0.25)
        assert part.m == 2
        np.testing.assert_allclose(part.a, [0.0, 0.5, 0.75], atol=1e-15)

    def test_single_interval(self):
        part = build_partition(1.0, 0.5)
        assert part.m == 1
        np.testing.assert_allclose(part.a, [0.0, 0.5], atol=1e-15)

    def test_tail_bound_holds(self, rng):
        for _ in range(100):
            eps = float(rng.uniform(0.001, 3.0))
            delta = float(rng.uniform(1e-6, 0.99))
            part = build_partition(eps, delta)
            assert 1.0 - part.a[-1] <= delta * (1 + 1e-12)

    def test_narrow_intervals(self, rng):
        for _ in range(50):
            eps = float(rng.uniform(0.001, 3.0))
            delta = float(rng.uniform(1e-6, 0.99))
            part = build_partition(eps, delta)
            widths = np.diff(part.a)
            assert np.all(widths <= eps * (1.0 - part.a[1:]) + 1e-12)

    def test_rejects_oversized_partition(self):
        # eps = 1e-3 at n = 10**4 would need m = 336,224,866 boundaries
        with pytest.raises(SizeError):
            build_partition(5e-8, 5e-8)

    @pytest.mark.parametrize(
        "eps,delta",
        [
            (0.0, 0.5), (-1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (0.5, 2.0), (True, 0.5),
            # a numpy scalar prints as a plain number
            pytest.param(np.float64(-1.0), 0.5, id="numpy-scalar"),
        ],
    )
    def test_rejects_bad_parameters(self, eps, delta):
        with pytest.raises(ParameterError, match=r"got (-?[\d.]+|True)$"):
            build_partition(eps, delta)

    def test_accepts_numpy_reals(self):
        part = build_partition(np.float32(1.0), np.float32(0.25))
        np.testing.assert_array_equal(part.a, build_partition(1.0, 0.25).a)


class TestLocateInterval:
    # _interval_keys numbers the cells of [0, inf] in order: 0..m low side,
    # m+1 the singleton {1}, m+2..2m+2 the high side out to infinity.
    def test_origin(self):
        part = build_partition(1.0, 0.25)
        assert _interval_keys(part, np.array([0.0])).tolist() == [0]

    def test_singleton(self):
        part = build_partition(1.0, 0.25)
        assert _interval_keys(part, np.array([1.0])).tolist() == [part.m + 1]

    def test_high_side(self):
        # mirrored intervals are (4/3, 2] and (2, inf] for eps=1, delta=0.25
        part = build_partition(1.0, 0.25)
        keys = _interval_keys(part, np.array([1.5, 2.0, 2.5]))
        assert keys.tolist() == [2 * part.m + 1, 2 * part.m + 1, 2 * part.m + 2]

    def test_closed_form_matches_boundary_search(self, rng):
        # the corrected closed form must agree with direct binary search
        for _ in range(20):
            part = build_partition(float(rng.uniform(0.001, 2.0)), float(rng.uniform(1e-6, 0.9)))
            values = rng.uniform(0.0, 1.0, size=300)
            values = values[values < 1.0]
            keys = _interval_keys(part, values)
            expected = np.searchsorted(part.a, values, side="right") - 1
            np.testing.assert_array_equal(keys, expected)

    def test_extremes_key_in_order(self):
        # 1/v overflows for subnormal v; any RuntimeWarning fails the suite
        part = build_partition(0.1, 1e-3)
        above, below = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
        values = np.array([0.0, 5e-324, 1e-310, below, 1.0, above, 1e300, np.inf])
        m = part.m
        assert _interval_keys(part, values).tolist() == [0, 0, 0, m, m + 1, m + 2, 2 * m + 2, 2 * m + 2]

    def test_boundaries_route_exactly(self, rng):
        part = build_partition(0.37, 0.003)
        low = part.a[part.a < 1.0]
        np.testing.assert_array_equal(_interval_keys(part, low), np.arange(low.size))


class TestSparsify:
    # `_merge_cells` on one state's table (`merge_table`)
    def test_point_mass_at_one(self):
        r = RatioDist([1.0], [1.0])
        out = merge_table(r, build_partition(0.5, 0.1))
        assert entries(out) == [(1.0, 1.0)]

    def test_merges_within_interval(self):
        r = RatioDist([0.55, 0.6, 0.7], [0.4, 0.3, 0.3])
        out = merge_table(r, build_partition(1.0, 0.25))
        assert len(out) == 1
        assert out.masses[0] == 1.0
        assert out.values[0] == pytest.approx(0.61, abs=1e-15)

    def test_unfolded_infinity_mass_stays_deficit(self):
        # all mass sits below 1; the alternative's infinity mass has no cell
        # holding ratio mass, so the output keeps the expectation deficit
        r = RatioDist([0.5], [1.0])
        out = merge_table(r, build_partition(1.0, 0.25))
        assert entries(out) == [(0.5, 1.0)]
        assert float(np.sum(out.values * out.masses)) == 0.5

    def test_infinity_mass_folds_into_top_cell(self):
        # expectation deficit 0.08 and the top cell (2, inf] holds mass 0.2,
        # so its merged value rises to (3.0 * 0.2 + 0.08) / 0.2 = 3.4
        r = RatioDist([0.4, 3.0], [0.8, 0.2])
        out = merge_table(r, build_partition(1.0, 0.25))
        assert out.values[-1] == pytest.approx(3.4, abs=1e-12)
        assert float(np.sum(out.values * out.masses)) == pytest.approx(1.0, abs=1e-12)

    def test_support_bound(self, rng):
        for _ in range(200):
            eps = float(rng.uniform(0.01, 2.0))
            delta = float(rng.uniform(1e-5, 0.5))
            r = random_ratio(rng, int(rng.integers(1, 500)))
            out = merge_table(r, build_partition(eps, delta))
            assert len(out) <= support_bound(eps, delta)

    def test_tv_preserved_exactly(self, rng):
        for _ in range(200):
            eps = float(rng.uniform(0.01, 2.0))
            delta = float(rng.uniform(1e-5, 0.5))
            r = random_ratio(rng, int(rng.integers(1, 500)))
            out = merge_table(r, build_partition(eps, delta))
            assert abs(tv_of_ratio(out) - tv_of_ratio(r)) <= 1e-12

    def test_expectation_never_drops(self, rng):
        for _ in range(100):
            r = random_ratio(rng, int(rng.integers(1, 300)))
            out = merge_table(r, build_partition(0.2, 0.01))
            assert np.sum(out.values * out.masses) >= np.sum(r.values * r.masses) - 1e-12

    def test_output_always_valid(self, rng):
        # RatioDist construction enforces the invariants; re-check key ones
        for _ in range(100):
            r = random_ratio(rng, int(rng.integers(1, 300)))
            out = merge_table(r, build_partition(0.1, 0.01))
            assert abs(float(np.sum(out.masses)) - 1.0) <= 1e-9
            assert np.sum(out.values * out.masses) <= 1.0 + 1e-9
            assert np.all(np.diff(out.values) > 0)

    def test_idempotent_on_merged_input(self, rng):
        # A second application over the same partition maps each point to
        # its own cell.  Masses and values pass through bit-identically; the
        # only admissible wobble is the top cell's value re-absorbing an
        # ulp-scale expectation deficit left by the first fold.
        part = build_partition(0.3, 0.05)
        for _ in range(100):
            r = random_ratio(rng, int(rng.integers(1, 300)))
            once = merge_table(r, part)
            twice = merge_table(once, part)
            assert len(twice) == len(once)
            np.testing.assert_array_equal(twice.masses, once.masses)
            np.testing.assert_array_equal(twice.values[:-1], once.values[:-1])
            np.testing.assert_allclose(twice.values[-1:], once.values[-1:], rtol=1e-12)

    def test_idempotent_bitwise_without_residual(self):
        # dyadic table with expectation exactly 1: no deficit ever refolds
        r = RatioDist([0.5, 1.5], [0.5, 0.5])
        assert np.sum(r.values * r.masses) == 1.0
        part = build_partition(1.0, 0.25)
        once = merge_table(r, part)
        twice = merge_table(once, part)
        np.testing.assert_array_equal(once.values, twice.values)
        np.testing.assert_array_equal(once.masses, twice.masses)

    def test_single_point_cells_pass_through(self, rng):
        # spread-out table: every point alone in its cell, values untouched
        r = RatioDist([0.01, 0.5, 0.93], [0.3, 0.3, 0.4])
        out = merge_table(r, build_partition(0.05, 0.05))
        np.testing.assert_array_equal(out.values, r.values)
        np.testing.assert_array_equal(out.masses, r.masses)

    def test_uniform_mass_support_example(self, rng):
        values = np.sort(rng.uniform(0.0, 1.0, size=10_000))
        values = np.unique(values)
        masses = np.full(values.size, 1.0 / values.size)
        masses[0] += 1.0 - masses.sum()
        r = RatioDist(values, masses)
        out = merge_table(r, build_partition(0.1, 0.01))
        assert len(out) <= support_bound(0.1, 0.01)

