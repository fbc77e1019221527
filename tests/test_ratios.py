"""Core ratio-table operations: worked examples plus algebraic properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tvdist import (
    DimensionError,
    DiscreteDist,
    RatioDist,
    ValidityError,
    concatenate,
    expectation,
    np_boundary,
    ratio_of,
    tv_discrete,
    tv_of_ratio,
)

from conftest import random_dist_pair, random_ratio


@st.composite
def dist_pairs(draw, max_size=16, zeros=False):
    size = draw(st.integers(2, max_size))
    floats = st.floats(1e-9, 1.0)
    raw_p = np.array(draw(st.lists(floats, min_size=size, max_size=size)))
    raw_q = np.array(draw(st.lists(floats, min_size=size, max_size=size)))
    if zeros:
        kill = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        raw_p = np.where(kill, 0.0, raw_p)
        if not raw_p.any():
            raw_p[0] = 1.0
    return DiscreteDist(raw_p / raw_p.sum()), DiscreteDist(raw_q / raw_q.sum())


class TestDiscreteDist:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValidityError):
            DiscreteDist([0.5, 0.6, -0.1])

    def test_rejects_bad_total(self):
        with pytest.raises(ValidityError):
            DiscreteDist([0.4, 0.4])

    def test_accepts_within_tolerance(self):
        DiscreteDist([0.5, 0.5 + 5e-10])


class TestTvDiscrete:
    def test_identical(self):
        assert tv_discrete([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_disjoint(self):
        assert tv_discrete([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_half(self):
        assert tv_discrete([0.75, 0.25], [0.25, 0.75]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            tv_discrete([1.0], [0.5, 0.5])

    def test_symmetry(self, rng):
        p, q = random_dist_pair(rng, 9)
        assert tv_discrete(p, q) == tv_discrete(q, p)


class TestRatioDist:
    def test_rejects_unsorted(self):
        with pytest.raises(ValidityError):
            RatioDist([2.0, 1.0], [0.5, 0.5])

    def test_rejects_duplicate_values(self):
        with pytest.raises(ValidityError):
            RatioDist([1.0, 1.0], [0.5, 0.5])

    def test_rejects_invalid_expectation(self):
        with pytest.raises(ValidityError):
            RatioDist([2.0], [1.0])

    def test_from_points_sorts(self):
        r = RatioDist.from_points([(3.0, 0.25), (1 / 3, 0.75)])
        assert [p.value for p in r.points] == [1 / 3, 3.0]


class TestRatioOf:
    def test_worked_example(self):
        r = ratio_of([0.75, 0.25], [0.25, 0.75])
        assert r.points == [(1 / 3, 0.75), (3.0, 0.25)]

    def test_identical_dists(self):
        r = ratio_of([0.5, 0.5], [0.5, 0.5])
        assert r.points == [(1.0, 1.0)]

    def test_p_vanishes_on_support(self):
        r = ratio_of([1.0, 0.0], [0.0, 1.0])
        assert r.points == [(0.0, 1.0)]

    def test_groups_equal_ratios(self):
        r = ratio_of([0.3, 0.3, 0.4], [0.2, 0.2, 0.6])
        assert len(r) == 2
        assert r.points[1] == (0.3 / 0.2, 0.2 + 0.2)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            ratio_of([1.0], [0.5, 0.5])


class TestExpectation:
    @pytest.mark.parametrize(
        "points,expected",
        [([(1.0, 1.0)], 1.0), ([(0.0, 1.0)], 0.0), ([(1 / 3, 0.75), (3.0, 0.25)], 1.0)],
    )
    def test_examples(self, points, expected):
        assert expectation(RatioDist.from_points(points)) == pytest.approx(expected, abs=1e-15)


class TestTvOfRatio:
    @pytest.mark.parametrize(
        "points,expected",
        [([(1.0, 1.0)], 0.0), ([(0.0, 1.0)], 1.0), ([(1 / 3, 0.75), (3.0, 0.25)], 0.5)],
    )
    def test_examples(self, points, expected):
        assert tv_of_ratio(RatioDist.from_points(points)) == pytest.approx(expected, abs=1e-12)

    @given(dist_pairs(zeros=True))
    @settings(max_examples=200, deadline=None)
    def test_matches_tv_discrete(self, pair):
        p, q = pair
        assert tv_of_ratio(ratio_of(p, q)) == pytest.approx(tv_discrete(p, q), abs=1e-12)


def indp_product(first, second):
    """Ratio of the product of two independent pairs, each given as (p, q).

    This is the product pipeline's step: `concatenate` over the outcomes of
    the second pair, with the first pair's table repeated for every outcome.
    """
    p, q = second
    return concatenate(p, q, (ratio_of(*first),) * len(q))


class TestIndpProduct:
    def test_identity_element(self, rng):
        r = random_ratio(rng, 12)
        out = concatenate([1.0], [1.0], (r,))
        np.testing.assert_array_equal(out.values, r.values)
        np.testing.assert_array_equal(out.masses, r.masses)

    def test_worked_square(self):
        pair = ([0.75, 0.25], [0.25, 0.75])
        sq = indp_product(pair, pair)
        np.testing.assert_allclose(sq.values, [1 / 9, 1.0, 9.0], rtol=1e-12)
        np.testing.assert_allclose(sq.masses, [0.5625, 0.375, 0.0625], rtol=0, atol=0)

    def test_dyadic_square(self):
        # the pair realizes the table [(0.5, 0.5), (1.5, 0.5)]
        pair = ([0.25, 0.75], [0.5, 0.5])
        assert ratio_of(*pair).points == [(0.5, 0.5), (1.5, 0.5)]
        sq = indp_product(pair, pair)
        assert sq.points == [(0.25, 0.25), (0.75, 0.5), (2.25, 0.25)]

    def test_commutative(self, rng):
        for _ in range(20):
            a = random_dist_pair(rng, rng.integers(1, 20), zeros_in_p=True)
            b = random_dist_pair(rng, rng.integers(1, 20), zeros_in_p=True)
            ab = indp_product(a, b)
            ba = indp_product(b, a)
            np.testing.assert_array_equal(ab.values, ba.values)
            np.testing.assert_allclose(ab.masses, ba.masses, rtol=1e-12)

    def test_associative(self, rng):
        # (a x b) x c, step by step, against a x (b, c) with (b, c) one joint pair
        for _ in range(20):
            a, b, c = (random_dist_pair(rng, rng.integers(1, 12), zeros_in_p=True) for _ in range(3))
            left = concatenate(c[0], c[1], (indp_product(a, b),) * len(c[1]))
            joint = tuple(np.outer(x.masses, y.masses).ravel() for x, y in zip(b, c))
            right = indp_product(a, joint)
            assert len(left) == len(right)
            np.testing.assert_allclose(left.values, right.values, rtol=1e-12)
            np.testing.assert_allclose(left.masses, right.masses, rtol=1e-12, atol=1e-15)

    def test_expectation_multiplies(self, rng):
        for _ in range(20):
            a = random_dist_pair(rng, rng.integers(1, 20), zeros_in_p=True)
            b = random_dist_pair(rng, rng.integers(1, 20), zeros_in_p=True)
            prod = indp_product(a, b)
            assert expectation(prod) == pytest.approx(
                expectation(ratio_of(*a)) * expectation(ratio_of(*b)), abs=1e-12
            )

    def test_matches_explicit_outer_product(self, rng):
        for _ in range(25):
            size1, size2 = rng.integers(2, 8, size=2)
            p1, q1 = random_dist_pair(rng, size1, zeros_in_p=True)
            p2, q2 = random_dist_pair(rng, size2, zeros_in_p=True)
            joint_p = DiscreteDist(np.outer(p1.masses, p2.masses).ravel())
            joint_q = DiscreteDist(np.outer(q1.masses, q2.masses).ravel())
            direct = ratio_of(joint_p, joint_q)
            composed = indp_product((p1, q1), (p2, q2))
            assert len(direct) == len(composed)
            np.testing.assert_allclose(direct.values, composed.values, rtol=1e-12)
            np.testing.assert_allclose(direct.masses, composed.masses, rtol=1e-12)


class TestNpBoundary:
    def test_diagonal(self):
        b = np_boundary(RatioDist([1.0], [1.0]))
        assert b.vertices.tolist() == [[0.0, 0.0], [1.0, 1.0]]

    def test_worked_example(self):
        b = np_boundary(ratio_of([0.75, 0.25], [0.25, 0.75]))
        np.testing.assert_allclose(b.vertices, [[0, 0], [0.25, 0.75], [1, 1]], atol=1e-15)

    def test_infinity_mass_closes_horizontally(self):
        b = np_boundary(RatioDist([0.5], [1.0]))
        np.testing.assert_allclose(b.vertices, [[0, 0], [0.5, 1.0], [1, 1]], atol=0)

    def test_structure_random(self, rng):
        for _ in range(50):
            r = random_ratio(rng, rng.integers(1, 40))
            b = np_boundary(r)
            verts = b.vertices
            assert verts[0].tolist() == [0.0, 0.0] and verts[-1].tolist() == [1.0, 1.0]
            assert np.all(np.diff(verts, axis=0) >= 0)
            seg = np.diff(verts, axis=0)
            # inverse slope of the segment for point i recovers its value
            k = len(r)
            dx, dy = seg[:k, 0], seg[:k, 1]
            np.testing.assert_allclose(dx / dy, r.values, rtol=1e-9, atol=1e-9)
            # slopes only flatten along the chain: dy*dx' >= dy'*dx pairwise
            cross = seg[:-1, 1] * seg[1:, 0] - seg[1:, 1] * seg[:-1, 0]
            assert np.all(cross >= -1e-12)
