"""Core ratio-table operations: worked examples plus algebraic properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tvdist import (
    DimensionError,
    MarkovPair,
    ProductPair,
    RatioDist,
    SizeError,
    ValidityError,
    estimate_markov_tv,
    estimate_product_tv,
    exact_ratio_markov,
    exact_ratio_product,
    generate_markov_instance,
    generate_product_instance,
    np_boundary,
    tv_discrete,
    tv_of_ratio,
)

from tvdist.markov import _steps as chain_steps
from tvdist.product import _steps as product_steps
from tvdist.ratios import _combine, _fold, _live_pairs

from conftest import entries, one_step_ratio, random_dist_pair, random_ratio


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
    return raw_p / raw_p.sum(), raw_q / raw_q.sum()


#: The public ways into the row check, each given x as both rows, with the
#: name its errors give the row: the distance of two vectors, and the ratio
#: table of a one-coordinate product.
ROW_TAKERS = (
    ("p", lambda x: tv_discrete(x, x)),
    ("p_marginals", lambda x: one_step_ratio(x, x)),
)


class TestRowCheck:
    def test_rejects_negative_mass(self):
        for _, take in ROW_TAKERS:
            with pytest.raises(ValidityError):
                take([0.5, 0.6, -0.1])

    def test_rejects_bad_total(self):
        for _, take in ROW_TAKERS:
            with pytest.raises(ValidityError, match=r"sums to 0\.8, expected 1"):
                take([0.4, 0.4])
            with pytest.raises(ValidityError, match=r"sums to 1\.0000019999999998, expected 1"):
                take([0.5, 0.5 + 2e-6])  # twice ROW_SUM_TOL

    def test_accepts_within_tolerance(self):
        for _, take in ROW_TAKERS:
            take([0.5, 0.5 + 5e-10])
            take([0.5, 0.5 + 5e-7])  # half ROW_SUM_TOL

    @pytest.mark.parametrize("drift", [4.5e-10, 1e-7])
    @pytest.mark.parametrize(
        "p,q",
        [
            pytest.param([0.5, 0.5], [0.5, 0.5], id="equal"),
            pytest.param([0.75, 0.25], [0.25, 0.75], id="apart"),
            pytest.param([0.6, 0.3, 0.1], [0.2, 0.3, 0.5], id="three-outcomes"),
        ],
    )
    def test_takers_measure_rows_renormalized(self, drift, p, q):
        # q heavier by `drift`: tv_discrete and the ratio tables must agree on
        # the distance of the renormalized rows, not each measure its own pair
        heavy = np.array(q) * (1 + drift)
        tv = tv_discrete(p, heavy)
        assert tv == pytest.approx(tv_discrete(p, q), rel=4 * 2**-52, abs=0)
        table = one_step_ratio(p, heavy)
        assert tv_of_ratio(table) == pytest.approx(tv, rel=4 * 2**-52, abs=0)

    @pytest.mark.parametrize(
        "row",
        [
            pytest.param(["0.5", "0.5"], id="strings"),
            pytest.param(["0.5", 0.5], id="string-among-floats"),
            pytest.param([True, False], id="booleans"),
            pytest.param([True, 0.0], id="boolean-among-floats"),
            pytest.param((np.True_, 0.0), id="numpy-boolean-in-a-tuple"),
            pytest.param([0.5 + 0j, 0.5], id="complex-entries"),
            pytest.param([None, 1.0], id="none"),
            pytest.param(np.array([True, False]), id="boolean-array"),
            pytest.param(np.array([0.5, 0.5], dtype=object), id="object-array"),
            pytest.param(np.array([0.5 + 0j, 0.5]), id="complex-array"),
            pytest.param(np.array(["0.5", "0.5"]), id="string-array"),
        ],
    )
    def test_rejects_entries_that_are_not_real(self, row):
        # np.asarray would read most of these as floats
        for name, take in ROW_TAKERS:
            with pytest.raises(ValidityError, match=rf"^{name} entries must be real numbers$"):
                take(row)
        with pytest.raises(ValidityError, match=r"^q entries must be real numbers$"):
            tv_discrete([0.5, 0.5], row)

    def test_ragged_and_overflowing_rows_raise_typed_errors(self):
        for name, take in ROW_TAKERS:
            with pytest.raises(DimensionError, match=rf"^{name} is not a rectangular array"):
                take([0.5, [0.5]])
            with pytest.raises(ValidityError, match=rf"^{name} has an entry past the float range$"):
                take([10**400, 0])
        with pytest.raises(DimensionError, match=r"^p_marginals is not a rectangular array"):
            ProductPair([[0.5, 0.5], [1.0]], [[0.5, 0.5], [0.5, 0.5]])

    def test_real_and_integer_arrays_still_pass(self):
        assert tv_discrete(np.array([1, 0]), np.array([0.5, 0.5], dtype=np.float32)) == 0.5
        assert tv_discrete(np.array([1, 0], dtype=np.uint8), [np.float64(0.5), 0.5]) == 0.5
        assert tv_discrete([1, 0], [0.25, 0.75]) == 0.75

    def test_rejects_empty_and_matrix_inputs(self):
        for _, take in ROW_TAKERS:
            with pytest.raises(ValidityError):
                take([])
            with pytest.raises(DimensionError):
                take([[0.5, 0.5]])


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


class TestRatioOf:
    # the ratio table of one pair: a one-coordinate product's exact pipeline
    def test_worked_example(self):
        r = one_step_ratio([0.75, 0.25], [0.25, 0.75])
        assert entries(r) == [(1 / 3, 0.75), (3.0, 0.25)]

    def test_identical_dists(self):
        r = one_step_ratio([0.5, 0.5], [0.5, 0.5])
        assert entries(r) == [(1.0, 1.0)]

    def test_p_vanishes_on_support(self):
        r = one_step_ratio([1.0, 0.0], [0.0, 1.0])
        assert entries(r) == [(0.0, 1.0)]

    def test_groups_equal_ratios(self):
        r = one_step_ratio([0.3, 0.3, 0.4], [0.2, 0.2, 0.6])
        assert len(r) == 2
        assert entries(r)[1] == (0.3 / 0.2, 0.2 + 0.2)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            one_step_ratio([1.0], [0.5, 0.5])


def mean(r):
    """The table's mean ratio value: the p-mass of q's support, at most 1."""
    return float(np.sum(r.values * r.masses))


class TestExpectation:
    @pytest.mark.parametrize(
        "points,expected",
        [([(1.0, 1.0)], 1.0), ([(0.0, 1.0)], 0.0), ([(1 / 3, 0.75), (3.0, 0.25)], 1.0)],
    )
    def test_examples(self, points, expected):
        r = RatioDist(*zip(*points))
        assert mean(r) == pytest.approx(expected, abs=1e-15)
        # the boundary reaches the mean at its last table point; whatever
        # p-mass lies off q's support closes it horizontally
        assert np_boundary(r).vertices[len(r), 0] == pytest.approx(expected, abs=1e-15)


class TestTvOfRatio:
    @pytest.mark.parametrize(
        "points,expected",
        [([(1.0, 1.0)], 0.0), ([(0.0, 1.0)], 1.0), ([(1 / 3, 0.75), (3.0, 0.25)], 0.5)],
    )
    def test_examples(self, points, expected):
        assert tv_of_ratio(RatioDist(*zip(*points))) == pytest.approx(expected, abs=1e-12)

    @given(dist_pairs(zeros=True))
    @settings(max_examples=200, deadline=None)
    def test_matches_tv_discrete(self, pair):
        p, q = pair
        assert tv_of_ratio(one_step_ratio(p, q)) == pytest.approx(tv_discrete(p, q), abs=1e-12)


def indp_product(*pairs):
    """Ratio of the product of independent pairs, each given as (p, q).

    The exact product pipeline, one coordinate per pair in order.  Rows of
    different lengths are padded with outcomes that neither p nor q can
    take; a step skips outcomes where q vanishes, so the padding changes
    nothing.
    """
    width = max(len(p) for p, _ in pairs)
    padded = [np.pad(np.asarray(row, dtype=float), (0, width - len(row))) for pair in pairs for row in pair]
    return exact_ratio_product(ProductPair(padded[0::2], padded[1::2]))


#: A product, chains of q 3 and 1, and one-step pairs of each type, for the
#: fold's first table.  A one-state chain has d_lb 0, so no estimator folds it.
SEED_FREE_PAIRS = {
    "product": generate_product_instance(6, 4, seed=3, skew=1.0),
    "chain": generate_markov_instance(5, 3, seed=3, skew=1.0),
    "chain-q-1": MarkovPair([1.0], [1.0], [[[1.0]]] * 3, [[[1.0]]] * 3),
    "one-step-product": generate_product_instance(1, 5, seed=4, skew=1.0),
    "one-step-chain": generate_markov_instance(1, 4, seed=5, skew=1.0),
}
SEED_FREE_RUNS = [
    ("product", "estimate"),
    ("chain", "estimate"),
    *((name, "exact") for name in SEED_FREE_PAIRS),
]


class TestFold:
    def test_a_fold_leaves_the_error_state_as_it_found_it(self):
        # from the third coordinate on, some masses underflow and values
        # overflow; a cap of 4 stops the fold at its third step
        pair = ProductPair([[0.5, 0.5]] * 4, [[1 - 1e-150, 1e-150]] * 4)
        with np.errstate(divide="ignore", under="warn"):
            state = np.geterr(), np.geterrcall()
            values, masses, _ = _fold(_live_pairs(product_steps(pair)), _combine, 100)
            assert (np.geterr(), np.geterrcall()) == state
            assert np.all(masses > 0) and np.all(values < np.inf)
            with pytest.raises(SizeError):
                _fold(_live_pairs(product_steps(pair)), _combine, 4)
            assert (np.geterr(), np.geterrcall()) == state

    @pytest.mark.parametrize("name, run", SEED_FREE_RUNS)
    def test_a_fold_starts_from_its_first_steps_live_pairs(self, name, run, monkeypatch):
        import tvdist.oracle as oracle_mod
        import tvdist.product as product_mod
        import tvdist.ratios as ratios_mod

        pair = SEED_FREE_PAIRS[name]
        pairs = _live_pairs(chain_steps(pair) if isinstance(pair, MarkovPair) else product_steps(pair))
        for _, _, ratio, weight, _ in pairs:
            for array in (ratio, weight):
                with pytest.raises(ValueError, match="read-only"):
                    array[:1] = 0.0
        # a one-step fold is its step's live pairs, bit for bit: nothing reduces, checks or steps
        rows, _, ratio, weight, height = pairs[0]
        values, masses, peak = _fold(pairs[:1], None, 0)
        assert values.tobytes() == ratio.tobytes() and masses.tobytes() == weight.tobytes()
        assert peak == np.bincount(rows, minlength=height).max()

        folds, heights, step = [], [], ratios_mod._step

        def counted_step(values, masses, sizes, rows, cols, ratio, weight, height):
            heights.append(height)
            assert sizes.size > 1 or height == 1  # one table only meets a product's single row
            return step(values, masses, sizes, rows, cols, ratio, weight, height)

        monkeypatch.setattr(ratios_mod, "_step", counted_step)
        module = product_mod if run == "estimate" else oracle_mod
        fold = module._fold
        monkeypatch.setattr(module, "_fold", lambda *args: folds.append(1) or fold(*args))
        if run == "estimate":  # asking for the table makes the run fold
            estimate = estimate_markov_tv if isinstance(pair, MarkovPair) else estimate_product_tv
            estimate(pair, 0.2, return_ratio=True)
        else:
            (exact_ratio_markov if isinstance(pair, MarkovPair) else exact_ratio_product)(pair)
        assert folds and len(heights) == len(folds) * (pair.n - 1)


def _live_pairs_step_by_step(stacks) -> list:
    """`_live_pairs` as one pass per step of each stack: the reference for its bits."""
    pairs, over = [], []
    with np.errstate(over="call", call=lambda kind, flag: over.append(kind)):
        for p_stack, q_stack in stacks:
            for p_rows, q_rows in zip(p_stack, q_stack):
                rows, cols = (q_rows > 0).nonzero()
                weight = q_rows[rows, cols]
                ratio = p_rows[rows, cols] / weight
                if over:
                    finite = ratio < np.inf
                    rows, cols, ratio, weight = rows[finite], cols[finite], ratio[finite], weight[finite]
                    over.clear()
                pairs.append((rows, cols, ratio, weight, q_rows.shape[0]))
    return pairs


_OVERFLOW = [0.5, 0.5, 5e-324]  # p / q overflows where p > 0
_ROWS = [[0.3, 0.4, 0.3], [0.2, 0.4, 0.4], [0.1, 0.5, 0.4]]

LIVE_PAIR_STEPS = {
    "product": product_steps(generate_product_instance(6, 4, seed=3, skew=1.0)),
    "chain": chain_steps(generate_markov_instance(5, 3, seed=3, skew=1.0)),
    "one-step": product_steps(generate_product_instance(1, 5, seed=4, skew=1.0)),
    "product-zeros-in-q": product_steps(
        ProductPair(np.tile([0.5, 0.3, 0.2], (4, 1)), [[0.55, 0.45, 0.0], [0.0, 0.5, 0.5]] * 2)
    ),
    "chain-zeros-in-q": chain_steps(
        MarkovPair(
            [0.5, 0.5], [1.0, 0.0], np.tile([[0.7, 0.3], [0.2, 0.8]], (3, 1, 1)),
            np.tile([[1.0, 0.0], [0.3, 0.7]], (3, 1, 1)),
        )
    ),
    "product-ratio-overflow": product_steps(ProductPair(np.tile(_ROWS[0], (4, 1)), np.tile(_OVERFLOW, (4, 1)))),
    "markov-ratio-overflow": chain_steps(
        MarkovPair(
            [0.2, 0.3, 0.5], _OVERFLOW, np.tile(_ROWS, (3, 1, 1)), np.tile([_OVERFLOW, *_ROWS[1:]], (3, 1, 1))
        )
    ),
    # one step overflows and the others do not
    "one-step-overflows": product_steps(ProductPair([_ROWS[0]] * 3, [_ROWS[1], _OVERFLOW, _ROWS[2]])),
    # the kernels and the start have one shape, and stay two stacks
    "chain-q-1": chain_steps(MarkovPair([1.0], [1.0], [[[1.0]]] * 3, [[[1.0]]] * 3)),
    # an empty kernel stack, then the start
    "one-step-chain": chain_steps(generate_markov_instance(1, 4, seed=5, skew=1.0)),
    "chain-zero-in-q-init": chain_steps(
        MarkovPair([0.2, 0.3, 0.5], [0.0, 0.4, 0.6], np.tile(_ROWS, (3, 1, 1)), np.tile(_ROWS[::-1], (3, 1, 1)))
    ),
}


@pytest.mark.parametrize("name", LIVE_PAIR_STEPS)
def test_live_pairs_match_the_step_by_step_reference_bitwise(name):
    steps = LIVE_PAIR_STEPS[name]
    got, want = _live_pairs(steps), _live_pairs_step_by_step(steps)
    assert len(got) == len(want) == sum(len(q_stack) for _, q_stack in steps)
    if "overflow" in name:  # a pair was left out
        assert sum(rows.size for rows, *_ in got) < sum(int(np.count_nonzero(q_rows)) for _, q_rows in steps)
    for got_step, want_step in zip(got, want):
        *got_arrays, got_height = got_step
        *want_arrays, want_height = want_step
        assert got_height == want_height
        for a, b in zip(got_arrays, want_arrays):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_steps_are_views_of_the_pair():
    # no step is copied or concatenated on its way to the fold
    product = generate_product_instance(6, 4, seed=3, skew=1.0)
    [(p_rows, q_rows)] = product_steps(product)
    assert np.shares_memory(p_rows, product.p_marginals) and np.shares_memory(q_rows, product.q_marginals)
    chain = generate_markov_instance(5, 3, seed=3, skew=1.0)
    (p_kernels, q_kernels), (p_init, q_init) = chain_steps(chain)
    assert np.shares_memory(p_kernels, chain.p_kernels) and np.shares_memory(q_kernels, chain.q_kernels)
    assert np.shares_memory(p_init, chain.p_init) and np.shares_memory(q_init, chain.q_init)
    # in fold order: the last kernel first
    assert p_kernels.shape == (4, 3, 3) and np.array_equal(p_kernels[0], chain.p_kernels[-1])
    assert p_init.shape == (1, 1, 3)


def _combine_by_lexsort(values, masses, sizes):
    """`_combine` as one (state, value) lexsort and reduceat: the reference for its bits."""
    state = np.repeat(np.arange(sizes.size), sizes)
    order = np.lexsort((values, state))
    values, masses = values[order], masses[order]
    new = np.ones(values.size, dtype=bool)
    new[1:] = (values[1:] != values[:-1]) | (state[1:] != state[:-1])
    starts = np.flatnonzero(new)
    return values[starts], np.add.reduceat(masses, starts), np.bincount(state[starts], minlength=sizes.size)


def _flat(*tables):
    """Flat (values, masses, sizes) of the given per-state lists of values.

    Masses are thirds, sevenths and so on, so the sums of a run come out
    differently in another order.
    """
    values = np.array([v for table in tables for v in table], dtype=float)
    masses = 1.0 / (3.0 + np.arange(values.size) % 7)
    return values, masses, np.array([len(table) for table in tables], dtype=np.intp)


class TestCombine:
    @pytest.mark.parametrize(
        "tables",
        [
            pytest.param(([2.0, 0.5, 2.0, 1.0, 0.5, 2.0],), id="repeats-in-one-state"),
            pytest.param(([1.0, 3.0, 1.0], [3.0, 1.0], [1.0, 1.0]), id="repeats-in-many-states"),
            pytest.param(([2.0, 0.5], [3.0, 2.0], [3.0]), id="equal-values-across-states"),
            pytest.param(([], [], [3.0, 1.0, 3.0], [2.0]), id="empty-states-first"),
            pytest.param(([1.0, 1.0], [], [], [0.5, 0.5]), id="empty-states-between"),
            pytest.param(([2.0, 2.0], [1.0], [], []), id="empty-states-last"),
            pytest.param(([],), id="empty-one-state"),
            pytest.param(([], [], []), id="empty-many-states"),
            pytest.param(([4.0, 0.25, 1.0, 0.5],), id="one-state-no-repeat"),
            pytest.param(([1.0, 0.25], [], [4.0, 1.0]), id="many-states-no-repeat"),
        ],
    )
    def test_matches_the_lexsort_reference_bitwise(self, tables):
        values, masses, sizes = _flat(*tables)
        got = _combine(values, masses, sizes)
        want = _combine_by_lexsort(values, masses, sizes)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_a_table_with_no_repeat_keeps_its_sizes(self):
        values, masses, sizes = _flat([1.0, 0.25], [], [4.0, 1.0])
        assert _combine(values, masses, sizes)[2] is sizes

    def test_matches_the_lexsort_reference_on_random_tables(self, rng):
        # values from a few levels, so runs of every length form in each state
        for _ in range(200):
            sizes = rng.integers(0, 12, size=int(rng.integers(1, 6))).astype(np.intp)
            values = rng.choice([0.0, 0.5, 1.0, 1.5, 3.0], size=int(sizes.sum()))
            masses = rng.random(values.size)
            got = _combine(values, masses, sizes)
            for a, b in zip(got, _combine_by_lexsort(values, masses, sizes)):
                assert a.tobytes() == b.tobytes()


class TestIndpProduct:
    def test_identity_element(self, rng):
        # a coordinate on which p and q agree on one outcome leaves the table as it is
        p, q = random_dist_pair(rng, 12, zeros_in_p=True)
        r = one_step_ratio(p, q)
        for out in (indp_product((p, q), ([1.0], [1.0])), indp_product(([1.0], [1.0]), (p, q))):
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
        assert entries(one_step_ratio(*pair)) == [(0.5, 0.5), (1.5, 0.5)]
        sq = indp_product(pair, pair)
        assert entries(sq) == [(0.25, 0.25), (0.75, 0.5), (2.25, 0.25)]

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
            left = indp_product(a, b, c)
            joint = tuple(np.outer(x, y).ravel() for x, y in zip(b, c))
            right = indp_product(a, joint)
            assert len(left) == len(right)
            np.testing.assert_allclose(left.values, right.values, rtol=1e-12)
            np.testing.assert_allclose(left.masses, right.masses, rtol=1e-12, atol=1e-15)

    def test_expectation_multiplies(self, rng):
        for _ in range(20):
            a = random_dist_pair(rng, rng.integers(1, 20), zeros_in_p=True)
            b = random_dist_pair(rng, rng.integers(1, 20), zeros_in_p=True)
            prod = indp_product(a, b)
            assert mean(prod) == pytest.approx(
                mean(one_step_ratio(*a)) * mean(one_step_ratio(*b)), abs=1e-12
            )

    def test_matches_explicit_outer_product(self, rng):
        for _ in range(25):
            size1, size2 = rng.integers(2, 8, size=2)
            p1, q1 = random_dist_pair(rng, size1, zeros_in_p=True)
            p2, q2 = random_dist_pair(rng, size2, zeros_in_p=True)
            joint_p = np.outer(p1, p2).ravel()
            joint_q = np.outer(q1, q2).ravel()
            direct = one_step_ratio(joint_p, joint_q)
            composed = indp_product((p1, q1), (p2, q2))
            assert len(direct) == len(composed)
            np.testing.assert_allclose(direct.values, composed.values, rtol=1e-12)
            np.testing.assert_allclose(direct.masses, composed.masses, rtol=1e-12)


class TestNpBoundary:
    def test_diagonal(self):
        b = np_boundary(RatioDist([1.0], [1.0]))
        assert b.vertices.tolist() == [[0.0, 0.0], [1.0, 1.0]]

    def test_worked_example(self):
        b = np_boundary(one_step_ratio([0.75, 0.25], [0.25, 0.75]))
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
