"""Interval partition construction and sparsification guarantees."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import tvdist.product as product_mod
from tvdist import ParameterError, ProductPair, RatioDist, SizeError, estimate_product_tv, np_boundary, tv_of_ratio
from tvdist import sparsify
from tvdist.sparsify import _interval_keys, _merge_cells, _spread_cells, build_partition

from conftest import entries, exact_tv_product, merge_table, random_ratio


def support_bound(eps_s, delta_s):
    return 2 * math.ceil(-math.log(delta_s) / math.log1p(eps_s)) + 3


def boundaries(part):
    """The computed low-side boundaries 1 - (1 + eps_s)**-t below 1, t = 0..m."""
    a = -np.expm1(-math.log1p(part.eps_s) * np.arange(part.m + 1, dtype=np.float64))
    return a[a < 1.0]


def neighbours(values):
    return np.concatenate([np.nextafter(values, 0.0), values, np.nextafter(values, np.inf)])


def where_keys(part, values):
    """The cell keys with 1/v taken only where v > 1 (`where=`): the bit reference for `_interval_keys`."""
    high = values > 1.0
    u = np.divide(1.0, values, out=values.copy(), where=high)
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.divide(u, -math.log1p(part.eps_s), out=u)
    np.minimum(u, part.m, out=u)
    keys = u.astype(np.int64)
    np.subtract(2 * part.m + 2, keys, out=keys, where=high)
    keys[values == 1.0] = part.m + 1
    return keys


class TestBuildPartition:
    def test_worked_example(self):
        # cells [0, 0.5), [0.5, 0.75) and [0.75, 1): the logs of these
        # boundaries are exact multiples of log 2, so each keys exactly
        part = build_partition(1.0, 0.25)
        assert part.m == 2
        values = neighbours(np.array([0.0, 0.5, 0.75]))
        assert _interval_keys(part, values).tolist() == [0, 0, 1, 0, 1, 2, 0, 1, 2]

    def test_single_interval(self):
        # one cell [0, 0.5) and the tail [0.5, 1), where 0.75 is clipped to m
        part = build_partition(1.0, 0.5)
        assert part.m == 1
        values = neighbours(np.array([0.0, 0.5, 0.75]))
        assert _interval_keys(part, values).tolist() == [0, 0, 1, 0, 1, 1, 0, 1, 1]

    def test_allocates_nothing(self):
        # m = 27,631,035: the partition is its two numbers, not a table of
        # m + 1 boundaries (221 MB)
        tracemalloc.start()
        try:
            part = build_partition(1e-6, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert part.m == 27_631_035
        assert peak < 2**20

    def test_tail_bound_holds(self, rng):
        for _ in range(100):
            eps = float(rng.uniform(0.001, 3.0))
            delta = float(rng.uniform(1e-6, 0.99))
            part = build_partition(eps, delta)
            gaps = np.concatenate([delta * np.geomspace(0.25, 4.0, 201), rng.uniform(0.0, 1.0, 200)])
            values = neighbours(1.0 - gaps[gaps <= 1.0])
            tail = values[_interval_keys(part, values) == part.m]
            assert tail.size > 0
            assert np.all(1.0 - tail <= delta * (1 + 1e-12))

    def test_narrow_intervals(self, rng):
        for _ in range(50):
            eps = float(rng.uniform(0.001, 3.0))
            delta = float(rng.uniform(1e-6, 0.99))
            part = build_partition(eps, delta)
            values = np.sort(neighbours(1.0 - np.geomspace(delta / 2, 1.0, 5000)))
            keys = _interval_keys(part, values)
            inner = keys < part.m
            values, keys = values[inner], keys[inner]
            first = np.searchsorted(keys, keys, side="left")
            last = np.searchsorted(keys, keys, side="right") - 1
            assert np.all((1.0 - values[first]) / (1.0 - values[last]) <= (1 + eps) * (1 + 1e-12))

    def test_counts_any_finite_partition(self):
        # no cap here: m = 336,224,866, as eps = 1e-3 at n = 10**4 would
        # need, is two numbers; the estimators refuse it (`product._partition`)
        assert build_partition(5e-8, 5e-8).m == 336_224_866

    def test_rejects_a_count_past_the_floats(self):
        # log(2) / 5e-324 overflows, so m has no integer to round up to
        with pytest.raises(SizeError, match="than a float can count$"):
            build_partition(5e-324, 0.5)

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
        assert build_partition(np.float32(1.0), np.float32(0.25)) == build_partition(1.0, 0.25)


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

    def test_keys_rise_with_the_value(self, rng):
        # the computed boundaries, their float neighbours and reciprocals are
        # where rounded logs could break the order; no break means every cell
        # is an interval of values
        for _ in range(20):
            part = build_partition(float(rng.uniform(0.001, 2.0)), float(rng.uniform(1e-6, 0.9)))
            low = np.concatenate([neighbours(boundaries(part)), rng.uniform(0.0, 1.0, size=300)])
            low = low[low < 1.0]
            with np.errstate(divide="ignore", over="ignore"):
                values = np.sort(np.concatenate([low, np.reciprocal(low), [1.0]]))
            assert np.all(np.diff(_interval_keys(part, values)) >= 0)

    def test_boundaries_key_within_one_cell(self):
        # the closed form may round a boundary down into the cell below it
        for part in (build_partition(0.37, 0.003), build_partition(1e-3, 1e-9)):
            low = boundaries(part)
            t = np.arange(low.size)
            assert np.isin(_interval_keys(part, low) - t, [-1, 0]).all()

    def test_extremes_key_in_order(self):
        # 1/v overflows for subnormal v and log1p(-1) divides by 0: the keys
        # take neither, so a call under numpy's default error state warns nothing
        part = build_partition(0.1, 1e-3)
        above, below = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
        values = np.array([0.0, 5e-324, 1e-310, below, 1.0, above, 1e300, np.inf])
        m = part.m
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keys = _interval_keys(part, values)
        assert keys.tolist() == [0, 0, 0, m, m + 1, m + 2, 2 * m + 2, 2 * m + 2]

    def test_quotients_past_int64_clip_to_the_tail(self):
        # at eps_s 1e-19 the quotient of 1 - 1e-9 is about 2e20, past 2**63:
        # cast before the clip, it wrapped to key 0 below the key of 0.5
        part = build_partition(1e-19, 1 - 1e-12)
        keys = _interval_keys(part, np.array([0.5, 1 - 1e-9, 1 - 1e-15, 1 + 1e-15, 2.0]))
        assert np.all(np.diff(keys) >= 0)
        assert keys.tolist() == [part.m] * 3 + [part.m + 2] * 2

    def test_a_finer_tail_keys_every_float_alike(self):
        # 1 - 2**-53, the float closest below 1, keys near 53 log 2 / log1p(eps_s),
        # half of the m of a tail of 2**-104, so the clip at m never binds
        # and any finer tail puts every float in the same cell
        for eps in (0.37, 0.05, 1e-3):
            floor, finer = build_partition(eps, 2.0**-104), build_partition(eps, 1e-40)
            low = 1.0 - np.geomspace(2.0**-53, 1.0, 5000)
            low = np.concatenate([low, neighbours(boundaries(finer)[-200:]), [0.0, 5e-324]])
            low = low[low < 1.0]
            keys = _interval_keys(floor, low)
            assert keys.max() < floor.m
            np.testing.assert_array_equal(keys, _interval_keys(finer, low))
            with np.errstate(divide="ignore", over="ignore"):
                high = np.reciprocal(low)
            np.testing.assert_array_equal(
                2 * floor.m + 2 - _interval_keys(floor, high), 2 * finer.m + 2 - _interval_keys(finer, high)
            )

    @pytest.mark.parametrize("delta", [1e-3, 2.0**-104])
    @pytest.mark.parametrize("eps", [0.5, 0.2236, 0.01, 1e-6])
    def test_keys_match_the_where_form_bit_for_bit(self, eps, delta):
        # u = min(v, 1/max(v, 1)) divides everywhere, by 1 at or below 1, and
        # must key every value as the where= form does.  At the tail 2**-104
        # the clip at m never binds, so a clip of u at 1 - 2**-52 in place of
        # 1 - 2**-53 would move the key of 1 - 2**-53; at 1e-3 the clip binds
        part = build_partition(eps, delta)
        edges = [0.0, 5e-324, 1e-310, 1 - 2.0**-53, 1.0, 1 + 2.0**-52, 2.0, 1e308]
        values = np.concatenate([edges, np.random.default_rng(5).lognormal(0.0, 3.0, 10**5)])
        np.testing.assert_array_equal(_interval_keys(part, values), where_keys(part, values))


# The first coordinate's third outcome has p-mass 0.25 and no q-mass.
DEFICIT_PAIR = ProductPair(
    [[0.5, 0.25, 0.25], [0.03125, 0.96875, 0]], [[0.875, 0.125, 0], [0.125, 0.75, 0.125]]
)


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

    def test_infinity_mass_stays_deficit_beside_the_top_cell(self):
        # expectation deficit 0.08 and the top cell (2, inf] holds mass 0.2:
        # the q-null outcomes hold no q-mass, so they join no cell and the
        # top cell keeps its value
        r = RatioDist([0.4, 3.0], [0.8, 0.2])
        out = merge_table(r, build_partition(1.0, 0.25))
        assert entries(out) == [(0.4, 0.8), (3.0, 0.2)]
        assert float(np.sum(out.values * out.masses)) == pytest.approx(0.92, rel=1e-15)

    def test_a_product_keeps_its_deficit_through_the_fold(self):
        # a merge that raised the first step's top cell by its deficit would
        # lift it from 2 to 4, and the next ratio, 1/4, would land it at 1.0
        # in place of 0.5, losing the distance of that cell
        assert exact_tv_product(DEFICIT_PAIR) == Fraction(51, 128)
        for eps in (0.2, 0.05):
            assert estimate_product_tv(DEFICIT_PAIR, eps).estimate == 51 / 128

    def test_the_boundary_closes_on_the_p_mass_at_infinity(self):
        # the last horizontal segment is the p-mass where q is 0, 0.25
        _, ratio = estimate_product_tv(DEFICIT_PAIR, 0.2, return_ratio=True)
        assert np_boundary(ratio).vertices[-2:].tolist() == [[0.75, 1.0], [1.0, 1.0]]

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
        # its own cell, so masses and values pass through bit-identically,
        # the top cell's too: an expectation deficit stays one.
        part = build_partition(0.3, 0.05)
        for _ in range(100):
            r = random_ratio(rng, int(rng.integers(1, 300)))
            once = merge_table(r, part)
            twice = merge_table(once, part)
            np.testing.assert_array_equal(twice.masses, once.masses)
            np.testing.assert_array_equal(twice.values, once.values)

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


def flat(tables):
    """(values, masses) tables laid end to end as the fold's flat tables of states."""
    sizes = np.array([len(v) for v, _ in tables], dtype=np.intp)
    values = np.concatenate([np.asarray(v, dtype=float) for v, _ in tables])
    masses = np.concatenate([np.asarray(p, dtype=float) for _, p in tables])
    return values, masses, sizes


def assert_bitwise(got, want):
    bits = [np.asarray(a, dtype=float).view(np.uint64) for a in (got, want)]
    np.testing.assert_array_equal(*bits)


@pytest.fixture
def compactions(monkeypatch):
    """Whether each `_slot_sums` call numbers its map's occupied slots first, in call order."""
    seen, slot_sums = [], sparsify._slot_sums

    def spy(slot, v, p, size):
        seen.append(size > max(slot.size, 2**16))
        return slot_sums(slot, v, p, size)

    monkeypatch.setattr(sparsify, "_slot_sums", spy)
    return seen


class TestFlatTables:
    # A one-state table takes its own path through the reducers; a flat table
    # of many states must reduce as each of its states would alone.
    @pytest.mark.parametrize("reducer", [_merge_cells, _spread_cells])
    @pytest.mark.parametrize("eps_s, calls", [(0.5, 1), (1e-3, 2), (1e-4, 2)])
    def test_states_reduce_as_they_would_alone(self, reducer, eps_s, calls, rng, compactions):
        part = build_partition(eps_s, 1e-3)
        tables = [
            ([], []),
            ([1.0], [1.0]),
            ([0.3], [1.0]),
            # expectation 0.52: the top cell, 2e3 > 1/delta, keeps its value
            ([0.5, 2e3], [1 - 1e-5, 1e-5]),
            ([0.5, 1e10], [1.0, 1e-320]),
        ]
        for size in (40, 200, 500):
            r = random_ratio(rng, size)
            tables.append((r.values, r.masses))
        got = reducer(part, *flat(tables))
        # the states share one slot map: in one `_slot_sums` call it sums
        # densely, in two it numbers its occupied slots first
        assert compactions == [True, False][-calls:]
        compactions.clear()
        alone = [reducer(part, *flat([t])) for t in tables]
        # at eps_s 1e-4 a single state's 2m + 3 slots alone exceed 2**16,
        # so each state's own map compacts too
        alone_compacts = part.interval_count > 2**16
        assert alone_compacts == (eps_s == 1e-4)
        assert compactions.count(True) == len(tables) * alone_compacts
        assert_bitwise(got[0], np.concatenate([a[0] for a in alone]))
        assert_bitwise(got[1], np.concatenate([a[1] for a in alone]))
        np.testing.assert_array_equal(got[2], [a[0].size for a in alone])

    @pytest.mark.parametrize("reducer", [_merge_cells, _spread_cells])
    def test_dense_and_compacted_maps_agree(self, reducer, rng, compactions):
        # 2m + 3 = 65,799 slots a state, just past 2**16: a state of fewer
        # entries numbers its occupied slots first, while a step of at least
        # states times 2m + 3 entries sums all its states in one dense map
        part = build_partition(2.1e-4, 1e-3)
        width = part.interval_count
        assert width > 2**16
        small = [([], []), ([1.0], [1.0]), ([0.3], [1.0]), ([0.5, 2e3], [1 - 1e-5, 1e-5])]
        small += [(r.values, r.masses) for r in (random_ratio(rng, size) for size in (40, 500))]
        entries = (len(small) + 1) * width
        tables = small + [(rng.lognormal(0.0, 1.0, entries), np.full(entries, 1 / entries))]
        alone = [reducer(part, *flat([t])) for t in tables]
        # each small state's map compacts, then sums densely on its occupied slots
        assert compactions == [True, False] * len(small) + [False]
        compactions.clear()
        together = reducer(part, *flat(tables))
        assert compactions == [False]
        compactions.clear()
        # the small states alone share one map, which compacts once
        shared = reducer(part, *flat(small))
        assert compactions == [True, False]
        for got, want in ((together, alone), (shared, alone[:-1])):
            assert_bitwise(got[0], np.concatenate([a[0] for a in want]))
            assert_bitwise(got[1], np.concatenate([a[1] for a in want]))
            np.testing.assert_array_equal(got[2], [a[0].size for a in want])

    @pytest.mark.parametrize("reducer", [_merge_cells, _spread_cells])
    def test_a_cap_sized_partition_costs_memory_per_entry(self, reducer, rng, monkeypatch):
        # m = MAX_TABLE_ENTRIES: 2m + 3 = 134,217,731 slots, which would take
        # 4.3 GB as a dense map, or 1.2 GB as a bool and an intp a slot; the
        # 1,000 entries' own compaction takes kilobytes.  Half the entries
        # share a cell with another, in no order.
        part = sparsify.IntervalPartition(1e-7, product_mod.MAX_TABLE_ENTRIES)
        values = rng.lognormal(0.0, 1.0, 1000)
        values[500:] = rng.permutation(values[:500]) * (1 + 1e-12)
        assert np.unique(_interval_keys(part, values)).size <= 510
        table = values, rng.uniform(0.5, 1.5, 1000) / 1000, np.array([1000])
        tracemalloc.start()
        try:
            got = reducer(part, *table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        slot_sums = sparsify._slot_sums

        def bool_index(slot, v, p, size):
            """Numbers the occupied slots through a bool and an intp a slot, then sums densely."""
            seen = np.zeros(size, dtype=bool)
            seen[slot] = True
            occupied = seen.nonzero()[0]
            index = np.empty(size, dtype=np.intp)
            index[occupied] = np.arange(occupied.size)
            return occupied, *slot_sums(index[slot], v, p, occupied.size)[1:]

        monkeypatch.setattr(sparsify, "_slot_sums", bool_index)
        want = reducer(part, *table)
        assert_bitwise(got[0], want[0])
        assert_bitwise(got[1], want[1])
        np.testing.assert_array_equal(got[2], want[2])
