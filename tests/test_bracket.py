"""The certified bracket: merge folds bound the distance from below, spread
folds from above, at any partition width, and the estimators' schedule.

Property tests run both folds against brute-force enumeration on small
adversarial pairs: zeros in q (expectation deficit), zeros in p, ratios of
exactly 1, repeated ratio values, one-step pairs, and partitions coarse
enough that whole tables share a cell or fine enough that boundaries tie at
1.0 in float arithmetic.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tvdist.product as product_mod
from tvdist import (
    MarkovPair,
    ProductPair,
    RatioDist,
    brute_force_tv_markov,
    brute_force_tv_product,
    build_partition,
    estimate_markov_tv,
    estimate_product_tv,
    expectation,
    markov_lower_bound,
    product_lower_bound,
    sparsify_wrt_intervals,
    tv_of_ratio,
)
from tvdist.markov import _steps as chain_steps
from tvdist.product import MAX_TABLE_ENTRIES, _merged, _spread
from tvdist.product import _steps as product_steps
from tvdist.ratios import _fold
from tvdist.sparsify import _interval_keys, spread_wrt_intervals

from conftest import random_ratio

TOL = 1e-12
PROPERTY = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# Small integer weights give zeros, ratios of exactly 1 and repeated ratio
# values; the floats give generic ones.
weights = st.one_of(st.integers(0, 3).map(float), st.floats(0.01, 1.0))


@st.composite
def rows(draw, count, q):
    raw = np.array(draw(st.lists(weights, min_size=count * q, max_size=count * q))).reshape(count, q)
    raw[raw.sum(axis=1) == 0, 0] = 1.0
    return raw / raw.sum(axis=1, keepdims=True)


@st.composite
def product_pairs(draw):
    n, q = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    p = draw(rows(n, q))
    # Some coordinates copy p, so their ratios are exactly 1 everywhere.
    same = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return ProductPair(p, np.where(same[:, None], p, draw(rows(n, q))))


@st.composite
def markov_pairs(draw):
    n, q = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    p_init, q_init = draw(rows(1, q))[0], draw(rows(1, q))[0]
    pk = draw(rows((n - 1) * q, q)).reshape(n - 1, q, q)
    qk = draw(rows((n - 1) * q, q)).reshape(n - 1, q, q)
    return MarkovPair(p_init, q_init, pk, qk)


# Coarse widths put whole tables into one cell; a tail of 1e-300 at width 3
# makes every boundary past the 27th round to 1.0, so those cells tie.
partitions = st.builds(
    build_partition,
    st.one_of(st.sampled_from([8.0, 3.0, 1.0, 0.25]), st.floats(1e-3, 8.0)),
    st.one_of(st.sampled_from([0.5, 1e-3, 1e-300]), st.floats(1e-12, 0.5)),
)


def _bracket(steps, part):
    est, _ = _fold(steps, _merged(part), MAX_TABLE_ENTRIES)
    spread, _ = _fold(steps, _spread(part), MAX_TABLE_ENTRIES)
    upper = tv_of_ratio(spread) + max(0.0, 1.0 - float(np.sum(spread.masses)))
    return tv_of_ratio(est), upper


def _paper(pair, lower_bound, slack, eps=0.2):
    d_lb = lower_bound(pair)
    return build_partition(eps / (slack * pair.n), (eps / (2 * pair.n)) * max(d_lb, 1e-9))


@PROPERTY
@given(product_pairs(), partitions)
def test_product_folds_bracket_the_distance(pair, part):
    tv = brute_force_tv_product(pair)
    for width in (part, _paper(pair, product_lower_bound, 2)):
        est, upper = _bracket(product_steps(pair), width)
        assert est <= tv + TOL
        assert tv <= upper + TOL


@PROPERTY
@given(markov_pairs(), partitions)
def test_markov_folds_bracket_the_distance(pair, part):
    tv = brute_force_tv_markov(pair)
    for width in (part, _paper(pair, markov_lower_bound, 4)):
        est, upper = _bracket(chain_steps(pair), width)
        assert est <= tv + TOL
        assert tv <= upper + TOL


@PROPERTY
@given(st.one_of(product_pairs(), markov_pairs()), st.sampled_from([0.5, 0.2, 0.05]))
def test_estimates_stay_in_the_band_and_below_their_upper_bound(pair, eps):
    if isinstance(pair, ProductPair):
        tv, report = brute_force_tv_product(pair), estimate_product_tv(pair, eps)
    else:
        tv, report = brute_force_tv_markov(pair), estimate_markov_tv(pair, eps)
    assert (1 - eps) * tv - TOL <= report.estimate <= tv + TOL
    assert (report.upper is None) == (report.eps_s is None)
    if report.upper is not None:
        assert tv <= report.upper + TOL
        assert report.estimate >= (1 - eps) * report.upper


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 60), partitions)
def test_spread_keeps_mass_and_mean_and_raises_the_distance(seed, support, part):
    ratio = random_ratio(np.random.default_rng(seed), support)
    out = spread_wrt_intervals(ratio, part)
    assert abs(float(np.sum(out.masses)) - 1.0) <= 1e-12
    assert abs(expectation(out) - expectation(ratio)) <= 1e-12
    assert tv_of_ratio(out) >= tv_of_ratio(ratio) - TOL
    assert tv_of_ratio(sparsify_wrt_intervals(ratio, part)) <= tv_of_ratio(ratio) + TOL
    cells = np.unique(_interval_keys(part, ratio.values)).size
    assert len(out) <= 2 * cells
    # every output value is an input value: the spread reaches no new points
    assert np.isin(out.values, ratio.values).all()


def test_spread_passes_single_point_cells_through_bitwise(rng):
    ratio = random_ratio(rng, 40)
    part = build_partition(1e-6, 1e-12)  # cells far narrower than the gaps
    assert np.unique(_interval_keys(part, ratio.values)).size == len(ratio)
    out = spread_wrt_intervals(ratio, part)
    assert out.values.tobytes() == ratio.values.tobytes()
    assert out.masses.tobytes() == ratio.masses.tobytes()


def test_spread_worked_example():
    # one coarse low cell holding 0.2 and 0.6 at equal mass: mean 0.4 stays
    # put on the two extreme values; the singleton {1} passes through
    ratio = RatioDist([0.2, 0.4, 0.6, 1.0], [0.25, 0.25, 0.25, 0.25])
    out = spread_wrt_intervals(ratio, build_partition(100.0, 0.5))
    assert out.values.tolist() == [0.2, 0.6, 1.0]
    np.testing.assert_allclose(out.masses, [0.375, 0.375, 0.25], rtol=1e-15)


def _record_widths(monkeypatch):
    """The cell width of every partition the schedule builds, in order."""
    widths, build = [], product_mod.build_partition
    monkeypatch.setattr(product_mod, "build_partition", lambda e, d: widths.append(e) or build(e, d))
    return widths


class TestSchedule:
    def test_small_tables_run_once_at_the_paper_width(self):
        # (n - 1) log q <= log(2m + 3): no coarse try could shrink the tables
        pair = ProductPair([[0.75, 0.25]] * 2, [[0.25, 0.75]] * 2)
        report = estimate_product_tv(pair, 0.1)
        assert report.upper is None and report.eps_s is None
        part = build_partition(0.1 / 4, (0.1 / 4) * report.d_lb)
        ratio, _ = _fold(product_steps(pair), _merged(part), MAX_TABLE_ENTRIES)
        assert report.estimate == tv_of_ratio(ratio)

    def test_first_try_certifies_a_near_pair(self):
        rng = np.random.default_rng(6)
        p = rng.gamma(1.0, size=(40, 10))
        p /= p.sum(axis=1, keepdims=True)
        q = p * np.exp(0.02 * rng.standard_normal(p.shape))
        pair = ProductPair(p, q / q.sum(axis=1, keepdims=True))
        report = estimate_product_tv(pair, 0.05)
        assert report.eps_s == 0.05
        assert report.estimate < 0.95 and report.upper < 1.0
        assert report.estimate >= 0.95 * report.upper
        again = estimate_product_tv(pair, 0.05)
        assert (again.estimate, again.upper, again.max_support) == (
            report.estimate, report.upper, report.max_support
        )

    def test_an_uncertified_try_falls_back_to_the_paper_width(self, monkeypatch):
        pair = ProductPair(np.tile([0.3, 0.3, 0.4], (12, 1)), np.tile([0.2, 0.5, 0.3], (12, 1)))
        eps, widths = 0.2, _record_widths(monkeypatch)
        monkeypatch.setattr(product_mod, "CERTIFY_MARGIN", math.inf)
        report = estimate_product_tv(pair, eps)
        paper = eps / (2 * pair.n)
        assert widths == [0.2, paper]
        assert report.upper is None and report.eps_s is None
        part = build_partition(paper, paper * report.d_lb)
        ratio, support = _fold(product_steps(pair), _merged(part), MAX_TABLE_ENTRIES)
        assert report.estimate == tv_of_ratio(ratio) and report.max_support >= support
        assert report.estimate >= (1 - eps) * brute_force_tv_product(pair) - TOL

    def test_saturated_try_certifies_without_the_spread_fold(self, monkeypatch):
        pair = ProductPair(np.tile([0.9, 0.1], (30, 1)), np.tile([0.1, 0.9], (30, 1)))

        def no_spread(part):
            raise AssertionError("spread fold ran")

        monkeypatch.setattr(product_mod, "_spread", no_spread)
        report = estimate_product_tv(pair, 0.05)
        assert report.upper == 1.0 and report.estimate >= 0.95
