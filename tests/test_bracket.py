"""The certified bracket: merge folds bound the distance from below, spread
folds from above, at any partition width, and the estimators' schedule,
including the fold-free certificate by the Hellinger bound 1 - BC.

Property tests run both folds against brute-force enumeration on small
adversarial pairs: zeros in q (expectation deficit), zeros in p, ratios of
exactly 1, repeated ratio values, one-step pairs, and partitions coarse
enough that whole tables share a cell or fine enough that boundaries tie at
1.0 in float arithmetic.
"""

import json
import math
import warnings
from functools import partial

import numpy as np
import pytest
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
    emit_report,
    estimate_markov_tv,
    estimate_product_tv,
    expectation,
    markov_lower_bound,
    product_lower_bound,
    sparsify_wrt_intervals,
    tv_of_ratio,
)
from tvdist.markov import _steps as chain_steps
from tvdist.product import MAX_TABLE_ENTRIES, _affinity_gap
from tvdist.product import _steps as product_steps
from tvdist.ratios import VALIDITY_TOL, _fold
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
    est, _ = _fold(steps, partial(sparsify_wrt_intervals, part=part), MAX_TABLE_ENTRIES)
    spread, _ = _fold(steps, partial(spread_wrt_intervals, part=part), MAX_TABLE_ENTRIES)
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
        ratio, _ = _fold(product_steps(pair), partial(sparsify_wrt_intervals, part=part), MAX_TABLE_ENTRIES)
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
        merge = partial(sparsify_wrt_intervals, part=build_partition(paper, paper * report.d_lb))
        ratio, support = _fold(product_steps(pair), merge, MAX_TABLE_ENTRIES)
        assert report.estimate == tv_of_ratio(ratio) and report.max_support >= support
        assert report.estimate >= (1 - eps) * brute_force_tv_product(pair) - TOL

    def test_no_mass_is_dropped(self):
        # q-mass 1e-12 on the first outcome of two coordinates, at ratio 1:
        # after the second step the table holds an entry of q-mass 1e-24,
        # alone in the cell {1}; the later coordinates have p = q, so it
        # keeps its value to the end
        rows = [[1e-12, 0.6, 0.4 - 1e-12], [1e-12, 0.3, 0.7 - 1e-12]]
        same = np.tile([0.2, 0.3, 0.5], (8, 1))
        pair = ProductPair(np.vstack([rows[0], rows[0], same]), np.vstack([rows[1], rows[1], same]))
        report, ratio = estimate_product_tv(pair, 0.1, return_ratio=True)
        assert report.eps_s == 0.1 and report.upper < 1.0
        [tiny] = ratio.masses[ratio.values == 1.0]
        assert tiny == pytest.approx(1e-24, rel=1e-9, abs=0)
        # every cell holds one point, so the bracket is exact and upper has
        # no lost-mass term
        assert report.upper <= brute_force_tv_product(pair) + VALIDITY_TOL

    def test_saturated_try_certifies_without_the_spread_fold(self, monkeypatch):
        pair = ProductPair(np.tile([0.9, 0.1], (30, 1)), np.tile([0.1, 0.9], (30, 1)))

        def no_spread(table, part):
            raise AssertionError("spread fold ran")

        monkeypatch.setattr(product_mod, "spread_wrt_intervals", no_spread)
        # asking for the table keeps the Hellinger bound from skipping the fold
        report, _ = estimate_product_tv(pair, 0.05, return_ratio=True)
        assert report.upper == 1.0 and report.estimate >= 0.95
        assert report.iterations == pair.n - 1


# ------------------------------------------------- the Hellinger certificate


@st.composite
def skewed_rows(draw, count, q):
    """Gamma rows of shape 0.05 to 3, some entries zeroed; spiky at low shape."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.gamma(draw(st.floats(0.05, 3.0)), size=(count, q))
    zeros = draw(st.lists(st.booleans(), min_size=count * q, max_size=count * q))
    raw[np.array(zeros).reshape(count, q)] = 0.0
    raw[raw.sum(axis=1) == 0, 0] = 1.0
    return raw / raw.sum(axis=1, keepdims=True)


@st.composite
def skewed_pairs(draw):
    """Products n <= 6, q <= 4 and chains n <= 5, q <= 3; `disjoint` pairs
    put one coordinate (or the initial rows) on disjoint supports."""
    disjoint = draw(st.booleans())
    if draw(st.booleans()):
        n, q = draw(st.integers(2, 6)), draw(st.integers(1, 4))
        p, q_rows = draw(skewed_rows(n, q)), draw(skewed_rows(n, q))
        if disjoint and q > 1:
            k = draw(st.integers(0, n - 1))
            p[k], q_rows[k] = np.eye(q)[0], np.eye(q)[1]
        return ProductPair(p, q_rows), disjoint and q > 1
    n, q = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    p_init, q_init = draw(skewed_rows(1, q))[0], draw(skewed_rows(1, q))[0]
    if disjoint and q > 1:
        p_init, q_init = np.eye(q)[0], np.eye(q)[1]
    pk = draw(skewed_rows((n - 1) * q, q)).reshape(n - 1, q, q)
    qk = draw(skewed_rows((n - 1) * q, q)).reshape(n - 1, q, q)
    return MarkovPair(p_init, q_init, pk, qk), disjoint and q > 1


def _kind(pair):
    """(estimator, brute force, lower bound, fold steps) for the pair's kind."""
    if isinstance(pair, ProductPair):
        return estimate_product_tv, brute_force_tv_product, product_lower_bound, product_steps(pair)
    return estimate_markov_tv, brute_force_tv_markov, markov_lower_bound, chain_steps(pair)


@PROPERTY
@given(skewed_pairs())
def test_affinity_gap_lower_bounds_the_distance(case):
    pair, disjoint = case
    _, brute_force, lower_bound, steps = _kind(pair)
    gap = _affinity_gap(steps)
    assert max(lower_bound(pair), gap) <= brute_force(pair) + TOL
    if disjoint:
        assert gap == 1.0


@PROPERTY
@given(skewed_pairs(), st.sampled_from([0.5, 0.2, 0.05]))
def test_the_certificate_fires_only_inside_the_band(case, eps):
    pair, _ = case
    estimate, brute_force, lower_bound, steps = _kind(pair)
    report, tv = estimate(pair, eps), brute_force(pair)
    bound = max(report.d_lb, _affinity_gap(steps))
    fired = report.d_lb > 0 and bound >= 1 - eps
    # a zero d_lb also folds nothing, but reports no upper bound
    assert (report.iterations == 0 and report.upper == 1.0) == fired
    if fired:
        assert report.estimate == bound
        assert (report.upper, report.eps_s, report.max_support) == (1.0, eps, 0)
    assert (1 - eps) * tv - TOL <= report.estimate <= tv + TOL


class TestHellingerCertificate:
    def test_asking_for_the_table_still_folds(self):
        pair = ProductPair(np.tile([0.9, 0.1], (12, 1)), np.tile([0.1, 0.9], (12, 1)))
        assert estimate_product_tv(pair, 0.1).iterations == 0
        report, ratio = estimate_product_tv(pair, 0.1, return_ratio=True)
        assert report.iterations == pair.n - 1 and report.max_support > 0
        assert report.estimate == tv_of_ratio(ratio)

    def test_long_product_does_not_underflow(self):
        # each coordinate has BC = sqrt(0.25) = 0.5; their product 2**-3000
        # underflows to zero without the per-step rescaling
        pair = ProductPair(np.tile([1.0, 0.0], (3000, 1)), np.tile([0.25, 0.75], (3000, 1)))
        assert np.prod(np.full(3000, 0.5)) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _affinity_gap(product_steps(pair)) == 1.0
            assert estimate_product_tv(pair, 0.05).estimate == 1.0

    def test_disjoint_supports_give_exactly_one(self):
        product = ProductPair([[0.5, 0.5], [1.0, 0.0]], [[0.5, 0.5], [0.0, 1.0]])
        # the chain keeps its state under p and flips it under q: d_lb is 1/2
        chain = MarkovPair([0.5, 0.5], [0.5, 0.5], [np.eye(2)], [[[0.0, 1.0], [1.0, 0.0]]])
        assert markov_lower_bound(chain) == 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _affinity_gap(product_steps(product)) == 1.0
            assert _affinity_gap(chain_steps(chain)) == 1.0
            assert estimate_product_tv(product, 0.1).estimate == 1.0
            assert estimate_markov_tv(chain, 0.1).estimate == 1.0

    def test_certified_report_fields_and_document(self):
        pair = ProductPair(np.tile([0.9, 0.1], (30, 1)), np.tile([0.1, 0.9], (30, 1)))
        report = estimate_product_tv(pair, 0.05)
        assert report.estimate == _affinity_gap(product_steps(pair))
        assert (report.iterations, report.max_support) == (0, 0)
        assert (report.upper, report.eps_s) == (1.0, 0.05)
        doc = json.loads(emit_report(report, "fptas", "sha256:00"))
        assert list(doc) == [
            "mode", "estimate", "epsilon", "d_lb", "max_support", "elapsed_ms",
            "instance_digest", "upper", "eps_s",
        ]
        again = estimate_product_tv(pair, 0.05)
        assert again.estimate.hex() == report.estimate.hex()
