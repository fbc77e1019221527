"""The certified bracket: merge folds bound the distance from below, spread
folds from above, at any partition width, and the estimators' schedule,
including the fold-free certificate by the Hellinger bound 1 - BC.

Property tests run both folds against brute-force enumeration on small
adversarial pairs: zeros in q (expectation deficit), zeros in p, ratios of
exactly 1, repeated ratio values, one-step pairs, and partitions coarse
enough that whole tables share a cell or fine enough that boundaries tie at
1.0 in float arithmetic.  The band tests on small products and chains
compare with the exact distance in rational arithmetic (`conftest`), so
they check the band relatively, with no tolerance.
"""

import json
import math
import tracemalloc
import warnings
from fractions import Fraction
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
    emit_report,
    estimate_markov_tv,
    estimate_product_tv,
    generate_markov_instance,
    generate_product_instance,
    markov_lower_bound,
    product_lower_bound,
    tv_of_ratio,
)
from tvdist.markov import _bounds as chain_bounds
from tvdist.markov import _steps as chain_steps
from tvdist.product import MAX_TABLE_ENTRIES, _affinity_gap, _free_bound
from tvdist.product import _bounds as product_bounds
from tvdist.product import _steps as product_steps
from tvdist.ratios import VALIDITY_TOL, _fold, _live_pairs, _tv
from tvdist.sparsify import _interval_keys, _merge_cells, _spread_cells, build_partition

from conftest import exact_tv_markov, exact_tv_product, merge_table, random_ratio, spread_table

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
# gives m = 499, but no float below 1 keys past low cell 26, so the cells
# beyond it stay empty.
partitions = st.builds(
    build_partition,
    st.one_of(st.sampled_from([8.0, 3.0, 1.0, 0.25]), st.floats(1e-3, 8.0)),
    st.one_of(st.sampled_from([0.5, 1e-3, 1e-300]), st.floats(1e-12, 0.5)),
)


def _bracket(steps, part):
    pairs = _live_pairs(steps)
    est, masses, _ = _fold(pairs, partial(_merge_cells, part), MAX_TABLE_ENTRIES)
    spread, weights, _ = _fold(pairs, partial(_spread_cells, part), MAX_TABLE_ENTRIES)
    upper = _tv(spread, weights) + max(0.0, 1.0 - float(np.sum(weights)))
    return _tv(est, masses), upper


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
    # a run folds at a partition exactly when it folds a step, at most thrice
    assert (report.tries == 0) == (report.iterations == 0) and report.tries <= 3
    if report.upper is not None:
        assert tv <= report.upper + TOL
        assert report.estimate >= (1 - eps) * report.upper


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 60), partitions)
def test_spread_keeps_mass_and_mean_and_raises_the_distance(seed, support, part):
    ratio = random_ratio(np.random.default_rng(seed), support)
    out = spread_table(ratio, part)
    assert abs(float(np.sum(out.masses)) - 1.0) <= 1e-12
    assert abs(np.sum(out.values * out.masses) - np.sum(ratio.values * ratio.masses)) <= 1e-12
    assert tv_of_ratio(out) >= tv_of_ratio(ratio) - TOL
    assert tv_of_ratio(merge_table(ratio, part)) <= tv_of_ratio(ratio) + TOL
    cells = np.unique(_interval_keys(part, ratio.values)).size
    assert len(out) <= 2 * cells
    # every output value is an input value: the spread reaches no new points
    assert np.isin(out.values, ratio.values).all()


def test_spread_passes_single_point_cells_through_bitwise(rng):
    ratio = random_ratio(rng, 40)
    part = build_partition(1e-6, 1e-12)  # cells far narrower than the gaps
    assert np.unique(_interval_keys(part, ratio.values)).size == len(ratio)
    out = spread_table(ratio, part)
    assert out.values.tobytes() == ratio.values.tobytes()
    assert out.masses.tobytes() == ratio.masses.tobytes()


def test_spread_worked_example():
    # one coarse low cell holding 0.2 and 0.6 at equal mass: mean 0.4 stays
    # put on the two extreme values; the singleton {1} passes through
    ratio = RatioDist([0.2, 0.4, 0.6, 1.0], [0.25, 0.25, 0.25, 0.25])
    out = spread_table(ratio, build_partition(100.0, 0.5))
    assert out.values.tolist() == [0.2, 0.6, 1.0]
    np.testing.assert_allclose(out.masses, [0.375, 0.375, 0.25], rtol=1e-15)


def _record_widths(monkeypatch):
    """The cell width of every partition the schedule builds, in order."""
    widths, build = [], product_mod.build_partition
    monkeypatch.setattr(product_mod, "build_partition", lambda e, d: widths.append(e) or build(e, d))
    return widths


def _record_spreads(monkeypatch):
    """The cell width of every spread fold the schedule runs, in order."""
    widths, spread = [], product_mod._spread
    monkeypatch.setattr(product_mod, "_spread", lambda steps, part: widths.append(part.eps_s) or spread(steps, part))
    return widths


def _law_width(eps, n):
    return math.sqrt(25 * eps / n)


def _try_bracket(pair, eps, width):
    """(estimate, upper) of the schedule's try at `width`, folded again here."""
    _, _, lower_bound, steps = _kind(pair)
    slack = 2 if isinstance(pair, ProductPair) else 4
    paper_eps, paper_delta = eps / (slack * pair.n), (eps / (2 * pair.n)) * lower_bound(pair)
    return _bracket(steps, build_partition(width, min(width / paper_eps * paper_delta, 0.5)))


def _predicted_retry(pair, eps):
    est, upper = _try_bracket(pair, eps, _law_width(eps, pair.n))
    return _law_width(eps, pair.n) * math.sqrt(eps / (2 * (1 - est / upper)))


def _near_product(seed, n, q, sigma):
    rng = np.random.default_rng(seed)
    p = rng.gamma(1.0, size=(n, q))
    p /= p.sum(axis=1, keepdims=True)
    q = p * np.exp(sigma * rng.standard_normal(p.shape))
    return ProductPair(p, q / q.sum(axis=1, keepdims=True))


def _near_chain(seed, n, q, sigma):
    rng = np.random.default_rng(seed)
    p = rng.gamma(1.0, size=(n, q, q))
    p /= p.sum(axis=2, keepdims=True)
    q = p * np.exp(sigma * rng.standard_normal(p.shape))
    q /= q.sum(axis=2, keepdims=True)
    return MarkovPair(p[0, 0], q[0, 0], p[1:], q[1:])


# Far pairs of gamma(1) rows whose first try misses at eps = 0.05: the
# second try certifies after its own spread fold (seed 8), or against the
# first try's bound with no spread fold of its own (seed 1).
RETRY_SPREADS = generate_product_instance(8, 4, seed=8, skew=1.0)
RETRY_NO_SPREAD = generate_product_instance(8, 4, seed=1, skew=1.0)


class TestSchedule:
    def test_small_tables_certify_at_the_law_width(self, monkeypatch):
        # a fold pays for all 2m + 3 slots of its partition at every step,
        # however small its tables, so the coarse law width is the cheap one
        pair = ProductPair([[0.75, 0.25]] * 2, [[0.25, 0.75]] * 2)
        widths = _record_widths(monkeypatch)
        report = estimate_product_tv(pair, 0.1)
        assert widths == [_law_width(0.1, pair.n)]
        assert (report.eps_s, report.tries) == (widths[0], 1)
        assert report.estimate >= 0.9 * report.upper * product_mod.CERTIFY_MARGIN
        # every cell holds one value, so the bracket closes on the distance
        assert report.estimate == report.upper == pytest.approx(brute_force_tv_product(pair), abs=TOL)

    def test_tiny_eps_folds_at_no_partition_finer_than_the_law(self, monkeypatch):
        # the paper's partition at eps 3e-6 has m = 4.1e7 low-side cells, a
        # fold there about 1 GB; the law's has m = 1,361
        pair, eps = generate_product_instance(4, 3, seed=5, skew=1.0), 3e-6
        widths = _record_widths(monkeypatch)
        tracemalloc.start()
        try:
            report = estimate_product_tv(pair, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert widths == [_law_width(eps, pair.n)] and report.tries == 1
        assert peak <= 2**20
        assert report.estimate >= (1 - eps) * report.upper * product_mod.CERTIFY_MARGIN

    def test_a_tail_that_underflows_is_floored(self):
        # (eps / (2n)) * d_lb underflows to 0 at d_lb = 5e-324; the tail's
        # floor keeps both the law's partition and the paper's buildable
        pair = ProductPair([[1, 0, 0]] * 2, [[1, 1e-323, 0], [1, 0, 0]])
        tv = brute_force_tv_product(pair)
        for return_ratio in (False, True):
            result = estimate_product_tv(pair, 0.05, return_ratio=return_ratio)
            report = result[0] if return_ratio else result
            assert report.tries == 1 and report.upper is not None
            assert 0.95 * tv - TOL <= report.estimate <= tv + TOL
            if return_ratio:
                assert tv_of_ratio(result[1]) == report.estimate

    @pytest.mark.parametrize(
        "pair,eps",
        [
            (_near_product(6, 40, 10, 0.02), 0.05),
            (_near_product(6, 40, 10, 0.02), 0.2),
            (_near_chain(3, 16, 4, 0.02), 0.05),
        ],
    )
    def test_first_width_follows_the_bracket_law(self, pair, eps, monkeypatch):
        widths = _record_widths(monkeypatch)
        estimate, _, _, _ = _kind(pair)
        report = estimate(pair, eps)
        assert widths == [_law_width(eps, pair.n)]
        assert (report.eps_s, report.tries) == (widths[0], 1)

    def test_first_try_certifies_a_near_pair(self):
        pair = _near_product(6, 40, 10, 0.02)
        report = estimate_product_tv(pair, 0.05)
        assert report.eps_s == _law_width(0.05, pair.n) and report.tries == 1
        assert report.estimate < 0.95 and report.upper < 1.0
        assert report.estimate >= 0.95 * report.upper
        again = estimate_product_tv(pair, 0.05)
        assert (again.estimate, again.upper, again.max_support) == (
            report.estimate, report.upper, report.max_support
        )

    def test_a_missed_first_try_retries_at_the_predicted_width(self, monkeypatch):
        pair, eps = RETRY_SPREADS, 0.05
        widths, spreads = _record_widths(monkeypatch), _record_spreads(monkeypatch)
        report = estimate_product_tv(pair, eps)
        first, retry = _law_width(eps, pair.n), _predicted_retry(pair, eps)
        assert widths == spreads == [first, retry] and report.tries == 2
        (est1, upper1), (est2, upper2) = _try_bracket(pair, eps, first), _try_bracket(pair, eps, retry)
        assert est1 < (1 - eps) * upper1 * product_mod.CERTIFY_MARGIN
        # both ends are sound at any width: the run keeps the best of each
        assert report.upper == min(upper1, upper2)
        assert (report.estimate, report.eps_s) == max((est1, first), (est2, retry))
        assert report.estimate >= (1 - eps) * report.upper * product_mod.CERTIFY_MARGIN

    def test_a_second_try_that_certifies_skips_its_spread_fold(self, monkeypatch):
        pair, eps = RETRY_NO_SPREAD, 0.05
        widths, spreads = _record_widths(monkeypatch), _record_spreads(monkeypatch)
        report = estimate_product_tv(pair, eps)
        first, retry = _law_width(eps, pair.n), _predicted_retry(pair, eps)
        assert widths == [first, retry] and spreads == [first]
        (_, upper1), (est2, _) = _try_bracket(pair, eps, first), _try_bracket(pair, eps, retry)
        assert (report.estimate, report.upper, report.eps_s, report.tries) == (est2, upper1, retry, 2)
        assert report.estimate >= (1 - eps) * report.upper * product_mod.CERTIFY_MARGIN

    def test_an_uncertified_try_falls_back_to_the_paper_width(self, monkeypatch):
        # with no certificate possible the run folds at exactly three widths:
        # the law's, the one its bracket predicts, and the paper's
        pair = ProductPair(np.tile([0.3, 0.3, 0.4], (12, 1)), np.tile([0.2, 0.5, 0.3], (12, 1)))
        eps, widths = 0.2, _record_widths(monkeypatch)
        monkeypatch.setattr(product_mod, "CERTIFY_MARGIN", math.inf)
        report = estimate_product_tv(pair, eps)
        paper = eps / (2 * pair.n)
        assert widths == [_law_width(eps, pair.n), _predicted_retry(pair, eps), paper]
        assert report.upper is None and report.eps_s is None and report.tries == 3
        merge = partial(_merge_cells, build_partition(paper, paper * report.d_lb))
        values, masses, support = _fold(_live_pairs(product_steps(pair)), merge, MAX_TABLE_ENTRIES)
        assert report.estimate == _tv(values, masses) and report.max_support >= support
        assert report.estimate >= (1 - eps) * brute_force_tv_product(pair) - TOL

    def test_a_try_whose_estimate_meets_its_bound_still_retries(self, monkeypatch):
        # every cell holds one value, so the first try's merge estimate equals
        # its spread bound: a bracket of 0, floored at the least positive one
        pair, eps = ProductPair([[0.75, 0.25]] * 2, [[0.25, 0.75]] * 2), 0.1
        widths = _record_widths(monkeypatch)
        monkeypatch.setattr(product_mod, "CERTIFY_MARGIN", math.inf)
        report = estimate_product_tv(pair, eps)
        law = _law_width(eps, pair.n)
        assert widths == [law, law * math.sqrt(eps / 2**-52), eps / (2 * pair.n)] and report.tries == 3
        tv = exact_tv_product(pair)
        assert (1 - Fraction(eps)) * tv <= Fraction(report.estimate) <= tv

    def test_a_long_near_pair_never_folds_at_the_paper_width(self, monkeypatch):
        # a try at width eps misses this pair and a paper-width fold takes
        # minutes; the law's width certifies it in about a second
        pair, eps = _near_product(11, 1000, 10, 0.01), 0.2
        build, paper = product_mod.build_partition, eps / (2 * pair.n)

        def no_paper_width(eps_s, delta_s):
            assert eps_s != paper, "folded at the paper's width"
            return build(eps_s, delta_s)

        monkeypatch.setattr(product_mod, "build_partition", no_paper_width)
        report = estimate_product_tv(pair, eps)
        assert report.upper is not None and 1 <= report.tries <= 2
        assert report.estimate >= (1 - eps) * report.upper * product_mod.CERTIFY_MARGIN

    def test_no_mass_is_dropped(self):
        # q-mass 1e-12 on the first outcome of two coordinates, at ratio 1:
        # after the second step the table holds an entry of q-mass 1e-24,
        # alone in the cell {1}; the later coordinates have p = q, so it
        # keeps its value to the end
        rows = [[1e-12, 0.6, 0.4 - 1e-12], [1e-12, 0.3, 0.7 - 1e-12]]
        same = np.tile([0.2, 0.3, 0.5], (8, 1))
        pair = ProductPair(np.vstack([rows[0], rows[0], same]), np.vstack([rows[1], rows[1], same]))
        report, ratio = estimate_product_tv(pair, 0.1, return_ratio=True)
        assert report.eps_s == _law_width(0.1, pair.n) and report.upper < 1.0
        [tiny] = ratio.masses[ratio.values == 1.0]
        assert tiny == pytest.approx(1e-24, rel=1e-9, abs=0)
        # every cell holds one point, so the bracket is exact and upper has
        # no lost-mass term
        assert report.upper <= brute_force_tv_product(pair) + VALIDITY_TOL

    def test_saturated_try_certifies_without_the_spread_fold(self, monkeypatch):
        pair = ProductPair(np.tile([0.9, 0.1], (30, 1)), np.tile([0.1, 0.9], (30, 1)))

        def no_spread(*tables):
            raise AssertionError("spread fold ran")

        monkeypatch.setattr(product_mod, "_spread_cells", no_spread)
        # asking for the table keeps the Hellinger bound from skipping the fold
        report, _ = estimate_product_tv(pair, 0.05, return_ratio=True)
        assert report.upper == 1.0 and report.estimate >= 0.95
        assert report.iterations == pair.n - 1


# ----------------------------------------------- the band, checked exactly

# Small pairs for every exit, with whether the table is asked for, the
# number of partitions the run folds at, and the upper bound it reports:
# None, 1.0 (certified against TV <= 1 alone) or SPREAD (below 1, proved by
# a spread fold).  Near pairs certify on the first try, and so do a pair at
# TV 1e-10 and a small far one whose tables the paper's partition would
# hold whole; far ones certify on the second, and one chain misses twice
# and ends at the paper's width.  A spiky pair certifies by
# max(d_lb, 1 - BC), less the free bound's rounding term, with no fold,
# or, when its table is asked for, saturates on its first try with no
# spread fold.  Two more products certify with no fold where the float
# max(d_lb, 1 - BC) alone lands just above TV: by d_lb, the largest
# per-coordinate half-L1 sum, 6e-17 relative above, or by 1 - BC, where
# p = q on the common support and the rows are disjoint elsewhere.  A
# single step reports its half-L1 sum, rounded toward 0, and equal pairs
# report 0: both exits are exact and fold at no partition.  The one-step
# chain repeats a ratio, so its table combines three entries into two.
SPREAD = "spread"
SPIKY = generate_product_instance(8, 4, seed=0, skew=0.3)
SAME = generate_product_instance(8, 4, seed=0, skew=1.0)
SAME_CHAIN = generate_markov_instance(8, 4, seed=0, skew=1.0)
EXACT_CASES = {
    "near-product": (_near_product(5, 8, 4, 0.05), False, 1, SPREAD),
    "near-chain": (_near_chain(5, 8, 4, 0.05), False, 1, SPREAD),
    "far-product-retry-spreads": (RETRY_SPREADS, False, 2, SPREAD),
    "far-product-retry-no-spread": (RETRY_NO_SPREAD, False, 2, SPREAD),
    "far-chain-misses-twice": (generate_markov_instance(8, 4, seed=30, skew=1.0), False, 3, None),
    "product-at-tv-1e-10": (_near_product(5, 8, 4, 1e-10), False, 1, SPREAD),
    "small-product-first-law-pass": (generate_product_instance(6, 4, seed=7, skew=1.0), False, 1, SPREAD),
    "spiky-product-no-fold": (SPIKY, False, 0, 1.0),
    "spiky-product-saturated-try": (SPIKY, True, 1, 1.0),
    "equal-products-d_lb-0": (ProductPair(SAME.p_marginals, SAME.p_marginals), False, 0, None),
    "one-step-product": (generate_product_instance(1, 2, seed=9, skew=1.0), False, 0, None),
    "equal-chains-d_lb-0": (
        MarkovPair(SAME_CHAIN.p_init, SAME_CHAIN.p_init, SAME_CHAIN.p_kernels, SAME_CHAIN.p_kernels), False, 0, None,
    ),
    "one-step-chain": (
        MarkovPair([0.25, 0.25, 0.5], [0.125, 0.125, 0.75], np.empty((0, 3, 3)), np.empty((0, 3, 3))), False, 0, None,
    ),
    "product-no-fold-by-d_lb": (generate_product_instance(2, 2, seed=7, skew=0.1), False, 0, 1.0),
    "product-no-fold-by-hellinger": (
        ProductPair(
            [[0.05116119594572566, 0.9488388040542743, 0], [0.9221155188043705, 0.07788448119562952, 0]],
            [[0.05116119594572566, 0, 0.9488388040542743], [0.9221155188043705, 0, 0.07788448119562952]],
        ),
        False,
        0,
        1.0,
    ),
}

def _assert_exact_band(pair, eps, return_ratio=False):
    """(1 - eps) * TV <= estimate <= TV <= upper in exact arithmetic: relative, with no tolerance."""
    estimate, _, _, _ = _kind(pair)
    exact = exact_tv_product if isinstance(pair, ProductPair) else exact_tv_markov
    report, tv = estimate(pair, eps, return_ratio=return_ratio), exact(pair)
    report = report[0] if return_ratio else report
    assert (1 - Fraction(eps)) * tv <= Fraction(report.estimate) <= tv
    if report.upper is not None:
        assert tv <= Fraction(report.upper)
    return report


@pytest.mark.parametrize("case", EXACT_CASES.values(), ids=EXACT_CASES)
def test_the_band_holds_exactly_on_every_exit(case, monkeypatch):
    pair, return_ratio, tries, upper = case
    widths = _record_widths(monkeypatch)
    report = _assert_exact_band(pair, 0.05, return_ratio)
    assert report.tries == tries and report.iterations == (pair.n - 1 if tries else 0)
    if upper == SPREAD:
        assert report.upper < 1.0
    else:
        assert report.upper == upper
    # every try and the paper's width build one partition each
    assert len(widths) == tries and widths[:1] == ([_law_width(0.05, pair.n)] if tries else [])
    if tries == 0 and upper == 1.0:  # certified with no fold
        assert (report.eps_s, report.max_support) == (0.05, 0)
    elif tries == 0:  # exact: the table the run returns is the one it built
        estimate, _, _, _ = _kind(pair)
        assert report.eps_s is None and report.max_support == len(estimate(pair, 0.05, return_ratio=True)[1])
    elif tries < 3:  # certified at the law width of the estimate it kept
        assert report.eps_s in widths and report.max_support > 0
    else:
        assert report.eps_s is None and report.max_support > 0


@pytest.mark.parametrize("eps", [0.2, 0.05])
@pytest.mark.parametrize("kind", ["product", "markov"])
def test_the_band_holds_exactly_on_generated_pairs(kind, eps):
    generate = generate_product_instance if kind == "product" else generate_markov_instance
    for seed in range(8):
        _assert_exact_band(generate(8, 4, seed=seed, skew=1.0), eps)


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
    bound = max(report.d_lb, _affinity_gap(steps)) - _free_bound(0.0, pair)
    # the one stopping rule, held against the first upper bound, TV <= 1; a
    # zero d_lb also folds nothing, but reports no upper bound
    fired = bound >= (1 - eps) * product_mod.CERTIFY_MARGIN
    assert (report.iterations == 0 and report.upper == 1.0) == fired
    if fired:
        assert report.estimate == bound
        assert (report.upper, report.eps_s, report.max_support, report.tries) == (1.0, eps, 0, 0)
    if report.upper is not None:
        assert report.estimate >= (1 - eps) * report.upper * product_mod.CERTIFY_MARGIN
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
            assert estimate_product_tv(pair, 0.05).estimate == 1.0 - _free_bound(0.0, pair)

    def test_disjoint_supports_give_exactly_one(self):
        product = ProductPair([[0.5, 0.5], [1.0, 0.0]], [[0.5, 0.5], [0.0, 1.0]])
        # the chain keeps its state under p and flips it under q: d_lb is 1/2
        chain = MarkovPair([0.5, 0.5], [0.5, 0.5], [np.eye(2)], [[[0.0, 1.0], [1.0, 0.0]]])
        assert markov_lower_bound(chain) == 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _affinity_gap(product_steps(product)) == 1.0
            assert _affinity_gap(chain_steps(chain)) == 1.0
            assert estimate_product_tv(product, 0.1).estimate == 1.0 - _free_bound(0.0, product)
            assert estimate_markov_tv(chain, 0.1).estimate == 1.0 - _free_bound(0.0, chain)

    def test_certified_report_fields_and_document(self):
        pair = ProductPair(np.tile([0.9, 0.1], (30, 1)), np.tile([0.1, 0.9], (30, 1)))
        report = estimate_product_tv(pair, 0.05)
        assert report.estimate == _affinity_gap(product_steps(pair)) - _free_bound(0.0, pair)
        assert (report.iterations, report.max_support, report.tries) == (0, 0, 0)
        assert (report.upper, report.eps_s) == (1.0, 0.05)
        doc = json.loads(emit_report(report, "fptas", "sha256:00"))
        assert list(doc) == [
            "mode", "estimate", "epsilon", "d_lb", "max_support", "tries", "elapsed_ms",
            "instance_digest", "upper", "eps_s",
        ]
        again = estimate_product_tv(pair, 0.05)
        assert again.estimate.hex() == report.estimate.hex()

    def test_the_spiky_pair_still_runs_the_affinity_pass(self, monkeypatch):
        pair = ProductPair(np.tile([0.9, 0.1], (30, 1)), np.tile([0.1, 0.9], (30, 1)))
        calls = _spy_on_the_affinity_pass(monkeypatch)
        report = estimate_product_tv(pair, 0.05)
        assert len(calls) == 1 and report.estimate == _affinity_gap(product_steps(pair)) - _free_bound(0.0, pair)


# --------------------------------------------- the free bound and its gate


def _spy_on_the_affinity_pass(monkeypatch):
    """The steps of every `_affinity_gap` call the schedule makes from now on."""
    calls = []

    def spy(steps):
        calls.append(steps)
        return _affinity_gap(steps)

    monkeypatch.setattr(product_mod, "_affinity_gap", spy)
    return calls


@pytest.mark.parametrize(
    "pair", [_near_product(5, 8, 4, 0.05), _near_chain(5, 8, 4, 0.05)], ids=["product", "chain"]
)
def test_near_pairs_skip_the_affinity_pass(pair, monkeypatch):
    estimate, _, _, steps = _kind(pair)
    # the pass would not have certified either
    assert max(estimate(pair, 0.05).d_lb, _affinity_gap(steps)) < 0.95
    calls = _spy_on_the_affinity_pass(monkeypatch)
    report = estimate(pair, 0.05)
    assert calls == [] and report.tries == 1


def _off_one(rows, rel):
    """The rows times 1 + rel, then 1 - rel, in turn: kept as stored when rel < ROW_SUM_EXACT."""
    rows = np.array(rows)
    rows[..., ::2, :] *= 1 + rel
    rows[..., 1::2, :] *= 1 - rel
    return rows


def _free_cases():
    """Generated products and chains with n <= 8, then the same with rows off 1."""
    pairs = []
    for seed, (n, q) in enumerate([(1, 3), (2, 2), (3, 4), (5, 3), (8, 2), (8, 4)]):
        for skew in (0.3, 1.0):
            pairs.append(generate_product_instance(n, q, seed=seed, skew=skew))
    for seed, (n, q) in enumerate([(2, 2), (3, 3), (5, 2), (8, 2), (8, 3)]):
        for skew in (0.3, 1.0):
            pairs.append(generate_markov_instance(n, q, seed=seed, skew=skew))
    for pair in list(pairs):
        for rel in (9e-14, -9e-14):
            if isinstance(pair, ProductPair):
                pairs.append(ProductPair(_off_one(pair.p_marginals, rel), _off_one(pair.q_marginals, -rel)))
            else:
                pairs.append(
                    MarkovPair(
                        pair.p_init * (1 + rel), pair.q_init * (1 - rel),
                        _off_one(pair.p_kernels, rel), _off_one(pair.q_kernels, -rel),
                    )
                )
    return pairs


def _free_bound_of(pair):
    """(S, the free bound, d_lb, 1 - BC) of the pair, as the schedule computes them."""
    bounds = product_bounds if isinstance(pair, ProductPair) else chain_bounds
    (d_lb, total), steps = bounds(pair), _kind(pair)[3]
    return total, _free_bound(total, pair), d_lb, _affinity_gap(steps)


def test_the_free_bound_holds_exactly():
    cases = _free_cases()
    # the rows off 1 are kept as stored
    assert any(np.sum(pair.p_init) != 1 for pair in cases if isinstance(pair, MarkovPair))
    for pair in cases:
        exact = exact_tv_product if isinstance(pair, ProductPair) else exact_tv_markov
        _, bound, d_lb, gap = _free_bound_of(pair)
        assert exact(pair) <= Fraction(bound)
        # what the gate stands for: neither term of the fold-free exit passes it
        assert max(d_lb, gap) <= bound
        # and the exit's estimate, their larger less the bound's rounding term, is at most TV
        assert Fraction(max(d_lb, gap) - _free_bound(0.0, pair)) <= exact(pair)


def test_rows_heavier_than_one_need_the_row_mass_term():
    # the second coordinate agrees, and its rows weigh 1 + 9e-14 as stored,
    # so TV is S times that weight
    heavy = np.array([0.25, 0.75]) * (1 + 9e-14)
    pair = ProductPair([[0.5, 0.5], heavy], [[0.75, 0.25], heavy])
    assert not np.array_equal(pair.p_marginals[1], [0.25, 0.75])
    total, bound, _, _ = _free_bound_of(pair)
    assert Fraction(total) < exact_tv_product(pair) <= Fraction(bound)


# ------------------------------------------- zeros, underflow, rows off 1

_UNDERFLOW = [1e-170, 0.5, 0.5]  # two steps' q-mass, 1e-340, underflows to 0
_OVERFLOW = [0.5, 0.5, 5e-324]  # p / q overflows where p > 0: the fold leaves the pair out

BAND_CASES = {
    "product-zeros-in-q": ProductPair(np.tile([0.5, 0.3, 0.2], (6, 1)), np.tile([0.55, 0.45, 0.0], (6, 1))),
    "product-underflow": ProductPair(np.tile([0.3, 0.4, 0.3], (4, 1)), np.tile(_UNDERFLOW, (4, 1))),
    "markov-zeros-in-q": MarkovPair(
        [0.5, 0.5], [0.6, 0.4], np.tile([[0.7, 0.3], [0.2, 0.8]], (4, 1, 1)),
        np.tile([[1.0, 0.0], [0.3, 0.7]], (4, 1, 1)),
    ),
    "markov-underflow": MarkovPair(
        [0.2, 0.3, 0.5], _UNDERFLOW, np.tile([[0.3, 0.4, 0.3], [0.2, 0.4, 0.4], [0.1, 0.5, 0.4]], (3, 1, 1)),
        np.tile([_UNDERFLOW, [0.2, 0.5, 0.3], [0.3, 0.4, 0.3]], (3, 1, 1)),
    ),
    "product-ratio-overflow": ProductPair(np.tile([0.3, 0.4, 0.3], (4, 1)), np.tile(_OVERFLOW, (4, 1))),
    "markov-ratio-overflow": MarkovPair(
        [0.2, 0.3, 0.5], _OVERFLOW, np.tile([[0.3, 0.4, 0.3], [0.2, 0.4, 0.4], [0.1, 0.5, 0.4]], (3, 1, 1)),
        np.tile([_OVERFLOW, [0.2, 0.5, 0.3], [0.3, 0.4, 0.3]], (3, 1, 1)),
    ),
}


@pytest.mark.parametrize("return_ratio", [False, True])
@pytest.mark.parametrize("eps", [0.3, 0.05])
@pytest.mark.parametrize("name", list(BAND_CASES))
def test_band_holds_with_zeros_in_q_and_underflowing_masses(name, eps, return_ratio):
    pair = BAND_CASES[name]
    estimate, brute_force, _, _ = _kind(pair)
    report = estimate(pair, eps, return_ratio=return_ratio)
    if return_ratio:
        report, ratio = report
        assert report.estimate == pytest.approx(tv_of_ratio(ratio), rel=1e-14, abs=0)
    tv = brute_force(pair)
    assert tv > 0.0
    assert (1 - eps) * tv - TOL <= report.estimate <= tv + TOL
    if report.upper is not None:
        assert tv <= report.upper + TOL
        assert report.estimate >= (1 - eps) * report.upper


# Rows that sum to 1 only within ROW_SUM_TOL: uniform rows on one side and
# the same rows times 1 + 4.5e-10 on the other, a chain whose q_init is
# heavier by 0.9e-9, and a product and a chain off by 1e-7 throughout.
# Unless the pair renormalizes them, the estimate lands at twice the
# distance of the stored rows, or at 0 below d_lb.
_U = np.full((2, 2), 0.5)
_APART = np.array([[0.75, 0.25], [0.25, 0.75]])
OFF_ONE_CASES = {
    "product-heavier-q": (ProductPair, _U, _U * (1 + 4.5e-10)),
    "product-heavier-p": (ProductPair, _U * (1 + 4.5e-10), _U),
    "product-apart": (ProductPair, [[0.75, 0.25]] * 2, np.array([[0.25, 0.75]] * 2) * (1 + 4.5e-10)),
    "markov-heavier-q-init": (MarkovPair, [0.5, 0.5], np.array([0.5, 0.5]) * (1 + 0.9e-9), [_U], [_U]),
    "product-off-1e-7": (ProductPair, _APART * (1 + 1e-7), _APART[::-1]),
    "markov-off-1e-7": (
        MarkovPair, _APART[0], _APART[1] * (1 + 1e-7), [_APART * (1 + 1e-7)] * 2, [_APART[::-1]] * 2
    ),
}


@pytest.mark.parametrize("name", list(OFF_ONE_CASES))
def test_rows_off_one_are_measured_as_stored(name):
    make, *rows = OFF_ONE_CASES[name]
    pair = make(*rows)
    estimate, brute_force, _, _ = _kind(pair)
    tv, eps = brute_force(pair), 0.1
    for report in (estimate(pair, eps), estimate(pair, eps, return_ratio=True)[0]):
        assert (1 - eps) * tv * (1 - 1e-12) <= report.estimate <= tv * (1 + 1e-12)
