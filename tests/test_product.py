"""Product-distribution estimator: examples, guarantees, support control."""

import tracemalloc

import numpy as np
import pytest

import tvdist.product as product_mod
import tvdist.ratios as ratios_mod
from tvdist import (
    DimensionError,
    MarkovPair,
    ParameterError,
    ProductPair,
    SizeError,
    VALIDITY_TOL,
    ValidityError,
    brute_force_tv_product,
    estimate_markov_tv,
    estimate_product_tv,
    generate_markov_instance,
    generate_product_instance,
    product_lower_bound,
    tv_discrete,
)
from tvdist.sparsify import build_partition


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
        # ROW_SUM_TOL is 1e-6: a row off by 2e-6 is refused, however near
        with pytest.raises(ValidityError, match=r"^q_marginals row 1 sums to 1\.0000019999999998, expected 1$"):
            ProductPair([[0.5, 0.5]] * 2, [[0.5, 0.5], [0.5, 0.5 + 2e-6]])

    def test_rejects_entries_that_are_not_real(self):
        with pytest.raises(ValidityError, match=r"^p_marginals entries must be real numbers$"):
            ProductPair([["0.5", "0.5"]], [[True, False]])
        with pytest.raises(ValidityError, match=r"^q_marginals entries must be real numbers$"):
            ProductPair([[0.5, 0.5]], [[True, 0.0]])
        with pytest.raises(ValidityError, match=r"^q_marginals entries must be real numbers$"):
            ProductPair([[0.5, 0.5]], [np.array([True, False])])
        pair = ProductPair(np.array([[1, 0]]), np.array([[0.5, 0.5]], dtype=np.float32))
        assert pair.q_marginals.dtype == np.float64 and pair.p_marginals.tolist() == [[1.0, 0.0]]

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
        assert abs(float(np.sum(ratio.masses)) - 1.0) <= 1e-9

    @pytest.mark.parametrize("reducer", ["_merge_cells", "_spread_cells"])
    def test_flat_tables_keep_their_invariants(self, reducer, monkeypatch):
        # the fold trusts its flat tables; check them after every step and
        # every reduction of a run that folds both ways
        import tvdist.product as product_mod
        import tvdist.ratios as ratios_mod
        from tvdist.sparsify import _interval_keys

        def check(values, masses, sizes, states):
            assert np.all(np.isfinite(values)) and np.all(values >= 0)
            assert np.all(masses > 0)
            assert sizes.size == states and sizes.sum() == values.size
            state = np.repeat(np.arange(states), sizes)
            sums = np.bincount(state, masses, states)
            np.testing.assert_allclose(sums, 1.0, rtol=0, atol=VALIDITY_TOL)
            assert np.all(np.bincount(state, values * masses, states) <= 1.0 + VALIDITY_TOL)

        seen = []
        step, reduce = ratios_mod._step, getattr(product_mod, reducer)

        def checked_step(values, masses, sizes, *pairs):
            out = step(values, masses, sizes, *pairs)
            check(*out, pairs[-1])
            seen.append("step")
            return out

        def checked_reduce(part, values, masses, sizes):
            out = reduce(part, values, masses, sizes)
            check(*out, sizes.size)
            # a merge keeps every occupied low-side cell below 1
            if reducer == "_merge_cells":
                state = np.repeat(np.arange(sizes.size), sizes)
                low = _interval_keys(part, values) <= part.m
                cells = np.unique(state[low] * part.interval_count + _interval_keys(part, values[low]))
                assert np.count_nonzero(out[0] < 1.0) == cells.size
            seen.append("reduce")
            return out

        monkeypatch.setattr(ratios_mod, "_step", checked_step)
        monkeypatch.setattr(product_mod, reducer, checked_reduce)
        monkeypatch.setattr(product_mod, "_holds", lambda *args: False)  # fold at all three widths
        # a near chain, long enough for the coarse try
        rng = np.random.default_rng(4)
        p = rng.gamma(1.0, size=(12, 3, 3))
        q = p * np.exp(0.1 * rng.standard_normal(p.shape))
        p, q = p / p.sum(axis=2, keepdims=True), q / q.sum(axis=2, keepdims=True)
        pair = MarkovPair(p[0, 0], q[0, 0], p[1:], q[1:])
        assert estimate_markov_tv(pair, 0.2).estimate < 0.5
        # two tries of a merge and a spread fold each, then the paper's merge,
        # each with n - 1 steps after its first table
        assert seen.count("reduce") >= pair.n - 1 and seen.count("step") == 5 * (pair.n - 1)


#: One product and one chain whose steps build at most 81 entries; at
#: eps = 1e-5 each certifies on its first law width, a partition of
#: hundreds of low-side cells.
CAP_CASES = [
    (estimate_product_tv, generate_product_instance(4, 3, seed=5)),
    (estimate_markov_tv, generate_markov_instance(4, 3, seed=5)),
]

#: The most bytes a fold step held at its peak per entry it built, rounded
#: up from 51.3 to 51.9 measured with tracemalloc on chains of q 100 to 300.
BYTES_PER_ENTRY = 52


@pytest.fixture
def folds(monkeypatch):
    """The arguments of every fold the estimators run."""
    calls, fold = [], product_mod._fold
    monkeypatch.setattr(product_mod, "_fold", lambda *args: calls.append(args) or fold(*args))
    return calls


class TestSizeCap:
    """MAX_TABLE_ENTRIES bounds a step's entries and a partition's m alike."""

    def test_rejects_oversized_partition(self, folds):
        # at eps = 1e-15 the first law width already needs m = 2.1e8 low-side
        # cells, so the run stops before any fold
        cap = product_mod.MAX_TABLE_ENTRIES
        for estimate, pair in CAP_CASES:
            with pytest.raises(SizeError, match=rf"^partition for .* intervals, beyond the cap of {cap}$"):
                estimate(pair, 1e-15)
        assert folds == []

    @pytest.mark.parametrize("return_ratio", [False, True])
    @pytest.mark.parametrize("eps", [5e-324, 1e-323])
    @pytest.mark.parametrize(
        "estimate, pair, slack",
        [
            (estimate_product_tv, generate_product_instance(3, 3, seed=1), 6),
            (estimate_markov_tv, generate_markov_instance(3, 3, seed=1), 12),
        ],
        ids=["product", "chain"],
    )
    def test_a_paper_width_that_underflows_is_refused(self, estimate, pair, slack, eps, return_ratio, folds):
        # eps / (slack * n) rounds to 0 at a subnormal eps, and every pass
        # scales its tail by its width over the paper's
        with pytest.raises(SizeError, match=rf"^the paper's width eps / {slack} underflows to 0 at eps={eps!r}$"):
            estimate(pair, eps, return_ratio=return_ratio)
        assert folds == []

    @pytest.mark.parametrize("estimate, pair", CAP_CASES, ids=["product", "chain"])
    def test_a_partition_of_cap_cells_folds(self, estimate, pair, folds, monkeypatch):
        built, build = [], product_mod.build_partition
        monkeypatch.setattr(product_mod, "build_partition", lambda e, d: built.append(build(e, d)) or built[-1])
        report = estimate(pair, 1e-5)
        [part] = built
        monkeypatch.setattr(product_mod, "MAX_TABLE_ENTRIES", part.m)
        at_cap = estimate(pair, 1e-5)
        assert (at_cap.estimate, at_cap.upper, at_cap.tries) == (report.estimate, report.upper, 1)
        folds.clear()
        monkeypatch.setattr(product_mod, "MAX_TABLE_ENTRIES", part.m - 1)
        with pytest.raises(SizeError, match=rf"m={part.m} low-side intervals, beyond the cap of {part.m - 1}$"):
            estimate(pair, 1e-5)
        assert folds == []

    def test_memory_stays_within_the_cap(self, monkeypatch):
        # a wide chain (q 100, n 3, two law tries) at a cap of exactly its
        # largest step peaks within the cap's bytes, per entry: a slot map
        # larger than its entries numbers its occupied slots first
        pair = generate_markov_instance(3, 100, seed=1)
        sizes, step = [], ratios_mod._step

        def sized_step(*args):
            out = step(*args)
            sizes.append(out[0].size)
            return out

        monkeypatch.setattr(ratios_mod, "_step", sized_step)
        estimate_markov_tv(pair, 0.05)
        monkeypatch.setattr(ratios_mod, "_step", step)
        cap = max(sizes)
        peaks, fold = [], product_mod._fold

        def traced_fold(*args):
            tracemalloc.reset_peak()
            try:
                return fold(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(product_mod, "_fold", traced_fold)
        tracemalloc.start()
        try:
            monkeypatch.setattr(product_mod, "MAX_TABLE_ENTRIES", cap)
            assert estimate_markov_tv(pair, 0.05).tries == 2
            at_cap = max(peaks)
            # one entry lower, the largest step is refused before it
            # allocates, so the fold it ends peaks far below its bytes
            monkeypatch.setattr(product_mod, "MAX_TABLE_ENTRIES", cap - 1)
            with pytest.raises(SizeError, match=f"^a step would build {cap} entries, beyond the cap of {cap - 1}$"):
                estimate_markov_tv(pair, 0.05)
        finally:
            tracemalloc.stop()
        assert at_cap <= BYTES_PER_ENTRY * cap
        assert peaks[-1] <= BYTES_PER_ENTRY * cap / 4
