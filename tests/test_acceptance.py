"""Acceptance suite: every headline guarantee at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see the
lines for passing criteria).  The random-instance batteries are generated
once per session and shared across criteria.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from tvdist import (
    MarkovPair,
    ProductPair,
    brute_force_tv_markov,
    brute_force_tv_product,
    estimate_markov_tv,
    estimate_product_tv,
    exact_ratio_markov,
    exact_ratio_product,
    generate_markov_instance,
    generate_product_instance,
    markov_lower_bound,
    np_boundary,
    product_lower_bound,
    tv_discrete,
    tv_of_ratio,
)
from tvdist.sparsify import build_partition

from conftest import merge_table, one_step_ratio

EPSILONS = (0.5, 0.1, 0.02)
SKEWS = (0.3, 1.0, 3.0)
N_INSTANCES = 200


def _criterion(num, name, ok, detail):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@dataclass
class Case:
    pair: object
    star: float
    d_lb: float
    exact_tv: float
    estimates: dict


def _battery(kind):
    cases = []
    start = time.perf_counter()
    for i in range(N_INSTANCES):
        if kind == "product":
            n = 1 + i % 8
            q = 2 + (i // 8) % 3
            gen, brute, exact, lb, estimate = (
                generate_product_instance,
                brute_force_tv_product,
                exact_ratio_product,
                product_lower_bound,
                estimate_product_tv,
            )
        else:
            n = 1 + i % 7
            q = 2 + (i // 7) % 2
            gen, brute, exact, lb, estimate = (
                generate_markov_instance,
                brute_force_tv_markov,
                exact_ratio_markov,
                markov_lower_bound,
                estimate_markov_tv,
            )
        skew = SKEWS[(i // 24) % len(SKEWS)]
        pair = gen(n, q, seed=910_000 + i, skew=skew)
        cases.append(
            Case(
                pair=pair,
                star=brute(pair),
                d_lb=lb(pair),
                exact_tv=tv_of_ratio(exact(pair)),
                estimates={eps: estimate(pair, eps).estimate for eps in EPSILONS},
            )
        )
    return cases, time.perf_counter() - start


@pytest.fixture(scope="module")
def product_battery():
    return _battery("product")


@pytest.fixture(scope="module")
def markov_battery():
    return _battery("markov")


@pytest.fixture(scope="module")
def ratio_battery():
    rng = np.random.default_rng(424242)
    cases = []
    for _ in range(1000):
        support = int(rng.integers(1, 10_001))
        raw_p = rng.gamma(1.0, 1.0, size=support) + 1e-12
        if support > 1 and rng.random() < 0.3:
            raw_p[rng.random(support) < 0.2] = 0.0
            if not raw_p.any():
                raw_p[0] = 1.0
        raw_q = rng.gamma(1.0, 1.0, size=support) + 1e-12
        ratio = one_step_ratio(raw_p / raw_p.sum(), raw_q / raw_q.sum())
        eps_s = float(rng.uniform(0.005, 2.0))
        delta_s = float(rng.uniform(1e-6, 0.5))
        cases.append((ratio, eps_s, delta_s, merge_table(ratio, build_partition(eps_s, delta_s))))
    return cases


def _sandwich_failures(cases):
    worst = 0.0
    failures = 0
    for case in cases:
        for eps, est in case.estimates.items():
            lo = (1 - eps) * case.star - 1e-9
            hi = case.star + 1e-9
            if not lo <= est <= hi:
                failures += 1
            worst = max(worst, lo - est, est - hi)
    return failures, worst


def test_criterion_01_product_sandwich(product_battery):
    cases, elapsed = product_battery
    failures, worst = _sandwich_failures(cases)
    ok = failures == 0 and elapsed < 60.0
    _criterion(
        1,
        "product estimator sandwich",
        ok,
        f"{len(cases)} instances x {len(EPSILONS)} epsilons, "
        f"{failures} violations, worst overshoot {worst:.3g}, battery {elapsed:.1f}s",
    )


def test_criterion_02_markov_sandwich(markov_battery):
    cases, elapsed = markov_battery
    failures, worst = _sandwich_failures(cases)
    ok = failures == 0 and elapsed < 60.0
    _criterion(
        2,
        "markov estimator sandwich",
        ok,
        f"{len(cases)} instances x {len(EPSILONS)} epsilons, "
        f"{failures} violations, worst overshoot {worst:.3g}, battery {elapsed:.1f}s",
    )


def test_criterion_03_exact_pipeline_equivalence(product_battery, markov_battery):
    gaps = [
        abs(case.exact_tv - case.star)
        for battery in (product_battery[0], markov_battery[0])
        for case in battery
    ]
    worst = max(gaps)
    _criterion(
        3,
        "exact pipeline equals brute force",
        worst <= 1e-10,
        f"{len(gaps)} instances, worst gap {worst:.3g}",
    )


def test_criterion_04_sparsify_support_bound(ratio_battery):
    violations = 0
    for ratio, eps_s, delta_s, out in ratio_battery:
        bound = 2 * math.ceil(-math.log(delta_s) / math.log1p(eps_s)) + 3
        total = float(np.sum(out.masses))
        mean = float(np.sum(out.values * out.masses))
        if len(out) > bound or abs(total - 1.0) > 1e-9 or mean > 1.0 + 1e-9:
            violations += 1
    _criterion(
        4,
        "sparsifier support bound and validity",
        violations == 0,
        f"{len(ratio_battery)} ratios, {violations} violations",
    )


def test_criterion_05_sparsify_tv_preservation(ratio_battery):
    worst = max(abs(tv_of_ratio(out) - tv_of_ratio(ratio)) for ratio, _, _, out in ratio_battery)
    _criterion(
        5,
        "single sparsification preserves tv",
        worst <= 1e-12,
        f"{len(ratio_battery)} ratios, worst drift {worst:.3g}",
    )


def test_criterion_06_lower_bound_brackets(product_battery, markov_battery):
    violations = 0
    for case in product_battery[0]:
        n = case.pair.n
        if not (case.star / n - 1e-9 <= case.d_lb <= case.star + 1e-9):
            violations += 1
    for case in markov_battery[0]:
        n = case.pair.n
        if not (case.star / (2 * n) - 1e-9 <= case.d_lb <= case.star + 1e-9):
            violations += 1
    _criterion(6, "lower-bound brackets", violations == 0, f"{violations} violations")


def test_criterion_07_one_sidedness(product_battery, markov_battery):
    worst = max(
        est - case.star
        for battery in (product_battery[0], markov_battery[0])
        for case in battery
        for est in case.estimates.values()
    )
    _criterion(
        7,
        "estimates never exceed the true distance",
        worst <= 1e-9,
        f"worst overshoot {worst:.3g}",
    )


def test_criterion_08_scale_runs():
    pair = generate_product_instance(2000, 10, seed=8, skew=0.15)
    start = time.perf_counter()
    report = estimate_product_tv(pair, 0.05)
    product_wall = time.perf_counter() - start
    part = build_partition(0.05 / (2 * 2000), (0.05 / (2 * 2000)) * report.d_lb)
    product_ok = (
        report.d_lb > 0
        and product_wall < 30.0
        and report.max_support <= 10 * part.interval_count
    )
    chain = generate_markov_instance(500, 10, seed=8, skew=0.15)
    start = time.perf_counter()
    chain_report = estimate_markov_tv(chain, 0.05)
    chain_wall = time.perf_counter() - start
    chain_ok = chain_report.d_lb > 0 and chain_wall < 60.0
    _criterion(
        8,
        "scale runs inside their time budgets",
        product_ok and chain_ok,
        f"product n=2000 q=10: {product_wall:.1f}s (<30s), "
        f"support {report.max_support} <= {10 * part.interval_count}; "
        f"markov n=500 q=10: {chain_wall:.1f}s (<60s)",
    )


def test_criterion_11_certified_at_scale():
    """Where brute force cannot reach, each run proves its own band."""
    rng = np.random.default_rng(11)
    p = rng.gamma(1.0, size=(1000, 10))
    p /= p.sum(axis=1, keepdims=True)
    q = p * np.exp(0.01 * rng.standard_normal(p.shape))
    runs = [
        ("criterion 08 product", estimate_product_tv, generate_product_instance(2000, 10, seed=8, skew=0.15)),
        ("criterion 08 markov", estimate_markov_tv, generate_markov_instance(500, 10, seed=8, skew=0.15)),
        ("near product n=1000 q=10", estimate_product_tv, ProductPair(p, q / q.sum(axis=1, keepdims=True))),
    ]
    eps, failed, details = 0.05, [], []
    for name, estimate, pair in runs:
        start = time.perf_counter()
        report = estimate(pair, eps)
        wall = time.perf_counter() - start
        # tries 0 to 2 are certified; tries 3 rests on the paper's a priori guarantee alone
        certified = report.upper is not None and report.tries < 3
        if not certified or not report.estimate >= (1 - eps) * report.upper or wall >= 60.0:
            failed.append(name)
        details.append(f"{name}: {report.estimate:.6g} >= (1-eps) * {report.upper}, {wall:.1f}s")
    _criterion(11, "runs certify their own band", not failed, "; ".join(details))


def test_criterion_09_boundary_structure():
    rng = np.random.default_rng(777)
    violations = 0
    for _ in range(200):
        support = int(rng.integers(1, 200))
        raw_p = rng.gamma(1.0, 1.0, size=support) + 1e-12
        if support > 1 and rng.random() < 0.3:
            raw_p[rng.random(support) < 0.2] = 0.0
            if not raw_p.any():
                raw_p[0] = 1.0
        raw_q = rng.gamma(1.0, 1.0, size=support) + 1e-12
        ratio = one_step_ratio(raw_p / raw_p.sum(), raw_q / raw_q.sum())
        verts = np_boundary(ratio).vertices
        seg = np.diff(verts, axis=0)
        k = len(ratio)
        starts_ok = verts[0].tolist() == [0.0, 0.0] and verts[-1].tolist() == [1.0, 1.0]
        monotone = bool(np.all(seg >= 0))
        slopes_ok = np.allclose(seg[:k, 0] / seg[:k, 1], ratio.values, rtol=1e-9, atol=1e-9)
        cross = seg[:-1, 1] * seg[1:, 0] - seg[1:, 1] * seg[:-1, 0]
        concave = bool(np.all(cross >= -1e-12))
        if not (starts_ok and monotone and slopes_ok and concave):
            violations += 1
    _criterion(9, "decision-region boundary structure", violations == 0, f"{violations} violations")


def test_criterion_10_degenerate_suite():
    checks = []

    pair = generate_product_instance(5, 3, seed=1234)
    same_product = ProductPair(pair.p_marginals, pair.p_marginals)
    checks.append(("product P==Q", estimate_product_tv(same_product, 0.3).estimate == 0.0))

    chain = generate_markov_instance(5, 3, seed=1234)
    same_chain = MarkovPair(chain.p_init, chain.p_init, chain.p_kernels, chain.p_kernels)
    checks.append(("markov P==Q", estimate_markov_tv(same_chain, 0.3).estimate == 0.0))

    single = generate_product_instance(1, 4, seed=55)
    checks.append(
        (
            "product n=1 exact",
            estimate_product_tv(single, 0.1).estimate
            == tv_discrete(single.p_marginals[0], single.q_marginals[0]),
        )
    )
    chain1 = generate_markov_instance(1, 4, seed=55)
    checks.append(
        (
            "markov n=1 exact",
            estimate_markov_tv(chain1, 0.1).estimate
            == tv_discrete(chain1.p_init, chain1.q_init),
        )
    )

    base = _chain_with_unreachable_state(seed=321)
    perturbed = _perturb_unreachable_rows(base)
    a = estimate_markov_tv(base, 0.1).estimate
    b = estimate_markov_tv(perturbed, 0.1).estimate
    checks.append(("unreachable rows bit-identical", a == b))

    failed = [name for name, ok in checks if not ok]
    _criterion(10, "degenerate suite", not failed, f"failed: {failed or 'none'}")


def _chain_with_unreachable_state(seed):
    """Random 3-state chain whose q-side never enters state 2."""
    rng = np.random.default_rng(seed)
    n, q = 5, 3

    def rows(shape):
        draws = rng.gamma(1.0, 1.0, size=shape) + 1e-9
        return draws / draws.sum(axis=-1, keepdims=True)

    p_init = rows((q,))
    q_init = rows((q,))
    q_init[2] = 0.0
    q_init /= q_init.sum()
    pk = rows((n - 1, q, q))
    qk = rows((n - 1, q, q))
    qk[:, :, 2] = 0.0
    qk /= qk.sum(axis=2, keepdims=True)
    return MarkovPair(p_init, q_init, pk, qk)


def _perturb_unreachable_rows(pair):
    """Replace every kernel row conditioned on the q-unreachable state."""
    rng = np.random.default_rng(99)
    pk = pair.p_kernels.copy()
    qk = pair.q_kernels.copy()
    for step in range(pk.shape[0]):
        for kern in (pk, qk):
            row = rng.gamma(1.0, 1.0, size=pk.shape[2]) + 1e-9
            kern[step, 2] = row / row.sum()
    return MarkovPair(pair.p_init, pair.q_init, pk, qk)
