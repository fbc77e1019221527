"""Tests of the benchmark's own pieces: inputs, references, checks, tracing.

    python -m pytest tvbench/test_bench.py -q
"""

import hashlib
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import refs as rf  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _loop_tv_product(inst: wl.ProductInput) -> float:
    """Half-L1 distance by an explicit loop over [q]^n."""
    n, q = inst.p.shape
    total = 0.0
    for xs in itertools.product(range(q), repeat=n):
        pp = np.prod([inst.p[i, x] for i, x in enumerate(xs)])
        qq = np.prod([inst.q[i, x] for i, x in enumerate(xs)])
        total += abs(pp - qq)
    return 0.5 * total


def _loop_tv_markov(inst: wl.MarkovInput) -> float:
    q = inst.p_init.size
    total = 0.0
    for xs in itertools.product(range(q), repeat=inst.p_kernels.shape[0] + 1):
        pp, qq = inst.p_init[xs[0]], inst.q_init[xs[0]]
        for k in range(len(xs) - 1):
            pp *= inst.p_kernels[k, xs[k], xs[k + 1]]
            qq *= inst.q_kernels[k, xs[k], xs[k + 1]]
        total += abs(pp - qq)
    return 0.5 * total


def _small_product(seed, n=5, q=3, skew=1.0):
    rng = np.random.default_rng(seed)
    return wl.ProductInput(wl._gamma_rows(rng, (n, q), skew), wl._gamma_rows(rng, (n, q), skew))


def _small_chain(seed, n=4, q=3):
    return wl._random_chain(np.random.default_rng(seed), n, q, 1.0, near=False)


# ------------------------------------------------------------------ inputs


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_inputs_are_seed_deterministic(workload):
    a, b, c = wl.generate(workload, 5), wl.generate(workload, 5), wl.generate(workload, 6)
    assert wl.inputs_digest(workload, a) == wl.inputs_digest(workload, b)
    assert wl.inputs_digest(workload, a) != wl.inputs_digest(workload, c)


def test_cli_grid_covers_both_kinds_and_all_skews():
    items = wl.cli_small(1)
    assert len(items) == 48
    assert {json.loads(i.text)["kind"] for i in items} == {"product", "markov"}
    assert {i.name.rsplit("-s", 1)[1] for i in items} == {"0.3.json", "1.json", "3.json"}


# -------------------------------------------------------------- references


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_brute_force_matches_explicit_loops(seed):
    prod = _small_product(seed, n=4, q=3, skew=0.5)
    chain = _small_chain(seed)
    assert rf.brute_force_tv(prod) == pytest.approx(_loop_tv_product(prod), abs=1e-14)
    assert rf.brute_force_tv(chain) == pytest.approx(_loop_tv_markov(chain), abs=1e-14)


def test_brute_force_extremes():
    same = wl.ProductInput(np.full((3, 2), 0.5), np.full((3, 2), 0.5))
    apart = wl.ProductInput(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    assert rf.brute_force_tv(same) == 0.0
    assert rf.brute_force_tv(apart) == 1.0


@pytest.mark.parametrize("seed", [1, 2])
def test_monte_carlo_brackets_enumeration(seed):
    prod, chain = _small_product(seed), _small_chain(seed)
    for mc, inst in ((rf.mc_product, prod), (rf.mc_markov, chain)):
        ref = mc(inst, seed, draws=2**16)
        assert abs(ref["mc"] - rf.brute_force_tv(inst)) < rf.MC_Z * ref["se"]


def test_monte_carlo_is_seeded():
    prod = _small_product(4)
    assert rf.mc_product(prod, 9, draws=2**12) == rf.mc_product(prod, 9, draws=2**12)
    assert rf.mc_product(prod, 9, draws=2**12) != rf.mc_product(prod, 10, draws=2**12)


@pytest.mark.parametrize("seed", range(6))
def test_hellinger_bracket_holds(seed):
    inst = _small_product(seed, n=4, q=3, skew=0.3 + seed)
    ref = rf.hellinger_bracket(inst)
    tv = rf.brute_force_tv(inst)
    assert ref["lower"] - 1e-12 <= tv <= ref["upper"] + 1e-12
    assert ref["d_max"] <= tv + 1e-12


def test_hellinger_bracket_survives_long_products():
    inst = wl.product_saturating(1)[0]
    ref = rf.hellinger_bracket(inst)
    assert ref["d_max"] <= ref["upper"] and 0.99 < ref["lower"] <= ref["upper"] <= 1.0


# ------------------------------------------------------------------ checks


def test_check_near_band():
    refs = {"items": [{"mc": 0.05, "se": 1e-4}]}
    assert rf.check_near([0.05], refs, eps=0.05) == []
    assert rf.check_near([0.9 * 0.05], refs, eps=0.05)  # below (1 - eps) * MC
    assert rf.check_near([0.05 + 6e-4], refs, eps=0.05)  # above MC + 5 SE


def test_check_saturating_bracket():
    refs = {"items": [{"lower": 0.9, "upper": 0.99, "d_max": 0.5}]}
    assert rf.check_saturating([0.95], refs, eps=0.05) == []
    assert rf.check_saturating([0.995], refs, eps=0.05)
    assert rf.check_saturating([0.85], refs, eps=0.05)


def test_check_cli_flags_each_fault():
    text = wl.cli_small(1)[0].text
    digest = "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    refs = {"items": [{"tv": 0.5, "sha256": digest[7:]}]}
    good = [{"estimate": 0.49, "digest": digest}, {"estimate": 0.5, "digest": digest}]
    assert rf.check_cli(good, refs, eps=0.1) == []
    assert rf.check_cli([good[0], {"estimate": 0.5 + 1e-6, "digest": digest}], refs, eps=0.1)
    assert rf.check_cli([{"estimate": 0.44, "digest": digest}, good[1]], refs, eps=0.1)
    assert rf.check_cli([good[0], {"estimate": 0.5, "digest": "sha256:00"}], refs, eps=0.1)
    # a failed operation is skipped, but the other report of the file is checked
    assert rf.check_cli([None, good[1]], refs, eps=0.1) == []
    assert rf.check_cli([None, {"estimate": 0.5, "digest": "sha256:00"}], refs, eps=0.1)


def test_failed_operations_are_skipped():
    assert rf.check_near([None], {"items": [{"mc": 0.05, "se": 1e-4}]}, eps=0.05) == []
    assert rf.check_saturating([None], {"items": [{"lower": 0.9, "upper": 0.99, "d_max": 0.5}]}, eps=0.05) == []


def test_check_repeats_is_bitwise():
    x = 0.1 + 0.2
    assert rf.check_repeats([[[x.hex(), 3]], [[x.hex(), 3]]]) == []
    assert rf.check_repeats([[[x.hex(), 3]], [[np.nextafter(x, 1.0).hex(), 3]]])


def test_library_digest_is_sha256_of_file_bytes():
    tvdist = pytest.importorskip("tvdist")
    for item in wl.cli_small(2)[::7]:
        digest = tvdist.instance_digest(tvdist.parse_instance(item.text))
        assert digest == "sha256:" + hashlib.sha256(item.text.encode()).hexdigest()


# ----------------------------------------------------------------- tracing


def test_tracing_counts_repeat_and_self_times_add_up():
    tvdist = pytest.importorskip("tvdist")
    import tvdist.product  # noqa: F401

    inst = _small_product(3, n=8, q=4)
    pair = tvdist.ProductPair(inst.p, inst.q)
    original = sys.modules["tvdist.product"].estimate_product_tv
    tracer = tracing.Tracer()
    walls = []
    for _ in range(2):
        tracer.install()
        try:
            t0 = tracing.time.perf_counter()
            sys.modules["tvdist.product"].estimate_product_tv(pair, 0.1)
            walls.append(tracing.time.perf_counter() - t0)
        finally:
            tracer.uninstall()
    assert sys.modules["tvdist.product"].estimate_product_tv is original
    first, second = (tracer.pass_stats(spans) for spans in tracer.passes)
    for prefix, row in first.items():
        for stat, value in row.items():
            if stat != "self_s":
                assert second[prefix][stat] == value, f"{prefix}.{stat}"
    assert first["product.estimate_product_tv"]["calls"] == 1
    assert first["product.estimate_product_tv"]["iterations"] == 7
    assert first["sparsify.cell_keys"]["calls"] == 7
    total_self = sum(row["self_s"] for row in first.values())
    assert 0 < total_self <= walls[0]


def test_benchmark_json_lists_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == tracing.metric_names()
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == ["pass_s", "setup_s", "peak_rss_mb", "max_support"]


def test_layer_metrics_cover_every_name():
    names = [name for name, _ in tracing.metric_names()]
    stats = {prefix: dict.fromkeys(s, 0) for prefix, s in tracing.STATS.items()}
    record = {"layers": [stats, stats], "traced_pass_s": [1.0, 1.2], "pass_s": [1.0, 1.0]}
    metrics = run.layer_metrics(record)
    assert list(metrics) == names
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(0.1)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "tvbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "tvbench/run.py", "--workload", "cli-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
