"""References for the benchmark's output checks, computed apart from tvdist.

None of these reuse the library: the near workloads are checked against a
seeded Monte Carlo estimate of E_q[(1 - R)+], the saturating one against the
Hellinger bracket and the largest per-coordinate distance, and cli-small
against enumeration of the whole sample space.

References are cached under the work directory, keyed by a digest of the
inputs.  To recompute one (and overwrite its cache entry):

    python3 tvbench/refs.py --workload product-near --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

import workloads as wl

MC_DRAWS = 2**20
MC_CHUNK = 2**16
#: Width of the Monte Carlo acceptance interval in standard errors.
MC_Z = 5.0
#: Float slack on bounds that are exact in real arithmetic.
ABS_TOL = 1e-10

WORK_DIR = ".tvbench"


# --------------------------------------------------------------- references


def _sample(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    """Indices drawn from the distribution with cumulative sums `cdf`.

    The index of u is the number of cumulative sums at or below it; for a
    handful of outcomes, counting beats a binary search.
    """
    u = rng.random(size) * cdf[-1]
    idx = np.zeros(size, dtype=np.intp)
    for c in cdf[:-1]:
        idx += u >= c
    return idx


def _log_ratio(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(q > 0, np.log(p) - np.log(q), 0.0)


def _mc_summary(total: float, total_sq: float, draws: int) -> dict:
    mean = total / draws
    var = max(total_sq / draws - mean * mean, 0.0)
    return {"mc": mean, "se": math.sqrt(var / (draws - 1))}


def mc_product(inst: wl.ProductInput, seed: int, draws: int = MC_DRAWS) -> dict:
    """Monte Carlo E_q[(1 - R)+] with R = prod_i p_i(X_i) / q_i(X_i), X ~ q."""
    rng = np.random.default_rng(seed)
    lr = _log_ratio(inst.p, inst.q)
    cdfs = np.cumsum(inst.q, axis=1)
    total = total_sq = 0.0
    for start in range(0, draws, MC_CHUNK):
        size = min(MC_CHUNK, draws - start)
        log_r = np.zeros(size)
        for i in range(lr.shape[0]):
            log_r += lr[i, _sample(rng, cdfs[i], size)]
        gap = np.maximum(-np.expm1(log_r), 0.0)
        total += float(np.sum(gap))
        total_sq += float(np.sum(gap * gap))
    return _mc_summary(total, total_sq, draws)


def mc_markov(inst: wl.MarkovInput, seed: int, draws: int = MC_DRAWS) -> dict:
    """Monte Carlo E_q[(1 - R)+] over trajectories drawn from the q-chain."""
    rng = np.random.default_rng(seed)
    q = inst.q_init.size
    lr_init = _log_ratio(inst.p_init, inst.q_init)
    lr_kernels = _log_ratio(inst.p_kernels, inst.q_kernels)
    cdf_init = np.cumsum(inst.q_init)
    cdf_kernels = np.cumsum(inst.q_kernels, axis=2)
    total = total_sq = 0.0
    for start in range(0, draws, MC_CHUNK):
        size = min(MC_CHUNK, draws - start)
        x = _sample(rng, cdf_init, size)
        log_r = lr_init[x]
        for k in range(cdf_kernels.shape[0]):
            cdf = cdf_kernels[k][x]  # (size, q): each draw's row
            u = rng.random(size) * cdf[:, -1]
            y = np.minimum(np.sum(cdf <= u[:, None], axis=1), q - 1)
            log_r = log_r + lr_kernels[k, x, y]
            x = y
        gap = np.maximum(-np.expm1(log_r), 0.0)
        total += float(np.sum(gap))
        total_sq += float(np.sum(gap * gap))
    return _mc_summary(total, total_sq, draws)


def hellinger_bracket(inst: wl.ProductInput) -> dict:
    """1 - BC <= TV <= sqrt(1 - BC^2), BC the Bhattacharyya coefficient.

    Also max_i TV(p_i, q_i), a lower bound since dropping coordinates can
    only lower the distance.  Computed in log space so a product of
    thousands of coefficients does not underflow before the subtraction.
    """
    log_bc = float(np.sum(np.log(np.sum(np.sqrt(inst.p * inst.q), axis=1))))
    return {
        "lower": -math.expm1(log_bc),
        "upper": math.sqrt(-math.expm1(2.0 * log_bc)),
        "d_max": float(np.max(0.5 * np.sum(np.abs(inst.p - inst.q), axis=1))),
    }


def brute_force_tv(inst: wl.ProductInput | wl.MarkovInput) -> float:
    """Half-L1 distance over the whole sample space, enumerated."""
    if isinstance(inst, wl.ProductInput):
        jp, jq = inst.p[0], inst.q[0]
        for i in range(1, inst.p.shape[0]):
            jp = (jp[:, None] * inst.p[i][None, :]).reshape(-1)
            jq = (jq[:, None] * inst.q[i][None, :]).reshape(-1)
    else:
        q = inst.p_init.size
        jp, jq = inst.p_init, inst.q_init
        for k in range(inst.p_kernels.shape[0]):
            # the last coordinate of a trajectory prefix is its index mod q
            jp = (jp[:, None] * inst.p_kernels[k][np.arange(jp.size) % q]).reshape(-1)
            jq = (jq[:, None] * inst.q_kernels[k][np.arange(jq.size) % q]).reshape(-1)
    return 0.5 * float(np.sum(np.abs(jp - jq)))


def compute(workload: str, seed: int, items: list) -> dict:
    if workload in ("product-near", "markov-near"):
        mc = mc_product if workload == "product-near" else mc_markov
        return {"items": [mc(inst, wl.sub_seed(seed, workload, 1000 + i)) for i, inst in enumerate(items)]}
    if workload == "product-saturating":
        return {"items": [hellinger_bracket(inst) for inst in items]}
    return {
        "items": [
            {"tv": brute_force_tv(item.instance), "sha256": hashlib.sha256(item.text.encode()).hexdigest()}
            for item in items
        ]
    }


def cache_path(root: Path, workload: str, seed: int, items: list) -> Path:
    return root / WORK_DIR / "refs" / f"{workload}-{seed}-{wl.inputs_digest(workload, items)}.json"


def load_or_compute(root: Path, workload: str, seed: int, items: list, refresh: bool = False) -> dict:
    path = cache_path(root, workload, seed, items)
    if path.is_file() and not refresh:
        return json.loads(path.read_text())
    refs = compute(workload, seed, items)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(refs) + "\n")
    return refs


# ------------------------------------------------------------------- checks
#
# Each check takes the library's outputs for one pass (estimates as floats,
# None for an operation that failed) and returns a list of human-readable
# failures; empty means it passed.  Failed operations are skipped: they are
# counted apart, and the check speaks of the rest.


def check_near(estimates: list[float], refs: dict, eps: float, z: float = MC_Z) -> list[str]:
    """(1 - eps)(MC - z SE) <= estimate <= MC + z SE, for each pair."""
    bad = []
    for i, (est, ref) in enumerate(zip(estimates, refs["items"])):
        if est is None:
            continue
        lo = (1.0 - eps) * (ref["mc"] - z * ref["se"])
        hi = ref["mc"] + z * ref["se"]
        if not lo <= est <= hi:
            bad.append(f"pair {i}: estimate {est!r} outside Monte Carlo band [{lo!r}, {hi!r}]")
    return bad


def check_saturating(estimates: list[float], refs: dict, eps: float) -> list[str]:
    """(1 - eps) max(1 - BC, max_i d_i) <= estimate <= sqrt(1 - BC^2)."""
    bad = []
    for i, (est, ref) in enumerate(zip(estimates, refs["items"])):
        if est is None:
            continue
        lo = (1.0 - eps) * max(ref["lower"], ref["d_max"]) - ABS_TOL
        hi = ref["upper"] + ABS_TOL
        if not lo <= est <= hi:
            bad.append(f"pair {i}: estimate {est!r} outside Hellinger bracket [{lo!r}, {hi!r}]")
    return bad


def check_cli(reports: list[dict], refs: dict, eps: float) -> list[str]:
    """Per file: exact mode equals enumeration; fptas lies in the band; digests match.

    `reports` holds two reports per file, fptas first, as the pass runs them.
    """
    bad = []
    for i, ref in enumerate(refs["items"]):
        fptas, exact = reports[2 * i], reports[2 * i + 1]
        tv = ref["tv"]
        if exact is not None and abs(exact["estimate"] - tv) > ABS_TOL:
            bad.append(f"file {i}: exact mode {exact['estimate']!r} != enumeration {tv!r}")
        if fptas is not None and not (1.0 - eps) * tv - ABS_TOL <= fptas["estimate"] <= tv + ABS_TOL:
            bad.append(f"file {i}: fptas {fptas['estimate']!r} outside [(1-eps) tv, tv], tv={tv!r}")
        for rep in (fptas, exact):
            if rep is not None and rep["digest"] != "sha256:" + ref["sha256"]:
                bad.append(f"file {i}: report digest {rep['digest']} != sha256 of file bytes")
    return bad


def check_repeats(passes: list[list]) -> list[str]:
    """Every pass gives the same outputs, bit for bit, as the first."""
    return [f"pass {k} differs from pass 0" for k, out in enumerate(passes) if out != passes[0]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Recompute and cache one workload's references.")
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    items = wl.generate(args.workload, args.seed)
    refs = load_or_compute(root, args.workload, args.seed, items, refresh=True)
    print(json.dumps(refs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
