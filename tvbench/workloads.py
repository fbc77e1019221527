"""Seeded inputs of the four benchmark workloads.

Everything here is plain numpy: the library under test is never imported, so
the inputs (and the references computed from them) cannot drift when the
library changes.  The same seed always gives the same arrays and the same
file bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("product-near", "product-saturating", "markov-near", "cli-small")

#: Relative error target of the library runs, per workload.
EPS = {"product-near": 0.05, "product-saturating": 0.05, "markov-near": 0.05, "cli-small": 0.1}

#: Near pairs: q = p * exp(SIGMA * N(0, 1)), renormalized.
SIGMA = 0.02
NEAR_PAIRS = 3
PRODUCT_NEAR_SHAPE = (50, 10)  # (n, q)
MARKOV_NEAR_SHAPE = (16, 10)  # (n, q)

#: Saturating pairs: gamma(SAT_SKEW) rows for both sides, the recipe of
#: tvdist.generate_product_instance.  Sixty short pairs rather than a few long
#: ones, because one pair's max_support ranges over two orders of magnitude
#: from seed to seed and only a sum over many pairs is steady.
SAT_PAIRS = 60
SAT_SHAPE = (100, 4)  # (n, q)
SAT_SKEW = 0.15

#: cli-small: every (n, q) below, for both kinds and each skew.
CLI_SHAPES = ((2, 4), (3, 3), (4, 2), (4, 4), (5, 3), (6, 2), (7, 3), (8, 4))
CLI_SKEWS = (0.3, 1.0, 3.0)
CLI_KINDS = ("product", "markov")


@dataclass(frozen=True)
class ProductInput:
    p: np.ndarray  # (n, q) marginal rows
    q: np.ndarray


@dataclass(frozen=True)
class MarkovInput:
    p_init: np.ndarray  # (q,)
    q_init: np.ndarray
    p_kernels: np.ndarray  # (n - 1, q, q)
    q_kernels: np.ndarray


@dataclass(frozen=True)
class CliInput:
    name: str
    instance: ProductInput | MarkovInput
    text: str  # canonical instance document


def sub_seed(seed: int, workload: str, index: int) -> int:
    """Independent 64-bit seed for item `index` of `workload` under `seed`."""
    seq = np.random.SeedSequence([int(seed) % 2**64, WORKLOADS.index(workload), index])
    return int(seq.generate_state(1, np.uint64)[0])


def _gamma_rows(rng: np.random.Generator, shape, skew: float) -> np.ndarray:
    draws = rng.gamma(shape=skew, scale=1.0, size=shape)
    return draws / np.sum(draws, axis=-1, keepdims=True)


def _perturbed(rng: np.random.Generator, p: np.ndarray) -> np.ndarray:
    q = p * np.exp(SIGMA * rng.standard_normal(p.shape))
    return q / np.sum(q, axis=-1, keepdims=True)


def product_near(seed: int) -> list[ProductInput]:
    out = []
    for i in range(NEAR_PAIRS):
        rng = np.random.default_rng(sub_seed(seed, "product-near", i))
        p = _gamma_rows(rng, PRODUCT_NEAR_SHAPE, 1.0)
        out.append(ProductInput(p, _perturbed(rng, p)))
    return out


def product_saturating(seed: int) -> list[ProductInput]:
    out = []
    for i in range(SAT_PAIRS):
        rng = np.random.default_rng(sub_seed(seed, "product-saturating", i))
        p = _gamma_rows(rng, SAT_SHAPE, SAT_SKEW)
        out.append(ProductInput(p, _gamma_rows(rng, SAT_SHAPE, SAT_SKEW)))
    return out


def _random_chain(rng, n: int, q: int, skew: float, near: bool) -> MarkovInput:
    p_init = _gamma_rows(rng, (q,), skew)
    pk = _gamma_rows(rng, (n - 1, q, q), skew)
    if near:
        return MarkovInput(p_init, _perturbed(rng, p_init), pk, _perturbed(rng, pk))
    return MarkovInput(p_init, _gamma_rows(rng, (q,), skew), pk, _gamma_rows(rng, (n - 1, q, q), skew))


def markov_near(seed: int) -> list[MarkovInput]:
    n, q = MARKOV_NEAR_SHAPE
    return [
        _random_chain(np.random.default_rng(sub_seed(seed, "markov-near", i)), n, q, 1.0, True)
        for i in range(NEAR_PAIRS)
    ]


def instance_text(inst: ProductInput | MarkovInput) -> str:
    """Instance document in the documented canonical layout (README, File formats)."""
    if isinstance(inst, ProductInput):
        n, q = inst.p.shape
        doc = {"kind": "product", "n": n, "q": q, "p": inst.p.tolist(), "q_dist": inst.q.tolist()}
    else:
        q = inst.p_init.size
        doc = {
            "kind": "markov",
            "n": inst.p_kernels.shape[0] + 1,
            "q": q,
            "p_init": inst.p_init.tolist(),
            "q_init": inst.q_init.tolist(),
            "p_kernels": inst.p_kernels.tolist(),
            "q_kernels": inst.q_kernels.tolist(),
        }
    return json.dumps(doc, indent=1) + "\n"


def cli_small(seed: int) -> list[CliInput]:
    out = []
    for kind in CLI_KINDS:
        for n, q in CLI_SHAPES:
            for skew in CLI_SKEWS:
                index = len(out)
                rng = np.random.default_rng(sub_seed(seed, "cli-small", index))
                if kind == "product":
                    inst = ProductInput(_gamma_rows(rng, (n, q), skew), _gamma_rows(rng, (n, q), skew))
                else:
                    inst = _random_chain(rng, n, q, skew, near=False)
                name = f"{index:02d}-{kind}-n{n}-q{q}-s{skew:g}.json"
                out.append(CliInput(name, inst, instance_text(inst)))
    return out


GENERATORS = {
    "product-near": product_near,
    "product-saturating": product_saturating,
    "markov-near": markov_near,
    "cli-small": cli_small,
}


def generate(workload: str, seed: int) -> list:
    return GENERATORS[workload](seed)


def inputs_digest(workload: str, items: list) -> str:
    """Hash of the generated inputs; keys the reference cache."""
    h = hashlib.sha256(workload.encode())
    for item in items:
        inst = item.instance if isinstance(item, CliInput) else item
        h.update(instance_text(inst).encode())
    return h.hexdigest()[:24]


def write_cli_files(items: list[CliInput], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for item in items:
        path = directory / item.name
        if not path.is_file() or path.read_text() != item.text:
            path.write_text(item.text)
        paths.append(path)
    return paths
