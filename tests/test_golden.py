"""Golden outputs: fixed runs of every pipeline, recorded bit for bit.

`tests/golden_runs.json` holds one record per run, over generated products
and chains with n from 1 to 12, q from 2 to 10 and skew 0.15, 1 and 3 at
eps 0.05 and 0.2, and over edge pairs with zeros in q and with ratios that
overflow: the `float.hex` of the estimate, `upper`, `d_lb` and `eps_s`,
with `tries`, `max_support` and `iterations`, for a plain run and for a run
that returns its table; the sha256 of that table; and, where SUPPORT_CAP
allows it, the sha256 of the exact table.  It also holds the stdout of
`tvdist estimate` on a few instance files in fptas, exact and oracle mode,
with `elapsed_ms` masked.  A change that moves any of them on purpose
rewrites the file with

    PYTHONPATH=src python tests/test_golden.py --write

and says in CHANGES.md which runs moved.  The floats come out of numpy and
libm, so the file records the numpy version and platform it was written
on, and a mismatch names both them and the running ones.
"""

import contextlib
import hashlib
import io
import json
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from tvdist import (
    MarkovPair, ProductPair, emit_instance, estimate_markov_tv, estimate_product_tv, exact_ratio_markov,
    exact_ratio_product, generate_markov_instance, generate_product_instance,
)
from tvdist.cli import main
from tvdist.oracle import SUPPORT_CAP

GOLDEN = Path(__file__).with_name("golden_runs.json")

# (n, q, skew): every n from 1 to 12 once, q and skew cycling
SPREAD = [
    (1, 5, 1.0), (2, 10, 0.15), (3, 3, 3.0), (4, 2, 1.0), (5, 7, 0.15), (6, 4, 3.0),
    (7, 3, 1.0), (8, 2, 0.15), (9, 5, 3.0), (10, 3, 1.0), (11, 2, 3.0), (12, 4, 0.15),
]
_OVERFLOW = [0.5, 0.5, 5e-324]
EDGES = {
    "product-zeros-in-q": ProductPair(np.tile([0.5, 0.3, 0.2], (6, 1)), np.tile([0.55, 0.45, 0.0], (6, 1))),
    "markov-zeros-in-q": MarkovPair(
        [0.5, 0.5], [0.6, 0.4], np.tile([[0.7, 0.3], [0.2, 0.8]], (4, 1, 1)),
        np.tile([[1.0, 0.0], [0.3, 0.7]], (4, 1, 1)),
    ),
    "product-ratio-overflow": ProductPair(np.tile([0.3, 0.4, 0.3], (4, 1)), np.tile(_OVERFLOW, (4, 1))),
    "markov-ratio-overflow": MarkovPair(
        [0.2, 0.3, 0.5], _OVERFLOW, np.tile([[0.3, 0.4, 0.3], [0.2, 0.4, 0.4], [0.1, 0.5, 0.4]], (3, 1, 1)),
        np.tile([_OVERFLOW, [0.2, 0.5, 0.3], [0.3, 0.4, 0.3]], (3, 1, 1)),
    ),
}
EPS = (0.05, 0.2)


def _pairs() -> dict:
    pairs = {}
    for seed, (n, q, skew) in enumerate(SPREAD):
        pairs[f"product-n{n}-q{q}-skew{skew}"] = generate_product_instance(n, q, seed=seed, skew=skew)
        pairs[f"markov-n{n}-q{q}-skew{skew}"] = generate_markov_instance(n, q, seed=seed, skew=skew)
    return {**pairs, **EDGES}


# (pair, mode): the files `tvdist estimate` reads, at eps 0.05 in fptas mode
CLI_RUNS = [
    (name, mode)
    for name in (
        "product-n4-q2-skew1.0", "markov-n3-q3-skew3.0", "product-zeros-in-q", "markov-ratio-overflow",
    )
    for mode in ("fptas", "exact", "oracle")
]


def _hex(x):
    return None if x is None else float(x).hex()


def _report(report) -> dict:
    return {
        "estimate": _hex(report.estimate), "upper": _hex(report.upper), "d_lb": _hex(report.d_lb),
        "eps_s": _hex(report.eps_s), "tries": report.tries, "max_support": report.max_support,
        "iterations": report.iterations,
    }


def _sha256(table) -> str:
    return hashlib.sha256(table.values.tobytes() + table.masses.tobytes()).hexdigest()


def _run(pair, eps: float) -> dict:
    estimate, exact = (
        (estimate_product_tv, exact_ratio_product) if isinstance(pair, ProductPair)
        else (estimate_markov_tv, exact_ratio_markov)
    )
    with_table, table = estimate(pair, eps, return_ratio=True)
    return {
        "report": _report(estimate(pair, eps)),
        "table_report": _report(with_table),
        "table_sha256": _sha256(table),
        "exact_sha256": _sha256(exact(pair)) if pair.q**pair.n <= SUPPORT_CAP else None,
    }


def _stdout(name: str, mode: str) -> str:
    """`tvdist estimate` stdout on the pair's instance file, `elapsed_ms` masked."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        path.write_text(emit_instance(_pairs()[name]))
        argv = ["estimate", "--input", str(path), "--mode", mode]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv + (["--epsilon", "0.05"] if mode == "fptas" else []))
    assert code == 0
    return re.sub(r'"elapsed_ms": [^,\n]+', '"elapsed_ms": "*"', out.getvalue())


RECORDED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"runs": {}, "cli": {}}


def _mismatch(what: str) -> str:
    recorded = RECORDED.get("recorded_on", {})
    return (
        f"{what} differs from tests/golden_runs.json, recorded on numpy {recorded.get('numpy')} "
        f"({recorded.get('platform')}); running numpy {np.__version__} ({platform.platform()})"
    )


def test_the_file_covers_every_run():
    assert sorted(RECORDED["runs"]) == sorted(f"{name}@{eps}" for name in _pairs() for eps in EPS)
    assert sorted(RECORDED["cli"]) == sorted(f"{name}:{mode}" for name, mode in CLI_RUNS)


@pytest.mark.parametrize("key", sorted(RECORDED["runs"]))
def test_runs_keep_their_golden_outputs(key):
    name, eps = key.rsplit("@", 1)
    assert _run(_pairs()[name], float(eps)) == RECORDED["runs"][key], _mismatch(key)


@pytest.mark.parametrize("key", sorted(RECORDED["cli"]))
def test_cli_keeps_its_golden_stdout(key):
    assert _stdout(*key.split(":")) == RECORDED["cli"][key], _mismatch(key)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    document = {
        "recorded_on": {"numpy": np.__version__, "platform": platform.platform()},
        "runs": {f"{name}@{eps}": _run(pair, eps) for name, pair in _pairs().items() for eps in EPS},
        "cli": {f"{name}:{mode}": _stdout(name, mode) for name, mode in CLI_RUNS},
    }
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
