"""Instance and report documents, region CSV output, instance generation.

An instance is its pair: parsing and the generators return a ProductPair
or a MarkovPair, and the pair's type gives the document's "kind".  The
parser checks only what the document's layout asks for, rows of JSON
numbers in the right count and length; the pair it builds applies the
package's row rule (`ratios._validate_rows`), and a row that breaks it is
a ParseError naming the pair's field.
Documents are JSON with a fixed key order; floats are serialized with
Python's shortest round-trip repr, so emit(parse(emit(x))) is byte-stable
and equal inputs hash identically.  The generators refuse sizes and gamma
shapes they cannot draw (`_check_generator`) before drawing anything.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers

import numpy as np

from .errors import ParameterError, ParseError, SizeError, ValidityError
from .markov import MarkovPair
from .product import EstimateReport, ProductPair
from .ratios import NPBoundary, _is_real

KINDS = ("product", "markov")

#: Largest row-entry count, n * q for a product and n * q * q for a chain,
#: that the generators draw for one instance; 2**24 floats take 128 MiB
#: per side, and the instance document is larger still.
MAX_GENERATED_ENTRIES = 2**24


def _rows(raw, name: str, q: int, count: int) -> np.ndarray:
    """`count` rows of length `q` of JSON numbers, as floats; a flat list is one row.

    Only the shape and the entries' types are checked here: the pair built
    from the rows applies the row rule (`ratios._validate_rows`).
    """
    try:
        rows = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{name} is not a numeric array: {exc}") from exc
    if rows.ndim == 1:
        rows, entries = rows[None, :], raw
    elif rows.ndim == 2:
        entries = itertools.chain.from_iterable(raw)
    else:
        raise ParseError(f"{name} must be a matrix of rows, got shape {rows.shape}")
    # np.asarray reads strings and booleans as numbers; JSON numbers parse to int or float
    if not set(map(type, entries)) <= {int, float}:
        raise ParseError(f"{name} entries must be JSON numbers")
    if rows.shape[1] != q:
        raise ParseError(f"{name} rows have length {rows.shape[1]}, expected q={q}")
    if rows.shape[0] != count:
        raise ParseError(f"{name} has {rows.shape[0]} rows, expected {count}")
    return rows


def _require(doc: dict, key: str):
    if key not in doc:
        raise ParseError(f"missing field {key!r}")
    return doc[key]


def _kernels(doc: dict, key: str, n: int, q: int) -> np.ndarray:
    """The `n - 1` kernels under `key`, each `q` rows of length `q`, as one array."""
    raw = _require(doc, key)
    if not isinstance(raw, list) or len(raw) != n - 1:
        raise ParseError(f"{key} must be a list of {n - 1} matrices")
    return np.reshape([_rows(k, f"{key}[{i}]", q, q) for i, k in enumerate(raw)], (n - 1, q, q))


def parse_instance(text: str) -> ProductPair | MarkovPair:
    """Parse an instance document into its pair; any malformed document raises ParseError."""
    # ValueError covers JSONDecodeError and integers past Python's digit
    # limit; RecursionError, arrays nested deeper than the decoder can go.
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    kind = _require(doc, "kind")
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}, expected one of {KINDS}")
    n = _require(doc, "n")
    q = _require(doc, "q")
    # type() rather than isinstance(): JSON true and false parse to bool, an int subclass
    if not (type(n) is int and type(q) is int and n >= 1 and q >= 1):
        raise ParseError(f"n and q must be positive integers, got n={n!r}, q={q!r}")
    if kind == "product":
        make = ProductPair
        rows = [_rows(_require(doc, key), key, q, n) for key in ("p", "q_dist")]
    else:
        make = MarkovPair
        rows = [_rows(_require(doc, key), key, q, 1)[0] for key in ("p_init", "q_init")]
        rows += [_kernels(doc, key, n, q) for key in ("p_kernels", "q_kernels")]
    try:
        return make(*rows)
    except ValidityError as exc:  # the pair's row rule; a bad row is a malformed document
        raise ParseError(str(exc)) from exc


def emit_instance(pair: ProductPair | MarkovPair) -> str:
    """Canonical text form of an instance: fixed key order, repr floats."""
    if isinstance(pair, ProductPair):
        doc = {
            "kind": "product",
            "n": pair.n,
            "q": pair.q,
            "p": pair.p_marginals.tolist(),
            "q_dist": pair.q_marginals.tolist(),
        }
    else:
        doc = {
            "kind": "markov",
            "n": pair.n,
            "q": pair.q,
            "p_init": pair.p_init.tolist(),
            "q_init": pair.q_init.tolist(),
            "p_kernels": pair.p_kernels.tolist(),
            "q_kernels": pair.q_kernels.tolist(),
        }
    return json.dumps(doc, indent=1) + "\n"


def instance_digest(pair: ProductPair | MarkovPair) -> str:
    """SHA-256 of the canonical document, prefixed with the algorithm name."""
    payload = emit_instance(pair).encode("utf-8")
    return "sha256:" + hashlib.sha256(payload).hexdigest()


def emit_report(report: EstimateReport, mode: str, digest: str) -> str:
    """Report document of one run in `mode` on the instance with `digest`.

    The keys come in a fixed order, and a key whose value is None is left
    out: `epsilon` and `tries` in exact and oracle runs, which have no
    epsilon, and `upper` and `eps_s` there and in the exact exits (`_estimate`).
    """
    record = {
        "mode": mode,
        "estimate": report.estimate,
        "epsilon": report.epsilon,
        "d_lb": report.d_lb,
        "max_support": report.max_support,
        "tries": None if report.epsilon is None else report.tries,
        "elapsed_ms": report.elapsed * 1e3,
        "instance_digest": digest,
        "upper": report.upper,
        "eps_s": report.eps_s,
    }
    return json.dumps({key: value for key, value in record.items() if value is not None}, indent=1) + "\n"


def region_csv(boundary: NPBoundary) -> str:
    """Region boundary vertices as 'x,y' lines (the boundary is piecewise linear)."""
    lines = ["x,y"]
    for x, y in boundary.vertices:
        lines.append(f"{float(x)!r},{float(y)!r}")
    return "\n".join(lines) + "\n"


def _check_generator(kind: str, n: int, q: int, skew: float) -> None:
    """Refuse sizes that are not integers of at least 1 or that pass the cap,
    and gamma shapes that are not positive finite reals, before anything is drawn."""
    if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in (n, q)):
        raise ParameterError(f"n and q must be integers, got n={n}, q={q}")
    if n < 1 or q < 1:
        raise ParameterError(f"n and q must be at least 1, got n={n}, q={q}")
    entries = int(n) * int(q) ** (2 if kind == "markov" else 1)
    if entries > MAX_GENERATED_ENTRIES:
        raise SizeError(
            f"a {kind} instance with n={n}, q={q} has {entries} row entries, "
            f"beyond the cap of {MAX_GENERATED_ENTRIES}"
        )
    if not (_is_real(skew) and math.isfinite(skew) and skew > 0):
        raise ParameterError(f"skew must be positive and finite, got {skew}")


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed) % 2**64)


def _random_rows(rng: np.random.Generator, shape: tuple[int, ...], skew: float) -> np.ndarray:
    """Gamma draws of shape `skew`, normalized along the last axis.

    A row whose draws all underflow to 0, or whose sum overflows, cannot be
    normalized and raises ParameterError.
    """
    draws = rng.gamma(shape=skew, scale=1.0, size=shape)
    with np.errstate(over="ignore"):
        sums = np.sum(draws, axis=-1, keepdims=True)
    if not np.all((sums > 0) & np.isfinite(sums)):
        raise ParameterError(f"gamma draws at skew {skew!r} give a row that sums to 0 or overflows")
    return draws / sums


def generate_product_instance(n: int, q: int, seed: int, skew: float = 1.0) -> ProductPair:
    """Seeded random product instance; identical arguments give identical files.

    Each marginal is an independent normalized vector of gamma draws with the
    given shape, so small skews give spiky marginals and large skews give
    near-uniform ones.
    """
    _check_generator("product", n, q, skew)
    rng = _rng(seed)
    p = _random_rows(rng, (n, q), skew)
    qd = _random_rows(rng, (n, q), skew)
    return ProductPair(p, qd)


def generate_markov_instance(n: int, q: int, seed: int, skew: float = 1.0) -> MarkovPair:
    """Seeded random chain instance; same determinism contract as products."""
    _check_generator("markov", n, q, skew)
    rng = _rng(seed)
    p_init = _random_rows(rng, (q,), skew)
    q_init = _random_rows(rng, (q,), skew)
    pk = _random_rows(rng, (n - 1, q, q), skew)
    qk = _random_rows(rng, (n - 1, q, q), skew)
    return MarkovPair(p_init, q_init, pk, qk)


def generate_instance(
    kind: str, n: int, q: int, seed: int, skew: float = 1.0
) -> ProductPair | MarkovPair:
    if kind == "product":
        return generate_product_instance(n, q, seed, skew)
    if kind == "markov":
        return generate_markov_instance(n, q, seed, skew)
    raise ParameterError(f"unknown kind {kind!r}, expected one of {KINDS}")


def derive_seed(seed: int, n: int, q: int) -> int:
    """Per-grid-point sub-seed used by the benchmark harness."""
    seq = np.random.SeedSequence([int(seed) % 2**64, int(n), int(q)])
    return int(seq.generate_state(1, np.uint64)[0])
