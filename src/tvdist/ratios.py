"""Likelihood-ratio distributions and the exact operations on them.

A ratio table records the distribution of p(X)/q(X) when X is drawn from q.
It is a complete summary of the decision problem between two discrete
distributions: the total variation distance and the Neyman-Pearson boundary
are read off from it directly, without revisiting the underlying sample
space.  Products over independent coordinates and Markov steps are both
mixtures of scaled tables (`concatenate`), and every pipeline builds its
table with one fold over such steps (`_fold`).  Probability vectors are
plain arrays: `_validate_rows` is the one check of every row the package
takes, run by the public functions here on their inputs and by the pair
types when they are built, so the fold trusts the rows it is given.

All types are immutable after construction and all operations are pure, so
everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, SizeError, ValidityError

#: Absolute tolerance for mass-conservation and expectation invariants.
VALIDITY_TOL = 1e-9


def _as_float_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _validate_rows(rows, name: str, ndim: int = 2) -> np.ndarray:
    """`rows` as a float array whose last axis holds probability rows.

    The array must have `ndim` dimensions (1 for a single row), and every
    row must be nonempty, finite, nonnegative and sum to 1 within
    VALIDITY_TOL.  Every probability row the package takes passes through it.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != ndim:
        raise DimensionError(f"{name} must be a {ndim}-D array, got shape {rows.shape}")
    if rows.shape[-1] == 0:
        raise ValidityError(f"{name} rows need at least one outcome")
    if not np.all(np.isfinite(rows)) or np.any(rows < 0):
        raise ValidityError(f"{name} must be finite and nonnegative")
    sums = np.sum(rows, axis=-1).reshape(-1)
    off = np.abs(sums - 1.0)
    if np.any(off > VALIDITY_TOL):
        worst = int(np.argmax(off))
        raise ValidityError(f"{name} row {worst} sums to {float(sums[worst])!r}, expected 1")
    return rows


def _aligned(p, q) -> tuple[np.ndarray, np.ndarray]:
    """Two probability vectors over the same outcomes, checked."""
    p, q = _validate_rows(p, "p", 1), _validate_rows(q, "q", 1)
    if p.size != q.size:
        raise DimensionError(f"outcome spaces differ: {p.size} vs {q.size}")
    return p, q


class MassPoint(NamedTuple):
    """One table entry: a ratio value and its probability under q."""

    value: float
    mass: float


@dataclass(frozen=True)
class RatioDist:
    """Finite likelihood-ratio distribution: a sorted table of (value, mass).

    Values are strictly increasing nonnegative reals, masses are positive and
    sum to one, and the expectation of the value is at most one -- exactly the
    tables realizable as the ratio of some distribution pair.
    """

    values: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        values = _as_float_vector(self.values, "values")
        masses = _as_float_vector(self.masses, "masses")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "masses", masses)
        if values.shape != masses.shape:
            raise DimensionError(
                f"values and masses differ in length: {values.size} vs {masses.size}"
            )
        if values.size == 0:
            raise ValidityError("a ratio table needs at least one entry")
        if not np.all(np.isfinite(values)) or values[0] < 0:
            raise ValidityError("ratio values must be finite and nonnegative")
        if values.size > 1 and not np.all(values[1:] > values[:-1]):
            raise ValidityError("ratio values must be strictly increasing")
        if not np.all(masses > 0) or not np.all(np.isfinite(masses)):
            raise ValidityError("masses must be positive and finite")
        total = float(np.sum(masses))
        if abs(total - 1.0) > VALIDITY_TOL:
            raise ValidityError(f"masses sum to {total!r}, expected 1 within {VALIDITY_TOL}")
        mean = float(np.sum(values * masses))
        if not mean <= 1.0 + VALIDITY_TOL:
            raise ValidityError(f"expectation {mean!r} exceeds 1: not a valid ratio")

    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float]]) -> "RatioDist":
        """Build a table from (value, mass) pairs given in any order."""
        pts = sorted(points)
        values = np.array([v for v, _ in pts], dtype=np.float64)
        masses = np.array([m for _, m in pts], dtype=np.float64)
        return cls(values, masses)

    @property
    def points(self) -> list[MassPoint]:
        return [MassPoint(float(v), float(m)) for v, m in zip(self.values, self.masses)]

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class NPBoundary:
    """Upper boundary of the Neyman-Pearson region, as a polygonal chain.

    Vertices run from (0, 0) to (1, 1); the x coordinate accumulates p-mass,
    the y coordinate q-mass, in increasing order of the likelihood ratio.
    """

    vertices: np.ndarray

    def __post_init__(self) -> None:
        verts = np.asarray(self.vertices, dtype=np.float64)
        object.__setattr__(self, "vertices", verts)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 2:
            raise DimensionError(f"vertices must be a (k, 2) array with k >= 2, got {verts.shape}")
        if verts[0, 0] != 0.0 or verts[0, 1] != 0.0:
            raise ValidityError("boundary must start at (0, 0)")
        if verts[-1, 0] != 1.0 or verts[-1, 1] != 1.0:
            raise ValidityError("boundary must end at (1, 1)")
        if np.any(np.diff(verts, axis=0) < 0):
            raise ValidityError("vertex coordinates must be nondecreasing")

    def __len__(self) -> int:
        return self.vertices.shape[0]


def tv_discrete(p, q) -> float:
    """Total variation distance between two aligned probability vectors."""
    p, q = _aligned(p, q)
    return 0.5 * float(np.sum(np.abs(p - q)))


def ratio_of(p, q) -> RatioDist:
    """Likelihood-ratio distribution of the pair (p, q), sampling under q.

    Outcomes where q vanishes contribute nothing; their p-mass shows up only
    as an expectation deficit of the resulting table.  Outcomes with exactly
    equal float ratios are grouped into one entry.  This is `concatenate`
    with the trivial table for every outcome.
    """
    p, q = _aligned(p, q)
    return _concatenate(p, q, (_ONE,) * q.size)


def concatenate(px, qx, tables: Sequence[RatioDist]) -> RatioDist:
    """Ratio of the joint (first outcome, rest) given one table per outcome.

    Mixture over outcomes x with weight qx[x] of tables[x] scaled by
    px[x]/qx[x]: the joint likelihood ratio factorizes into the
    first-outcome ratio times the conditional one.  With one table repeated
    for every outcome this is the ratio of the independent product.
    Outcomes with qx[x] = 0 contribute nothing and are skipped outright, so
    their tables never touch the result.  The scaled entries are sorted
    stably and masses of exactly equal values are summed left to right, so
    the result is deterministic for a fixed input order.  Zero masses can
    only arise from underflowing products; dropping them loses less mass
    than the validity tolerance resolves.
    """
    px, qx = _aligned(px, qx)
    if len(tables) != qx.size:
        raise DimensionError(f"got {len(tables)} tables for {qx.size} outcomes")
    return _concatenate(px, qx, tables)


def _concatenate(px: np.ndarray, qx: np.ndarray, tables: Sequence[RatioDist]) -> RatioDist:
    """`concatenate` on rows already checked as aligned probability vectors."""
    live = np.flatnonzero(qx > 0)
    # Runs go straight into one buffer each for values and masses: a
    # temporary per run costs fresh pages on every call for large tables.
    ends = np.cumsum([len(tables[x]) for x in live])
    values = np.empty(ends[-1])
    masses = np.empty(ends[-1])
    start = 0
    for x, end in zip(live, ends):
        r = tables[x]
        np.multiply(px[x] / qx[x], r.values, out=values[start:end])
        np.multiply(qx[x], r.masses, out=masses[start:end])
        start = end
    order = np.argsort(values, kind="stable")
    values, masses = values[order], masses[order]
    if values.size > 1:
        starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
        if starts.size != values.size:
            masses = np.add.reduceat(masses, starts)
            values = values[starts]
    keep = masses > 0
    if not np.all(keep):
        values = values[keep]
        masses = masses[keep]
    return RatioDist(values, masses)


#: Ratio table of two equal distributions; the fold starts from it.
_ONE = RatioDist(np.array([1.0]), np.array([1.0]))


def _fold(
    steps: Iterable[tuple[np.ndarray, np.ndarray]],
    reduce: Callable[[RatioDist], RatioDist] | None,
    cap: int,
) -> tuple[RatioDist, int]:
    """Fold row-pair steps into one ratio table; return it and its peak support.

    Each step is a pair of row matrices (P, Q) of shape (rows, cols).  The
    fold keeps one table per conditioning state, starting from the single
    table `_ONE`, and a single table serves every column.  Before every step
    but the first, `reduce` replaces each table (a merge for the estimators;
    None, merging nothing, for the exact pipelines), and SizeError is raised
    when a table times cols, the worst case for the step's new tables,
    exceeds `cap`.  The step then mixes the tables into one new table per
    row with `concatenate`, trusting the rows, which the pair types checked
    when they were built; every new table is still validated.  The peak
    support is the largest table any step built.  The last step must have a
    single row.
    """
    tables = (_ONE,)
    peak = 0
    for k, (p_rows, q_rows) in enumerate(steps):
        cols = p_rows.shape[1]
        # The unreduced tables stay alive until their successors exist:
        # freeing them first lets the allocator hand their pages back to the
        # system, and every step would then fault fresh pages in again.
        reduced = tuple(map(reduce, tables)) if k and reduce else tables
        worst = max(map(len, reduced)) * cols
        if k and worst > cap:
            raise SizeError(f"a table could reach {worst} entries, beyond the cap of {cap}")
        if len(reduced) == 1:
            reduced *= cols
        tables = tuple(_concatenate(p, q, reduced) for p, q in zip(p_rows, q_rows))
        peak = max(peak, *map(len, tables))
    (ratio,) = tables
    return ratio, peak


def expectation(r: RatioDist) -> float:
    """Mean ratio value; equals the p-mass of q's support, hence at most 1."""
    return float(np.sum(r.values * r.masses))


def tv_of_ratio(r: RatioDist) -> float:
    """Total variation distance of the pair realizing `r`: E[(1-R) 1(R<1)]."""
    below = r.values < 1.0
    if not np.any(below):
        return 0.0
    return float(np.sum((1.0 - r.values[below]) * r.masses[below]))


def np_boundary(r: RatioDist) -> NPBoundary:
    """Vertices of the achievable (accept under p, accept under q) boundary.

    Cumulative sums of (value*mass, mass) over the sorted table, preceded by
    the origin; a final horizontal segment to (1, 1) carries whatever p-mass
    lies off q's support.  Cumulative sums are clipped to 1 so a trailing
    float overshoot cannot exit the unit square.
    """
    xs = np.concatenate(([0.0], np.minimum(np.cumsum(r.values * r.masses), 1.0)))
    ys = np.concatenate(([0.0], np.minimum(np.cumsum(r.masses), 1.0)))
    if xs[-1] != 1.0 or ys[-1] != 1.0:
        xs = np.append(xs, 1.0)
        ys = np.append(ys, 1.0)
    return NPBoundary(np.column_stack([xs, ys]))
