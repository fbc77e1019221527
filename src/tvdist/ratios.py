"""Likelihood-ratio distributions and the exact operations on them.

A ratio table records the distribution of p(X)/q(X) when X is drawn from q.
It is a complete summary of the decision problem between two discrete
distributions: the total variation distance and the Neyman-Pearson boundary
are read off from it directly, without revisiting the underlying sample
space.  Products over independent coordinates and Markov steps are both
mixtures of scaled tables (`concatenate`), and every pipeline builds its
table with one fold over such steps (`_fold`).

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


@dataclass(frozen=True)
class DiscreteDist:
    """Probability vector over a finite sample space."""

    masses: np.ndarray

    def __post_init__(self) -> None:
        masses = _as_float_vector(self.masses, "masses")
        object.__setattr__(self, "masses", masses)
        if masses.size == 0:
            raise ValidityError("a distribution needs at least one outcome")
        if not np.all(np.isfinite(masses)) or np.any(masses < 0):
            raise ValidityError("masses must be finite and nonnegative")
        total = float(np.sum(masses))
        if abs(total - 1.0) > VALIDITY_TOL:
            raise ValidityError(f"masses sum to {total!r}, expected 1 within {VALIDITY_TOL}")

    def __len__(self) -> int:
        return self.masses.size


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


def _dist(d) -> DiscreteDist:
    return d if isinstance(d, DiscreteDist) else DiscreteDist(d)


def tv_discrete(p, q) -> float:
    """Total variation distance between two aligned probability vectors."""
    p, q = _dist(p), _dist(q)
    if len(p) != len(q):
        raise DimensionError(f"sample spaces differ: {len(p)} vs {len(q)} outcomes")
    return 0.5 * float(np.sum(np.abs(p.masses - q.masses)))


def ratio_of(p, q) -> RatioDist:
    """Likelihood-ratio distribution of the pair (p, q), sampling under q.

    Outcomes where q vanishes contribute nothing; their p-mass shows up only
    as an expectation deficit of the resulting table.  Outcomes with exactly
    equal float ratios are grouped into one entry.  This is `concatenate`
    with the trivial table for every outcome.
    """
    q = _dist(q)
    return concatenate(p, q, (_ONE,) * len(q))


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
    px, qx = _dist(px), _dist(qx)
    if len(px) != len(qx):
        raise DimensionError(f"outcome spaces differ: {len(px)} vs {len(qx)}")
    if len(tables) != len(qx):
        raise DimensionError(f"got {len(tables)} tables for {len(qx)} outcomes")
    live = np.flatnonzero(qx.masses > 0)
    # Runs go straight into one buffer each for values and masses: a
    # temporary per run costs fresh pages on every call for large tables.
    ends = np.cumsum([len(tables[x]) for x in live])
    values = np.empty(ends[-1])
    masses = np.empty(ends[-1])
    start = 0
    for x, end in zip(live, ends):
        r = tables[x]
        np.multiply(px.masses[x] / qx.masses[x], r.values, out=values[start:end])
        np.multiply(qx.masses[x], r.masses, out=masses[start:end])
        start = end
    order = np.argsort(values, kind="stable")
    values, masses = values[order], masses[order]
    if values.size > 1:
        starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
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
    row with `concatenate`.  The peak support is the largest table any step
    built.  The last step must have a single row.
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
        tables = tuple(concatenate(p, q, reduced) for p, q in zip(p_rows, q_rows))
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
