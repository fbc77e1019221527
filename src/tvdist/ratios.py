"""Likelihood-ratio distributions and the exact operations on them.

A ratio table records the distribution of p(X)/q(X) when X is drawn from q.
It is a complete summary of the decision problem between two discrete
distributions: the total variation distance and the Neyman-Pearson boundary
are read off from it directly, without revisiting the underlying sample
space.  Products over independent coordinates and Markov steps are both
mixtures of scaled tables, and every pipeline builds its table with one
fold over such steps (`_fold`).  Inside the fold the tables of all states
lie end to end in state order as flat (values, masses, sizes), `sizes`
holding each state's table length.  The per-entry state is derived from
`sizes` only where it is needed: by the slot map of many states and where
a step lost entries (`_drop_lost`), so the estimators' one-state tables
pay nothing for it.  The exact pipelines' reducer (`_combine`) sorts each
state's table on its own and needs no state either.  A run's steps are
the pair's own arrays, stacked: (P, Q) views of shape (steps, rows,
columns) in fold order, which `_live_pairs` reads one stack at a time.  A
fold's first tables are its first step's live pairs, read-only, and each
later step is one iteration: `_step` mixes the tables into the next
state's tables all at once, each scaled by a live row pair's ratio and
weighted by its q-mass, unsorted and unchecked.  One table means a
product, many mean a chain.  A table leaves the fold as a sorted, checked
`RatioDist` (`_table`).  Probability vectors are plain arrays, and
`_validate_rows` is the package's one row rule: `tv_discrete` and the pair
types (so the parser too) refuse a row unless its entries are real
numbers, finite and nonnegative, and it sums to 1 within ROW_SUM_TOL, and
divide it by its sum past ROW_SUM_EXACT.  The fold trusts the rows it is
given, and every pipeline measures the same distributions.

All types are immutable after construction and all operations are pure, so
everything here is safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import DimensionError, SizeError, ValidityError

#: Absolute tolerance for the invariants of ratio tables and reports.
VALIDITY_TOL = 1e-9
#: Largest drift of a probability row's sum away from 1 that is accepted.
ROW_SUM_TOL = 1e-6
#: Row sums closer to 1 than this are taken as already normalized; every
#: other accepted row is divided by its sum.  The threshold keeps
#: parse(emit(...)) byte-stable instead of renormalizing forever.
ROW_SUM_EXACT = 1e-13


def _as_float_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _is_real(x) -> bool:
    """Whether x is a real scalar, numpy's included; a bool does not pass for 0 or 1."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _all_real(x) -> bool:
    """Whether x is a real scalar, or an array or nested list or tuple of them.

    A real or integer array passes whole; a boolean does not pass for 0 or 1.
    """
    if isinstance(x, np.ndarray):
        return x.dtype.kind in "fiu"
    if isinstance(x, (list, tuple)):
        return all(map(_all_real, x))
    return _is_real(x)


def _validate_rows(rows, name: str, ndim: int = 2) -> np.ndarray:
    """`rows` as a read-only float copy whose last axis holds probability rows.

    The array must have `ndim` dimensions (1 for a single row, 3 for a stack
    of matrices), and every row must be nonempty, finite, nonnegative and sum
    to 1 within ROW_SUM_TOL.  A row off 1 by more than ROW_SUM_EXACT is
    divided by its sum, so every pipeline measures the distribution it means.
    Every entry must be a real number: booleans, strings, objects and complex
    numbers are refused, also inside nested lists, where numpy would read a
    boolean or a numeric string as a float.  Every probability row the
    package takes passes through it.
    """
    if not _all_real(rows):
        raise ValidityError(f"{name} entries must be real numbers")
    try:
        rows = np.array(rows, dtype=np.float64)
    except ValueError as exc:  # nested lists of unequal lengths
        raise DimensionError(f"{name} is not a rectangular array: {exc}") from exc
    except OverflowError as exc:  # an integer past the float range
        raise ValidityError(f"{name} has an entry past the float range") from exc
    if rows.ndim != ndim:
        raise DimensionError(f"{name} must be a {ndim}-D array, got shape {rows.shape}")
    if rows.shape[-1] == 0:
        raise ValidityError(f"{name} rows need at least one outcome")
    if not np.all(np.isfinite(rows)) or np.any(rows < 0):
        raise ValidityError(f"{name} must be finite and nonnegative")
    sums = np.sum(rows, axis=-1, keepdims=True)
    off = np.abs(sums - 1.0)
    if np.any(off > ROW_SUM_TOL):
        worst = int(np.argmax(off))
        total = float(sums.flat[worst])
        if ndim == 3:  # name the matrix, then its row
            step, worst = divmod(worst, rows.shape[1])
            name = f"{name}[{step}]"
        raise ValidityError(f"{name} row {worst} sums to {total!r}, expected 1")
    np.divide(rows, sums, out=rows, where=off > ROW_SUM_EXACT)
    rows.flags.writeable = False
    return rows


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


def tv_discrete(p, q) -> float:
    """Total variation distance between two aligned probability vectors.

    Checks and normalizes both rows (`_validate_rows`), then takes their
    distance rounded toward 0 (`_half_l1`).
    """
    p, q = _validate_rows(p, "p", 1), _validate_rows(q, "q", 1)
    if p.size != q.size:
        raise DimensionError(f"outcome spaces differ: {p.size} vs {q.size}")
    return _half_l1(p, q)


def _half_l1(p, q) -> float:
    """The largest float at most the exact half-L1 distance of two rows.

    The rows must already be checked rows of one length (`tv_discrete`, or
    a pair's own validation).  Rounding toward 0 keeps a single-step estimate
    at or below the distance.  Each difference is kept exact as its rounded
    value plus its rounding error (TwoSum), `math.fsum` rounds their sum
    once, and the halved sum steps once toward 0 when that rounding went up
    or the halving itself rounded.
    """
    diff = p - q
    back = diff - p
    error = (p - (diff - back)) - (q + back)
    # |diff + error| is |diff| + sign(diff) * error, as |error| <= ulp(diff) / 2
    terms = np.concatenate((np.abs(diff), np.sign(diff) * error)).tolist()
    total = math.fsum(terms)
    half = total / 2
    if math.fsum(terms + [-total]) < 0 or half * 2 != total:
        half = math.nextafter(half, 0.0)
    return half


def _live_pairs(stacks) -> list:
    """Each step's live row pairs, for `_fold`: (rows, cols, ratio, weight, row count).

    The steps come as stacks (P, Q) of shape (steps, rows, columns), in fold
    order.  A pair (r, s) is live where Q[r, s] > 0, in row-major order, with
    ratio P[r, s] / Q[r, s] and weight Q[r, s].  A pair whose ratio
    overflows is left out: every entry it would build has an infinite or NaN
    value, which the distance only loses from and an upper bound adds back.
    Each stack is divided whole and read with one mask, Q > 0 and a finite
    ratio, in row-major order, which is each step's in turn, and cut into
    one tuple per step.  A run reads its steps once, and its folds share
    them, the first step's as their first tables, so they are read-only.
    """
    pairs = []
    for p_rows, q_rows in stacks:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratio = p_rows / q_rows
        live = (q_rows > 0) & (ratio < np.inf)
        step, rows, cols = live.nonzero()
        ratio, weight = ratio[live], q_rows[live]
        ratio.flags.writeable = weight.flags.writeable = False
        start, height = 0, q_rows.shape[1]
        for end in np.cumsum(np.bincount(step, minlength=len(q_rows))).tolist():
            pairs.append((rows[start:end], cols[start:end], ratio[start:end], weight[start:end], height))
            start = end
    return pairs


def _step(values, masses, sizes, rows, cols, ratio, weight, height: int):
    """One fold step on flat tables: every state's table for every live pair at once.

    The tables lie end to end in state order, `sizes` giving their lengths;
    a single table, a product's, serves every column of its single row.
    Row r's new table holds, for each live pair (r, s) in order
    (`_live_pairs`), table s with its values times the pair's ratio and its
    masses times its weight.  Returns the new flat (values, masses, sizes),
    one table for each of the `height` rows.  A mass may underflow to 0 and
    a value overflow (which takes a mass below 1e-308); `_fold` drops such
    entries (`_drop_lost`).
    """
    if sizes.size == 1:  # a product's step
        values = np.multiply.outer(ratio, values).ravel()
        masses = np.multiply.outer(weight, masses).ravel()
        return values, masses, np.array([values.size])
    lens = sizes.take(cols)
    # entry i of the run for pair j reads entry i of table cols[j]
    take = (sizes.cumsum().take(cols) - lens.cumsum()).repeat(lens)
    take += np.arange(take.size)
    values = values.take(take) * ratio.repeat(lens)
    masses = masses.take(take) * weight.repeat(lens)
    return values, masses, np.bincount(rows, lens, height).astype(np.intp)


def _drop_lost(values, masses, sizes):
    """Flat tables without the entries whose mass underflowed to 0 or whose value overflowed.

    The distance only loses from them, and an upper bound adds their q-mass
    back.
    """
    keep = (masses > 0) & (values < np.inf)
    states = np.repeat(np.arange(sizes.size), sizes)
    return values[keep], masses[keep], np.bincount(states[keep], minlength=sizes.size)


def _combine(values, masses, sizes):
    """Flat tables sorted by (state, value), equal values' masses summed in step order.

    It is also the exact pipelines' reducer in `_fold`, since combining
    equal values loses nothing.  The tables already lie in state order, so
    a stable sort of each state's table on its own is the (state, value)
    sort, and every entry is sorted once.  Tables with no value repeated
    within a state come back sorted, with `sizes` as given; otherwise each
    run of equal values sums its masses in step order (`np.add.reduceat`).
    """
    ends = np.cumsum(sizes)
    if sizes.size == 1:
        order = np.argsort(values, kind="stable")
    else:
        order = np.empty(values.size, np.intp)
        start = 0
        for end in ends.tolist():
            np.add(np.argsort(values[start:end], kind="stable"), start, out=order[start:end])
            start = end
    values, masses = values[order], masses[order]
    same = values[1:] == values[:-1]
    if sizes.size > 1:  # a state's first entry repeats nothing of the state before
        heads = ends[:-1]
        same[heads[(heads > 0) & (heads < values.size)] - 1] = False
    if not same.any():
        return values, masses, sizes
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    sizes = np.diff(np.searchsorted(starts, ends), prepend=0)
    return values[starts], np.add.reduceat(masses, starts), sizes


def _table(values, masses) -> RatioDist:
    """A one-state flat table as a checked RatioDist: how a table leaves the fold."""
    return RatioDist(*_combine(values, masses, np.array([values.size]))[:2])


def _fold(pairs: Iterable, reduce: Callable, cap: int) -> tuple:
    """Fold steps into one flat table; return its values, masses and peak.

    Each step is given by its live pairs (`_live_pairs`).  The fold keeps
    one table per conditioning state; the first step's live pairs are the
    first tables, row r's holding the (ratio, weight) of each pair (r, s),
    in read-only arrays every fold of a run shares.  Each iteration is one
    later step: `reduce` (a `sparsify` merge or spread, or `_combine` for
    the exact pipelines) maps every state's table at once, SizeError is
    raised when the entries the step would build, each live pair's table
    length summed, exceed `cap`, and `_step` mixes the tables.  One table
    means a product, many a chain.  The peak is the largest single state's
    table any step built, before it was reduced.  The last step has a
    single row; its table comes back unreduced and unsorted.

    numpy reports a step's underflow or overflow to the fold through one
    error state over the whole fold, so only a step that raised one looks
    for entries to drop (`_drop_lost`); the caller's error state is back in
    place when the fold returns or raises.
    """
    (rows, _, values, masses, height), *rest = pairs
    sizes = np.bincount(rows, minlength=height)
    peak = int(sizes.max())
    lost = []
    with np.errstate(under="call", over="call", call=lambda kind, flag: lost.append(kind)):
        for rows, cols, ratio, weight, height in rest:
            values, masses, sizes = reduce(values, masses, sizes)
            built = values.size * rows.size if sizes.size == 1 else int(sizes[cols].sum())
            if built > cap:
                raise SizeError(f"a step would build {built} entries, beyond the cap of {cap}")
            lost.clear()
            values, masses, sizes = _step(values, masses, sizes, rows, cols, ratio, weight, height)
            if lost:
                values, masses, sizes = _drop_lost(values, masses, sizes)
            peak = max(peak, values.size if sizes.size == 1 else int(sizes.max()))
    return values, masses, peak


def _tv(values, masses) -> float:
    """E[(1-R) 1(R<1)] over a flat table, in any order."""
    below = values < 1.0
    return float(np.sum((1.0 - values[below]) * masses[below]))


def tv_of_ratio(r: RatioDist) -> float:
    """Total variation distance of the pair realizing `r`: E[(1-R) 1(R<1)]."""
    return _tv(r.values, r.masses)


def np_boundary(r: RatioDist) -> NPBoundary:
    """Vertices of the achievable (accept under p, accept under q) boundary.

    Cumulative sums of (value*mass, mass) over the sorted table, preceded by
    the origin; a final horizontal segment to (1, 1) carries whatever p-mass
    lies off q's support.  An estimator's table keeps that p-mass, up to
    rounding and what a fold drops, as neither reducer folds it into
    a cell (`sparsify`).  Cumulative sums are clipped to 1 so a trailing
    float overshoot cannot exit the unit square.
    """
    xs = np.concatenate(([0.0], np.minimum(np.cumsum(r.values * r.masses), 1.0)))
    ys = np.concatenate(([0.0], np.minimum(np.cumsum(r.masses), 1.0)))
    if xs[-1] != 1.0 or ys[-1] != 1.0:
        xs = np.append(xs, 1.0)
        ys = np.append(ys, 1.0)
    return NPBoundary(np.column_stack([xs, ys]))
