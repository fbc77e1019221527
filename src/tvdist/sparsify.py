"""Geometric interval partitions of [0, inf] and the fold's two reducers.

The partition covers [0, 1) with intervals whose width shrinks geometrically
towards 1, mirrors them multiplicatively onto (1, inf], and keeps {1} as its
own cell.  Merging (`_merge_cells`) moves all of a table's mass inside each
cell onto a single point whose value is the cell's local mean ratio, which
bounds the support of any table by the number of cells while preserving its
total variation distance exactly.  Spreading (`_spread_cells`) is its
counterpart: each cell's mass moves onto the cell's lowest and highest value
with its mean kept, which can only raise the distance, so a fold of spreads
bounds it from above.  Both reduce the fold's flat tables of all states at
once, with one keying pass per step and per-(state, cell) sums by
`np.bincount`, and no sort; a single table is the case of one state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeError, ValidityError
from .ratios import _is_real


@dataclass(frozen=True)
class IntervalPartition:
    """The interval cover of [0, inf] for given width/tail parameters.

    Boundaries satisfy a[t] = 1 - (1 + eps_s)**(-t).  The low side consists
    of [a[t], a[t+1]) for t < m plus [a[m], 1); the high side mirrors it as
    (1/a[t+1], 1/a[t]] with 1/a[0] = inf; the singleton {1} sits between.
    """

    eps_s: float
    m: int
    a: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=np.float64)
        object.__setattr__(self, "a", a)
        if self.m < 1 or a.shape != (self.m + 1,):
            raise ValidityError(f"boundary table has shape {a.shape}, expected ({self.m + 1},)")
        if a[0] != 0.0:
            raise ValidityError("boundary table must start at 0")
        # Strictly increasing in exact arithmetic; trailing entries may tie at
        # 1.0 once the geometric tail drops below float resolution, leaving
        # those intervals empty, so only monotonicity is enforced here.
        if np.any(np.diff(a) < 0):
            raise ValidityError("boundary table must be nondecreasing")

    @property
    def interval_count(self) -> int:
        return 2 * self.m + 3


#: Largest low-side interval count m that build_partition allocates.  At the
#: cap the boundary table takes 512 MiB, and a fold at it needs about 1.7 GB:
#: `_cell_sums` adds a bool and an intp map, 9 bytes per slot, over at least
#: the 2m + 3 slots of one state per step (counted from the code, not run).
#: Only the paper-width fold after two missed law passes comes near it: the
#: benchmark's estimates build no partition past m = 44, the tests' past
#: m = 1,471,928 (a chain made to miss twice), while a product estimate at
#: eps = 1e-3 and n = 10**4 would need m = 336,224,866 at the paper's width.
MAX_PARTITION_M = 2**26


def build_partition(eps_s: float, delta_s: float) -> IntervalPartition:
    """Construct the partition for relative width eps_s and tail mass delta_s.

    The low-side interval count is the smallest m with (1+eps_s)**(-m) at
    most delta_s, so the last interval [a[m], 1) is delta_s-narrow while all
    earlier ones are eps_s-narrow relative to their distance from 1.  Raises
    SizeError, before allocating, when m would exceed MAX_PARTITION_M.
    """
    if not (_is_real(eps_s) and math.isfinite(eps_s) and eps_s > 0):
        raise ParameterError(f"eps_s must be a positive finite real, got {eps_s}")
    if not (_is_real(delta_s) and 0.0 < delta_s < 1.0):
        raise ParameterError(f"delta_s must lie strictly between 0 and 1, got {delta_s}")
    cells = -math.log(delta_s) / math.log1p(eps_s)
    if not cells <= MAX_PARTITION_M:
        raise SizeError(
            f"partition for eps_s={float(eps_s)!r}, delta_s={float(delta_s)!r} "
            f"needs m={cells:.4g} low-side intervals, beyond the cap of {MAX_PARTITION_M}"
        )
    m = int(math.ceil(cells))
    a = -np.expm1(-math.log1p(eps_s) * np.arange(m + 1, dtype=np.float64))
    return IntervalPartition(float(eps_s), m, a)


def _low_index(part: IntervalPartition, values: np.ndarray) -> np.ndarray:
    """Low-side interval index for each value in [0, 1).

    Closed form floor(-log(1-v)/log(1+eps_s)), clamped to [0, m] and then
    corrected by one step against the stored boundaries, which settles the
    half-open membership [a[t], a[t+1]) exactly even when the logs round.
    """
    step = math.log1p(part.eps_s)
    t = np.floor(np.log1p(-values) / -step).astype(np.int64)
    np.clip(t, 0, part.m, out=t)
    a = part.a
    t -= (t > 0) & (values < a[t])
    t += (t < part.m) & (values >= a[np.minimum(t + 1, part.m)])
    return t


def _interval_keys(part: IntervalPartition, values: np.ndarray) -> np.ndarray:
    """Map ratio values to a single index that increases along [0, inf].

    Keys 0..m are the low side, m+1 is the singleton {1}, and m+2..2m+2 are
    the high-side intervals ordered away from 1, so key 2m+2 is the interval
    reaching infinity.  Every entry is keyed once, through the stored
    low-side table applied to min(v, 1/v).
    """
    # 1/v may be inf (v = 0 or subnormal), and v = 1 has no low index: it is keyed last
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        low = _low_index(part, np.minimum(values, np.reciprocal(values)))
    keys = np.where(values > 1.0, 2 * part.m + 2 - low, low)
    keys[values == 1.0] = part.m + 1
    return keys


def _cell_sums(part: IntervalPartition, values, masses, state, sizes):
    """Occupied slots s * (2m + 3) + key of flat tables, in order, and their sums.

    Keys every entry once (`_interval_keys`).  Per slot: q-mass, p-mass (sum
    of value * mass), lowest and highest value.  The slot map is dense, so
    states pass in blocks of at most max(entries, 2m + 3, 2**16) slots.
    """
    keys = _interval_keys(part, values)
    width = part.interval_count
    block = max(1, max(values.size, 2**16) // width)
    ends = np.cumsum(sizes)
    parts = []
    for first in range(0, sizes.size, block):
        last = min(first + block, sizes.size)
        entries = slice(ends[first] - sizes[first], ends[last - 1])
        v, p = values[entries], masses[entries]
        slot = keys[entries] + (state[entries] - first) * width
        seen = np.zeros((last - first) * width, dtype=bool)
        seen[slot] = True
        occupied = np.flatnonzero(seen)
        # only occupied slots are read back, so the map need not be cleared
        index = np.empty(seen.size, dtype=np.intp)
        index[occupied] = np.arange(occupied.size)
        cell = index[slot]
        del seen, index, slot
        lo = np.full(occupied.size, np.inf)
        hi = np.full(occupied.size, -np.inf)
        np.minimum.at(lo, cell, v)
        np.maximum.at(hi, cell, v)
        gmass, gnum = np.bincount(cell, p, occupied.size), np.bincount(cell, v * p, occupied.size)
        parts.append((occupied + first * width, gmass, gnum, lo, hi))
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


def _merge_cells(part: IntervalPartition, values, masses, state, sizes):
    """Merge every state's table within each cell into one point, all states at once.

    Each occupied (state, cell) gives its q-mass at its mean ratio, clipped
    into the hull of its values: low-side merges stay below 1, one-value
    cells bitwise.  A state's expectation deficit (p-mass at infinity)
    raises its top cell's value when that cell holds q-mass, and otherwise
    stays a deficit.  Flat output, sorted by state, then value.
    """
    slots, gmass, gnum, lo, hi = _cell_sums(part, values, masses, state, sizes)
    merged = np.clip(gnum / gmass, lo, hi)
    state, cell = np.divmod(slots, part.interval_count)
    top = np.flatnonzero(cell == part.interval_count - 1)
    deficit = 1.0 - np.bincount(state, gnum)[state[top]]
    top, deficit = top[deficit > 0], deficit[deficit > 0]
    with np.errstate(over="ignore"):
        raised = (gnum[top] + deficit) / gmass[top]
    merged[top] = np.clip(raised, lo[top], np.finfo(np.float64).max)  # else part stays a deficit
    return merged, gmass, state


def _spread_cells(part: IntervalPartition, values, masses, state, sizes):
    """Move each (state, cell)'s q-mass onto its lowest and highest value, keeping its mean.

    A mean-preserving spread, so each state's distance can only rise.  The
    points are the cell's own extreme values, so the unbounded top cell and
    cells whose boundaries tie need no special case; the deficit stays one.
    """
    slots, gmass, gnum, lo, hi = _cell_sums(part, values, masses, state, sizes)
    # The mass at hi that keeps the cell's mean: (gnum - lo * gmass) / (hi - lo),
    # clamped into [0, gmass] against rounding; one-value cells put none there.
    gap = hi - lo
    spread = gap > 0
    top = np.zeros_like(gmass)
    top[spread] = (gnum[spread] - lo[spread] * gmass[spread]) / gap[spread]
    np.clip(top, 0.0, gmass, out=top)
    values = np.column_stack((lo, hi)).ravel()
    masses = np.column_stack((gmass - top, top)).ravel()
    keep = masses > 0
    return values[keep], masses[keep], np.repeat(slots // part.interval_count, 2)[keep]
