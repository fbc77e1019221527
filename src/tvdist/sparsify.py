"""Geometric interval partitions of [0, inf] and the fold's two reducers.

The partition covers [0, 1) with cells [a_t, a_(t+1)), a_t = 1 - (1 + eps_s)**-t,
whose width shrinks geometrically towards 1, mirrors them multiplicatively
onto (1, inf], and keeps {1} as its own cell.  No boundary is stored: a
value's cell is the closed form floor(-log(1 - u) / log(1 + eps_s)) of
u = min(v, 1/v), so a value within rounding of a boundary may key one cell
lower, but keys still rise with the value and every cell is an interval on
one side of 1.  Merging (`_merge_cells`) moves all of a table's mass inside
each cell onto a single point whose value is the cell's local mean ratio,
which bounds the support of any table by the number of cells while
preserving its total variation distance exactly; it is a garbling, so a
fold of merges bounds the distance from below.  Spreading
(`_spread_cells`) is its counterpart: each cell's mass moves onto the
cell's lowest and highest value with its mean kept, which can only raise
the distance, so a fold of spreads bounds it from above; both bounds hold
for any grouping into such cells.  Neither reducer touches a table's
expectation deficit, the p-mass at infinity: the outcomes that carry it
have no q-mass, so no cell holds them.  Both reducers take the fold's flat
tables of all states at once, as (values, masses, sizes) with the tables
end to end in state order, and return the same layout, with one keying
pass per step and per-(state, cell) sums by `np.bincount`, and no sort.
The sums go straight into a dense map of (state, cell) slots, 2m + 3 per
state, offset per state by `sizes`, and the occupied slots are read off
the q-mass, since every mass of a fold's table is positive.  A one-state
table, which every product fold has, is its own slot map: its keys index
the cells directly, with no per-state offsets or splitting.  A map of
more than max(entries, 2**16) slots, which takes a fine partition such as
the paper's width, first numbers its occupied slots densely, and
`_cell_sums` sums many states in blocks of at most that many slots, so a
fine partition costs memory per entry, not per cell.  At the law widths
a step's tables hold hundreds to thousands of entries, so a step's time
is mostly the fixed cost of its numpy calls, and the reducers keep their
count low: work in place, one gather per sum, and no numpy wrappers
written in Python on the per-step path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeError
from .ratios import _is_real


@dataclass(frozen=True)
class IntervalPartition:
    """The cells of [0, inf] at relative width eps_s, with m cells below 1.

    Low cell t < m holds the u in [0, 1) with t <= -log(1 - u) / log(1 + eps_s)
    < t + 1, as the logs round; low cell m holds the rest of [0, 1).  The high
    side mirrors them through 1/v, and the singleton {1} sits between.
    """

    eps_s: float
    m: int

    @property
    def interval_count(self) -> int:
        return 2 * self.m + 3


def build_partition(eps_s: float, delta_s: float) -> IntervalPartition:
    """The partition at relative width eps_s and tail delta_s; allocates nothing.

    The low-side cell count is the smallest m with (1+eps_s)**(-m) at most
    delta_s, so low cell m, every u with 1 - u below about (1+eps_s)**(-m),
    is delta_s-narrow, while each earlier cell spans a factor 1 + eps_s in
    1 - u.  Raises SizeError only when the count overflows a float; the
    estimators bound m themselves, by `product.MAX_TABLE_ENTRIES`, before
    they fold at a partition (`product._partition`).
    """
    if not (_is_real(eps_s) and math.isfinite(eps_s) and eps_s > 0):
        raise ParameterError(f"eps_s must be a positive finite real, got {eps_s}")
    if not (_is_real(delta_s) and 0.0 < delta_s < 1.0):
        raise ParameterError(f"delta_s must lie strictly between 0 and 1, got {delta_s}")
    cells = -math.log(delta_s) / math.log1p(eps_s)
    if not math.isfinite(cells):
        raise SizeError(
            f"partition for eps_s={float(eps_s)!r}, delta_s={float(delta_s)!r} "
            "needs more low-side intervals than a float can count"
        )
    return IntervalPartition(float(eps_s), int(math.ceil(cells)))


def _interval_keys(part: IntervalPartition, values: np.ndarray) -> np.ndarray:
    """Map ratio values to a single index that increases along [0, inf].

    Keys 0..m are the low side, m+1 is the singleton {1}, and m+2..2m+2 are
    the high-side intervals ordered away from 1, so key 2m+2 is the interval
    reaching infinity.  Every entry is keyed once, by the closed form
    floor(-log1p(-u) / log1p(eps_s)) of u = min(v, 1/max(v, 1)), which is v
    below 1 and 1/v above it, with the quotient clipped to m before the
    cast, so no quotient can wrap.  No step divides by 0 or overflows, so it
    needs no error state of its own.
    """
    u = np.maximum(values, 1.0)
    np.divide(1.0, u, out=u)
    np.minimum(u, values, out=u)
    # v = 1 has no low index: it is keyed last, and below 1 its log stays finite
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.divide(u, -math.log1p(part.eps_s), out=u)
    np.minimum(u, part.m, out=u)
    keys = u.astype(np.int64)  # truncation, which is floor on u >= 0
    np.subtract(2 * part.m + 2, keys, out=keys, where=values > 1.0)
    keys[values == 1.0] = part.m + 1
    return keys


def _slot_sums(slot, v, p, size: int):
    """Occupied slots below `size`, in order, and their q-mass, p-mass, lowest and highest value.

    Sums straight into a dense map of `size` slots, 32 B a slot, and gathers
    each sum once at the occupied slots, which it reads off the q-mass: every
    mass of a fold's table is positive, so a slot's q-mass is positive exactly
    where an entry falls.  A map of more than max(entries, 2**16) slots, from
    a fine partition such as the paper's width, first numbers its occupied
    slots densely, through a bool and an intp a slot, 9 B, and sums on those
    numbers.
    """
    if size > max(slot.size, 2**16):
        seen = np.zeros(size, dtype=bool)
        seen[slot] = True
        occupied = seen.nonzero()[0]
        # only occupied slots are read back, so the map need not be cleared
        index = np.empty(size, dtype=np.intp)
        index[occupied] = np.arange(occupied.size)
        slot = index[slot]
        del seen, index
        return occupied, *_slot_sums(slot, v, p, occupied.size)[1:]
    lo, hi = np.empty(size), np.empty(size)
    lo.fill(np.inf)
    hi.fill(-np.inf)
    np.minimum.at(lo, slot, v)
    np.maximum.at(hi, slot, v)
    gmass = np.bincount(slot, p, size)
    occupied = gmass.nonzero()[0]
    gnum = np.bincount(slot, v * p, size)
    return occupied, gmass.take(occupied), gnum.take(occupied), lo.take(occupied), hi.take(occupied)


def _cell_sums(part: IntervalPartition, values, masses, sizes):
    """Occupied slots s * (2m + 3) + key of flat tables, in order, and their sums.

    Keys every entry once (`_interval_keys`).  Per slot: q-mass, p-mass (sum
    of value * mass), lowest and highest value (`_slot_sums`).  A one-state
    table's slots are its keys.  More states share one slot map, offset per
    state, summed whole when the states times 2m + 3 are at most
    max(entries, 2**16), and otherwise in blocks of states of at most that
    many slots, or of one state where its 2m + 3 alone exceed it.
    """
    keys = _interval_keys(part, values)
    width = part.interval_count
    if sizes.size == 1:
        return _slot_sums(keys, values, masses, width)
    keys += np.arange(0, sizes.size * width, width).repeat(sizes)  # each entry's slot
    block = max(1, max(values.size, 2**16) // width)
    if block >= sizes.size:
        return _slot_sums(keys, values, masses, sizes.size * width)
    ends = sizes.cumsum()
    parts = []
    for first in range(0, sizes.size, block):
        last = min(first + block, sizes.size)
        entries = slice(ends[first] - sizes[first], ends[last - 1])
        slot = keys[entries] - first * width
        occupied, *sums = _slot_sums(slot, values[entries], masses[entries], (last - first) * width)
        parts.append((occupied + first * width, *sums))
    return tuple(map(np.concatenate, zip(*parts)))


def _merge_cells(part: IntervalPartition, values, masses, sizes):
    """Merge every state's table within each cell into one point, all states at once.

    Each occupied (state, cell) gives its q-mass at its mean ratio, clipped
    into the hull of its values: low-side merges stay below 1, one-value
    cells bitwise.  A state's expectation deficit, the p-mass at infinity
    of outcomes q gives no mass, stays a deficit, as in `_spread_cells`.
    Flat output, sorted by state, then value.

    The merge estimate stays at or below TV at any width.  Grouping the
    outcomes of one (state, cell) into one outcome, whose ratio is then the
    cell's mean, is a garbling, and so is leaving the q-null outcomes
    ungrouped.  A garbling commutes with the next product or Markov step,
    which garbles each coordinate's or state's outcomes the same way, so the
    fold's table is the ratio of a garbled pair and its distance at most TV.
    """
    slots, gmass, gnum, lo, hi = _cell_sums(part, values, masses, sizes)
    merged = gnum / gmass
    np.maximum(merged, lo, out=merged)
    np.minimum(merged, hi, out=merged)
    if sizes.size == 1:
        return merged, gmass, np.array([slots.size])
    return merged, gmass, np.bincount(slots // part.interval_count, minlength=sizes.size)


def _spread_cells(part: IntervalPartition, values, masses, sizes):
    """Move each (state, cell)'s q-mass onto its lowest and highest value, keeping its mean.

    A mean-preserving spread, so each state's distance can only rise.  The
    points are the cell's own extreme values, so no cell needs its
    boundaries, not even the unbounded top one; the deficit stays one.
    """
    slots, gmass, gnum, lo, hi = _cell_sums(part, values, masses, sizes)
    # The mass at hi that keeps the cell's mean: (gnum - lo * gmass) / (hi - lo),
    # clamped into [0, gmass] against rounding; one-value cells put none there.
    gap = hi - lo
    top = np.zeros(gap.size)
    np.divide(gnum - lo * gmass, gap, out=top, where=gap > 0)
    np.maximum(top, 0.0, out=top)
    np.minimum(top, gmass, out=top)
    values = np.empty(2 * top.size)
    values[0::2], values[1::2] = lo, hi
    masses = np.empty(2 * top.size)
    np.subtract(gmass, top, out=masses[0::2])
    masses[1::2] = top
    keep = masses > 0
    values, masses = values[keep], masses[keep]
    if sizes.size == 1:
        return values, masses, np.array([values.size])
    state = (slots // part.interval_count).repeat(2)[keep]
    return values, masses, np.bincount(state, minlength=sizes.size)
