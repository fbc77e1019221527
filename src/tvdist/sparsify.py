"""Geometric interval partitions of [0, inf] and ratio sparsification.

The partition covers [0, 1) with intervals whose width shrinks geometrically
towards 1, mirrors them multiplicatively onto (1, inf], and keeps {1} as its
own cell.  Sparsification merges all table mass inside each cell into a
single point whose value is the cell's local mean ratio, which bounds the
support of any table by the number of cells while preserving its total
variation distance exactly.  Spreading is its counterpart: each cell's mass
moves onto the cell's lowest and highest value with its mean kept, which
can only raise the distance, so a fold of spreads bounds it from above.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeError, ValidityError
from .ratios import RatioDist, expectation


@dataclass(frozen=True)
class IntervalPartition:
    """The interval cover of [0, inf] for given width/tail parameters.

    Boundaries satisfy a[t] = 1 - (1 + eps_s)**(-t).  The low side consists
    of [a[t], a[t+1]) for t < m plus [a[m], 1); the high side mirrors it as
    (1/a[t+1], 1/a[t]] with 1/a[0] = inf; the singleton {1} sits between.
    """

    eps_s: float
    delta_s: float
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


#: Largest low-side interval count m that build_partition allocates; the
#: boundary table alone then takes 512 MiB.  The largest partition the tests
#: and the benchmark build has m = 903,203, while a product estimate at
#: eps = 1e-3 and n = 10**4 would need m = 336,224,866.
MAX_PARTITION_M = 2**26


def _is_real(x) -> bool:
    """Whether x is a real scalar, numpy's included; a bool does not pass for 0 or 1."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _low_cell_count(eps_s: float, delta_s: float) -> float:
    """-log(delta_s) / log(1 + eps_s): the partition's m, before rounding up.

    Checks the parameters as build_partition does, without allocating.
    """
    if not (_is_real(eps_s) and math.isfinite(eps_s) and eps_s > 0):
        raise ParameterError(f"eps_s must be a positive finite real, got {eps_s}")
    if not (_is_real(delta_s) and 0.0 < delta_s < 1.0):
        raise ParameterError(f"delta_s must lie strictly between 0 and 1, got {delta_s}")
    return -math.log(delta_s) / math.log1p(eps_s)


def build_partition(eps_s: float, delta_s: float) -> IntervalPartition:
    """Construct the partition for relative width eps_s and tail mass delta_s.

    The low-side interval count is the smallest m with (1+eps_s)**(-m) at
    most delta_s, so the last interval [a[m], 1) is delta_s-narrow while all
    earlier ones are eps_s-narrow relative to their distance from 1.  Raises
    SizeError, before allocating, when m would exceed MAX_PARTITION_M.
    """
    cells = _low_cell_count(eps_s, delta_s)
    if not cells <= MAX_PARTITION_M:
        raise SizeError(
            f"partition for eps_s={float(eps_s)!r}, delta_s={float(delta_s)!r} "
            f"needs m={cells:.4g} low-side intervals, beyond the cap of {MAX_PARTITION_M}"
        )
    m = int(math.ceil(cells))
    a = -np.expm1(-math.log1p(eps_s) * np.arange(m + 1, dtype=np.float64))
    return IntervalPartition(float(eps_s), float(delta_s), m, a)


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
    reaching infinity.  High-side membership is decided through the stored
    low-side table applied to the reciprocal.
    """
    keys = np.empty(values.size, dtype=np.int64)
    low = values < 1.0
    high = values > 1.0
    keys[low] = _low_index(part, values[low])
    keys[~low & ~high] = part.m + 1
    keys[high] = 2 * part.m + 2 - _low_index(part, np.reciprocal(values[high]))
    return keys


def _cells(part: IntervalPartition, v: np.ndarray, p: np.ndarray):
    """The nonempty cells of a sorted table: keys, cell starts and ends, q-mass, p-mass.

    Entry i lies in the cell of keys[i]; cell j holds the entries
    starts[j]:ends[j], whose masses sum to gmass[j] and whose value-weighted
    masses sum to gnum[j].
    """
    keys = _interval_keys(part, v)
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    ends = np.append(starts[1:], v.size)
    return keys, starts, ends, np.add.reduceat(p, starts), np.add.reduceat(v * p, starts)


def sparsify_wrt_intervals(ratio: RatioDist, part: IntervalPartition) -> RatioDist:
    """Merge all table mass within each partition cell into one point.

    Each nonempty cell contributes one entry whose mass is the cell's total
    q-mass and whose value is the mass-weighted mean ratio there, i.e. the
    cell's p-mass divided by its q-mass.  The p-mass sitting at infinity
    (the expectation deficit 1 - E[R]) belongs to the top high-side cell:
    when that cell holds q-mass the deficit raises its merged value, and
    otherwise it stays off the support and surfaces again as a deficit.

    Merged values are clamped into their cell's hull of input values, which
    keeps the output strictly sorted and keeps low-side merges strictly
    below 1, so the output's total variation distance equals the input's.
    Cells holding a single point pass it through unchanged.
    """
    v, p = ratio.values, ratio.masses
    keys, starts, ends, gmass, gnum = _cells(part, v, p)
    lo = v[starts]
    hi = v[ends - 1]
    merged = np.clip(gnum / gmass, lo, hi)
    single = ends - starts == 1
    merged[single] = lo[single]
    inf_mass = max(0.0, 1.0 - expectation(ratio))
    if inf_mass > 0.0 and keys[-1] == 2 * part.m + 2:
        merged[-1] = max((gnum[-1] + inf_mass) / gmass[-1], lo[-1])
    return RatioDist(merged, gmass)


def spread_wrt_intervals(ratio: RatioDist, part: IntervalPartition) -> RatioDist:
    """Spread each cell's q-mass onto its lowest and highest value, keeping its mean.

    The counterpart of `sparsify_wrt_intervals`: a mean-preserving spread
    instead of a merge, so the output's total variation distance is at least
    the input's, and a fold that spreads before every step yields an upper
    bound on the distance.  The two points are the cell's own extreme table
    values, not its boundaries, so the unbounded top cell and cells whose
    boundaries tie in float arithmetic need no special case.  Cells holding
    a single point pass it through unchanged, and the expectation deficit
    stays a deficit.  The output has at most two entries per nonempty cell.
    """
    v, p = ratio.values, ratio.masses
    _, starts, ends, gmass, gnum = _cells(part, v, p)
    lo = v[starts]
    hi = v[ends - 1]
    # The mass at hi that keeps the cell's mean: (gnum - lo * gmass) / (hi - lo),
    # clamped into [0, gmass] against rounding; single-point cells put none there.
    width = hi - lo
    spread = width > 0
    top = np.zeros_like(gmass)
    top[spread] = (gnum[spread] - lo[spread] * gmass[spread]) / width[spread]
    np.clip(top, 0.0, gmass, out=top)
    values = np.column_stack((lo, hi)).ravel()
    masses = np.column_stack((gmass - top, top)).ravel()
    keep = masses > 0
    return RatioDist(values[keep], masses[keep])


def sparsify(ratio: RatioDist, eps_s: float, delta_s: float) -> RatioDist:
    """Sparsify `ratio` against the geometric partition for (eps_s, delta_s).

    The output support never exceeds 2m + 3 cells for
    m = ceil(-log(delta_s) / log(1 + eps_s)).
    """
    return sparsify_wrt_intervals(ratio, build_partition(eps_s, delta_s))
