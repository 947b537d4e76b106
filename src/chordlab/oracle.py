"""Exact chord queries and chord sets for piecewise linear functions.

For piecewise linear f the shifted difference g(x) = f(x + s) - f(x) is
again piecewise linear, so "does f have a horizontal chord of length s"
reduces to checking g's vertex values and sign changes.  No sampling is
involved, and a zero is a vertex value of exactly 0.0, so answers are exact.

The whole chord set is a finite union of intervals computed exactly,
cell by cell; a grid scan and an additivity check are views of it.  The
module also gives the sign-change lower bound on guaranteed chord lengths.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .intervals import ClosedIntervalSet, Interval, _number, is_additive, tolerance
from .piecewise import PiecewiseLinearFunction


@dataclass(frozen=True)
class ChordQueryResult:
    """Answer to a chord query; ``vertices`` counts the distinct vertices
    of the shifted difference built before the answer was known."""

    exists: bool
    s: float
    witness_x: float | None = None
    vertices: int = 0


def has_horizontal_chord(f: PiecewiseLinearFunction, s: float) -> ChordQueryResult:
    """Decide whether f(x + s) = f(x) for some x, exactly.

    Returns the leftmost witness x.  A vertex of the shifted difference
    counts as a zero when its value is exactly 0.0; between vertices a
    sign change pins an exact interpolated root.

    The shifted difference is built left to right in blocks that double
    in size, and the scan stops at the first block holding a zero or a
    sign change.  So the cost grows with the witness's position, and the
    worst case, no chord at all, is one pass over the whole difference.
    """
    f._check_spans()
    s = f._clamp_shift(s)
    vertices = 0
    xs = ys = np.empty(0)
    for bx, by in f._shift_difference_blocks(s):
        vertices += bx.size
        # keep the previous block's last vertex: a sign change may span the cut
        xs, ys = np.concatenate((xs[-1:], bx)), np.concatenate((ys[-1:], by))
        zero_idx = np.flatnonzero(ys == 0.0)
        # sign bits, not products: a product of tiny values underflows to -0.0
        neg = np.signbit(ys)
        cross_idx = np.flatnonzero((neg[:-1] != neg[1:]) & (ys[:-1] != 0) & (ys[1:] != 0))
        if zero_idx.size and (not cross_idx.size or zero_idx[0] <= cross_idx[0]):
            return ChordQueryResult(True, s, float(xs[zero_idx[0]]), vertices)
        if cross_idx.size:
            i = cross_idx[0]
            x0, x1 = float(xs[i]), float(xs[i + 1])
            y0, y1 = float(ys[i]), float(ys[i + 1])
            dy, step = y1 - y0, y0 * (x1 - x0)
            if math.isfinite(dy) and math.isfinite(step):
                x = x0 - step / dy
            else:
                # y0 and y1 have opposite signs, so quartered they differ by
                # less than the largest float; quartering is exact
                x = x0 + (x1 - x0) * (0.25 * y0 / (0.25 * y0 - 0.25 * y1))
            return ChordQueryResult(True, s, x, vertices)
    return ChordQueryResult(False, s, None, vertices)


_BLOCK_CELLS = 1 << 10  # cells per block; bounds peak memory


def _union(lo: np.ndarray, hi: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Union of the intervals [lo, hi], closing gaps up to eps wide, as
    sorted starts and ends; sorts lo and hi in place.  With starts and ends
    sorted separately, the k-th start opens a component exactly when it
    lies past the (k-1)-th end, so one mask picks both the later starts and
    the ends before them.  The result is the same for any grouping of the
    intervals into calls whose results are united again."""
    lo.sort()
    hi.sort()
    cut = lo[1:] > hi[:-1] + eps
    return np.concatenate((lo[:1], lo[1:][cut])), np.concatenate((hi[:-1][cut], hi[-1:]))


def _cell_blocks(vmin: np.ndarray, vmax: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The cells to work: the pairs of pieces i < j whose value ranges
    [vmin, vmax] overlap (touching counts), less those whose chord
    lengths are known, as index arrays (ii, jj) in blocks of at most
    ``_BLOCK_CELLS``.

    In the stable order of vmin, piece a overlaps exactly the run of
    pieces from a up to the last whose vmin is at most vmax of a, found
    with one ``searchsorted``.  Two kinds of cell are left out, as their
    chord lengths are known without working them:
    - a piece with itself, which gives {0}, or [0, x1 - x0] on a flat
      piece;
    - the last piece of a run, when it is a neighbour of a and its vmin
      is vmax of a: the two meet only at their shared breakpoint, where
      t is exactly 1 on one piece and 0 on the other, which gives {0} or
      a flat piece's own lengths.  A neighbour that ties with other
      pieces at that value and is not last is kept.
    The runs laid end to end are cut into blocks, and each cell is
    oriented as (min, max) of its pieces' indices.  Work: O(n log n +
    cells) for n pieces; memory: O(n) plus one block."""
    n = vmin.size
    order = vmin.argsort(kind="stable")
    svmin, svmax = vmin[order], vmax[order]
    # the run of sorted position a, less its own cell, is positions a + 1
    # .. last[a]: searching svmin[1:] gives the last position whose vmin
    # is at most vmax of a, not the one after it
    last = svmin[1:].searchsorted(svmax, side="right")
    last -= (svmin[last] == svmax) & (np.abs(order[last] - order) == 1)
    # laid end to end, the runs give cells stop[a] - (last[a] - a) + 1 ..
    # stop[a], counted from 1
    stop = last - np.arange(n)
    stop.cumsum(out=stop)
    total = int(stop[-1]) if n else 0
    # cell k of the run of a pairs a with position k + last[a] - stop[a]
    last -= stop
    for k0 in range(1, total + 1, _BLOCK_CELLS):
        k = np.arange(k0, min(k0 + _BLOCK_CELLS, total + 1))
        a = stop.searchsorted(k)
        k += last[a]
        i, j = order[a], order[k]
        yield np.minimum(i, j), np.maximum(i, j)


def _chord_bounds(f: PiecewiseLinearFunction) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the intervals of :func:`chord_set`, as arrays,
    united block by block over :func:`_cell_blocks`.

    Each maximal run of consecutive flat pieces, all at one level, is
    worked as one piece spanning the run.  With any partner piece, the
    run's cells give intervals that meet end to end, and the merged cell
    gives their union with the same floats at its ends, so the set is
    unchanged bit for bit; a constant function is one piece.  The cells
    that :func:`_cell_blocks` leaves out give 0 and the flat pieces'
    own lengths [0, x1 - x0], which enter as one interval: 0 up to the
    widest flat piece."""
    f._check_spans()
    xs, ys = f.xs, f.ys
    flat = ys[:-1] == ys[1:]
    any_flat = flat.any()
    if any_flat:
        inner = flat[:-1] & flat[1:]  # breakpoints inside a flat run
        if inner.any():
            keep = np.concatenate(([True], ~inner, [True]))
            xs, ys, flat = xs[keep], ys[keep], flat[keep[:-1]]
    x0, x1, y0 = xs[:-1], xs[1:], ys[:-1]
    vmin, vmax = np.minimum(y0, ys[1:]), np.maximum(y0, ys[1:])
    dy = ys[1:] - y0
    if any_flat:
        dy[flat] = 1.0
    eps = 4 * np.spacing(max(abs(f.x_min), abs(f.x_max)))
    width = f.width

    def ends(k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Leftmost and rightmost x on piece k where f = v.  Exact at t = 0
        # and t = 1, which keeps 0 and the width members of the set.
        t = v - y0[k]
        t /= dy[k]
        right = x1[k]
        x = 1.0 - t
        x *= x0[k]
        x += t * right
        return x, np.where(flat[k], right, x) if any_flat else x

    def clamp(s: np.ndarray) -> np.ndarray:
        # np.clip(s, 0.0, width) in place, bit for bit: the lower bound
        # first, as clip applies it
        np.maximum(0.0, s, out=s)
        return np.minimum(s, width, out=s)

    parts = []
    for ii, jj in _cell_blocks(vmin, vmax):
        v = np.empty((2, ii.size))
        np.maximum(vmin[ii], vmin[jj], out=v[0])
        np.minimum(vmax[ii], vmax[jj], out=v[1])
        (xl, xr), (yl, yr) = ends(ii, v), ends(jj, v)
        yl -= xr
        if any_flat:  # else yr is yl and xl is xr
            yr -= xl
        lo = clamp(np.minimum(yl[0], yl[1]))
        hi = clamp(np.maximum(yr[0], yr[1]))
        parts.append(_union(lo, hi, eps))
    # The union of a single block that holds 0, with no flat piece, is
    # the whole set.  Else the left-out cells enter as one interval, 0 up
    # to the widest flat piece, which lies within the width; with no cell
    # to work, as on a strictly monotone function, it is the set.
    if len(parts) == 1 and not any_flat and parts[0][0][0] == 0.0:
        return parts[0]
    own = np.zeros(1), (x1[flat] - x0[flat]).max(keepdims=True) if any_flat else np.zeros(1)
    if not parts:
        return own
    parts.append(own)
    return _union(*map(np.concatenate, zip(*parts)), eps)


def chord_set(f: PiecewiseLinearFunction) -> ClosedIntervalSet:
    """The horizontal chord set {y - x : x <= y, f(x) = f(y)} of f, exactly.

    On a cell [x_i, x_i+1] x [x_j, x_j+1], i <= j, the pairs with f(x) =
    f(y) run over the common value v of the two pieces, and s = y - x is
    linear in v, with extremes at the ends of the overlap of their value
    ranges (a flat piece sweeps its whole x-range).  Gaps of a few ulps
    in the union are rounding and are closed, since they break additivity.

    Cost: O(n log n + cells) for n pieces, where the cells are the pairs
    whose value ranges overlap and a run of flat pieces at one level
    counts as one piece.  A piece's own cell, and two neighbours whose
    ranges meet in one value, give only 0 and a flat piece's own
    lengths, so they are not worked.  Sorting the pieces by their lowest
    value finds each piece's partners as one run of that order, and the
    cells are worked in blocks of at most 2^10, which bounds memory.  On
    top of that each call pays a small fixed part: a few dozen numpy
    calls, and the set's construction from the join's bounds through the
    checked constructor, as for any caller's set."""
    lo, hi = _chord_bounds(f)
    return ClosedIntervalSet(tuple(map(Interval, lo.tolist(), hi.tolist())))


@dataclass(frozen=True)
class ChordScan:
    """Membership of each scanned length in the chord set, plus refined
    brackets around every membership flip."""

    lengths: np.ndarray
    membership: np.ndarray
    refined_boundaries: tuple[tuple[float, float], ...]
    resolution: float


# Most float64 values one numpy array can hold: its size in bytes must fit an intp.
_MAX_POINTS = np.iinfo(np.intp).max // 8


def _grid_steps(f: PiecewiseLinearFunction, resolution) -> tuple[float, float]:
    """Steps of a uniform grid of lengths over [0, width] at ``resolution``,
    and the resolution, validated without allocating the grid."""
    w = f.width
    if w <= 0:
        raise ValueError("cannot scan a single-point function")
    resolution = _number("resolution", resolution)
    if not (0 < resolution <= w):
        raise ValueError(f"resolution must lie in (0, {w:g}], got {resolution:g}")
    steps = w / resolution
    if not steps < _MAX_POINTS:
        raise ValueError(f"resolution {resolution:g} gives too many grid lengths over width {w:g}")
    return steps, resolution


def chord_set_scan(f: PiecewiseLinearFunction, resolution: float) -> ChordScan:
    """Grid view of :func:`chord_set`: membership of each length on a
    uniform grid over [0, width], and a degenerate bracket (b, b) at each
    exact point b where membership flips."""
    return _scan_bounds(f, resolution)[0]


def _scan_bounds(
    f: PiecewiseLinearFunction, resolution: float
) -> tuple[ChordScan, np.ndarray, np.ndarray]:
    """:func:`chord_set_scan` together with the starts and ends of the
    chord set it is read from, for callers that also need the set."""
    los, his = _chord_bounds(f)  # checks f's spans first
    (steps, resolution), w = _grid_steps(f, resolution), f.width
    grid = np.arange(math.floor(steps + tolerance(steps)) + 1) * resolution
    grid = np.concatenate((grid[grid < w - tolerance(w)], (w,)))
    member = grid <= his[los.searchsorted(grid, side="right") - 1]
    # The intervals are sorted and never touch, so membership flips at
    # hi_0 < lo_1 <= hi_1 < lo_2 ... and at the last hi when it is short
    # of the width; a degenerate interval's lo = hi flips it once.
    flips = np.empty(2 * his.size - 1)
    flips[0::2], flips[1::2] = his, los[1:]
    keep = np.ones(flips.size, dtype=bool)
    keep[2::2] = his[1:] != los[1:]
    keep[-1] &= flips[-1] < w
    bounds = tuple((b, b) for b in flips[keep].tolist())
    return ChordScan(grid, member, bounds, resolution), los, his


@dataclass(frozen=True)
class AdditivityCheck:
    holds: bool
    violations: tuple[tuple[float, float, float], ...]


def verify_complement_additivity(f: PiecewiseLinearFunction, resolution: float) -> AdditivityCheck:
    """Decide exactly whether f's absent chord lengths are closed under
    addition, as :func:`is_additive` of :func:`chord_set`; ``resolution``
    is only validated.  A violation is an (a, b, a + b) triple."""
    s = chord_set(f)  # checks f's spans first
    _grid_steps(f, resolution)
    res = is_additive(s)
    if res.additive:
        return AdditivityCheck(True, ())
    a, b = res.counterexample
    return AdditivityCheck(False, ((a, b, a + b),))


def sign_changes(f: PiecewiseLinearFunction) -> int:
    """Count sign alternations among f's nonzero interior vertex values.

    Requires f to vanish at both endpoints (within the tolerance of its
    largest value); exact zeros are dropped, and the count is the number
    of consecutive opposite-sign pairs in what remains."""
    ys = f.ys
    if max(abs(ys[0]), abs(ys[-1])) > tolerance(np.max(np.abs(ys))):
        raise ValueError(
            "sign change count requires zero endpoint values; got "
            f"f(x_min) = {float(ys[0]):g}, f(x_max) = {float(ys[-1]):g}"
        )
    inner = ys[1:-1]
    neg = np.signbit(inner[inner != 0.0])
    return int(np.count_nonzero(neg[:-1] != neg[1:]))


def levit_bound(f: PiecewiseLinearFunction) -> float:
    """Largest L such that chords of every length in (0, L] are
    guaranteed, from the sign-change count n: L = width / floor((n+3)/2).

    Applies to functions vanishing at both endpoints.  A theorem, not
    the answer: ``chord_set(f).gap_infimum`` is the exact largest such
    L, and this bound never exceeds it (it may equal it)."""
    n = sign_changes(f)
    return f.width / float((n + 3) // 2)
