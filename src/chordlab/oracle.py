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

from dataclasses import dataclass

import numpy as np

from .intervals import ClosedIntervalSet, is_additive, tolerance
from .piecewise import PiecewiseLinearFunction


@dataclass(frozen=True)
class ChordQueryResult:
    """Answer to a chord query; ``vertices`` counts the distinct vertices
    of the shifted difference built before the answer was known."""

    exists: bool
    s: float
    witness_x: float | None = None
    vertices: int = 0

    @property
    def witness_pair(self) -> tuple[float, float] | None:
        if self.witness_x is None:
            return None
        return (self.witness_x, self.witness_x + self.s)


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
    s = float(s)
    slack = tolerance(f.width)
    if s < -slack or s > f.width + slack:
        raise ValueError(
            f"chord length {s:g} must lie in [0, {f.width:g}] for this function"
        )
    s = min(max(s, 0.0), f.width)
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
            return ChordQueryResult(True, s, x0 - y0 * (x1 - x0) / (y1 - y0), vertices)
    return ChordQueryResult(False, s, None, vertices)


_BLOCK_CELLS = 1 << 16  # cells per row block; bounds peak memory


def _union(lo: np.ndarray, hi: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Union of the intervals [lo, hi], closing gaps up to eps wide.  With
    starts and ends sorted separately, the k-th start opens a component
    exactly when it lies past the (k-1)-th end."""
    lo, hi = np.sort(lo), np.sort(hi)
    new = np.flatnonzero(lo[1:] > hi[:-1] + eps) + 1
    return lo[np.r_[0, new]], hi[np.r_[new - 1, lo.size - 1]]


def chord_set(f: PiecewiseLinearFunction) -> ClosedIntervalSet:
    """The horizontal chord set {y - x : x <= y, f(x) = f(y)} of f, exactly.

    On a cell [x_i, x_i+1] x [x_j, x_j+1], i <= j, the pairs with f(x) =
    f(y) run over the common value v of the two pieces, and s = y - x is
    linear in v, with extremes at the ends of the overlap of their value
    ranges (a flat piece sweeps its whole x-range).  Gaps of a few ulps
    in the union are rounding and are closed, since they break additivity."""
    xs, ys = f.xs, f.ys
    n = xs.size - 1
    vmin, vmax = np.minimum(ys[:-1], ys[1:]), np.maximum(ys[:-1], ys[1:])
    flat = ys[:-1] == ys[1:]
    dy = np.where(flat, 1.0, np.diff(ys))
    eps = 4 * np.spacing(max(abs(f.x_min), abs(f.x_max)))

    def ends(k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Leftmost and rightmost x on piece k where f = v.  Exact at t = 0
        # and t = 1, which keeps 0 and the width members of the set.
        t = (v - ys[k]) / dy[k]
        x = (1.0 - t) * xs[k] + t * xs[k + 1]
        return x, np.where(flat[k], xs[k + 1], x)

    parts = [(np.zeros(1), np.zeros(1))]
    rows = max(1, _BLOCK_CELLS // max(n, 1))
    for r0 in range(0, n, rows):
        i, j = np.ogrid[r0 : min(r0 + rows, n), r0:n]
        cells = (vmin[i] <= vmax[j]) & (vmin[j] <= vmax[i]) & (j >= i)
        ii, jj = np.add(np.divmod(np.flatnonzero(cells), n - r0), r0)
        v = np.stack([np.maximum(vmin[ii], vmin[jj]), np.minimum(vmax[ii], vmax[jj])])
        (xl, xr), (yl, yr) = ends(ii, v), ends(jj, v)
        lo = np.clip(np.minimum(*(yl - xr)), 0.0, f.width)
        parts.append(_union(lo, np.clip(np.maximum(*(yr - xl)), 0.0, f.width), eps))
    lo, hi = _union(*map(np.concatenate, zip(*parts)), eps)
    return ClosedIntervalSet(tuple(zip(lo.tolist(), hi.tolist())))


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


def _grid(f: PiecewiseLinearFunction, resolution: float) -> np.ndarray:
    """Uniform grid of lengths over [0, width], validating resolution."""
    w = f.width
    if w <= 0:
        raise ValueError("cannot scan a single-point function")
    resolution = float(resolution)
    if not (0 < resolution <= w):
        raise ValueError(f"resolution must lie in (0, {w:g}], got {resolution:g}")
    steps = w / resolution
    if not steps < _MAX_POINTS:
        raise ValueError(f"resolution {resolution:g} gives too many grid lengths over width {w:g}")
    grid = np.arange(int(np.floor(steps + tolerance(steps))) + 1) * resolution
    return np.append(grid[grid < w - tolerance(w)], w)


def chord_set_scan(f: PiecewiseLinearFunction, resolution: float) -> ChordScan:
    """Grid view of :func:`chord_set`: membership of each length on a
    uniform grid over [0, width], and a degenerate bracket (b, b) at each
    exact point b where membership flips."""
    return _scan_with_set(f, resolution)[0]


def _scan_with_set(
    f: PiecewiseLinearFunction, resolution: float
) -> tuple[ChordScan, ClosedIntervalSet]:
    """:func:`chord_set_scan` together with the chord set it is read from,
    for callers that need both without computing the set twice."""
    grid = _grid(f, resolution)
    exact = chord_set(f)
    los, his = np.array(exact.to_pairs()).T
    member = grid <= his[np.searchsorted(los, grid, side="right") - 1]
    flips = np.union1d(his[his < f.width], los[1:])
    scan = ChordScan(grid, member, tuple((b, b) for b in flips.tolist()), float(resolution))
    return scan, exact


@dataclass(frozen=True)
class AdditivityCheck:
    holds: bool
    violations: tuple[tuple[float, float, float], ...]


def verify_complement_additivity(f: PiecewiseLinearFunction, resolution: float) -> AdditivityCheck:
    """Decide exactly whether f's absent chord lengths are closed under
    addition, as :func:`is_additive` of :func:`chord_set`; ``resolution``
    is only validated.  A violation is an (a, b, a + b) triple."""
    _grid(f, resolution)
    res = is_additive(chord_set(f))
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

    Applies to functions vanishing at both endpoints."""
    n = sign_changes(f)
    return f.width / float((n + 3) // 2)
