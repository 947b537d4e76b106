"""Reference answers the checks compare against, written independently of
chordlab with plain numpy.

Every routine here is exact for piecewise linear data up to float
rounding: a shifted difference of a polyline is again a polyline whose
vertices lie among the original breakpoints and their translates.
"""

from __future__ import annotations

import numpy as np


def chord_exists(xs: np.ndarray, ys: np.ndarray, s: float, tol: float) -> bool:
    """Whether f(x + s) = f(x) for some x, for the polyline (xs, ys)."""
    lo, hi = xs[0], xs[-1] - s
    cand = np.concatenate([xs, xs - s, [lo, hi]])
    cand = np.unique(cand[(cand >= lo) & (cand <= hi)])
    g = np.interp(cand + s, xs, ys) - np.interp(cand, xs, ys)
    return bool(np.any(np.abs(g) <= tol) or np.any(np.sign(g[:-1]) * np.sign(g[1:]) < 0))


def set_flips(pairs) -> np.ndarray:
    """Points where membership in the set changes inside (0, sup]: the
    right ends of all but the last interval and the left ends of all but
    the first."""
    pts = [hi for _lo, hi in pairs[:-1]] + [lo for lo, _hi in pairs[1:]]
    return np.unique(np.asarray(pts, dtype=np.float64))


def in_set(pairs, x: np.ndarray) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return np.any((x[:, None] >= arr[None, :, 0]) & (x[:, None] <= arr[None, :, 1]), axis=1)


def distance_to(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Distance from each x to the nearest of the sorted points."""
    if points.size == 1:
        points = np.repeat(points, 2)
    idx = np.clip(np.searchsorted(points, x), 1, points.size - 1)
    return np.minimum(np.abs(x - points[idx - 1]), np.abs(x - points[idx]))


def hausdorff(a, b) -> float:
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        return 0.0 if a.size == b.size else float("inf")
    return float(max(distance_to(b, a).max(), distance_to(a, b).max()))


def _components(pairs, x: np.ndarray, tol: float):
    """Nearest boundary points a <= x <= b, and whether x lies in a gap."""
    bdry = np.unique(np.asarray(pairs, dtype=np.float64).ravel())
    i = np.clip(np.searchsorted(bdry, x, side="right"), 1, bdry.size - 1)
    a, b = bdry[i - 1], bdry[i]
    on = distance_to(bdry, x) <= tol
    gap = ~in_set(pairs, x)
    return a, b, on, gap


def signed_distance(pairs, x: np.ndarray) -> np.ndarray:
    """Hopf's tent function: distance to the set's boundary, negated in gaps."""
    a, b, _on, gap = _components(pairs, x, 0.0)
    d = np.minimum(x - a, b - x)
    return np.where(gap, -d, d)


def smooth_value(pairs, x: np.ndarray, tol: float) -> np.ndarray:
    """exp(-1/(alpha beta)) over the distances to the nearest boundary
    points, negated in gaps and zero on the boundary."""
    a, b, on, gap = _components(pairs, x, tol)
    ab = (x - a) * (b - x)
    with np.errstate(divide="ignore"):
        mag = np.where(ab > 0, np.exp(-1.0 / np.where(ab > 0, ab, 1.0)), 0.0)
    mag = np.where(on, 0.0, mag)
    return np.where(gap & ~on, -mag, mag)


def window_times(ts: np.ndarray, ds: np.ndarray, d: float) -> tuple[float, float]:
    """Fastest and slowest time over any window covering distance d."""
    hi = ds[-1] - d
    cand = np.concatenate([ds, ds - d, [0.0, hi]])
    cand = np.unique(cand[(cand >= 0.0) & (cand <= hi)])
    el = np.interp(cand + d, ds, ts) - np.interp(cand, ds, ts)
    return float(el.min()), float(el.max())


def elapsed(ts: np.ndarray, ds: np.ndarray, d: float, starts: np.ndarray) -> np.ndarray:
    """Time to cover distance d from each start distance."""
    return np.interp(starts + d, ds, ts) - np.interp(starts, ds, ts)


def window_exists(ts: np.ndarray, ds: np.ndarray, d: float, margin: float):
    """True or False when the average window time is clearly inside or
    outside the window-time range, None when within margin of its ends.
    The elapsed time is continuous in the start distance, so a window at
    average pace exists exactly when the average time is in that range."""
    tau = ts[-1] * d / ds[-1]
    lo, hi = window_times(ts, ds, d)
    if lo + margin < tau < hi - margin:
        return True
    if tau < lo - margin or tau > hi + margin:
        return False
    return None
