"""Average-pace window analysis for race position profiles.

A race profile is a strictly increasing piecewise linear position
function on [0, T] covering distance L.  The central question: is there
a sub-interval covering exactly distance d in exactly the average time
T * d / L?  A change of variables turns this into a horizontal chord
question, so the answers inherit the chord-set dichotomy: for L/d a
whole number the window always exists, and the exact chord query on
the profile's chord problem finds one by interpolating between vertices;
otherwise adversarial profiles without any such window can be
constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .builders import SmoothFunction, SmoothShapeSpec, build_levy
from .intervals import _number, _number_pairs, tolerance, whole_ratio
from .oracle import ChordQueryResult, has_horizontal_chord
from .piecewise import PiecewiseLinearFunction


def _totals(total_distance, total_time) -> tuple[float, float]:
    """The totals as positive finite floats."""
    L = _number("total_distance", total_distance)
    T = _number("total_time", total_time)
    if not (math.isfinite(L) and L > 0):
        raise ValueError(f"total distance must be positive and finite, got {L:g}")
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"total time must be positive and finite, got {T:g}")
    return L, T


@dataclass(frozen=True)
class RaceProfile:
    """Cumulative position (time -> distance) for a race.

    position must start at (0, 0), end at (total_time, total_distance),
    and move strictly forward on every segment.
    """

    total_distance: float
    total_time: float
    position: PiecewiseLinearFunction

    def __post_init__(self) -> None:
        L, T = _totals(self.total_distance, self.total_time)
        object.__setattr__(self, "total_distance", L)
        object.__setattr__(self, "total_time", T)
        pos = self.position
        if pos.xs.size < 2:
            raise ValueError("position must have at least one segment")
        t_tol = tolerance(T)
        d_tol = tolerance(L)
        if abs(pos.x_min) > t_tol or abs(pos.x_max - T) > t_tol:
            raise ValueError(
                f"position must span [0, {T:g}], got [{pos.x_min:g}, {pos.x_max:g}]"
            )
        if abs(float(pos.ys[0])) > d_tol or abs(float(pos.ys[-1]) - L) > d_tol:
            raise ValueError(
                f"position must climb from 0 to {L:g}, got "
                f"{float(pos.ys[0]):g} to {float(pos.ys[-1]):g}"
            )
        pos._check_spans()
        gains = np.diff(pos.ys)
        bad = np.nonzero(gains <= 0)[0]
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                "every segment must make strictly forward progress; segment "
                f"{i} (t = {pos.xs[i]:g} to {pos.xs[i + 1]:g}) gains {gains[i]:g}"
            )

    @classmethod
    def constant(cls, total_distance: float, total_time: float) -> "RaceProfile":
        """Perfectly even pacing: one split, (L, T)."""
        L, T = _totals(total_distance, total_time)
        return cls.from_splits(L, T, [(L, T)])

    @classmethod
    def from_splits(
        cls, total_distance: float, total_time: float, splits
    ) -> "RaceProfile":
        """Build a profile from cumulative (distance, time) checkpoints.

        The final checkpoint must equal (total_distance, total_time); a
        leading (0, 0) checkpoint may be included or omitted.  A boolean,
        string or bytes where a number belongs is refused; integers are
        numbers.
        """
        L, T = _totals(total_distance, total_time)
        pts = _number_pairs(
            splits, "splits", "each split must be a (distance, time) pair of numbers, got {row!r}"
        )
        # the first and last splits are compared as Python floats, which
        # is cheaper than numpy scalar arithmetic
        d_tol, t_tol = tolerance(L), tolerance(T)
        if len(pts):
            d, t = pts[0].tolist()
            if abs(d) <= d_tol and abs(t) <= t_tol:
                pts = pts[1:]
        if not len(pts):
            raise ValueError("need at least one split beyond the start")
        d, t = pts[-1].tolist()
        if abs(d - L) > d_tol or abs(t - T) > t_tol:
            raise ValueError(
                f"final split ({d:g}, {t:g}) must reach the full distance {L:g} and time {T:g}"
            )
        # times and distances, from the start (0, 0)
        ts_ds = np.zeros((2, len(pts) + 1))
        ts_ds[:, 1:] = pts.T[::-1]
        ts_ds[:, -1] = T, L
        try:
            pos = PiecewiseLinearFunction._from_owned(*ts_ds)
        except ValueError as exc:
            raise ValueError(f"invalid splits: {exc}") from exc
        return cls(L, T, pos)

    @property
    def average_pace(self) -> float:
        """Seconds per unit distance over the whole race."""
        return self.total_time / self.total_distance

    @property
    def inverse(self) -> PiecewiseLinearFunction:
        """Time as a function of distance (well defined because the
        profile moves strictly forward).  It shares the position's arrays,
        which nothing writes."""
        pos = self.position
        return PiecewiseLinearFunction._from_owned(pos._ys, pos._xs)

    def splits(self) -> list[tuple[float, float]]:
        """Cumulative (distance, time) checkpoints, start omitted."""
        return list(zip(self.position.ys[1:].tolist(), self.position.xs[1:].tolist()))


@dataclass(frozen=True)
class WindowExtrema:
    min_time: float
    max_time: float


def _check_window_distance(L: float, d) -> float:
    """d as a float, at most the total distance L."""
    d = _number("d", d)
    if not (d > 0 and math.isfinite(L / d)):
        raise ValueError(f"window distance must be positive, with L/d finite; got {d!r}")
    if d > L + tolerance(L):
        raise ValueError(f"window distance {d:g} exceeds the total distance {L:g}")
    return min(d, L)


def _check_time_scale(lam: float, T: float) -> float:
    """lam / T, the chord problem's units per unit of time for lam = L/d,
    refused when it overflows."""
    scale = lam / T
    if not math.isfinite(scale):
        raise ValueError(f"(L/d)/T = {lam:g}/{T:g} overflows; the total time is too short")
    return scale


def window_time_extrema(profile: RaceProfile, d: float) -> WindowExtrema:
    """Fastest and slowest time over any sub-interval covering distance d.

    Exact: the elapsed time g(x) = time(x + d) - time(x) of the window
    starting at distance x is piecewise linear, so its extrema sit at its
    vertices.  They are read in one pass over each family of vertices
    (the time profile's breakpoints, their translates by -d and the two
    ends) without building g, and equal the min and max of
    ``profile.inverse.shift_difference(d).ys`` bitwise."""
    d = _check_window_distance(profile.total_distance, d)
    return WindowExtrema(*profile.inverse._shift_difference_range(d))


def to_chord_problem(profile: RaceProfile, d: float) -> PiecewiseLinearFunction:
    """Rescale the profile so distance-d average-pace windows become
    horizontal chords of length 1.

    Returns g on [0, lam] with g(0) = g(lam) = 0, where lam = L/d, or the
    whole number L/d matches (then such a chord is guaranteed), and g(u) =
    position(u T / lam) - d u.  A chord g(u + 1) = g(u) corresponds to
    the window starting at time u T / lam covering exactly distance d in
    the average time T / lam."""
    L = profile.total_distance
    d = _check_window_distance(L, d)
    T = profile.total_time
    lam = whole_ratio(L, d) or L / d
    scale = _check_time_scale(lam, T)
    us = profile.position.xs * scale
    ys = us * d
    np.subtract(profile.position.ys, ys, out=ys)
    us[0] = 0.0
    us[-1] = lam
    ys[0] = 0.0
    ys[-1] = 0.0
    return PiecewiseLinearFunction._from_owned(us, ys)


def exists_average_split(profile: RaceProfile, d: float) -> ChordQueryResult:
    """Decide whether some sub-interval covers distance d at exactly the
    race's average pace.

    The result's ``s`` is the window duration T d / L, ``witness_x``
    the window's start time (None when no window exists) and ``vertices``
    the work of the chord query on :func:`to_chord_problem`.  Exact for
    piecewise linear profiles."""
    d = _check_window_distance(profile.total_distance, d)
    g = to_chord_problem(profile, d)
    res = has_horizontal_chord(g, 1.0)
    window = profile.total_time * d / profile.total_distance
    if not res.exists:
        return ChordQueryResult(False, window, None, res.vertices)
    t = res.witness_x * profile.total_time / g.width
    t = min(max(t, 0.0), profile.total_time - window)
    return ChordQueryResult(True, window, t, res.vertices)


def find_average_split(profile: RaceProfile, d: float) -> float:
    """Start time of a distance-d window run at exactly average pace,
    for d dividing the total distance a whole number n of times.

    Existence is guaranteed in this case (the universal chord theorem
    applied to :func:`to_chord_problem`), and the window is the exact
    witness of :func:`exists_average_split`, interpolated between two
    vertices: position(t* + T/n) - position(t*) = d up to rounding."""
    L = profile.total_distance
    d = _check_window_distance(L, d)
    if not whole_ratio(L, d):
        raise ValueError(
            f"total distance {L:g} is not a whole-number multiple of {d:g}; "
            "an average-pace window need not exist (use exists_average_split instead)"
        )
    res = exists_average_split(profile, d)
    if not res.exists:
        raise RuntimeError("no average-pace window found for a whole-number ratio")
    return res.witness_x


def from_chord_function(
    g: PiecewiseLinearFunction, total_distance: float, total_time: float, d: float
) -> RaceProfile:
    """Invert :func:`to_chord_problem`: turn a zero-ended chord function
    on [0, L/d] into a race profile whose distance-d average-pace windows
    are exactly g's unit chords.

    The shear adds d per unit, so a piece of g with slope -d or less
    would stall or reverse the runner; :class:`RaceProfile` refuses it
    and names the segment.
    """
    L, T = _totals(total_distance, total_time)
    d = _check_window_distance(L, d)
    lam = L / d
    _check_time_scale(lam, T)
    u_tol = tolerance(lam)
    if abs(g.width - lam) > u_tol or abs(g.x_min) > u_tol:
        raise ValueError(
            f"chord function must live on [0, {lam:g}] (= L/d), got "
            f"[{g.x_min:g}, {g.x_max:g}]"
        )
    y_tol = tolerance(L)
    if abs(float(g.ys[0])) > y_tol or abs(float(g.ys[-1])) > y_tol:
        raise ValueError(
            f"chord function must vanish at both endpoints, got "
            f"{float(g.ys[0]):g} and {float(g.ys[-1]):g}"
        )
    ts = g.xs * (T / lam)
    dist = g.ys + d * g.xs
    ts[0] = 0.0
    ts[-1] = T
    dist[0] = 0.0
    dist[-1] = L
    return RaceProfile(L, T, PiecewiseLinearFunction._from_owned(ts, dist))


def _shift_closed_grid(w: float) -> np.ndarray:
    """Sample points {k/m} and {w - k/m} in [0, w], m a power of two with
    w * m <= 4096 where possible.

    The grid is closed under shifts by +-1 inside [0, w], so a polyline
    sampled on it has unit increments that interpolate the sampled
    function's own, at most 8193 points for w <= 4096.  When w is a
    multiple of 1/m up to rounding, w - k/m lands within the tolerance
    of (w m - k)/m; such pairs are merged, keeping w itself as the end."""
    m = 2.0 ** max(0, math.floor(math.log2(4096.0 / w)))
    ks = np.arange(math.floor(w * m) + 1) / m
    xs = np.unique(np.concatenate([ks, w - ks]))
    xs = xs[np.concatenate(([True], np.diff(xs) > tolerance(w)))]
    xs[-1] = w
    return xs


def build_adversarial_profile(
    total_distance: float, total_time: float, d: float, phi_kind: str = "triangle_wave"
) -> RaceProfile:
    """A race profile with no distance-d sub-interval at average pace.

    Only possible when L/d is not a whole number (otherwise such a
    window always exists); raises ValueError for whole-number ratios.
    Built by shearing a chord-avoiding function into position form and
    re-verified before returning.  The sin^2 shape's increment shrinks
    like the square of the distance from L/d to a whole number n, so
    within about 2e-8 n of n it drowns in rounding and a ValueError
    points to the triangle wave, whose increment is linear in it.
    """
    L, T = _totals(total_distance, total_time)
    d = _check_window_distance(L, d)
    ratio = L / d
    if ratio <= 1.0:
        raise ValueError(
            f"window distance {d:g} must be strictly less than the total distance {L:g}"
        )
    if whole_ratio(L, d):
        raise ValueError(
            f"a distance-{d:g} window at exactly average pace is unavoidable when "
            f"{L:g} / {d:g} is a whole number; no adversarial profile exists"
        )
    base = build_levy(ratio, 1.0, SmoothShapeSpec(phi_kind, period=1.0))
    if isinstance(base, SmoothFunction):
        xs = _shift_closed_grid(ratio)
        base = PiecewiseLinearFunction(xs, base(xs))
    steep = float(np.max(np.abs(base.slopes())))
    base = base.scaled((0.5 * d) / steep)
    profile = from_chord_function(base, L, T, d)
    check = exists_average_split(profile, d)
    if check.exists and phi_kind == "sin_squared":
        n = round(ratio)
        raise ValueError(
            f"L/d = {ratio!r} is only {abs(ratio - n):.3g} from the whole number {n}: "
            "the sin^2 profile's unit increment -sin^2(pi (L/d - n)) d/L falls below "
            "float rounding there and leaves an average-pace window; use the triangle "
            "wave instead (race-plan --shape triangle)"
        )
    if check.exists:
        raise RuntimeError(
            "internal error: constructed profile still contains an average-pace window"
        )
    return profile
