"""Constructions of functions with prescribed horizontal chord sets.

Three families:

* :func:`build_hopf` realizes an admissible chord set exactly, as the
  signed distance to the set's boundary (piecewise linear, slopes +-1).
* :func:`eval_generalized` evaluates the same idea with an arbitrary
  two-argument profile applied to the distances to the nearest boundary
  points on either side.  One call to :meth:`ClosedIntervalSet.locate`
  per point gives those points and the sign.  :func:`eval_smooth`
  specializes to the flat exponential profile, which is infinitely
  differentiable in the interior of every component.
* :func:`build_levy` produces a function on [0, W] with equal endpoint
  values that has no horizontal chord of a chosen length h, whenever W
  is not an integer multiple of h.  (When it is, such a chord is forced;
  that is the universal chord theorem.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .intervals import (
    ClosedIntervalSet,
    ValidationError,
    tolerance,
    validate_chord_spec,
    whole_ratio,
)
from .piecewise import PiecewiseLinearFunction

SHAPE_KINDS = ("sin_squared", "triangle_wave")


@dataclass(frozen=True)
class SmoothShapeSpec:
    """A named periodic shape used by :func:`build_levy`.

    * ``sin_squared``: amplitude * sin(pi x / period) ** 2, periodic.
    * ``triangle_wave``: periodic tent of height ``amplitude``, zero at
      multiples of ``period``, peak at half-periods.
    """

    kind: str
    period: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in SHAPE_KINDS:
            raise ValueError(f"unknown shape kind {self.kind!r}; choose from {SHAPE_KINDS}")
        if not (math.isfinite(self.period) and self.period > 0):
            raise ValueError(f"period must be positive and finite, got {self.period!r}")
        if not (math.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValueError(f"amplitude must be positive and finite, got {self.amplitude!r}")

    def __call__(self, x):
        u = np.asarray(x, dtype=np.float64)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        if self.kind == "sin_squared":
            out = self.amplitude * np.sin(np.pi * u / self.period) ** 2
        else:
            frac = u / self.period - np.floor(u / self.period)
            out = self.amplitude * 2.0 * np.minimum(frac, 1.0 - frac)
        if scalar:
            return float(out[0])
        return out


@dataclass(frozen=True)
class SmoothFunction:
    """Closed-form function on [x_min, x_max].

    ``fn`` is called once per evaluation with the whole float64 array of
    points (0-d for a scalar) and must return values of the same shape;
    a scalar call returns a ``float``.  ``to_piecewise`` samples it onto
    a piecewise linear approximation so the exact chord machinery can be
    applied; the result is approximate, with error controlled by the
    sample count.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    x_min: float
    x_max: float

    def __call__(self, x):
        arr = np.asarray(x, dtype=np.float64)
        out = np.asarray(self.fn(arr), dtype=np.float64)
        return float(out) if arr.ndim == 0 else out

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    def sample(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if n < 2:
            raise ValueError(f"need at least 2 sample points, got {n}")
        xs = np.linspace(self.x_min, self.x_max, int(n))
        return xs, self(xs)

    def to_piecewise(self, n: int = 4097) -> PiecewiseLinearFunction:
        xs, ys = self.sample(n)
        return PiecewiseLinearFunction(xs, ys)


def build_hopf(spec) -> PiecewiseLinearFunction:
    """Signed distance to the boundary of an admissible chord set.

    Positive tents of height len/2 over each interval, negative tents
    over each gap, zero on the boundary; all slopes are +-1.  The
    horizontal chord set of the result is exactly the input set.
    Raises ValidationError if the set fails admissibility checks.
    """
    report = validate_chord_spec(spec)
    if not report.ok:
        raise ValidationError("chord set fails validation:\n" + report.summary())
    s = report.interval_set
    points: list[tuple[float, float]] = []
    for iv in s.intervals:
        points.append((iv.lo, 0.0))
        if not iv.degenerate:
            points.append((0.5 * (iv.lo + iv.hi), 0.5 * iv.length))
            points.append((iv.hi, 0.0))
    for glo, ghi in s.gaps:
        points.append((0.5 * (glo + ghi), -0.5 * (ghi - glo)))
    points.sort()
    arr = np.asarray(points)
    return PiecewiseLinearFunction(arr[:, 0], arr[:, 1])


def _flat_product(alpha: float, beta: float) -> float:
    """exp(-1/(alpha*beta)) for positive arguments, else 0; vanishes to
    all orders as either argument approaches 0."""
    ab = alpha * beta
    if ab <= 0.0:
        return 0.0
    return math.exp(-1.0 / ab)


@lru_cache(maxsize=256)
def _check_shape_function(fn: Callable[[float, float], float], scale: float) -> None:
    """Heuristic spot check that fn vanishes on the axes and is jointly
    strictly increasing off them, probed on a 5x5 grid over [0, scale]^2.
    Vanishing means within the tolerance of the largest probed value."""
    grid = [scale * i / 4.0 for i in range(5)]
    vals = [[float(fn(a, b)) for b in grid] for a in grid]
    slack = tolerance(*(v for row in vals for v in row))
    for i in range(5):
        if abs(vals[0][i]) > slack or abs(vals[i][0]) > slack:
            a, b = (grid[0], grid[i]) if abs(vals[0][i]) > slack else (grid[i], grid[0])
            raise ValueError(
                f"shape function must vanish when either argument is 0; "
                f"F({a:g}, {b:g}) = {float(fn(a, b)):g}"
            )
    for i1 in range(5):
        for j1 in range(5):
            for i2 in range(i1, 5):
                for j2 in range(j1, 5):
                    if (i1, j1) == (i2, j2) or i2 == 0 or j2 == 0:
                        continue
                    if not vals[i1][j1] < vals[i2][j2]:
                        raise ValueError(
                            "shape function fails the monotonicity spot check: "
                            f"expected F({grid[i1]:g}, {grid[j1]:g}) < "
                            f"F({grid[i2]:g}, {grid[j2]:g}), "
                            f"got {vals[i1][j1]:g} vs {vals[i2][j2]:g}"
                        )


def _shape_check_scale(s: ClosedIntervalSet) -> float:
    # Probe on the scale of the largest component, floored at 1 so the
    # flat exponential profile is not rejected through float underflow
    # when every component is tiny.
    return max(max(iv.length for iv in s.intervals), 1.0)


def _eval_signed_one(s: ClosedIntervalSet, fn: Callable[[float, float], float], x: float) -> float:
    sign, a, b = s.locate(x)
    if sign == 0:
        return 0.0
    val = float(fn(x - a, b - x))
    if sign < 0:
        # Negate rather than multiply so an underflowed magnitude keeps
        # its sign bit (-0.0), which downstream sign probes rely on.
        return -val
    return val


def eval_generalized(s: ClosedIntervalSet, shape_fn: Callable[[float, float], float], x):
    """Evaluate the generalized boundary-distance construction at x.

    With a = nearest boundary point at or below x and b = nearest at or
    above, the value is +-shape_fn(x - a, b - x): positive inside the
    set's intervals, negative in the gaps, zero on the boundary.  The
    shape function must vanish iff either argument is 0 and be jointly
    strictly increasing for positive arguments; a grid spot check
    rejects obviously unsuitable functions.
    """
    _check_shape_function(shape_fn, _shape_check_scale(s))
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()
    out = np.empty(flat.shape)
    for i, xv in enumerate(flat):
        out[i] = _eval_signed_one(s, shape_fn, float(xv))
    if scalar:
        return float(out[0])
    return out.reshape(np.atleast_1d(arr).shape)


def eval_smooth(s: ClosedIntervalSet, x):
    """Generalized construction with the flat exponential profile
    exp(-1/(alpha*beta)).  Smooth in the interior of every component and
    flat to all orders at every boundary point."""
    return eval_generalized(s, _flat_product, x)


def smooth_chord_function(s: ClosedIntervalSet) -> SmoothFunction:
    """Package :func:`eval_smooth` for the given set as a function object
    on [0, sup]."""
    return SmoothFunction(lambda x: eval_smooth(s, x), 0.0, s.sup)


def build_levy(
    total_width: float, h: float, shape: SmoothShapeSpec | None = None
) -> Union[PiecewiseLinearFunction, SmoothFunction]:
    """Function on [0, W] with f(0) = f(W) = 0 and no horizontal chord of
    length h.

    Built as f(x) = phi(x) - (x / W) * phi(W) with phi an h-periodic
    shape vanishing at 0.  Every increment f(x + h) - f(x) then equals
    the constant -(h / W) * phi(W), which is nonzero exactly when W is
    not an integer multiple of h.  With the default triangle wave the
    result is exactly piecewise linear; with sin_squared a closed-form
    smooth function is returned.
    """
    w = float(total_width)
    h = float(h)
    if not (math.isfinite(w) and math.isfinite(h)) or h <= 0 or w <= h:
        raise ValueError(f"need total width > h > 0, got width {total_width!r}, h {h!r}")
    if shape is None:
        shape = SmoothShapeSpec("triangle_wave", period=h, amplitude=1.0)
    if abs(shape.period - h) > tolerance(h):
        raise ValueError(
            f"shape period {shape.period:g} must equal the avoided length {h:g}"
        )
    if whole_ratio(w, h):
        raise ValueError(
            f"cannot avoid chords of length {h:g}: the width {w:g} is an integer "
            f"multiple of {h:g}, and such a chord always exists (universal chord theorem)"
        )
    slope = float(shape(w)) / w
    if shape.kind == "triangle_wave":
        # Corners at multiples of h/2 more than the tolerance below w, then
        # w itself, where f is 0; a corner closer than that merges into w.
        half = 0.5 * h
        k = np.arange(int(math.ceil(w / half)) + 1)
        k = k[w - k * half > tolerance(w)]
        xs = np.append(k * half, w)
        ys = np.append(shape.amplitude * (k % 2) - k * half * slope, 0.0)
        return PiecewiseLinearFunction(xs, ys)
    return SmoothFunction(lambda t: shape(t) - t * slope, 0.0, w)
