"""Constructions of functions with prescribed horizontal chord sets.

Two realizations of an admissible chord set, and one chord-avoiding
construction:

* :func:`build_hopf` realizes an admissible chord set exactly, as the
  signed distance to the set's boundary (piecewise linear, slopes +-1).
* :func:`smooth_chord_function` realizes it with the flat exponential
  profile of the distances to the nearest boundary points on either
  side, which :func:`eval_smooth` evaluates: infinitely differentiable
  in the interior of every component, flat to all orders at every
  boundary point.
* :func:`build_levy` produces a function on [0, W] with equal endpoint
  values that has no horizontal chord of a chosen length h, whenever W
  is not an integer multiple of h.  (When it is, such a chord is forced;
  that is the universal chord theorem.)

A set is the chord set of some function exactly when its complement is
additive (Hopf), so both realizations pass their input through one
admissibility gate and refuse any other set with the same
ValidationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .intervals import (
    ClosedIntervalSet,
    ValidationError,
    _number,
    _points,
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
        for key in ("period", "amplitude"):
            value = _number(key, getattr(self, key))
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{key} must be positive and finite, got {value!r}")
            object.__setattr__(self, key, value)

    def __call__(self, x):
        u = _points(x)
        scalar = u.ndim == 0
        # ** 2 of a 0-d value can differ in the last bit from the array's square
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

    def __post_init__(self) -> None:
        for key in ("x_min", "x_max"):
            object.__setattr__(self, key, _number(key, getattr(self, key)))

    def __call__(self, x):
        arr = _points(x)
        out = np.asarray(self.fn(arr), dtype=np.float64)
        return float(out) if arr.ndim == 0 else out

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    def sample(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        count = _number("n", n)
        if count < 2:
            raise ValueError(f"need at least 2 sample points, got {count:g}")
        if not count.is_integer():
            raise ValueError(f"the sample count must be a whole number, got {count:g}")
        xs = np.linspace(self.x_min, self.x_max, int(count))
        return xs, self(xs)

    def to_piecewise(self, n: int = 4097) -> PiecewiseLinearFunction:
        xs, ys = self.sample(n)
        return PiecewiseLinearFunction(xs, ys)


def _admissible(spec) -> ClosedIntervalSet:
    """The chord set that spec (a set or a list of [lo, hi] pairs) names,
    if it is admissible.  Raises ValidationError with the whole
    validation report otherwise."""
    report = validate_chord_spec(spec)
    if not report.ok:
        raise ValidationError("chord set fails validation:\n" + report.summary())
    return report.interval_set


def build_hopf(spec) -> PiecewiseLinearFunction:
    """Signed distance to the boundary of an admissible chord set.

    Positive tents of height len/2 over each interval, negative tents
    over each gap, zero on the boundary; all slopes are +-1.  The
    horizontal chord set of the result is exactly the input set.
    Raises ValidationError if the set fails admissibility checks.
    """
    s = _admissible(spec)
    # 0 at each boundary point, +-half the width at each segment's midpoint
    b = np.array(s.boundary)
    xs = np.empty(2 * b.size - 1)
    ys = np.zeros(xs.size)
    xs[0::2] = b
    xs[1::2] = 0.5 * (b[:-1] + b[1:])
    ys[1::2] = 0.5 * (b[1:] - b[:-1]) * s._signs[:-1]
    return PiecewiseLinearFunction._from_owned(xs, ys)


def _flat_product(alpha: float, beta: float) -> float:
    """exp(-1/(alpha*beta)) for positive arguments, else 0; vanishes to
    all orders as either argument approaches 0."""
    ab = alpha * beta
    if ab <= 0.0:
        return 0.0
    return math.exp(-1.0 / ab)


def eval_smooth(s: ClosedIntervalSet, x):
    """Evaluate the flat exponential construction of s at x.

    With a = nearest boundary point at or below x and b = nearest at or
    above, the value is +-exp(-1/((x - a)(b - x))): positive inside the
    set's intervals, negative in the gaps, zero on the boundary.  Smooth
    in the interior of every component and flat to all orders at every
    boundary point.  This is the ungated formula: its values realize s
    only when s is admissible, which :func:`smooth_chord_function` and
    :func:`build_hopf` check.
    """
    arr = _points(x)
    out = np.empty(arr.size)
    for i, xv in enumerate(arr.ravel().tolist()):
        sign, a, b = s.locate(xv)
        val = _flat_product(xv - a, b - xv) if sign else 0.0
        # Negate rather than multiply so an underflowed magnitude keeps
        # its sign bit (-0.0), which downstream sign probes rely on.
        out[i] = -val if sign < 0 else val
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def smooth_chord_function(spec) -> SmoothFunction:
    """Package :func:`eval_smooth` for an admissible chord set as a
    function object on [0, sup].  Takes a set or a list of [lo, hi]
    pairs and raises ValidationError, as :func:`build_hopf` does, if the
    set fails admissibility checks."""
    s = _admissible(spec)
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
    w = _number("total_width", total_width)
    h = _number("h", h)
    if not (math.isfinite(w) and math.isfinite(h)) or h <= 0 or w <= h:
        raise ValueError(f"need total width > h > 0, got width {w!r}, h {h!r}")
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
