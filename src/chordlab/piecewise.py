"""Piecewise linear functions with exact breakpoint arithmetic.

Everything downstream (chord oracles, race profiles) leans on one fact:
for a piecewise linear f, the shifted difference x -> f(x + s) - f(x) is
again piecewise linear, with breakpoints among the originals and their
left translates by s.  Computing that difference exactly turns chord
existence into a finite question about vertex values and sign changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .intervals import tolerance


@dataclass(frozen=True, eq=False)
class PiecewiseLinearFunction:
    """Continuous piecewise linear function given by breakpoints (xs, ys).

    xs must be strictly increasing. Outside [xs[0], xs[-1]] the function
    is not defined; callers clamp or raise before evaluating there.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=np.float64).copy()
        ys = np.asarray(self.ys, dtype=np.float64).copy()
        if xs.ndim != 1 or ys.ndim != 1 or xs.size != ys.size:
            raise ValueError("xs and ys must be one-dimensional arrays of equal length")
        if xs.size < 1:
            raise ValueError("need at least one breakpoint")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("breakpoints must be finite")
        if xs.size > 1:
            diffs = np.diff(xs)
            bad = np.nonzero(diffs <= 0)[0]
            if bad.size:
                i = int(bad[0])
                raise ValueError(
                    f"xs must be strictly increasing; xs[{i}] = {xs[i]:g} is not "
                    f"below xs[{i + 1}] = {xs[i + 1]:g}"
                )
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @classmethod
    def from_breakpoints(cls, points) -> "PiecewiseLinearFunction":
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("breakpoints must be an (n, 2) array of [x, y] rows")
        return cls(pts[:, 0], pts[:, 1])

    @property
    def x_min(self) -> float:
        return float(self.xs[0])

    @property
    def x_max(self) -> float:
        return float(self.xs[-1])

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    def breakpoints(self) -> np.ndarray:
        return np.column_stack([self.xs, self.ys])

    def __call__(self, x):
        out = np.interp(x, self.xs, self.ys)
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return out

    def slopes(self) -> np.ndarray:
        """Slope on each linear piece; empty for a single-point function."""
        if self.xs.size < 2:
            return np.empty(0)
        return np.diff(self.ys) / np.diff(self.xs)

    def scaled(self, factor: float) -> "PiecewiseLinearFunction":
        return PiecewiseLinearFunction(self.xs, self.ys * float(factor))

    def shift_difference(self, s: float) -> "PiecewiseLinearFunction":
        """Exact piecewise linear representation of x -> f(x + s) - f(x),
        defined on [x_min, x_max - s]."""
        s = float(s)
        slack = tolerance(self.width)
        if s < -slack or s > self.width + slack:
            raise ValueError(
                f"shift {s:g} must lie in [0, {self.width:g}] for a function of that width"
            )
        s = min(max(s, 0.0), self.width)
        lo = self.x_min
        hi = self.x_max - s
        cand = np.concatenate([self.xs, self.xs - s, [lo, hi]])
        cand = np.unique(np.clip(cand, lo, hi))
        vals = self(cand + s) - self(cand)
        return PiecewiseLinearFunction(cand, np.asarray(vals, dtype=np.float64))
