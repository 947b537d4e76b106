"""Piecewise linear functions with exact breakpoint arithmetic.

Everything downstream (chord oracles, race profiles) leans on one fact:
for a piecewise linear f, the shifted difference x -> f(x + s) - f(x) is
again piecewise linear, with breakpoints among the originals and their
left translates by s.  Computing that difference exactly turns chord
existence into a finite question about vertex values and sign changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .intervals import _number, _number_column, _number_pairs, _past_float, tolerance

_FIRST_BLOCK = 1024  # breakpoints of f in the first block of a shift difference


@dataclass(frozen=True, eq=False)
class PiecewiseLinearFunction:
    """Continuous piecewise linear function given by breakpoints (xs, ys).

    xs must be strictly increasing. Outside [xs[0], xs[-1]] the function
    is not defined; callers clamp or raise before evaluating there.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        self._own(_number_column(self.xs, "xs"), _number_column(self.ys, "ys"))

    @classmethod
    def _from_owned(cls, xs: np.ndarray, ys: np.ndarray) -> "PiecewiseLinearFunction":
        """Validate float64 arrays and keep them as they are, uncopied.

        Not copying is safe only when nothing writes to xs or ys afterwards:
        arrays the caller has just computed and drops, or the private owners
        of another function."""
        f = cls.__new__(cls)
        f._own(xs, ys)
        return f

    def _own(self, xs: np.ndarray, ys: np.ndarray) -> None:
        if xs.ndim != 1 or ys.ndim != 1 or xs.size != ys.size:
            raise ValueError("xs and ys must be one-dimensional arrays of equal length")
        if xs.size < 1:
            raise ValueError("need at least one breakpoint")
        # min and max propagate NaN, so the passes that keep the range of
        # the values for _check_spans also test them for finiteness
        y_range = (float(ys.min()), float(ys.max()))
        if not (np.isfinite(xs).all() and math.isfinite(y_range[0]) and math.isfinite(y_range[1])):
            raise ValueError("breakpoints must be finite")
        # for finite floats xs[i + 1] <= xs[i] exactly when their difference
        # is <= 0, and the comparison allocates no float array
        bad = np.flatnonzero(xs[1:] <= xs[:-1])
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"xs must be strictly increasing; xs[{i}] = {xs[i]:g} is not "
                f"below xs[{i + 1}] = {xs[i + 1]:g}"
            )
        # np.interp copies an array it may not write to on every call, which
        # at 10^5 breakpoints costs far more than a short query.  So np.interp
        # reads the private writeable owners, and callers get read-only views.
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_ys", ys)
        object.__setattr__(self, "_y_range", y_range)
        object.__setattr__(self, "xs", _read_only(xs))
        object.__setattr__(self, "ys", _read_only(ys))

    @classmethod
    def from_breakpoints(cls, points) -> "PiecewiseLinearFunction":
        """The function through the [x, y] rows of ``points``: a boolean,
        string or bytes where a number belongs is refused, and integers
        are numbers."""
        pts = _number_pairs(
            points, "breakpoints", "breakpoints must be an (n, 2) array of [x, y] rows"
        )
        return cls._from_owned(pts[:, 0].copy(), pts[:, 1].copy())

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
        try:
            out = np.interp(x, self._xs, self._ys)
        except OverflowError:
            raise _past_float("x") from None
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return out

    def _check_spans(self) -> None:
        """Raise ValueError when the breakpoints or the values span a range
        past the largest float: differences of them, such as the width,
        slopes, shift differences and chord lengths, would overflow."""
        for what, (lo, hi) in (
            ("breakpoints", (self.x_min, self.x_max)),
            ("function values", self._y_range),
        ):
            if not math.isfinite(hi - lo):
                raise ValueError(
                    f"{what} span [{lo:g}, {hi:g}], a range past the largest float; scale them down"
                )

    def slopes(self) -> np.ndarray:
        """Slope on each linear piece; empty for a single-point function."""
        self._check_spans()
        if self.xs.size < 2:
            return np.empty(0)
        return np.diff(self.ys) / np.diff(self.xs)

    def scaled(self, factor: float) -> "PiecewiseLinearFunction":
        return PiecewiseLinearFunction(self.xs, self.ys * _number("factor", factor))

    def shift_difference(self, s: float) -> "PiecewiseLinearFunction":
        """Exact piecewise linear representation of x -> f(x + s) - f(x),
        defined on [x_min, x_max - s]."""
        s = self._clamp_shift(s)
        ((xs, ys),) = self._shift_difference_blocks(s, first=self._xs.size)
        return PiecewiseLinearFunction._from_owned(xs, ys)

    def _clamp_shift(self, s: float) -> float:
        """s clamped to [0, width]; a shift (chord length) more than the
        tolerance outside it, or NaN, is refused."""
        s = _number("s", s)
        slack = tolerance(self.width)
        if not -slack <= s <= self.width + slack:
            raise ValueError(
                f"shift (chord length) {s:g} must lie in [0, {self.width:g}] "
                "for a function of that width"
            )
        return min(max(s, 0.0), self.width)

    def _vertex_families(self, s: float) -> tuple[float, int, int]:
        """(hi, k, j) for s clamped to [0, width]: the vertices of x ->
        f(x + s) - f(x) are the breakpoints xs[:k] at or below hi = x_max - s,
        the translates xs[j:] - s at or above x_min, and hi, the only one
        when rounding puts it below x_min."""
        hi = self.x_max - s
        k = int(np.searchsorted(self._xs, hi, side="right"))
        return hi, k, self._first_translate(self.x_min, s)

    def _shift_difference_range(self, s: float) -> tuple[float, float]:
        """Min and max of x -> f(x + s) - f(x), bitwise those of
        ``shift_difference(s).ys``, without building the difference: the
        extremes sit at vertices, so each family of :meth:`_vertex_families`
        is evaluated on its own by the difference's float expressions (f =
        ys at a breakpoint), and a vertex met twice changes no min or max."""
        s = self._clamp_shift(s)
        xs, ys = self._xs, self._ys
        hi, k, j = self._vertex_families(s)
        at_xs = np.interp(xs[:k] + s, xs, ys)
        at_xs -= ys[:k]
        b = xs[j:] - s
        at_b = np.interp(b + s, xs, ys)
        at_b -= np.interp(b, xs, ys)
        at_hi = np.interp([hi + s, hi], xs, ys)
        parts = (at_xs, at_b, at_hi[:1] - at_hi[1:])
        return (
            float(min(p.min(initial=np.inf) for p in parts)),
            float(max(p.max(initial=-np.inf) for p in parts)),
        )

    def _first_translate(self, x: float, s: float, start: int = 0) -> int:
        """First j >= start with xs[j] - s >= x, or xs.size if none.
        Rounded subtraction is monotone, so step from a guess to the exact
        index."""
        xs = self._xs
        j = max(int(np.searchsorted(xs, x + s)), start)
        while j > start and xs[j - 1] - s >= x:
            j -= 1
        while j < xs.size and xs[j] - s < x:
            j += 1
        return j

    def _shift_difference_blocks(self, s: float, first: int = _FIRST_BLOCK):
        """Vertices and values of x -> f(x + s) - f(x), left to right, for
        s already clamped to [0, width].

        The vertices are those of :meth:`_vertex_families`.  Block k takes
        the ones below xs[i_k] that no earlier block took, where i_1 =
        ``first`` and the counts i_k+1 - i_k double; the last block takes
        the rest, hi included.  Concatenated, the blocks are exactly the
        whole difference, so a caller that stops at its first answer pays
        only for the blocks it read.  Each block is a few sorted runs,
        which a stable sort (a merge) orders in linear time; a translate
        that lands on a breakpoint is kept once."""
        xs = self._xs
        hi, k, j0 = self._vertex_families(s)
        i0, size = 0, first
        while True:
            i1 = i0 + size
            last = i1 >= k
            if last:
                parts = [xs[i0:k], xs[j0:] - s, [hi]]
            else:
                j1 = self._first_translate(xs[i1], s, j0)
                parts = [xs[i0:i1], xs[j0:j1] - s]
            cand = np.concatenate(parts)
            cand.sort(kind="stable")
            cand = cand[np.concatenate(([True], cand[1:] != cand[:-1]))]
            vals = self(cand + s)
            vals -= self(cand)
            yield cand, vals
            if last:
                return
            i0, j0, size = i1, j1, 2 * size


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.setflags(write=False)
    return view
