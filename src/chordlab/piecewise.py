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
        self._own(
            np.asarray(self.xs, dtype=np.float64).copy(),
            np.asarray(self.ys, dtype=np.float64).copy(),
        )

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
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
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
        object.__setattr__(self, "xs", _read_only(xs))
        object.__setattr__(self, "ys", _read_only(ys))

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
        out = np.interp(x, self._xs, self._ys)
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
        s = self._clamp_shift(s)
        ((xs, ys),) = self._shift_difference_blocks(s, first=self._xs.size)
        return PiecewiseLinearFunction._from_owned(xs, ys)

    def _clamp_shift(self, s: float) -> float:
        s = float(s)
        slack = tolerance(self.width)
        if s < -slack or s > self.width + slack:
            raise ValueError(
                f"shift {s:g} must lie in [0, {self.width:g}] for a function of that width"
            )
        return min(max(s, 0.0), self.width)

    def _shift_difference_range(self, s: float) -> tuple[float, float]:
        """Min and max of x -> f(x + s) - f(x), bitwise those of
        ``shift_difference(s).ys``, without building the difference.

        The extremes of a polyline sit at its vertices: f's breakpoints
        below x_max - s, the translates xs - s inside the domain, and its
        two ends.  Each family is evaluated on its own, in sorted order, and
        a vertex met twice does not change a min or a max, so no merge,
        sort or deduplication is needed.  The values are computed by the
        same float expressions as in the difference, f(x) = ys exactly at
        a breakpoint."""
        s = self._clamp_shift(s)
        xs, ys = self._xs, self._ys
        lo, hi = self.x_min, self.x_max - s
        # breakpoints up to hi, where f = ys exactly
        k = int(np.searchsorted(xs, hi, side="right"))
        at_xs = np.interp(xs[:k] + s, xs, ys)
        at_xs -= ys[:k]
        # translates inside the domain; they never pass hi
        b = xs[self._first_translate(lo, s) :] - s
        at_b = np.interp(b + s, xs, ys)
        at_b -= np.interp(b, xs, ys)
        # hi is the translate of x_max, unless rounding puts it below lo and
        # so makes it the only vertex
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

        The vertices are f's breakpoints and their left translates by s,
        clipped to [x_min, x_max - s].  Block k takes those that lie below
        xs[i_k] before clipping and that no earlier block took, where i_1 =
        ``first`` and the counts i_k+1 - i_k double; the last block takes
        the rest.  Concatenated, the blocks are exactly the whole
        difference, so a caller that stops at its first answer pays only
        for the blocks it read.  Each block is a few sorted runs, which a
        stable sort (a merge) orders in linear time; only the first block's
        translates can fall below x_min and only the last block's
        breakpoints can pass x_max - s, so only those two are clipped."""
        xs = self._xs
        lo, hi = self.x_min, self.x_max - s
        i0, j0, size = 0, 0, first
        while True:
            i1 = i0 + size
            # past hi every candidate clips to hi, so the block there is the last
            last = i1 >= xs.size or xs[i1] > hi
            if last:
                parts = [xs[i0:], xs[j0:] - s, [hi]]
            else:
                j1 = self._first_translate(xs[i1], s, j0)
                parts = [xs[i0:i1], xs[j0:j1] - s]
            cand = np.concatenate(parts)
            if i0 == 0 or last:
                np.clip(cand, lo, hi, out=cand)
            cand.sort(kind="stable")
            cand = cand[np.concatenate(([True], cand[1:] != cand[:-1]))]
            yield cand, self(cand + s) - self(cand)
            if last:
                return
            i0, j0, size = i1, j1, 2 * size


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.setflags(write=False)
    return view
