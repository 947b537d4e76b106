"""Closed interval sets on [0, sup] and the additivity test for their gaps.

A *chord set* here is a finite union of disjoint closed intervals that
contains 0.  The set is *admissible* (realizable as the exact horizontal
chord set of some continuous function with equal endpoint values) exactly
when its complement in (0, infinity), that is the gaps below sup together
with the tail (sup, infinity), is closed under addition.  This module
represents such sets and validates admissibility.  It is also the one
place that relates a point to a set's boundary:
:meth:`ClosedIntervalSet.locate` gives the side of the set a point lies
on and its neighbouring boundary points, with one search and one
snapping rule.

It also holds chordlab's tolerance policy: values computed from a
piecewise linear function are compared exactly, and inputs are matched
within :func:`tolerance` of their own scale, so answers do not depend on
units.  And it holds the number rule, in :func:`_number` for a caller's
scalars and in the readers of columns and rows of numbers beside it.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterable, Mapping, Sequence, Sized
from dataclasses import dataclass, field
from itertools import chain
from numbers import Real

import numpy as np

RTOL = 1e-9


def tolerance(scale: float) -> float:
    """Slack for matching inputs of the magnitude of ``scale``: RTOL
    times its absolute value."""
    return RTOL * abs(scale)


def whole_ratio(total: float, part: float) -> int:
    """The whole number n that total/part matches within the tolerance
    of total/part, or 0 when there is none."""
    ratio = total / part
    n = round(ratio)
    return n if abs(ratio - n) <= tolerance(ratio) else 0


class ValidationError(ValueError):
    """Raised when a candidate chord set is malformed or inadmissible."""


# float() and numpy read a boolean as 0 or 1, and a string or bytes as the number it spells
_NOT_NUMBERS = (bool, np.bool_, str, bytes)
# what a message says in place of a number that float() overflows on,
# such as an integer of hundreds of digits
_PAST_FLOAT = "a number past the largest float"


def _past_float(key: str) -> ValueError:
    return ValueError(f'"{key}" must hold numbers, got {_PAST_FLOAT}')


def _real_types(types: set) -> bool:
    """Whether every type in ``types`` is a real number other than a
    boolean; floats and ints, all that JSON gives, are tested first."""
    return types <= {float, int} or all(issubclass(t, Real) and t is not bool for t in types)


def _number(key: str, value) -> float:
    """A caller's scalar parameter ``key`` as a float; a boolean, string,
    bytes or anything float() cannot read is refused.  Point evaluation,
    once per point, reads its points with a bare float() or np.asarray
    instead, and refuses only what they overflow on."""
    if isinstance(value, _NOT_NUMBERS):
        raise ValueError(f'"{key}" must hold numbers, got {value!r}')
    try:
        return float(value)
    except OverflowError:
        raise _past_float(key) from None
    except (TypeError, ValueError):
        raise ValueError(f'"{key}" must hold numbers, got {value!r}') from None


def _points(x) -> np.ndarray:
    """Points to evaluate at, read with a bare np.asarray as float64; a
    number past the float range is refused with the words of
    :func:`_number`."""
    try:
        return np.asarray(x, dtype=np.float64)
    except OverflowError:
        raise _past_float("x") from None


def _number_column(values, key: str) -> np.ndarray:
    """``values`` as a new float64 array.  An array of numeric dtype holds
    no boolean or string; any other column has the types of its values
    read as a set, and if one is not a real number other than a boolean,
    each value of such a type is read by :func:`_number`, which refuses
    the first boolean, string, bytes or value that float() cannot read."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        # np.asarray([0, True]) is an int array, so a list is typed by value
        items = values.tolist() if isinstance(values, np.ndarray) else values
        if isinstance(items, _NOT_NUMBERS) or not isinstance(items, Iterable):
            items = [items]
        if not _real_types(set(map(type, items))):
            for value in items:
                if not _real_types({type(value)}):
                    _number(key, value)
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        raise _past_float(key) from None


def _number_pairs(rows, key: str, malformed: str) -> np.ndarray:
    """The [a, b] rows of ``rows`` as an (n, 2) float64 array, possibly
    ``rows`` itself: the rows' lengths and the values' types (and the rows'
    types, unless every value is a float) are read as sets, and the values
    by one np.array, with no Python loop.
    Only if that fails are the rows read one by one, each value as
    :func:`_number` reads it, so a ``Decimal`` is a number here too.  The
    first row that is not a pair of numbers is refused by _number, when it
    or one of its values is a boolean, string, bytes or a number past the
    float range, or else with ``malformed`` formatted with ``key`` and that
    ``row``, shown with each number as the float read and with no more
    than three values."""
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iuf" and rows.shape[1:] == (2,):
        return rows.astype(np.float64, copy=False)
    rows = rows if isinstance(rows, (list, tuple)) else list(rows)
    try:
        if set(map(len, rows)) <= {2}:
            values = list(chain.from_iterable(rows))
            types = set(map(type, values))
            # a bytes row reads as ints, so the rows are typed only if not all floats
            if types <= {float} or (
                _real_types(types)
                and not any(issubclass(t, _NOT_NUMBERS) for t in set(map(type, rows)))
            ):
                return np.array(values, dtype=np.float64).reshape(-1, 2)
    except TypeError:  # a row without a length
        pass
    except OverflowError:
        raise _past_float(key) from None
    pairs = []
    for row in rows:
        iterable = isinstance(row, Iterable) and not isinstance(row, _NOT_NUMBERS)
        items = list(row) if iterable else [row]
        read = [_row_value(key, value) for value in items]
        if iterable and isinstance(row, Sized) and len(read) == 2 and None not in read:
            pairs.append(read)
            continue
        if not iterable:
            shown = _shown(row, read[0])
        elif isinstance(row, Sized):  # the first three values show it is no pair
            values = list(map(_shown, items[:3], read)) + (["..."] if len(items) > 3 else [])
            shown = f"[{', '.join(values)}]"
        else:  # an iterator, whose repr would hold its address
            shown = f"a {type(row).__name__}"
        raise ValueError(malformed.format(key=key, row=shown))
    return np.array(pairs, dtype=np.float64).reshape(-1, 2)


def _row_value(key: str, value) -> float | None:
    """``value`` as :func:`_number` reads it, or None, for a malformed
    row, where _number would refuse something other than a boolean,
    string, bytes or a number past the float range."""
    if isinstance(value, _NOT_NUMBERS):
        _number(key, value)
    try:
        return float(value)
    except OverflowError:
        raise _past_float(key) from None
    except (TypeError, ValueError):
        return None


def _shown(value, read: float | None) -> str:
    return repr(value) if read is None else f"{read:g}"


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi] with 0 <= lo <= hi.

    A degenerate interval (lo == hi) is an isolated point; these occur
    naturally in admissible chord sets, e.g. as the top point {sup}.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        given_lo, given_hi = self.lo, self.hi
        try:
            lo = float(given_lo)
            hi = float(given_hi)
        except OverflowError:
            raise ValidationError(f"interval endpoints must be numbers, got {_PAST_FLOAT}") from None
        if lo is not given_lo or hi is not given_hi:
            if isinstance(given_lo, _NOT_NUMBERS) or isinstance(given_hi, _NOT_NUMBERS):
                raise ValidationError(
                    f"interval endpoints must be numbers, got [{given_lo!r}, {given_hi!r}]"
                )
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        if not 0.0 <= lo <= hi < math.inf:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValidationError(
                    f"interval endpoints must be finite, got [{given_lo}, {given_hi}]"
                )
            if lo < 0.0:
                raise ValidationError(f"interval [{lo:g}, {hi:g}] has a negative endpoint")
            raise ValidationError(f"interval [{lo:g}, {hi:g}] is reversed (hi < lo)")


@dataclass(frozen=True)
class ClosedIntervalSet:
    """Finite union of disjoint closed intervals starting at 0.

    Construction validates shape only (sortedness, disjointness, first
    interval anchored at 0).  Admissibility is a separate, stronger check;
    see :func:`is_additive` and :func:`validate_chord_spec`.  A point within
    the tolerance of sup of a boundary point counts as on it.
    """

    intervals: tuple[Interval, ...]
    # All interval endpoints, ascending, duplicates collapsed.
    boundary: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # The open gaps (hi_k, lo_k+1) between consecutive intervals.
    gaps: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)
    _slack: float = field(init=False, repr=False, compare=False)
    # Sign of the segment that starts at each boundary point: +1 inside an
    # interval, -1 in a gap; the last one is the tail's.
    _signs: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        converted = []
        for item in self.intervals:
            if not isinstance(item, Interval):
                pair = tuple(item)
                if len(pair) != 2:
                    raise ValidationError(f"expected a [lo, hi] pair, got {item!r}")
                item = Interval(*pair)
            converted.append(item)
        if not converted:
            raise ValidationError("interval set must contain at least one interval")
        los = [iv.lo for iv in converted]
        his = [iv.hi for iv in converted]
        # each lo <= hi, so the set is sorted, disjoint and untouching
        # exactly when every hi lies below the next lo
        if not all(map(float.__lt__, his, los[1:])):
            k = next(k for k in range(1, len(los)) if los[k] <= his[k - 1])
            prev, cur = converted[k - 1], converted[k]
            if cur.lo < prev.lo:
                raise ValidationError(
                    f"intervals out of order: [{prev.lo:g}, {prev.hi:g}] is "
                    f"followed by [{cur.lo:g}, {cur.hi:g}]"
                )
            if cur.lo < prev.hi:
                raise ValidationError(
                    f"intervals [{prev.lo:g}, {prev.hi:g}] and [{cur.lo:g}, {cur.hi:g}] overlap"
                )
            raise ValidationError(f"intervals touch at {cur.lo:g}; merge them into one interval")
        if los[0] > tolerance(his[-1]):
            raise ValidationError(f"the first interval must start at 0, got lo = {los[0]:g}")
        if los[0] != 0.0:
            converted[0] = Interval(0.0, his[0])
            los[0] = 0.0
        # the intervals, and what locate and is_additive read from them
        object.__setattr__(self, "intervals", tuple(converted))
        object.__setattr__(self, "_slack", tolerance(his[-1]))
        boundary, signs = [], []
        for lo, hi in zip(los, his):
            boundary.append(lo)
            if hi != lo:
                boundary.append(hi)
                signs.append(1)
            signs.append(-1)
        object.__setattr__(self, "boundary", tuple(boundary))
        object.__setattr__(self, "_signs", tuple(signs))
        object.__setattr__(self, "gaps", tuple(zip(his, los[1:])))

    @property
    def sup(self) -> float:
        """Largest element of the set."""
        return self.intervals[-1].hi

    @property
    def gap_infimum(self) -> float:
        """Infimum of the complement within (0, infinity).

        This equals the right endpoint of the first interval: below it
        every positive length belongs to the set.  For the degenerate
        set {0} it is 0.
        """
        return self.intervals[0].hi

    def locate(self, x: float) -> tuple[int, float, float]:
        """Where x lies relative to the boundary, as (sign, a, b).

        Within the tolerance of sup of a boundary point p (the nearer one,
        the lower on a tie) it is (0, p, p).  Otherwise a < x < b are the
        neighbouring boundary points and the sign is +1 inside an interval,
        -1 in a gap.  Raises ValidationError outside [0, sup].
        """
        try:
            x = float(x)
        except OverflowError:
            raise _past_float("x") from None
        if not -self._slack <= x <= self.sup + self._slack:
            raise ValidationError(
                f"point {x:g} is outside the domain [0, {self.sup:g}] of the set"
            )
        x = min(max(x, 0.0), self.sup)
        bdry = self.boundary
        i = bisect.bisect_left(bdry, x)
        a, b = (bdry[i - 1] if i else -math.inf), bdry[i]
        if min(x - a, b - x) <= self._slack:
            p = a if x - a <= b - x else b
            return 0, p, p
        return self._signs[i - 1], a, b

    def contains(self, x: float) -> bool:
        """Whether x lies in the set: the sign :meth:`locate` gives is not
        -1.  False where locate raises ValidationError: outside the
        tolerance of [0, sup], and for NaN."""
        try:
            return self.locate(x)[0] >= 0
        except ValidationError:
            return False

    def to_pairs(self) -> list[list[float]]:
        return [[iv.lo, iv.hi] for iv in self.intervals]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[float]]) -> "ClosedIntervalSet":
        """The set of the given [lo, hi] pairs.  Parsed specs come in here,
        for ``validate``, both shapes of ``construct`` and
        :func:`chordlab.io.parse_interval_set`.  A string or a mapping is
        refused, since its items would read as characters or keys; so are
        boolean and string endpoints, by :class:`Interval`."""
        if isinstance(pairs, (str, bytes, Mapping)) or not isinstance(pairs, Iterable):
            raise ValidationError('"intervals" must be a list of [lo, hi] pairs')
        try:
            return cls(tuple(tuple(p) for p in pairs))
        except ValidationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"could not parse interval pairs: {exc}") from exc

@dataclass(frozen=True)
class AdditivityResult:
    additive: bool
    counterexample: tuple[float, float] | None = None


def is_additive(s: ClosedIntervalSet) -> AdditivityResult:
    """Check that the complement of s in (0, infinity) is closed under addition.

    The complement is a finite union of open intervals (the gaps plus the
    unbounded tail past sup).  A sum of two open intervals is again an open
    interval, and since the complement's components are the connected pieces,
    the sum interval is contained in the complement iff it is contained in a
    single component.  So the pairwise check over gap components is exact.
    Sums that start at or beyond sup land in the tail and always pass, as
    do the later, larger sums with the same first gap.  Containment is
    judged within the tolerance of sup.  The gaps are sorted and disjoint,
    so of those starting by the sum's start the last one reaches farthest,
    and it is the only one tested.

    On failure the counterexample is a pair (a, b) of complement elements
    whose sum a + b lies in s.
    """
    gaps = s.gaps
    starts = [p for p, _ in gaps]
    slack = s._slack
    supremum = s.sup
    for j, (p1, q1) in enumerate(gaps):
        for p2, q2 in gaps[j:]:
            lo = p1 + p2
            hi = q1 + q2
            if lo >= supremum - slack:
                break
            k = bisect.bisect_right(starts, lo + slack) - 1
            if k < 0 or hi > gaps[k][1] + slack:
                pair = _sum_counterexample(s, (p1, q1), (p2, q2), lo, hi)
                return AdditivityResult(False, pair)
    return AdditivityResult(True)


def _sum_counterexample(
    s: ClosedIntervalSet,
    gap1: tuple[float, float],
    gap2: tuple[float, float],
    lo: float,
    hi: float,
) -> tuple[float, float]:
    """Extract concrete complement elements a, b with a + b in s, given that
    the open sum interval (lo, hi) of two gaps is not inside one gap."""
    for iv in s.intervals:
        r_lo = max(iv.lo, lo)
        r_hi = min(iv.hi, hi)
        if r_hi <= lo or r_lo >= hi:
            continue
        mid = 0.5 * (r_lo + r_hi)
        t = (mid - lo) / (hi - lo)
        a = gap1[0] + t * (gap1[1] - gap1[0])
        b = gap2[0] + t * (gap2[1] - gap2[0])
        return (a, b)
    # The sum interval escapes every gap but meets no interval either; this
    # can only happen through rounding at the far tail.  Report midpoints.
    return (0.5 * (gap1[0] + gap1[1]), 0.5 * (gap2[0] + gap2[1]))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]
    interval_set: ClosedIntervalSet | None

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            lines.append(f"{c.name}: {status} ({c.detail})")
        verdict = "valid chord set" if self.ok else "not a valid chord set"
        return "\n".join(lines + [verdict])


def validate_chord_spec(spec: "ClosedIntervalSet | Iterable[Sequence[float]]") -> ValidationReport:
    """Run the full admissibility checklist on a candidate chord set.

    Checks, in order: structural soundness and additivity of the
    complement.  Additivity is the whole test (Hopf); conditions such as
    every interval being no longer than the gap infimum l follow from it.
    """
    if isinstance(spec, ClosedIntervalSet):
        s = spec
    else:
        try:
            s = ClosedIntervalSet.from_pairs(spec)
        except ValidationError as exc:
            return ValidationReport((CheckResult("structure", False, str(exc)),), None)
    structure = CheckResult("structure", True, f"{len(s.intervals)} intervals, sup = {s.sup:g}")

    add = is_additive(s)
    if not add.additive:
        a, b = add.counterexample
        detail = f"complement not closed under addition: {a:g} + {b:g} = {a + b:g} lies in the set"
    elif s.sup == 0.0:
        detail = "additive: yes, l = inf (complement is all positive lengths)"
    else:
        detail = f"additive: yes, l = {s.gap_infimum:g}"
    return ValidationReport((structure, CheckResult("additivity", add.additive, detail)), s)
