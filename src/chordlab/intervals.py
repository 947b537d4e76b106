"""Closed interval sets on [0, sup] and the additivity test for their gaps.

A *chord set* here is a finite union of disjoint closed intervals that
contains 0.  The set is *admissible* (realizable as the exact horizontal
chord set of some continuous function with equal endpoint values) exactly
when its complement in (0, infinity), that is the gaps below sup together
with the tail (sup, infinity), is closed under addition.  This module
represents such sets, validates admissibility, and answers
nearest-boundary queries.

It also holds chordlab's tolerance policy: values computed from a
piecewise linear function are compared exactly, and inputs are matched
within :func:`tolerance` of their own scale, so answers do not depend on
units.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

RTOL = 1e-9


def tolerance(*scales: float) -> float:
    """Slack for matching inputs of the given magnitudes: RTOL times the
    largest of them."""
    return RTOL * max(abs(float(x)) for x in scales)


def whole_ratio(total: float, part: float) -> int:
    """The whole number n that total/part matches within the tolerance
    of total/part, or 0 when there is none."""
    ratio = total / part
    n = round(ratio)
    return n if abs(ratio - n) <= tolerance(ratio) else 0


class ValidationError(ValueError):
    """Raised when a candidate chord set is malformed or inadmissible."""


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi] with 0 <= lo <= hi.

    A degenerate interval (lo == hi) is an isolated point; these occur
    naturally in admissible chord sets, e.g. as the top point {sup}.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = float(self.lo)
        hi = float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if lo < 0.0:
            raise ValidationError(f"interval [{lo:g}, {hi:g}] has a negative endpoint")
        if hi < lo:
            raise ValidationError(f"interval [{lo:g}, {hi:g}] is reversed (hi < lo)")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def degenerate(self) -> bool:
        return self.hi == self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class GapList:
    """Open gaps (lo, hi) between the intervals of a set, plus the open
    tail (tail_start, infinity) that follows the last interval."""

    gaps: tuple[tuple[float, float], ...]
    tail_start: float


@dataclass(frozen=True)
class ClosedIntervalSet:
    """Finite union of disjoint closed intervals starting at 0.

    Construction validates shape only (sortedness, disjointness, first
    interval anchored at 0).  Admissibility is a separate, stronger check;
    see :func:`is_additive` and :func:`validate_chord_spec`.  A point within
    the tolerance of sup of a boundary point counts as on it.
    """

    intervals: tuple[Interval, ...]
    _slack: float = field(init=False, repr=False, compare=False)
    _boundary: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _los: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        converted = []
        for item in self.intervals:
            if isinstance(item, Interval):
                converted.append(item)
            else:
                pair = tuple(item)
                if len(pair) != 2:
                    raise ValidationError(f"expected a [lo, hi] pair, got {item!r}")
                converted.append(Interval(pair[0], pair[1]))
        if not converted:
            raise ValidationError("interval set must contain at least one interval")
        for prev, cur in zip(converted, converted[1:]):
            if cur.lo < prev.lo:
                raise ValidationError(
                    f"intervals out of order: [{prev.lo:g}, {prev.hi:g}] is "
                    f"followed by [{cur.lo:g}, {cur.hi:g}]"
                )
            if cur.lo < prev.hi:
                raise ValidationError(
                    f"intervals [{prev.lo:g}, {prev.hi:g}] and [{cur.lo:g}, {cur.hi:g}] overlap"
                )
            if cur.lo == prev.hi:
                raise ValidationError(
                    f"intervals touch at {cur.lo:g}; merge them into one interval"
                )
        first = converted[0]
        slack = tolerance(converted[-1].hi)
        if first.lo > slack:
            raise ValidationError(
                f"the first interval must start at 0, got lo = {first.lo:g}"
            )
        if first.lo != 0.0:
            converted[0] = Interval(0.0, first.hi)
        object.__setattr__(self, "intervals", tuple(converted))
        object.__setattr__(self, "_slack", slack)
        boundary = []
        for iv in self.intervals:
            boundary.append(iv.lo)
            if not iv.degenerate:
                boundary.append(iv.hi)
        object.__setattr__(self, "_boundary", tuple(boundary))
        object.__setattr__(self, "_los", tuple(iv.lo for iv in self.intervals))

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

    @property
    def boundary(self) -> tuple[float, ...]:
        """All interval endpoints, ascending, duplicates collapsed."""
        return self._boundary

    def membership_sign(self, x: float) -> int:
        """Return 0 if x lies on the boundary (within the tolerance of
        sup), +1 if strictly inside an interval, -1 if in a gap or outside
        [0, sup]."""
        x = float(x)
        i = bisect.bisect_right(self._los, x)
        for j in (i - 1, i):
            if 0 <= j < len(self.intervals):
                iv = self.intervals[j]
                if abs(x - iv.lo) <= self._slack or abs(x - iv.hi) <= self._slack:
                    return 0
        if i == 0:
            return -1
        iv = self.intervals[i - 1]
        return 1 if x < iv.hi else -1

    def contains(self, x: float) -> bool:
        return self.membership_sign(x) >= 0

    def to_pairs(self) -> list[list[float]]:
        return [[iv.lo, iv.hi] for iv in self.intervals]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[float]]) -> "ClosedIntervalSet":
        try:
            return cls(tuple(tuple(p) for p in pairs))
        except ValidationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"could not parse interval pairs: {exc}") from exc

    @classmethod
    def from_gaps(cls, gaps: GapList) -> "ClosedIntervalSet":
        """Rebuild the set whose complement in (0, tail_start) is exactly
        the given gaps.  Inverse of :func:`complement_components`."""
        intervals = []
        cursor = 0.0
        for lo, hi in gaps.gaps:
            intervals.append((cursor, lo))
            cursor = hi
        intervals.append((cursor, gaps.tail_start))
        return cls.from_pairs(intervals)


def complement_components(s: ClosedIntervalSet) -> GapList:
    """Open components of the complement of s within (0, sup), plus the tail."""
    gaps = []
    for prev, cur in zip(s.intervals, s.intervals[1:]):
        gaps.append((prev.hi, cur.lo))
    return GapList(tuple(gaps), s.sup)


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
    Sums that start at or beyond sup land in the tail and always pass.
    Containment is judged within the tolerance of sup.

    On failure the counterexample is a pair (a, b) of complement elements
    whose sum a + b lies in s.
    """
    comp = complement_components(s)
    gaps = comp.gaps
    slack = s._slack
    supremum = s.sup
    for j, (p1, q1) in enumerate(gaps):
        for p2, q2 in gaps[j:]:
            lo = p1 + p2
            hi = q1 + q2
            if lo >= supremum - slack:
                continue
            contained = any(glo <= lo + slack and hi <= ghi + slack for glo, ghi in gaps)
            if not contained:
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
        if r_hi < r_lo:
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


@dataclass(frozen=True)
class BoundaryProjection:
    """Nearest boundary points around x: a <= x <= b with a, b in the
    boundary of the set, alpha = x - a, beta = b - x."""

    a: float
    b: float
    alpha: float
    beta: float


def boundary_projections(s: ClosedIntervalSet, x: float) -> BoundaryProjection:
    """Project x onto the boundary of s from both sides.

    For x inside an interval or gap, a and b are the component's endpoints.
    On the boundary (within the tolerance of sup) the projection collapses:
    a = b = x and alpha = beta = 0.  Raises ValidationError outside
    [0, sup].
    """
    x = float(x)
    if x < -s._slack or x > s.sup + s._slack:
        raise ValidationError(
            f"point {x:g} is outside the domain [0, {s.sup:g}] of the set"
        )
    x = min(max(x, 0.0), s.sup)
    bdry = s.boundary
    i = bisect.bisect_left(bdry, x)
    best = None
    for j in (i - 1, i):
        if 0 <= j < len(bdry):
            d = abs(x - bdry[j])
            if best is None or d < best[1]:
                best = (j, d)
    if best is not None and best[1] <= s._slack:
        p = bdry[best[0]]
        return BoundaryProjection(p, p, 0.0, 0.0)
    a = bdry[i - 1]
    b = bdry[i]
    return BoundaryProjection(a, b, x - a, b - x)
