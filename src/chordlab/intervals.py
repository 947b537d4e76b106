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
        boundary, signs = [], []
        for iv in self.intervals:
            boundary.append(iv.lo)
            if not iv.degenerate:
                boundary.append(iv.hi)
                signs.append(1)
            signs.append(-1)
        object.__setattr__(self, "boundary", tuple(boundary))
        object.__setattr__(self, "_signs", tuple(signs))
        pairs = zip(self.intervals, self.intervals[1:])
        object.__setattr__(self, "gaps", tuple((prev.hi, cur.lo) for prev, cur in pairs))

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
        x = float(x)
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
        x = float(x)
        return -self._slack <= x <= self.sup + self._slack and self.locate(x)[0] >= 0

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
    gaps = s.gaps
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
