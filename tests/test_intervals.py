import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chordlab
from chordlab import (
    ClosedIntervalSet,
    Interval,
    ValidationError,
    is_additive,
    tolerance,
    validate_chord_spec,
)
from _corpus import SAWTOOTH_PAIRS, interval_layouts, reference_locator


@pytest.fixture
def sawtooth():
    return ClosedIntervalSet.from_pairs(SAWTOOTH_PAIRS)


class TestInterval:
    def test_basic(self):
        iv = Interval(1.0, 2.5)
        assert iv.length == 1.5
        assert not iv.degenerate
        assert iv.contains(2.5)
        assert not iv.contains(2.6)

    def test_degenerate_point(self):
        iv = Interval(4.4, 4.4)
        assert iv.degenerate
        assert iv.length == 0.0

    def test_rejects_reversed(self):
        with pytest.raises(ValidationError, match="reversed"):
            Interval(2.0, 1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="negative"):
            Interval(-0.5, 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError, match="finite"):
            Interval(0.0, float("inf"))


class TestClosedIntervalSet:
    def test_golden_structure(self, sawtooth):
        assert sawtooth.sup == 4.4
        assert sawtooth.gap_infimum == 0.9
        assert len(sawtooth.intervals) == 5
        assert sawtooth.intervals[-1].degenerate
        assert sawtooth.boundary == (0.0, 0.9, 1.1, 1.8, 2.2, 2.7, 3.3, 3.6, 4.4)

    def test_locate_signs(self, sawtooth):
        assert sawtooth.locate(0.45) == (1, 0.0, 0.9)
        assert sawtooth.locate(1.0) == (-1, 0.9, 1.1)
        assert sawtooth.locate(0.9) == (0, 0.9, 0.9)
        assert sawtooth.locate(4.4) == (0, 4.4, 4.4)
        assert sawtooth.locate(4.0) == (-1, 3.6, 4.4)
        # within tolerance of a boundary point counts as boundary
        assert sawtooth.locate(1.8 + 2e-10) == (0, 1.8, 1.8)
        # outside [0, sup] no point is a member
        assert not sawtooth.contains(5.0)
        assert not sawtooth.contains(-0.3)

    def test_contains(self, sawtooth):
        assert sawtooth.contains(0.0)
        assert sawtooth.contains(3.45)
        assert not sawtooth.contains(2.0)

    def test_to_pairs_round_trip(self, sawtooth):
        again = ClosedIntervalSet.from_pairs(sawtooth.to_pairs())
        assert again == sawtooth

    def test_must_start_at_zero(self):
        with pytest.raises(ValidationError, match="start at 0"):
            ClosedIntervalSet.from_pairs([[0.5, 1.0]])

    def test_rejects_overlap(self):
        with pytest.raises(ValidationError, match="overlap"):
            ClosedIntervalSet.from_pairs([[0, 1.0], [0.8, 2.0]])

    def test_rejects_touching(self):
        with pytest.raises(ValidationError, match="touch at 1; merge"):
            ClosedIntervalSet.from_pairs([[0, 1.0], [1.0, 2.0]])

    def test_rejects_out_of_order(self):
        with pytest.raises(ValidationError, match="out of order"):
            ClosedIntervalSet.from_pairs([[1.1, 1.8], [0, 0.9]])

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError):
            ClosedIntervalSet.from_pairs([[0, 1, 2]])
        with pytest.raises(ValidationError):
            ClosedIntervalSet.from_pairs("nope")

    def test_zero_singleton(self):
        s = ClosedIntervalSet.from_pairs([[0, 0]])
        assert s.sup == 0.0
        assert s.gap_infimum == 0.0
        assert s.gaps == ()
        assert s.locate(0.0) == (0, 0.0, 0.0)

    def test_gap_round_trip(self, sawtooth):
        assert sawtooth.gaps == ((0.9, 1.1), (1.8, 2.2), (2.7, 3.3), (3.6, 4.4))
        # the intervals are what the gaps leave of [0, sup]
        ends = [0.0] + [e for gap in sawtooth.gaps for e in gap] + [sawtooth.sup]
        again = ClosedIntervalSet.from_pairs(zip(ends[::2], ends[1::2]))
        assert again == sawtooth


class TestAdditivity:
    def test_golden_additive(self, sawtooth):
        assert is_additive(sawtooth).additive

    def test_counterexample_is_concrete(self):
        s = ClosedIntervalSet.from_pairs([[0, 0.9], [1.1, 2.0]])
        res = is_additive(s)
        assert not res.additive
        a, b = res.counterexample
        assert s.locate(a)[0] == -1
        assert s.locate(b)[0] == -1
        assert s.contains(a + b)

    def test_single_interval_always_additive(self):
        s = ClosedIntervalSet.from_pairs([[0, 3.0]])
        assert is_additive(s).additive

    def test_sum_landing_in_tail_is_fine(self):
        # the only gap sums to (2, 3), past the top: that is the tail,
        # always part of the complement, so the set is additive
        s = ClosedIntervalSet.from_pairs([[0, 1.0], [1.5, 1.6]])
        assert is_additive(s).additive


class TestValidateChordSpec:
    def test_golden_summary(self, sawtooth):
        report = validate_chord_spec(sawtooth)
        assert report.ok
        text = report.summary()
        assert "additive: yes, l = 0.9" in text
        assert "valid chord set" in text

    def test_accepts_raw_pairs(self):
        report = validate_chord_spec(SAWTOOTH_PAIRS)
        assert report.ok
        assert report.interval_set is not None

    def test_structure_failure_reported_not_raised(self):
        report = validate_chord_spec([[0.5, 1.0]])
        assert not report.ok
        assert report.interval_set is None
        assert "structure" in report.summary()

    def test_overlong_interval_fails(self):
        # an interval longer than the gap infimum breaks additivity, which
        # is the one admissibility check
        report = validate_chord_spec([[0, 0.9], [1.1, 2.5]])
        assert not report.ok
        assert [c.name for c in report.checks] == ["structure", "additivity"]
        assert not report.checks[1].passed

    def test_full_ray_below_first_gap(self):
        report = validate_chord_spec([[0, 5.0]])
        assert report.ok

    @pytest.mark.parametrize("scale", [1.0, 1e-9, 2.0**-30])
    def test_inadditive_set_rejected_at_any_scale(self, scale):
        # 0.95 + 1.0 lands in [1.95, 2.7], whatever the unit
        pairs = [[0, 0.9], [1.1, 1.8], [1.95, 2.7], [3.3, 3.6], [4.4, 4.4]]
        report = validate_chord_spec([[lo * scale, hi * scale] for lo, hi in pairs])
        assert not report.ok

    def test_singleton_summary_mentions_inf(self):
        report = validate_chord_spec([[0, 0]])
        assert report.ok
        assert "inf" in report.summary()


class TestLocate:
    def test_interior_of_interval(self, sawtooth):
        assert sawtooth.locate(0.3) == (1, 0.0, 0.9)

    def test_gap_point(self, sawtooth):
        assert sawtooth.locate(1.0) == (-1, 0.9, 1.1)

    def test_boundary_snaps(self, sawtooth):
        assert sawtooth.locate(0.9) == (0, 0.9, 0.9)
        assert sawtooth.locate(0.9 - 2e-10) == (0, 0.9, 0.9)

    def test_between_last_interval_and_top_point(self, sawtooth):
        assert sawtooth.locate(4.0) == (-1, 3.6, 4.4)

    def test_outside_domain(self, sawtooth):
        for x in (4.6, -0.2, float("nan")):
            with pytest.raises(ValidationError, match="outside the domain"):
                sawtooth.locate(x)
            assert not sawtooth.contains(x)


@settings(max_examples=60, deadline=None)
@given(interval_layouts())
def test_structure_invariants_hold(pairs):
    s = ClosedIntervalSet.from_pairs(pairs)
    assert s.sup == pairs[-1][1]
    assert s.gap_infimum == pairs[0][1]
    for lo, hi in pairs:
        assert s.locate(0.5 * (lo + hi))[0] == 1
    for (_, hi), (lo2, _) in zip(pairs, pairs[1:]):
        assert s.locate(0.5 * (hi + lo2))[0] == -1
    assert s.gaps == tuple((hi, lo2) for (_, hi), (lo2, _) in zip(pairs, pairs[1:]))
    again = ClosedIntervalSet.from_pairs(s.to_pairs())
    assert again == s


@settings(max_examples=60, deadline=None)
@given(interval_layouts(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_projection_brackets_the_point(pairs, frac):
    s = ClosedIntervalSet.from_pairs(pairs)
    x = frac * s.sup
    sign, a, b = s.locate(x)
    slack = tolerance(s.sup)
    assert a in s.boundary and b in s.boundary
    if sign == 0:
        assert a == b and abs(x - a) <= slack
    else:
        # a and b are neighbours on the boundary, each farther than the slack
        assert a + slack < x < b - slack
        assert s.boundary.index(b) == s.boundary.index(a) + 1


@settings(max_examples=100, deadline=None)
@given(interval_layouts(), st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20))
def test_locate_matches_brute_force(pairs, fracs):
    s = ClosedIntervalSet.from_pairs(pairs)
    reference = reference_locator(s.to_pairs())
    slack = tolerance(s.sup)
    offsets = (-2.0 * slack, -0.5 * slack, 0.0, 0.5 * slack, 2.0 * slack)
    points = [f * s.sup for f in fracs] + [p + d for p in s.boundary for d in offsets]
    for x in points:
        want = reference(x)
        if want is None:
            with pytest.raises(ValidationError, match="outside the domain"):
                s.locate(x)
        else:
            assert s.locate(x) == want, x
        assert s.contains(x) == (want is not None and want[0] >= 0), x


def test_no_public_callable_takes_tol():
    # one policy, derived from the data: no function or method has a knob
    for name in chordlab.__all__:
        obj = getattr(chordlab, name)
        members = [getattr(obj, m) for m in vars(obj)] if inspect.isclass(obj) else [obj]
        for fn in members:
            if inspect.isfunction(fn) or inspect.ismethod(fn):
                assert "tol" not in inspect.signature(fn).parameters, (name, fn.__name__)
