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
    boundary_projections,
    complement_components,
    is_additive,
    tolerance,
    validate_chord_spec,
)
from _corpus import SAWTOOTH_PAIRS, interval_layouts


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

    def test_membership_signs(self, sawtooth):
        assert sawtooth.membership_sign(0.45) == 1
        assert sawtooth.membership_sign(1.0) == -1
        assert sawtooth.membership_sign(0.9) == 0
        assert sawtooth.membership_sign(4.4) == 0
        assert sawtooth.membership_sign(4.0) == -1
        assert sawtooth.membership_sign(5.0) == -1
        assert sawtooth.membership_sign(-0.3) == -1
        # within tolerance of a boundary point counts as boundary
        assert sawtooth.membership_sign(1.8 + 2e-10) == 0

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
        assert s.membership_sign(0.0) == 0

    def test_gap_round_trip(self, sawtooth):
        comp = complement_components(sawtooth)
        assert comp.gaps == ((0.9, 1.1), (1.8, 2.2), (2.7, 3.3), (3.6, 4.4))
        assert comp.tail_start == 4.4
        again = ClosedIntervalSet.from_gaps(comp)
        assert again == sawtooth


class TestAdditivity:
    def test_golden_additive(self, sawtooth):
        assert is_additive(sawtooth).additive

    def test_counterexample_is_concrete(self):
        s = ClosedIntervalSet.from_pairs([[0, 0.9], [1.1, 2.0]])
        res = is_additive(s)
        assert not res.additive
        a, b = res.counterexample
        assert s.membership_sign(a) < 0
        assert s.membership_sign(b) < 0
        assert s.membership_sign(a + b) >= 0

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


class TestBoundaryProjections:
    def test_interior_of_interval(self, sawtooth):
        proj = boundary_projections(sawtooth, 0.3)
        assert proj.a == 0.0
        assert proj.b == 0.9
        assert proj.alpha == pytest.approx(0.3)
        assert proj.beta == pytest.approx(0.6)

    def test_gap_point(self, sawtooth):
        proj = boundary_projections(sawtooth, 1.0)
        assert (proj.a, proj.b) == (0.9, 1.1)
        assert proj.alpha == pytest.approx(0.1)
        assert proj.beta == pytest.approx(0.1)

    def test_boundary_snaps(self, sawtooth):
        proj = boundary_projections(sawtooth, 0.9)
        assert proj.a == proj.b == 0.9
        assert proj.alpha == proj.beta == 0.0

    def test_between_last_interval_and_top_point(self, sawtooth):
        proj = boundary_projections(sawtooth, 4.0)
        assert (proj.a, proj.b) == (3.6, 4.4)

    def test_outside_domain(self, sawtooth):
        with pytest.raises(ValidationError, match="outside the domain"):
            boundary_projections(sawtooth, 4.6)
        with pytest.raises(ValidationError, match="outside the domain"):
            boundary_projections(sawtooth, -0.2)


@settings(max_examples=60, deadline=None)
@given(interval_layouts())
def test_structure_invariants_hold(pairs):
    s = ClosedIntervalSet.from_pairs(pairs)
    assert s.sup == pairs[-1][1]
    assert s.gap_infimum == pairs[0][1]
    for lo, hi in pairs:
        assert s.membership_sign(0.5 * (lo + hi)) >= 0
    for (_, hi), (lo2, _) in zip(pairs, pairs[1:]):
        assert s.membership_sign(0.5 * (hi + lo2)) == -1
    again = ClosedIntervalSet.from_pairs(s.to_pairs())
    assert again == s


@settings(max_examples=60, deadline=None)
@given(interval_layouts(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_projection_brackets_the_point(pairs, frac):
    s = ClosedIntervalSet.from_pairs(pairs)
    x = frac * s.sup
    proj = boundary_projections(s, x)
    slack = tolerance(s.sup)
    assert proj.a <= x + slack
    assert proj.b >= x - slack
    assert proj.alpha >= 0.0 and proj.beta >= 0.0
    assert proj.a + proj.alpha == pytest.approx(x, abs=slack)
    assert proj.b - proj.beta == pytest.approx(x, abs=slack)


def test_no_public_callable_takes_tol():
    # one policy, derived from the data: no function or method has a knob
    for name in chordlab.__all__:
        obj = getattr(chordlab, name)
        members = [getattr(obj, m) for m in vars(obj)] if inspect.isclass(obj) else [obj]
        for fn in members:
            if inspect.isfunction(fn) or inspect.ismethod(fn):
                assert "tol" not in inspect.signature(fn).parameters, (name, fn.__name__)
