import inspect
import time
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chordlab
from chordlab import (
    ClosedIntervalSet,
    Interval,
    PiecewiseLinearFunction,
    RaceProfile,
    SmoothFunction,
    SmoothShapeSpec,
    ValidationError,
    build_adversarial_profile,
    build_levy,
    chord_set_scan,
    eval_smooth,
    exists_average_split,
    find_average_split,
    has_horizontal_chord,
    is_additive,
    parse_function,
    parse_profile,
    smooth_chord_function,
    smooth_samples_to_obj,
    svg_for_curves,
    to_chord_problem,
    tolerance,
    validate_chord_spec,
    verify_complement_additivity,
    window_time_extrema,
)
from chordlab.race import from_chord_function
from _corpus import (
    SAWTOOTH_PAIRS,
    interval_layouts,
    near_additive_family,
    reference_is_additive,
    reference_locator,
)


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

    @pytest.mark.parametrize("hi", [True, np.True_], ids=["boolean", "numpy-boolean"])
    def test_rejects_booleans(self, hi):
        # float() reads either as 1
        with pytest.raises(ValidationError) as info:
            Interval(0, hi)
        assert str(info.value) == f"interval endpoints must be numbers, got [0, {hi!r}]"


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
        # a first lo within the tolerance of sup is snapped to 0
        assert ClosedIntervalSet.from_pairs([[1e-12, 1.0]]).intervals[0] == Interval(0.0, 1.0)

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
        with pytest.raises(ValidationError, match="^interval set must contain at least one interval$"):
            ClosedIntervalSet.from_pairs([])

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

    def test_gap_starting_at_the_sum_plus_the_slack_holds_it(self):
        # the gap (1, 1.5) doubles to (2, 3), and the next gap starts exactly
        # the slack above 2: within the slack, it holds the sum
        s = ClosedIntervalSet.from_pairs([[0, 1.0], [1.5, 2.0 + tolerance(3.0)], [3.0, 3.0]])
        assert s.gaps[1][0] == 2.0 + s._slack
        assert is_additive(s) == reference_is_additive(s)
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
        report = validate_chord_spec([1, 2])
        assert report.checks[0].detail == "could not parse interval pairs: 'int' object is not iterable"

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


@st.composite
def additivity_layouts(draw):
    """Sets on which the gap search has edge cases: gaps narrower than the
    slack, isolated points, repeated lengths whose sums land exactly on a
    gap's ends, and the near-additive family with each interval's start
    moved so that sums just fit a gap or just miss it."""
    if draw(st.booleans()):
        m = draw(st.integers(min_value=1, max_value=40))
        # one factor, nudged within the slack or past it, or one factor each
        c = draw(st.floats(1.00005, 1.0002))
        nudges = st.sampled_from([0.0, 1e-13, -1e-13, 1e-11, -1e-11, 1e-7, -1e-7])
        cs = draw(
            st.one_of(
                st.lists(nudges.map(lambda e: c + e), min_size=m, max_size=m),
                st.lists(st.floats(1.00005, 1.0002), min_size=m, max_size=m),
            )
        )
        pairs = [[0.0, 1.0]] + [[c * k, k + 1.0] for k, c in enumerate(cs[:-1], 1)]
        return pairs + [[cs[-1] * m] * 2]
    n = draw(st.integers(min_value=1, max_value=8))
    ivs = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.05, 3.0))
    gaps = st.one_of(st.sampled_from([1e-12, 3e-10, 5e-9, 0.5, 1.0]), st.floats(0.05, 3.0))
    lengths = draw(st.lists(ivs, min_size=n, max_size=n))
    widths = draw(st.lists(gaps, min_size=n - 1, max_size=n - 1))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e6]))
    pairs, cursor = [], 0.0
    for length, width in zip(lengths, widths + [0.0]):
        pairs.append([cursor * scale, (cursor + length) * scale])
        cursor += length + width
    return pairs


@settings(max_examples=200, deadline=None)
@given(additivity_layouts())
def test_is_additive_matches_the_all_gaps_loop(pairs):
    s = ClosedIntervalSet.from_pairs(pairs)
    assert is_additive(s) == reference_is_additive(s)


def test_validates_2000_gaps_within_budget():
    """The near-additive family with 2000 gaps, against a budget."""
    budget = 3.0
    t0 = time.perf_counter()
    report = validate_chord_spec(near_additive_family(2000))
    dt = time.perf_counter() - t0
    print(f"validate_chord_spec with {len(report.interval_set.gaps)} gaps: {dt:.3f}s (budget {budget:.2f}s)")
    assert report.ok
    assert dt < budget


def test_no_public_callable_takes_tol():
    # one policy, derived from the data: no function or method has a knob
    for name in chordlab.__all__:
        obj = getattr(chordlab, name)
        members = [getattr(obj, m) for m in vars(obj)] if inspect.isclass(obj) else [obj]
        for fn in members:
            if inspect.isfunction(fn) or inspect.ismethod(fn):
                assert "tol" not in inspect.signature(fn).parameters, (name, fn.__name__)


_F = PiecewiseLinearFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]))
_SPLITS = [[1, 330], [2, 720], [3, 1080]]
_MILES = RaceProfile.from_splits(3, 1080, _SPLITS)
_CHORDS = to_chord_problem(_MILES, 1)

# every public call that reads a caller's scalar, with the parameter's key
_GATED = [
    ("total_distance", lambda v: RaceProfile(v, 1080, _MILES.position)),
    ("total_time", lambda v: RaceProfile(3, v, _MILES.position)),
    ("total_distance", lambda v: RaceProfile.from_splits(v, 1080, _SPLITS)),
    ("total_time", lambda v: RaceProfile.from_splits(3, v, _SPLITS)),
    ("total_distance", lambda v: RaceProfile.constant(v, 1080)),
    ("total_time", lambda v: RaceProfile.constant(3, v)),
    ("total_distance", lambda v: from_chord_function(_CHORDS, v, 1080, 1)),
    ("total_time", lambda v: from_chord_function(_CHORDS, 3, v, 1)),
    ("d", lambda v: from_chord_function(_CHORDS, 3, 1080, v)),
    ("total_distance", lambda v: build_adversarial_profile(v, 1200, 1.25)),
    ("total_time", lambda v: build_adversarial_profile(3, v, 1.25)),
    ("d", lambda v: build_adversarial_profile(3, 1200, v)),
    ("d", lambda v: window_time_extrema(_MILES, v)),
    ("d", lambda v: to_chord_problem(_MILES, v)),
    ("d", lambda v: exists_average_split(_MILES, v)),
    ("d", lambda v: find_average_split(_MILES, v)),
    ("s", lambda v: has_horizontal_chord(_F, v)),
    ("s", lambda v: _F.shift_difference(v)),
    ("factor", lambda v: _F.scaled(v)),
    ("resolution", lambda v: chord_set_scan(_F, v)),
    ("resolution", lambda v: verify_complement_additivity(_F, v)),
    ("total_width", lambda v: build_levy(v, 1)),
    ("h", lambda v: build_levy(2.5, v)),
    ("period", lambda v: SmoothShapeSpec("sin_squared", period=v)),
    ("amplitude", lambda v: SmoothShapeSpec("sin_squared", amplitude=v)),
    ("x_min", lambda v: SmoothFunction(np.sin, v, 1.0)),
    ("x_max", lambda v: SmoothFunction(np.sin, 0.0, v)),
]


@pytest.mark.parametrize(
    "value", [True, np.True_, "1", b"1", None], ids=["bool", "numpy-bool", "str", "bytes", "None"]
)
@pytest.mark.parametrize(
    "key, call", _GATED, ids=[f"{i}-{key}" for i, (key, _) in enumerate(_GATED)]
)
def test_every_scalar_parameter_keeps_the_number_rule(key, call, value):
    # float() reads the first four as numbers and raises TypeError for None
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f'"{key}" must hold numbers, got {value!r}'


_PAST_FLOAT = "a number past the largest float"

# every reader of a column or of rows of numbers, with the message it gives
# for an integer that float() overflows on
_READERS = [
    ("xs", lambda v: PiecewiseLinearFunction([0, v], [0, 1])),
    ("breakpoints", lambda v: PiecewiseLinearFunction.from_breakpoints([[0, 0], [v, 1]])),
    ("splits", lambda v: RaceProfile.from_splits(3, 10, [[v, 10]])),
    ("samples", lambda v: parse_function({"samples": [[0, 0], [1, v]]})),
    ("splits", lambda v: parse_profile({"total_distance": 3, "total_time": 10, "splits": [[3, v]]})),
    ("xs", lambda v: smooth_samples_to_obj([0, v], [0, 1])),
    ("ys", lambda v: svg_for_curves([([0, 1], [0, v])])),
]


@pytest.mark.parametrize("value", [10**400, 10**5000], ids=["400-digits", "5000-digits"])
@pytest.mark.parametrize(
    "key, call", _GATED + _READERS, ids=[f"{i}-{key}" for i, (key, _) in enumerate(_GATED + _READERS)]
)
def test_an_integer_past_the_float_range_is_one_short_error(key, call, value):
    # float() raises OverflowError for it, and its repr runs to hundreds of
    # digits or, past 4300, raises a ValueError of its own
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f'"{key}" must hold numbers, got {_PAST_FLOAT}'


@pytest.mark.parametrize("value", [10**400, 10**5000], ids=["400-digits", "5000-digits"])
def test_an_endpoint_past_the_float_range_is_a_structure_failure(value):
    message = f"interval endpoints must be numbers, got {_PAST_FLOAT}"
    with pytest.raises(ValidationError) as info:
        Interval(0, value)
    assert str(info.value) == message
    report = validate_chord_spec([[0, value]])
    assert report.interval_set is None
    assert report.summary() == f"structure: FAIL ({message})\nnot a valid chord set"


# every reader of a column of numbers, with the column's key
_COLUMNS = [
    ("ys", lambda v: PiecewiseLinearFunction([0, 1], [0, v])),
    ("xs", lambda v: smooth_samples_to_obj([0, v], [0, 1])),
    ("ys", lambda v: svg_for_curves([([0, 1], [0, v])])),
]


@pytest.mark.parametrize("value", [None, 1j, {}], ids=["None", "complex", "dict"])
@pytest.mark.parametrize(
    "key, call", _COLUMNS, ids=[f"{i}-{key}" for i, (key, _) in enumerate(_COLUMNS)]
)
def test_a_column_refuses_what_the_gate_refuses(key, call, value):
    # np.array reads None as NaN, and raises TypeError for 1j and {}
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f'"{key}" must hold numbers, got {value!r}'


def test_a_column_reads_decimals_and_numeric_arrays():
    f = PiecewiseLinearFunction([Decimal(0), Decimal("0.5")], np.array([0, 1], dtype=np.int32))
    assert f.xs.tolist() == [0.0, 0.5] and f.ys.tolist() == [0.0, 1.0]
    with pytest.raises(ValueError, match='^"ys" must hold numbers, got None$'):
        PiecewiseLinearFunction([0, 1], np.array([0, None], dtype=object))


_SET = ClosedIntervalSet.from_pairs([[0, 1]])

# every point evaluation, each of which reads its points with a bare
# float(), np.asarray or np.interp
_POINT_CALLS = {
    "locate": lambda v: _SET.locate(v),
    "contains": lambda v: _SET.contains(v),
    "eval_smooth": lambda v: eval_smooth(_SET, v),
    "eval_smooth-array": lambda v: eval_smooth(_SET, [0.5, v]),
    "smooth-function": lambda v: smooth_chord_function(_SET)(v),
    "shape": lambda v: SmoothShapeSpec("sin_squared")(v),
    "piecewise": lambda v: _F(v),
    "piecewise-array": lambda v: _F([0.5, v]),
}


@pytest.mark.parametrize("value", [10**400, 10**5000], ids=["400-digits", "5000-digits"])
@pytest.mark.parametrize("call", _POINT_CALLS.values(), ids=_POINT_CALLS.keys())
def test_a_point_past_the_float_range_is_one_short_error(call, value):
    # float() and numpy raise OverflowError for it
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f'"x" must hold numbers, got {_PAST_FLOAT}'


# every reader of rows, with a malformed row
_ROW_CALLS = [
    ("splits", lambda row: RaceProfile.from_splits(3, 10, [row])),
    ("breakpoints", lambda row: PiecewiseLinearFunction.from_breakpoints([row])),
    ("samples", lambda row: parse_function({"samples": [row]})),
    ("splits", lambda row: parse_profile({"total_distance": 3, "total_time": 10, "splits": [row]})),
]


@pytest.mark.parametrize("value", [10**400, 10**5000], ids=["400-digits", "5000-digits"])
@pytest.mark.parametrize(
    "key, call", _ROW_CALLS, ids=[f"{i}-{key}" for i, (key, _) in enumerate(_ROW_CALLS)]
)
def test_a_malformed_row_past_the_float_range_is_one_short_error(key, call, value):
    # the malformed-row message would hold the row's repr
    for row in ([value, None], [value, 1, 2], value):
        with pytest.raises(ValueError) as info:
            call(row)
        assert str(info.value) == f'"{key}" must hold numbers, got {_PAST_FLOAT}'


_TOTALS = [(key, call) for key, call in _GATED if key in ("total_distance", "total_time")]


@pytest.mark.parametrize("value, shown", [(-(10**300), "-1e+300"), (0, "0"), (float("inf"), "inf")])
@pytest.mark.parametrize(
    "key, call", _TOTALS, ids=[f"{i}-{key}" for i, (key, _) in enumerate(_TOTALS)]
)
def test_a_total_that_is_not_positive_shows_the_float_read(key, call, value, shown):
    with pytest.raises(ValueError) as info:
        call(value)
    what = key.replace("_", " ")
    assert str(info.value) == f"{what} must be positive and finite, got {shown}"


def test_a_width_not_above_h_shows_the_float_read():
    with pytest.raises(ValueError, match=r"^need total width > h > 0, got width -1e\+300, h 1.0$"):
        build_levy(-(10**300), 1)
