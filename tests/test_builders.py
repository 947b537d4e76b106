import math

import numpy as np
import pytest

from chordlab import (
    SHAPE_KINDS,
    ClosedIntervalSet,
    PiecewiseLinearFunction,
    SmoothFunction,
    SmoothShapeSpec,
    ValidationError,
    build_hopf,
    build_levy,
    eval_smooth,
    has_horizontal_chord,
    smooth_chord_function,
    tolerance,
)
from chordlab.intervals import whole_ratio
from _corpus import SAWTOOTH_PAIRS, random_chord_set, reference_locator

EXPECTED_SAWTOOTH_BREAKPOINTS = [
    (0.0, 0.0), (0.45, 0.45), (0.9, 0.0),
    (1.0, -0.1), (1.1, 0.0), (1.45, 0.35), (1.8, 0.0),
    (2.0, -0.2), (2.2, 0.0), (2.45, 0.25), (2.7, 0.0),
    (3.0, -0.3), (3.3, 0.0), (3.45, 0.15), (3.6, 0.0),
    (4.0, -0.4), (4.4, 0.0),
]


@pytest.fixture
def sawtooth_set():
    return ClosedIntervalSet.from_pairs(SAWTOOTH_PAIRS)


class TestSmoothShapeSpec:
    def test_kinds_exposed(self):
        assert set(SHAPE_KINDS) == {"sin_squared", "triangle_wave"}

    def test_kind_is_required(self):
        with pytest.raises(TypeError, match="kind"):
            SmoothShapeSpec()

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="shape kind"):
            SmoothShapeSpec("gaussian")

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="period"):
            SmoothShapeSpec("sin_squared", period=0.0)
        with pytest.raises(ValueError, match="amplitude"):
            SmoothShapeSpec("sin_squared", amplitude=-1.0)

    def test_sin_squared_period(self):
        shape = SmoothShapeSpec("sin_squared", period=2.0, amplitude=3.0)
        assert shape(0.0) == pytest.approx(0.0, abs=1e-15)
        assert shape(2.0) == pytest.approx(0.0, abs=1e-14)
        assert shape(1.0) == pytest.approx(3.0)

    def test_triangle_wave_shape(self):
        shape = SmoothShapeSpec("triangle_wave", period=1.0, amplitude=2.0)
        assert shape(0.0) == 0.0
        assert shape(0.5) == 2.0
        assert shape(0.25) == pytest.approx(1.0)
        assert shape(1.75) == pytest.approx(1.0)

    def test_vectorized(self):
        shape = SmoothShapeSpec("triangle_wave")
        out = shape(np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-15)


class TestBuildHopf:
    def test_golden_breakpoints(self, sawtooth_set):
        f = build_hopf(sawtooth_set)
        got = list(zip(f.xs, f.ys))
        assert len(got) == len(EXPECTED_SAWTOOTH_BREAKPOINTS)
        for (gx, gy), (ex, ey) in zip(got, EXPECTED_SAWTOOTH_BREAKPOINTS):
            assert gx == pytest.approx(ex, abs=1e-12)
            assert gy == pytest.approx(ey, abs=1e-12)

    def test_accepts_raw_pairs(self):
        f = build_hopf(SAWTOOTH_PAIRS)
        assert f.width == pytest.approx(4.4)

    def test_slopes_are_unit(self, sawtooth_set):
        f = build_hopf(sawtooth_set)
        np.testing.assert_allclose(np.abs(f.slopes()), 1.0)

    def test_rejects_inadmissible_set(self):
        with pytest.raises(ValidationError, match="fails validation"):
            build_hopf([[0, 0.9], [1.1, 2.5]])

    def test_single_interval(self):
        f = build_hopf([[0, 2.0]])
        assert f(1.0) == 1.0
        assert f(0.0) == f(2.0) == 0.0


class TestEvalSmooth:
    def test_interior_value(self, sawtooth_set):
        # alpha = beta = 0.45 at the first interval's midpoint
        val = eval_smooth(sawtooth_set, 0.45)
        assert val == pytest.approx(math.exp(-1.0 / 0.2025), rel=1e-13)
        assert val == pytest.approx(0.007166975037612415, rel=1e-12)

    def test_gap_value_negative(self, sawtooth_set):
        val = eval_smooth(sawtooth_set, 1.0)
        assert val == pytest.approx(-math.exp(-100.0), rel=1e-12)
        assert val < 0

    def test_boundary_values_zero(self, sawtooth_set):
        for b in (0.0, 0.9, 1.1, 4.4):
            assert eval_smooth(sawtooth_set, b) == 0.0

    def test_vectorized(self, sawtooth_set):
        out = eval_smooth(sawtooth_set, np.array([0.45, 0.9, 1.0]))
        assert out.shape == (3,)
        assert out[0] > 0 and out[1] == 0 and out[2] < 0

    def test_underflow_keeps_sign_bit(self):
        # scaled-down copy: gap distances so small the flat profile
        # underflows to zero, which must arrive as -0.0 in the gaps
        tiny = [[a * 0.01, b * 0.01] for a, b in SAWTOOTH_PAIRS]
        s = ClosedIntervalSet.from_pairs(tiny)
        val = eval_smooth(s, 0.01)
        assert val == 0.0
        assert math.copysign(1.0, val) == -1.0
        inside = eval_smooth(s, 0.0045)
        assert inside == 0.0
        assert math.copysign(1.0, inside) == 1.0
        # (x - a)(b - x) itself underflows to 0 here, where exp(-1/ab)
        # would divide by zero
        val = eval_smooth(ClosedIntervalSet.from_pairs([[0, 1e-200]]), 5e-201)
        assert val == 0.0
        assert math.copysign(1.0, val) == 1.0

    def test_bitwise_equal_to_reference(self, sawtooth_set):
        # per-point reference from the pairs alone: the same floating-point
        # operations, so every bit must agree, the sign bit of -0.0 included
        def reference(s, xs):
            locate = reference_locator(s.to_pairs())
            out = []
            for x in xs.tolist():
                sign, a, b = locate(x)
                ab = (x - a) * (b - x)
                val = math.exp(-1.0 / ab) if sign and ab > 0.0 else 0.0
                out.append(-val if sign < 0 else val)
            return np.array(out)

        rng = np.random.default_rng(10)
        sets = [(sawtooth_set, 4097)] + [(random_chord_set(rng), 513) for _ in range(6)]
        for s, n in sets:
            slack = tolerance(s.sup)
            near = np.array(s.boundary)[:, None] + [-2 * slack, -0.5 * slack, 0.5 * slack, 2 * slack]
            xs = np.concatenate([np.linspace(0.0, s.sup, n), near.ravel()])
            xs = xs[(xs >= 0.0) & (xs <= s.sup)]
            want = reference(s, xs)
            assert (np.signbit(want) & (want == 0.0)).any()  # -0.0 occurs
            np.testing.assert_array_equal(eval_smooth(s, xs).view(np.uint64), want.view(np.uint64))

    def test_domain_check(self, sawtooth_set):
        with pytest.raises(ValidationError, match="outside the domain"):
            eval_smooth(sawtooth_set, 5.0)


class TestSmoothFunction:
    def test_fn_runs_once_per_call(self):
        calls = []

        def fn(x):
            calls.append(x.shape)
            return 2.0 * x

        sf = SmoothFunction(fn, 0.0, 1.0)
        np.testing.assert_array_equal(sf(np.linspace(0.0, 1.0, 1000)), np.linspace(0.0, 2.0, 1000))
        sf.to_piecewise(4097)
        assert sf(0.25) == 0.5
        assert calls == [(1000,), (4097,), ()]

    def test_scalar_returns_float(self, sawtooth_set):
        levy = build_levy(2.5, 1.0, SmoothShapeSpec("sin_squared", period=1.0))
        for sf in (levy, smooth_chord_function(sawtooth_set)):
            assert type(sf(0.45)) is float
            assert type(sf(np.float64(0.45))) is float

    def test_keeps_shape(self, sawtooth_set):
        x = np.linspace(0.0, 2.4, 12).reshape(3, 4)
        levy = build_levy(2.5, 1.0, SmoothShapeSpec("sin_squared", period=1.0))
        for sf in (levy, smooth_chord_function(sawtooth_set)):
            out = sf(x)
            assert out.shape == (3, 4)
            np.testing.assert_array_equal(out.ravel(), sf(x.ravel()))

    def test_levy_array_equals_pointwise_bitwise(self):
        rng = np.random.default_rng(66)
        for _ in range(20):
            h = float(rng.uniform(0.2, 2.0))
            w = h * float(rng.uniform(1.1, 9.9))
            shape = SmoothShapeSpec("sin_squared", period=h, amplitude=float(rng.uniform(0.3, 3.0)))
            f = build_levy(w, h, shape)
            xs, ys = f.sample(257)
            pointwise = np.array([f(float(x)) for x in xs])
            assert ys.tobytes() == pointwise.tobytes()

    def test_smooth_sawtooth_array_equals_pointwise_bitwise(self, sawtooth_set):
        sf = smooth_chord_function(sawtooth_set)
        xs, ys = sf.sample(1001)
        pointwise = np.array([sf(float(x)) for x in xs])
        assert ys.tobytes() == pointwise.tobytes()


class TestSmoothChordFunction:
    def test_wraps_eval(self, sawtooth_set):
        sf = smooth_chord_function(sawtooth_set)
        assert isinstance(sf, SmoothFunction)
        assert (sf.x_min, sf.x_max) == (0.0, 4.4)
        assert sf(0.45) == eval_smooth(sawtooth_set, 0.45)
        assert smooth_chord_function(SAWTOOTH_PAIRS)(0.45) == sf(0.45)

    def test_refuses_what_build_hopf_refuses(self):
        # 1 + 1 = 2: the complement is not additive, so no function has
        # this chord set, and both realizations say so in the same words
        bad = [[0, 0.9], [1.1, 2.5]]
        with pytest.raises(ValidationError) as hopf:
            build_hopf(bad)
        with pytest.raises(ValidationError) as smooth:
            smooth_chord_function(bad)
        assert str(smooth.value) == str(hopf.value) == (
            "chord set fails validation:\n"
            "structure: ok (2 intervals, sup = 2.5)\n"
            "additivity: FAIL (complement not closed under addition: 1 + 1 = 2 lies in the set)\n"
            "not a valid chord set"
        )

    def test_sample_and_to_piecewise(self, sawtooth_set):
        sf = smooth_chord_function(sawtooth_set)
        xs, ys = sf.sample(101)
        assert xs.size == ys.size == 101
        assert xs[0] == 0.0 and xs[-1] == 4.4
        pl = sf.to_piecewise(201)
        assert isinstance(pl, PiecewiseLinearFunction)
        assert pl(0.45) == pytest.approx(sf(0.45), abs=1e-4)

    def test_sample_needs_two_points(self, sawtooth_set):
        with pytest.raises(ValueError, match="at least 2"):
            smooth_chord_function(sawtooth_set).sample(1)

    @pytest.mark.parametrize(
        "n, message",
        [
            (1.5, "need at least 2 sample points, got 1.5"),
            (2.5, "the sample count must be a whole number, got 2.5"),
            (float("inf"), "the sample count must be a whole number, got inf"),
            (float("nan"), "the sample count must be a whole number, got nan"),
        ],
    )
    def test_sample_count_is_a_whole_number(self, sawtooth_set, n, message):
        sf = smooth_chord_function(sawtooth_set)
        for call in (sf.sample, sf.to_piecewise):
            with pytest.raises(ValueError) as info:
                call(n)
            assert str(info.value) == message
        assert sf.sample(3.0)[0].tolist() == sf.sample(np.int64(3))[0].tolist() == [0.0, 2.2, 4.4]


class TestBuildLevy:
    def test_triangle_golden(self):
        f = build_levy(1.5, 1.0)
        assert isinstance(f, PiecewiseLinearFunction)
        np.testing.assert_allclose(f.xs, [0.0, 0.5, 1.0, 1.5], atol=1e-12)
        np.testing.assert_allclose(f.ys, [0.0, 2 / 3, -2 / 3, 0.0], atol=1e-12)

    def test_triangle_increment_constant(self):
        f = build_levy(1.5, 1.0)
        xs = np.linspace(0.0, 0.5, 50)
        incs = f(xs + 1.0) - f(xs)
        np.testing.assert_allclose(incs, -2 / 3, atol=1e-12)

    def test_triangle_avoids_chord(self):
        f = build_levy(1.5, 1.0)
        assert not has_horizontal_chord(f, 1.0).exists
        # other lengths remain available, e.g. the full width
        assert has_horizontal_chord(f, 1.5).exists

    def test_sin_squared_closed_form(self):
        shape = SmoothShapeSpec("sin_squared", period=1.0, amplitude=1.0)
        f = build_levy(2.5, 1.0, shape)
        assert isinstance(f, SmoothFunction)
        assert f(0.0) == pytest.approx(0.0, abs=1e-12)
        assert f(2.5) == pytest.approx(0.0, abs=1e-12)
        xs = np.linspace(0.0, 1.5, 40)
        incs = f(xs + 1.0) - f(xs)
        expected = -shape(2.5) / 2.5
        np.testing.assert_allclose(incs, expected, atol=1e-12)

    def test_sin_squared_sampled_oracle(self):
        shape = SmoothShapeSpec("sin_squared", period=1.0, amplitude=1.0)
        pl = build_levy(2.5, 1.0, shape).to_piecewise(4097)
        assert not has_horizontal_chord(pl, 1.0).exists

    def test_integer_multiple_refused(self):
        with pytest.raises(ValueError, match="universal chord theorem"):
            build_levy(3.0, 1.0)
        with pytest.raises(ValueError, match="universal chord theorem"):
            build_levy(2.0, 0.5)

    @pytest.mark.parametrize("kind", ["triangle_wave", "sin_squared"])
    @pytest.mark.parametrize("w", [3.0001, 3.00003, 3.000001])
    def test_near_whole_width_agrees_with_whole_ratio(self, kind, w):
        # the same test of "w is a whole multiple of h" as the race module
        assert whole_ratio(w, 1.0) == 0
        f = build_levy(w, 1.0, SmoothShapeSpec(kind, period=1.0))
        assert f(0.0) == 0.0
        assert whole_ratio(3.0 + 1e-10, 1.0) == 3
        with pytest.raises(ValueError, match="universal chord theorem"):
            build_levy(3.0 + 1e-10, 1.0, SmoothShapeSpec(kind, period=1.0))

    def test_triangle_keeps_corner_next_to_width(self):
        # a corner just inside w is a real corner of f, however close
        w = 1.0 + 1e-9
        f = build_levy(w, 1.0)
        np.testing.assert_array_equal(f.xs, [0.0, 0.5, 1.0, w])
        assert not has_horizontal_chord(f, 1.0).exists

    def test_width_must_exceed_h(self):
        with pytest.raises(ValueError, match="width > h > 0"):
            build_levy(1.0, 1.5)
        with pytest.raises(ValueError, match="width > h > 0"):
            build_levy(1.0, -0.5)

    def test_period_must_match(self):
        with pytest.raises(ValueError, match="period"):
            build_levy(1.5, 1.0, SmoothShapeSpec("triangle_wave", period=0.7))

    def test_amplitude_scales_result(self):
        f = build_levy(1.5, 1.0, SmoothShapeSpec("triangle_wave", period=1.0, amplitude=2.0))
        np.testing.assert_allclose(f.ys, [0.0, 4 / 3, -4 / 3, 0.0], atol=1e-12)
