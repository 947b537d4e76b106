import time
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordlab import (
    PiecewiseLinearFunction,
    RaceProfile,
    build_adversarial_profile,
    build_levy,
    exists_average_split,
    find_average_split,
    from_chord_function,
    to_chord_problem,
    tolerance,
    window_time_extrema,
)
from _corpus import random_bounded_profile, random_integer_ratio_profile

HALF_MARATHON = dict(
    total_distance=21.1,
    total_time=3950.0,
    splits=[(9.1, 1620.0), (12.0, 2330.0), (21.1, 3950.0)],
)


@pytest.fixture
def half_marathon():
    return RaceProfile.from_splits(
        HALF_MARATHON["total_distance"],
        HALF_MARATHON["total_time"],
        HALF_MARATHON["splits"],
    )


@pytest.fixture
def three_miles():
    # miles in 330 s, 390 s, 360 s: average pace 360 s per mile
    return RaceProfile.from_splits(3.0, 1080.0, [(1.0, 330.0), (2.0, 720.0), (3.0, 1080.0)])


class TestRaceProfile:
    def test_from_splits_transposes(self, half_marathon):
        np.testing.assert_allclose(half_marathon.position.xs, [0.0, 1620.0, 2330.0, 3950.0])
        np.testing.assert_allclose(half_marathon.position.ys, [0.0, 9.1, 12.0, 21.1])

    def test_splits_round_trip(self, half_marathon):
        assert half_marathon.splits() == [(9.1, 1620.0), (12.0, 2330.0), (21.1, 3950.0)]

    def test_leading_zero_split_tolerated(self):
        p = RaceProfile.from_splits(2.0, 600.0, [(0.0, 0.0), (2.0, 600.0)])
        assert p.position.xs.size == 2

    def test_from_splits_scales_linearly(self):
        n, budget = 100_000, 2.0
        splits = [(k + 1.0, 3.0 * (k + 1)) for k in range(n)]
        t0 = time.perf_counter()
        p = RaceProfile.from_splits(float(n), 3.0 * n, splits)
        dt = time.perf_counter() - t0
        print(f"from_splits with {n} splits: {dt:.2f}s (budget {budget:.0f}s)")
        assert p.position.xs.size == n + 1
        assert dt < budget

    def test_average_pace(self, half_marathon):
        assert half_marathon.average_pace == pytest.approx(3950.0 / 21.1)

    def test_constant(self):
        p = RaceProfile.constant(10.0, 2400.0)
        assert p.position(1200.0) == pytest.approx(5.0)
        # float() reads a Decimal total, as RaceProfile and from_splits do
        assert RaceProfile.constant(Decimal(10), 2400).position.ys.tolist() == [0.0, 10.0]

    def test_inverse(self, half_marathon):
        inv = half_marathon.inverse
        assert inv(12.0) == pytest.approx(2330.0)
        assert inv(21.1) == pytest.approx(3950.0)

    def test_inverse_shares_the_position_arrays(self, half_marathon):
        inv = half_marathon.inverse
        assert np.shares_memory(inv.xs, half_marathon.position.ys)
        assert np.shares_memory(inv.ys, half_marathon.position.xs)

    def test_rejects_flat_segment(self):
        pos = PiecewiseLinearFunction(np.array([0.0, 100.0, 200.0]), np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="forward progress"):
            RaceProfile(1.0, 200.0, pos)

    def test_rejects_backward_segment(self):
        with pytest.raises(ValueError, match="forward progress"):
            RaceProfile.from_splits(
                2.0, 200.0, [(1.5, 100.0), (1.2, 150.0), (2.0, 200.0)]
            )

    def test_rejects_wrong_final_split(self):
        with pytest.raises(ValueError, match="final split"):
            RaceProfile.from_splits(3.0, 1080.0, [(1.0, 330.0), (2.9, 1080.0)])
        for splits in ([], [(0, 0)]):
            with pytest.raises(ValueError, match="^need at least one split beyond the start$"):
                RaceProfile.from_splits(10, 100, splits)

    @pytest.mark.parametrize(
        "splits, shown",
        [
            ([["1", True], ["3", 10]], "'1'"),
            ([[1, True], [3, 10]], "True"),
            ([[1, 2], b"12", [3, 10]], "b'12'"),
            ([[1, 2], "12", [3, 10]], "'12'"),
        ],
    )
    def test_refuses_booleans_strings_and_bytes(self, splits, shown):
        # float() reads each of them as a number, and a bytes row as its codes
        with pytest.raises(ValueError, match=rf'^"splits" must hold numbers, got {shown}$'):
            RaceProfile.from_splits(3, 10, splits)

    @pytest.mark.parametrize(
        "totals, message",
        [
            ((True, "10"), '"total_distance" must hold numbers, got True'),
            ((3, "10"), "\"total_time\" must hold numbers, got '10'"),
            ((3, b"10"), "\"total_time\" must hold numbers, got b'10'"),
            ((np.True_, 10), f'"total_distance" must hold numbers, got {np.True_!r}'),
        ],
        ids=["boolean", "string", "bytes", "numpy-boolean"],
    )
    def test_refuses_boolean_and_string_totals(self, totals, message):
        # float() reads True as 1 and "10" as 10
        with pytest.raises(ValueError) as info:
            RaceProfile.from_splits(*totals, [[1, 10]])
        assert str(info.value) == message
        pos = PiecewiseLinearFunction(np.array([0.0, 10.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError) as info:
            RaceProfile(*totals, pos)
        assert str(info.value) == message

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError, match="invalid splits"):
            RaceProfile.from_splits(3.0, 1080.0, [(1.0, 700.0), (2.0, 500.0), (3.0, 1080.0)])

    def test_rejects_bad_totals(self):
        with pytest.raises(ValueError, match="total distance"):
            RaceProfile.constant(-1.0, 100.0)
        pos = PiecewiseLinearFunction(np.array([0.0, 100.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="total time"):
            RaceProfile(1.0, 0.0, pos)

    def test_rejects_span_mismatch(self):
        pos = PiecewiseLinearFunction(np.array([0.0, 100.0]), np.array([0.0, 2.0]))
        with pytest.raises(ValueError, match="span"):
            RaceProfile(2.0, 200.0, pos)
        with pytest.raises(ValueError, match="^position must have at least one segment$"):
            RaceProfile(10, 100, PiecewiseLinearFunction([0], [0]))
        with pytest.raises(ValueError, match="^position must climb from 0 to 10, got 0 to 5$"):
            RaceProfile(10, 100, PiecewiseLinearFunction([0, 100], [0, 5]))


class TestWindowTimeExtrema:
    def test_half_marathon_golden(self, half_marathon):
        ex = window_time_extrema(half_marathon, 12.0)
        assert ex.min_time == pytest.approx(2330.0, abs=1e-9)
        assert ex.max_time == pytest.approx(2330.0, abs=1e-9)

    def test_constant_profile(self):
        p = RaceProfile.constant(10.0, 2000.0)
        ex = window_time_extrema(p, 4.0)
        assert ex.min_time == pytest.approx(800.0)
        assert ex.max_time == pytest.approx(800.0)

    def test_bounds_bracket_average(self, three_miles):
        ex = window_time_extrema(three_miles, 1.0)
        assert ex.min_time <= 360.0 <= ex.max_time
        assert ex.min_time == pytest.approx(330.0)

    def test_domain_checks(self, three_miles):
        with pytest.raises(ValueError, match="positive"):
            window_time_extrema(three_miles, 0.0)
        with pytest.raises(ValueError, match="exceeds"):
            window_time_extrema(three_miles, 3.5)


def _random_profile(rng, n):
    ts = np.r_[0.0, np.cumsum(rng.uniform(0.5, 2.0, n))]
    ds = np.r_[0.0, np.cumsum(rng.exponential(1.0, n) + 1e-3)]
    return RaceProfile(float(ds[-1]), float(ts[-1]), PiecewiseLinearFunction(ts, ds))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["whole race", "tiny", "whole ratio", "fraction"]),
)
def test_extrema_are_those_of_the_window_curve(n, seed, kind):
    rng = np.random.default_rng(seed)
    p = _random_profile(rng, n)
    L = p.total_distance
    d = {
        "whole race": L,
        "tiny": L * 1e-9,
        "whole ratio": L / int(rng.integers(1, 12)),
        "fraction": L / rng.uniform(1.0, 12.0),
    }[kind]
    ex = window_time_extrema(p, d)
    g = p.inverse.shift_difference(d)
    assert np.float64(ex.min_time).tobytes() == g.ys.min().tobytes()
    assert np.float64(ex.max_time).tobytes() == g.ys.max().tobytes()


def _peak_bytes(fn) -> int:
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRacePathMemory:
    """Peaks at 10^5 splits, in units of one float array of the profile."""

    @pytest.fixture(scope="class")
    def big(self):
        p = _random_profile(np.random.default_rng(3), 100_000)
        return p, p.total_distance / 7.37, 8 * p.position.xs.size

    def test_to_chord_problem_makes_two_arrays(self, big):
        p, d, array = big
        assert _peak_bytes(lambda: to_chord_problem(p, d)) < 3 * array

    def test_window_extrema_build_no_window_curve(self, big):
        p, d, array = big
        assert _peak_bytes(lambda: window_time_extrema(p, d)) < 6 * array


class TestToChordProblem:
    def test_golden_rescale(self, three_miles):
        g = to_chord_problem(three_miles, 1.0)
        np.testing.assert_allclose(g.xs, [0.0, 11.0 / 12.0, 2.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(g.ys, [0.0, 1.0 / 12.0, 0.0, 0.0], atol=1e-12)

    def test_endpoints_exact_zero(self, half_marathon):
        g = to_chord_problem(half_marathon, 12.0)
        assert g.ys[0] == 0.0 and g.ys[-1] == 0.0
        assert g.xs[0] == 0.0
        assert g.x_max == pytest.approx(21.1 / 12.0, rel=1e-12)

    def test_unit_chord_matches_window(self, three_miles):
        g = to_chord_problem(three_miles, 1.0)
        u = 165.0 / 360.0
        assert g(u + 1.0) == pytest.approx(g(u), abs=1e-9)


class TestExistsAverageSplit:
    def test_half_marathon_has_none(self, half_marathon):
        res = exists_average_split(half_marathon, 12.0)
        assert not res.exists
        assert res.s == pytest.approx(47400.0 / 21.1, rel=1e-12)
        assert res.witness_x is None

    def test_three_mile_witness(self, three_miles):
        res = exists_average_split(three_miles, 1.0)
        assert res.exists
        assert res.s == pytest.approx(360.0)
        assert res.witness_x == pytest.approx(165.0, abs=1e-6)

    def test_full_distance_trivial(self, three_miles):
        res = exists_average_split(three_miles, 3.0)
        assert res.exists
        assert res.witness_x == pytest.approx(0.0, abs=1e-9)

    def test_constant_profile_everywhere(self):
        p = RaceProfile.constant(10.0, 2000.0)
        res = exists_average_split(p, 3.0)
        assert res.exists
        assert res.witness_x == pytest.approx(0.0, abs=1e-9)


class TestFindAverageSplit:
    def test_three_mile_golden(self, three_miles):
        t = find_average_split(three_miles, 1.0)
        assert t == pytest.approx(165.0, abs=1e-6)
        covered = three_miles.position(t + 360.0) - three_miles.position(t)
        assert abs(covered - 1.0) <= 1e-9

    def test_two_mile_example(self):
        p = RaceProfile.from_splits(2.0, 720.0, [(1.0, 300.0), (2.0, 720.0)])
        t = find_average_split(p, 1.0)
        assert t == pytest.approx(150.0, abs=1e-6)

    def test_aligned_exact_hit(self):
        p = RaceProfile.from_splits(2.0, 720.0, [(1.0, 360.0), (2.0, 720.0)])
        assert find_average_split(p, 1.0) == 0.0
        p = RaceProfile.from_splits(3.0, 1080.0, [(1.0, 300.0), (2.0, 660.0), (3.0, 1080.0)])
        assert find_average_split(p, 1.0) == pytest.approx(300.0, abs=1e-9)

    def test_whole_race_window(self, three_miles):
        assert find_average_split(three_miles, 3.0) == 0.0

    def test_ratio_matching_a_whole_number(self):
        # fast first and last miles: no window covers exactly d, a hair
        # under L, but L/d matches 1, so the whole-race window is found
        p = RaceProfile.from_splits(3.0, 1080.0, [(1.0, 300.0), (2.0, 780.0), (3.0, 1080.0)])
        d = 3.0 * (1 - 1e-12)
        assert find_average_split(p, d) == 0.0
        assert exists_average_split(p, d).exists

    def test_non_integer_ratio_rejected(self, three_miles):
        with pytest.raises(ValueError, match="whole-number multiple"):
            find_average_split(three_miles, 2.0)

    def test_window_larger_than_race_rejected(self, three_miles):
        with pytest.raises(ValueError, match="exceeds"):
            find_average_split(three_miles, 4.0)

    def test_respects_postcondition_on_randoms(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            profile, d, n = random_integer_ratio_profile(rng)
            t = find_average_split(profile, d)
            window = profile.total_time / n
            covered = profile.position(t + window) - profile.position(t)
            assert abs(covered - d) <= 1e-9 * d
            assert -1e-12 <= t <= profile.total_time - window + 1e-9

    def test_scales_to_many_splits(self):
        n, budget = 100_000, 1.0
        ts = np.concatenate([[0.0], np.cumsum(3.0 + np.sin(np.arange(n)))])
        p = RaceProfile(float(n), float(ts[-1]), PiecewiseLinearFunction(ts, np.arange(n + 1.0)))
        t0 = time.perf_counter()
        t = find_average_split(p, n / 4.0)
        dt = time.perf_counter() - t0
        print(f"find_average_split with {n} splits: {dt:.3f}s (budget {budget:.0f}s)")
        window = p.total_time / 4.0
        assert abs(p.position(t + window) - p.position(t) - n / 4.0) <= 1e-9 * n / 4.0
        assert dt < budget


class TestVerticesCounter:
    def test_no_window_counts_the_whole_difference(self):
        profile = build_adversarial_profile(7.4, 2000.0, 1.0, phi_kind="sin_squared")
        res = exists_average_split(profile, 1.0)
        assert not res.exists
        g = to_chord_problem(profile, 1.0)
        assert res.vertices == g.shift_difference(1.0).xs.size

    def test_early_window_stops_early(self):
        # 10^5 splits at 0.7 to 1.3 times the average speed; with this
        # seed the first average-pace third of the race starts near the gun
        rng = np.random.default_rng(0)
        n, L, T = 100_000, 30.0, 9000.0
        dur = rng.uniform(0.5, 1.5, n)
        gain = dur * rng.uniform(0.7, 1.3, n)
        ts = np.r_[0.0, np.cumsum(dur * T / dur.sum())]
        ds = np.r_[0.0, np.cumsum(gain * L / gain.sum())]
        ts[-1], ds[-1] = T, L
        profile = RaceProfile(L, T, PiecewiseLinearFunction(ts, ds))
        res = exists_average_split(profile, L / 3)
        assert res.witness_x < 0.01 * T
        full = to_chord_problem(profile, L / 3).shift_difference(1.0).xs.size
        assert res.vertices < full / 10


def _assert_exact_witness(profile, d):
    t = find_average_split(profile, d)
    assert t == exists_average_split(profile, d).witness_x
    window = profile.total_time * d / profile.total_distance
    covered = profile.position(t + window) - profile.position(t)
    assert abs(covered - d) <= 1e-9 * d


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_find_is_exact_witness(seed):
    profile, d, _ = random_integer_ratio_profile(np.random.default_rng(seed))
    _assert_exact_witness(profile, d)
    _assert_exact_witness(profile, profile.total_distance)  # n = 1


class TestFromChordFunction:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            profile = random_bounded_profile(rng)
            d = profile.total_distance / rng.uniform(1.3, 4.0)
            g = to_chord_problem(profile, d)
            back = from_chord_function(
                g, profile.total_distance, profile.total_time, d
            )
            np.testing.assert_allclose(back.position.xs, profile.position.xs, atol=1e-6)
            np.testing.assert_allclose(back.position.ys, profile.position.ys, atol=1e-9)

    def test_round_trip_with_fast_segments(self):
        # a segment at twice the average speed or faster inverts exactly
        profiles = [(RaceProfile.from_splits(3.0, 300.0, [(2.0, 50.0), (3.0, 300.0)]), 1.2)]
        rng = np.random.default_rng(8)
        while len(profiles) < 20:
            ts = np.cumsum(np.r_[0.0, rng.uniform(0.1, 2.0, int(rng.integers(2, 8)))])
            ds = np.cumsum(np.r_[0.0, rng.uniform(0.1, 2.0, ts.size - 1)])
            if np.max(np.diff(ds) / np.diff(ts)) >= 2 * ds[-1] / ts[-1]:
                p = RaceProfile(ds[-1], ts[-1], PiecewiseLinearFunction(ts, ds))
                profiles.append((p, ds[-1] / rng.uniform(1.3, 4.0)))
        for profile, d in profiles:
            L, T = profile.total_distance, profile.total_time
            back = from_chord_function(to_chord_problem(profile, d), L, T, d)
            pos = profile.position
            np.testing.assert_allclose(back.position.xs, pos.xs, rtol=0, atol=tolerance(T))
            np.testing.assert_allclose(back.position.ys, pos.ys, rtol=0, atol=tolerance(L))

    @pytest.mark.parametrize("peak, segment", [(2.5, 1), (5.0, 1), (-2.5, 0)])
    def test_refuses_slopes_that_stall_the_runner(self, peak, segment):
        # slopes +-peak / 1.25 on [0, 2.5]; one of -2 or less stalls a runner
        # who covers d = 2 per unit, and RaceProfile names that segment
        g = PiecewiseLinearFunction(np.array([0.0, 1.25, 2.5]), np.array([0.0, peak, 0.0]))
        with pytest.raises(ValueError, match=f"strictly forward progress; segment {segment} "):
            from_chord_function(g, 5.0, 1000.0, 2.0)

    def test_rejects_wrong_domain(self):
        g = PiecewiseLinearFunction(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="L/d"):
            from_chord_function(g, 5.0, 1000.0, 2.0)

    def test_rejects_nonzero_endpoints(self):
        g = PiecewiseLinearFunction(np.array([0.0, 2.5]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="vanish"):
            from_chord_function(g, 5.0, 1000.0, 2.0)

    def test_refuses_a_time_scale_that_overflows(self):
        # T / (L/d) underflows to 0, which put every time at 0; the scale
        # is refused as to_chord_problem refuses it
        g = PiecewiseLinearFunction(np.array([0.0, 10 / 3]), np.array([0.0, 0.0]))
        message = "(L/d)/T = 3.33333/4.94066e-324 overflows; the total time is too short"
        with pytest.raises(ValueError) as info:
            from_chord_function(g, 10, 5e-324, 3)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            build_adversarial_profile(10, 5e-324, 3)
        assert str(info.value) == message


class TestBuildAdversarialProfile:
    def test_triangle_golden(self):
        profile = build_adversarial_profile(3.0, 1200.0, 2.0)
        assert profile.splits() == pytest.approx([(1.25, 400.0), (1.75, 800.0), (3.0, 1200.0)])
        assert not exists_average_split(profile, 2.0).exists

    def test_every_window_misses_average(self):
        profile = build_adversarial_profile(3.0, 1200.0, 2.0)
        ex = window_time_extrema(profile, 2.0)
        avg_window = 1200.0 * 2.0 / 3.0
        assert ex.min_time > avg_window + 1.0 or ex.max_time < avg_window - 1.0

    def test_levy_base_drives_profile(self):
        # the constructed profile is the sheared chord-avoiding function
        profile = build_adversarial_profile(3.0, 1200.0, 2.0)
        base = build_levy(1.5, 1.0)
        g = to_chord_problem(profile, 2.0)
        factor = 2.0 * 0.5 / np.max(np.abs(base.slopes()))
        np.testing.assert_allclose(g.ys, base.ys * factor, atol=1e-9)

    def test_sin_squared_variant(self):
        profile = build_adversarial_profile(5.0, 1500.0, 2.0, phi_kind="sin_squared")
        assert not exists_average_split(profile, 2.0).exists

    @pytest.mark.parametrize("kind", ["triangle_wave", "sin_squared"])
    @pytest.mark.parametrize("L", [3.0001, 3.00003, 3.000001])
    def test_near_whole_ratio(self, kind, L):
        # the sin^2 polyline used to keep a unit chord here (3.0001,
        # 3.00003) or be refused as whole (3.000001)
        profile = build_adversarial_profile(L, 1000.0, 1.0, phi_kind=kind)
        assert not exists_average_split(profile, 1.0).exists

    @pytest.mark.parametrize("kind", ["triangle_wave", "sin_squared"])
    @pytest.mark.parametrize(
        "L, d",
        [(9.516045842151563, 3.8064183368606255), (5.5 * 1.8064183368606255, 1.8064183368606255)],
    )
    def test_ratio_a_rounding_off_a_dyadic_width(self, kind, L, d):
        # L/d is 2.5 or 5.5 give or take one ulp: grid points and corners
        # closer than the tolerance to another one must merge, or the
        # profile stalls on a segment of zero length
        profile = build_adversarial_profile(L, 10.0, d, phi_kind=kind)
        assert np.all(np.diff(profile.position.xs) > 0)
        assert not exists_average_split(profile, d).exists

    def test_triangle_just_off_the_whole_ratio_tolerance(self):
        profile = build_adversarial_profile(1.0 + 1e-9, 1000.0, 1.0)
        assert not exists_average_split(profile, 1.0).exists

    def test_sin_squared_grid_is_shift_closed(self):
        # sampled at k/m and W - k/m, so the unit increments of the
        # polyline take the constant -phi(W)/W at every vertex
        profile = build_adversarial_profile(3.0001, 1000.0, 1.0, phi_kind="sin_squared")
        g = to_chord_problem(profile, 1.0)
        assert g.xs.size == 6146
        inc = g(g.xs[g.xs <= g.x_max - 1.0] + 1.0) - g(g.xs[g.xs <= g.x_max - 1.0])
        assert np.all(inc < 0)
        np.testing.assert_allclose(inc, np.median(inc), rtol=1e-4)

    def test_sin_squared_sample_count(self):
        # never more than the 8193 uniform samples it replaced, for W <= 4096
        for L in (1.5, 5.43, 7.9, 1000.3, 4095.7):
            profile = build_adversarial_profile(L, 100.0 * L, 1.0, phi_kind="sin_squared")
            assert profile.position.xs.size <= 8193
        profile = build_adversarial_profile(5.43, 543.0, 1.0, phi_kind="sin_squared")
        assert profile.position.xs.size == 5562

    @pytest.mark.parametrize("L", [3 + 2e-8, 3 + 3e-8, 20 + 2e-7])
    def test_sin_squared_too_close_to_a_whole_ratio(self, L):
        # the sin^2 increment -sin^2(pi delta)/W is below rounding here; the
        # triangle's is linear in delta and still builds
        n = round(L)
        with pytest.raises(ValueError, match=rf"from the whole number {n}:.*triangle"):
            build_adversarial_profile(L, 1000.0, 1.0, phi_kind="sin_squared")
        profile = build_adversarial_profile(L, 1000.0, 1.0, phi_kind="triangle_wave")
        assert not exists_average_split(profile, 1.0).exists

    def test_whole_ratio_rejected(self):
        with pytest.raises(ValueError, match="unavoidable"):
            build_adversarial_profile(4.0, 1200.0, 2.0)

    def test_window_must_be_smaller(self):
        with pytest.raises(ValueError, match="strictly less"):
            build_adversarial_profile(2.0, 1200.0, 2.0)
        with pytest.raises(ValueError, match="^window distance 2 exceeds the total distance 1$"):
            build_adversarial_profile(1.0, 1200.0, 2.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.25, max_value=4.0, allow_nan=False))
def test_time_rescaling_scales_witness(factor):
    p = RaceProfile.from_splits(
        3.0, 1080.0 * factor,
        [(1.0, 330.0 * factor), (2.0, 720.0 * factor), (3.0, 1080.0 * factor)],
    )
    t = find_average_split(p, 1.0)
    assert t == pytest.approx(165.0 * factor, rel=1e-9)
