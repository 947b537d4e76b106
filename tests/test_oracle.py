import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chordlab.oracle as oracle_mod
from chordlab import (
    ClosedIntervalSet,
    PiecewiseLinearFunction,
    build_hopf,
    chord_set,
    chord_set_scan,
    has_horizontal_chord,
    levit_bound,
    sign_changes,
    smooth_chord_function,
    verify_complement_additivity,
)
from _corpus import SAWTOOTH_PAIRS, random_zero_ended_pl


@pytest.fixture(scope="module")
def sawtooth_fn():
    return build_hopf(SAWTOOTH_PAIRS)


@pytest.fixture(scope="module")
def smooth_sawtooth():
    # values down to about 1e-44: products of neighbours underflow
    spec = ClosedIntervalSet.from_pairs(SAWTOOTH_PAIRS)
    return smooth_chord_function(spec).to_piecewise(1001)


class TestHasHorizontalChord:
    def test_absent_length(self, sawtooth_fn):
        res = has_horizontal_chord(sawtooth_fn, 1.0)
        assert not res.exists
        assert res.witness_x is None
        assert res.witness_pair is None

    def test_present_with_witness(self, sawtooth_fn):
        res = has_horizontal_chord(sawtooth_fn, 0.5)
        assert res.exists
        x = res.witness_x
        assert x == pytest.approx(0.2, abs=1e-12)
        assert sawtooth_fn(x + 0.5) == pytest.approx(sawtooth_fn(x), abs=1e-9)
        assert res.witness_pair == (x, x + 0.5)

    def test_witness_values_match_for_many_lengths(self, sawtooth_fn):
        for s in (0.3, 0.9, 1.1, 1.8, 2.2, 2.7, 3.3, 3.6):
            res = has_horizontal_chord(sawtooth_fn, s)
            assert res.exists, s
            x = res.witness_x
            assert abs(sawtooth_fn(x + s) - sawtooth_fn(x)) <= 1e-9

    def test_zero_shift_trivial(self, sawtooth_fn):
        res = has_horizontal_chord(sawtooth_fn, 0.0)
        assert res.exists
        assert res.witness_x == 0.0

    def test_full_width(self, sawtooth_fn):
        res = has_horizontal_chord(sawtooth_fn, 4.4)
        assert res.exists
        assert res.witness_x == 0.0

    def test_domain_check(self, sawtooth_fn):
        with pytest.raises(ValueError, match="chord length"):
            has_horizontal_chord(sawtooth_fn, 4.6)
        with pytest.raises(ValueError, match="chord length"):
            has_horizontal_chord(sawtooth_fn, -0.2)

    def test_leftmost_witness(self):
        # two unit tents: s = 1 has crossings at 0.5 and 2.5; the first wins
        f = PiecewiseLinearFunction(
            np.array([0.0, 1.0, 2.0, 3.0, 4.0]), np.array([0.0, 1.0, 0.0, 1.0, 0.0])
        )
        res = has_horizontal_chord(f, 1.0)
        assert res.witness_x == pytest.approx(0.5, abs=1e-12)
        # s = 2 is witnessed at the very first vertex
        res2 = has_horizontal_chord(f, 2.0)
        assert res2.witness_x == 0.0

    def test_crossing_interpolation_exact(self):
        f = PiecewiseLinearFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]))
        res = has_horizontal_chord(f, 1.0)
        # g(x) = 1 - 2x on [0, 1]
        assert res.witness_x == pytest.approx(0.5, abs=1e-15)

    def test_gap_lengths_absent_on_smooth_sawtooth(self, smooth_sawtooth):
        assert not has_horizontal_chord(smooth_sawtooth, 1.0).exists
        assert not has_horizontal_chord(smooth_sawtooth, 2.0).exists

    def test_finely_sampled_smooth_sawtooth_agrees_with_exact_set(self):
        spec = ClosedIntervalSet.from_pairs(SAWTOOTH_PAIRS)
        f = smooth_chord_function(spec).to_piecewise(4097)
        s = chord_set(f)
        for length in np.linspace(0.0, f.width, 441):
            assert has_horizontal_chord(f, length).exists == s.contains(length), length

    def test_tiny_values_agree_with_exact_set(self, smooth_sawtooth):
        s = chord_set(smooth_sawtooth)
        for length in np.linspace(0.0, smooth_sawtooth.width, 441):
            got = has_horizontal_chord(smooth_sawtooth, length).exists
            assert got == s.contains(length), length


class TestChordSet:
    def test_golden(self, sawtooth_fn):
        got = np.array(chord_set(sawtooth_fn).to_pairs())
        np.testing.assert_allclose(got, SAWTOOTH_PAIRS, atol=1e-12)

    def test_single_point_and_flat(self):
        point = PiecewiseLinearFunction(np.array([1.0]), np.array([2.0]))
        assert chord_set(point).to_pairs() == [[0.0, 0.0]]
        flat = PiecewiseLinearFunction(np.array([1.0, 2.0, 4.0]), np.array([3.0, 3.0, 3.0]))
        assert chord_set(flat).to_pairs() == [[0.0, 3.0]]

    def test_unequal_ends_flip_at_sup(self):
        # x = v on [0, 1] meets y = 3 - 2v on [1, 3] (s = 3 - 3v), and then
        # y = 5 - 4v once the right end is raised to 0.5 (s = 5 - 5v)
        f = PiecewiseLinearFunction(np.array([0.0, 1.0, 3.0]), np.array([0.0, 1.0, 0.0]))
        assert chord_set(f).to_pairs() == [[0.0, 3.0]]
        g = PiecewiseLinearFunction(np.array([0.0, 1.0, 3.0]), np.array([0.0, 1.0, 0.5]))
        np.testing.assert_allclose(chord_set(g).to_pairs(), [[0.0, 2.5]], atol=1e-15)
        scan = chord_set_scan(g, 0.5)
        assert scan.membership.tolist() == [True] * 6 + [False]
        np.testing.assert_allclose(scan.refined_boundaries, [(2.5, 2.5)], atol=1e-15)


class TestChordSetScan:
    def test_membership_matches_set(self, sawtooth_fn):
        scan = chord_set_scan(sawtooth_fn, 0.01)
        assert scan.lengths[0] == 0.0
        assert scan.lengths[-1] == pytest.approx(4.4)
        by_value = dict(zip(np.round(scan.lengths, 6), scan.membership))
        assert by_value[0.5]
        assert by_value[1.5]
        assert not by_value[1.0]
        assert not by_value[2.0]
        assert not by_value[4.0]
        assert by_value[4.4]

    def test_boundaries_bracket_true_edges(self, sawtooth_fn):
        scan = chord_set_scan(sawtooth_fn, 0.01)
        edges = [0.9, 1.1, 1.8, 2.2, 2.7, 3.3, 3.6, 4.4]
        for edge in edges:
            assert any(lo - 1e-9 <= edge <= hi + 1e-9 for lo, hi in scan.refined_boundaries), edge
        for lo, hi in scan.refined_boundaries:
            assert hi - lo <= 0.01 / 1024 + 1e-12

    def test_resolution_validation(self, sawtooth_fn):
        with pytest.raises(ValueError, match="resolution"):
            chord_set_scan(sawtooth_fn, 0.0)
        with pytest.raises(ValueError, match="resolution"):
            chord_set_scan(sawtooth_fn, 10.0)

    def test_single_point_function_rejected(self):
        f = PiecewiseLinearFunction(np.array([0.0]), np.array([0.0]))
        with pytest.raises(ValueError, match="single-point"):
            chord_set_scan(f, 0.1)
        with pytest.raises(ValueError, match="single-point"):
            verify_complement_additivity(f, 0.1)


class TestVerifyComplementAdditivity:
    def test_resolution_validation(self, sawtooth_fn):
        for bad in (0.0, 10.0):
            with pytest.raises(ValueError, match="resolution"):
                verify_complement_additivity(sawtooth_fn, bad)

    def test_holds_for_golden(self, sawtooth_fn):
        check = verify_complement_additivity(sawtooth_fn, 4.4 / 500)
        assert check.holds
        assert check.violations == ()

    def test_holds_for_tent(self):
        f = PiecewiseLinearFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]))
        check = verify_complement_additivity(f, 0.01)
        assert check.holds

    def test_violation_reporting(self, sawtooth_fn, monkeypatch):
        # no real function has a non-additive chord set, so fake one to
        # exercise the reporting path
        fake = ClosedIntervalSet.from_pairs([[0.0, 0.5], [1.1, 1.2], [2.0, 2.5]])
        monkeypatch.setattr(oracle_mod, "chord_set", lambda f: fake)
        check = verify_complement_additivity(sawtooth_fn, 1.0)
        assert not check.holds
        ((a, b, total),) = check.violations
        assert total == a + b
        assert not fake.contains(a) and not fake.contains(b)
        assert fake.contains(total)

    def test_all_present_trivially_holds(self):
        f = PiecewiseLinearFunction(np.array([0.0, 2.0]), np.array([0.0, 0.0]))
        check = verify_complement_additivity(f, 0.05)
        assert check.holds


class TestSignChanges:
    def test_golden_count(self, sawtooth_fn):
        assert sign_changes(sawtooth_fn) == 7

    def test_requires_zero_endpoints(self):
        f = PiecewiseLinearFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="zero endpoint"):
            sign_changes(f)

    def test_zero_function(self):
        f = PiecewiseLinearFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.0, 0.0]))
        assert sign_changes(f) == 0

    def test_small_wiggles_counted_exactly(self):
        # the chord set is [0, 1.999999999999] and {3}: the wiggle keeps
        # lengths in (2, 3) out, so it must count and cap the Levit bound
        f = PiecewiseLinearFunction(
            np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, -1e-12, 0.0])
        )
        assert sign_changes(f) == 1
        assert levit_bound(f) == 1.5

    def test_tiny_values_counted_by_sign(self, smooth_sawtooth):
        assert sign_changes(smooth_sawtooth) == 7

    def test_single_lobe(self):
        f = PiecewiseLinearFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]))
        assert sign_changes(f) == 0


class TestLevitBound:
    def test_golden_value(self, sawtooth_fn):
        assert levit_bound(sawtooth_fn) == pytest.approx(4.4 / 5, rel=1e-12)

    def test_smooth_sawtooth(self, smooth_sawtooth):
        # 7 sign changes, as for the tent version: below the gap (0.906, 1.096)
        assert levit_bound(smooth_sawtooth) == pytest.approx(4.4 / 5, rel=1e-12)

    def test_single_lobe_gets_full_width(self):
        f = PiecewiseLinearFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]))
        assert levit_bound(f) == 2.0

    def test_guaranteed_lengths_exist(self, sawtooth_fn):
        bound = levit_bound(sawtooth_fn)
        for s in np.linspace(bound / 10, bound, 10):
            assert has_horizontal_chord(sawtooth_fn, float(s)).exists


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.01, max_value=1.0))
def test_witnesses_are_genuine(seed, s_frac):
    rng = np.random.default_rng(seed)
    f = random_zero_ended_pl(rng)
    s = s_frac * f.width
    res = has_horizontal_chord(f, s)
    if res.exists:
        x = res.witness_x
        assert f.x_min - 1e-9 <= x <= f.x_max - s + 1e-9
        assert abs(f(x + s) - f(x)) <= 1e-7
