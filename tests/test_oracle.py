import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chordlab.oracle as oracle_mod
from chordlab import (
    ClosedIntervalSet,
    PiecewiseLinearFunction,
    RaceProfile,
    build_hopf,
    chord_set,
    chord_set_scan,
    from_chord_function,
    has_horizontal_chord,
    levit_bound,
    sign_changes,
    smooth_chord_function,
    verify_complement_additivity,
)
from _corpus import (
    SAWTOOTH_PAIRS,
    random_chord_set,
    random_zero_ended_pl,
    reference_cells,
    reference_chord_scan,
    reference_chord_set,
    refuse_huge,
)


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

    def test_present_with_witness(self, sawtooth_fn):
        res = has_horizontal_chord(sawtooth_fn, 0.5)
        assert res.exists
        x = res.witness_x
        assert x == pytest.approx(0.2, abs=1e-12)
        assert sawtooth_fn(x + 0.5) == pytest.approx(sawtooth_fn(x), abs=1e-9)
        assert res.s == 0.5  # the chord is [witness_x, witness_x + s]

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

    def test_nan_length_refused(self, sawtooth_fn):
        with pytest.raises(ValueError) as info:
            has_horizontal_chord(sawtooth_fn, float("nan"))
        assert str(info.value) == (
            "shift (chord length) nan must lie in [0, 4.4] for a function of that width"
        )

    @pytest.mark.parametrize(
        "xs, ys, s, root",
        [
            # g(0) = 1.5e308 and g(1) = -1.5e308: y1 - y0 overflows
            ([0, 1, 2, 3], [0, 1.5e308, 0, 1.5e308], 1.0, 0.5),
            # g(0) = 1e308 and g(2) = -5e307: y0 * (x1 - x0) overflows
            ([0, 2, 6], [0, 1e308, 0], 2.0, 4.0 / 3.0),
        ],
        ids=["difference", "product"],
    )
    def test_witness_between_values_far_apart(self, xs, ys, s, root):
        res = has_horizontal_chord(PiecewiseLinearFunction(xs, ys), s)
        assert res.exists
        assert res.witness_x == pytest.approx(root, rel=1e-15)

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


@pytest.mark.parametrize(
    "query",
    [
        lambda f: has_horizontal_chord(f, 1.0),
        lambda f: f.slopes(),
        chord_set,
        lambda f: chord_set_scan(f, 0.5),
        lambda f: from_chord_function(f, 3.0, 100.0, 1.0),
        lambda f: RaceProfile(3.0, 3.0, PiecewiseLinearFunction(f.xs, f.ys + f.xs)),
    ],
    ids=[
        "has_horizontal_chord", "slopes", "chord_set", "chord_set_scan", "from_chord_function",
        "RaceProfile",
    ],
)
def test_values_spanning_past_the_largest_float_are_refused(query):
    # g(1) = f(2) - f(1) would overflow to -inf, and the root between
    # g(0) = 1e308 and g(1) would come out as 0.0 instead of 1/3
    f = PiecewiseLinearFunction([0, 1, 2, 3], [0, 1e308, -1e308, 0])
    with pytest.raises(ValueError) as info:
        query(f)
    assert str(info.value) == (
        "function values span [-1e+308, 1e+308], a range past the largest float; scale them down"
    )


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

    def test_closes_gaps_of_a_few_ulps(self):
        # this tent sampled on 41 points leaves two cells' lengths one ulp
        # apart near 4.25: rounding, not a missing length
        tent = build_hopf(random_chord_set(np.random.default_rng(34)))
        xs = np.linspace(0.0, tent.x_max, 41)
        f = PiecewiseLinearFunction(xs, tent(xs))
        eps = 4 * np.spacing(f.x_max)
        assert all(b - a > eps for a, b in chord_set(f).gaps)


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

    @pytest.mark.parametrize("resolution", [5e-324, 1e-300, 1e-18])
    def test_step_count_past_the_largest_array(self, sawtooth_fn, monkeypatch, resolution):
        # past the float range, and past the largest array numpy can hold:
        # both are refused before anything is allocated
        refuse_huge(monkeypatch, "arange", 0)
        with pytest.raises(ValueError) as info:
            chord_set_scan(sawtooth_fn, resolution)
        assert str(info.value) == (
            f"resolution {resolution:g} gives too many grid lengths over width 4.4"
        )

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


def _one_pass_shift_difference(f, s):
    """g(x) = f(x + s) - f(x) built in one pass over all candidates."""
    lo, hi = f.x_min, f.x_max - s
    cand = np.unique(np.clip(np.concatenate([f.xs, f.xs - s, [lo, hi]]), lo, hi))
    return cand, f(cand + s) - f(cand)


def _reference_chord(f, s):
    """(exists, witness) from the whole shifted difference: the first
    exact zero unless a sign change comes before it."""
    g = f.shift_difference(s)
    ys = g.ys
    zeros = np.flatnonzero(ys == 0.0)
    neg = np.signbit(ys)
    cross = np.flatnonzero((neg[:-1] != neg[1:]) & (ys[:-1] != 0) & (ys[1:] != 0))
    if zeros.size and (not cross.size or zeros[0] <= cross[0]):
        return True, float(g.xs[zeros[0]])
    if cross.size:
        i = cross[0]
        x0, x1, y0, y1 = map(float, (g.xs[i], g.xs[i + 1], ys[i], ys[i + 1]))
        return True, x0 - y0 * (x1 - x0) / (y1 - y0)
    return False, None


def _assert_matches_reference(f, s):
    res = has_horizontal_chord(f, s)
    exists, witness = _reference_chord(f, s)
    # repr tells -0.0 from 0.0: the witness must agree bit for bit
    assert (res.exists, repr(res.witness_x)) == (exists, repr(witness))
    g = f.shift_difference(s)
    assert 0 < res.vertices <= g.xs.size
    if not exists:
        assert res.vertices == g.xs.size
    return res


class TestBlockedScan:
    """has_horizontal_chord builds g block by block and stops at the first
    block holding an answer; answers and witnesses must equal those read
    off the whole shifted difference."""

    @staticmethod
    def steps(n, changes=None):
        # f on 0, 1, ..., n with positive steps except those changed; at
        # s = 1, g's vertex i is f's step i, so a step k of 0 is a zero of
        # g at vertex k and a negative one a sign change from vertex k - 1
        dy = np.random.default_rng(0).uniform(0.5, 2.0, n)
        for k, value in (changes or {}).items():
            dy[k] = value
        return PiecewiseLinearFunction(np.arange(n + 1.0), np.r_[0.0, np.cumsum(dy)])

    @pytest.mark.parametrize("k", [1, 1023, 1024, 1025, 3071, 3072, 3073, 7999])
    @pytest.mark.parametrize("value", [0.0, -0.75])
    def test_first_answer_at_a_block_cut(self, k, value):
        # g's vertices 0..1023 form the first block and 1024..3071 the
        # second, so k = 1024 puts a zero on a cut and a sign change across it
        f = self.steps(8000, {k: value})
        res = _assert_matches_reference(f, 1.0)
        assert res.exists
        lo = k if value == 0.0 else k - 1
        assert lo <= res.witness_x <= k
        blocks_read = next(e for e in (1024, 3072, 7168, 8000) if e > k)
        assert res.vertices == blocks_read

    @pytest.mark.parametrize("k", [1022, 1023, 1500])
    def test_first_of_a_zero_and_a_sign_change_wins(self, k):
        f = self.steps(5000, {k: -0.75, k + 2: 0.0})
        assert k - 1 < _assert_matches_reference(f, 1.0).witness_x < k
        f = self.steps(5000, {k: 0.0, k + 2: -0.75})
        assert _assert_matches_reference(f, 1.0).witness_x == k

    def test_blocks_are_the_whole_difference(self):
        f = self.steps(9000, {4000: -0.75})
        for s in (0.0, 0.37, 1.0, 4321.5, f.width):
            xs, ys = (np.concatenate(p) for p in zip(*f._shift_difference_blocks(s)))
            want = _one_pass_shift_difference(f, s)
            assert xs.tobytes() == want[0].tobytes() and ys.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("n", [3, 1500, 5000])
    def test_no_chord_builds_everything(self, n):
        f = self.steps(n)  # strictly increasing
        for s in (0.5, 1.0, n / 3.0 + 0.1):
            res = _assert_matches_reference(f, s)
            assert not res.exists
            assert res.vertices == f.shift_difference(s).xs.size


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=5000),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_blocked_scan_matches_the_whole_difference(n, seed, drift, s_frac):
    # a random walk with drift: the larger the drift, the later the first
    # zero of g, and with no noise left there is none
    rng = np.random.default_rng(seed)
    xs = np.unique(np.r_[0.0, rng.uniform(0.0, 10.0, n - 1)])
    noise = rng.normal(size=xs.size) * rng.choice([0.0, 0.05, 1.0])
    f = PiecewiseLinearFunction(xs, np.cumsum(noise + drift))
    # s = 0 keeps every block and clips the last one; s near the width
    # leaves one block, clipped on both sides
    for s in (s_frac * f.width, 0.0, np.nextafter(f.width, 0.0), f.width):
        _assert_matches_reference(f, s)
        xs_g, ys_g = _one_pass_shift_difference(f, s)
        g = f.shift_difference(s)
        assert g.xs.tobytes() == xs_g.tobytes() and g.ys.tobytes() == ys_g.tobytes()
        assert f._shift_difference_range(s) == (ys_g.min(), ys_g.max())


def _chord_set_input(kind, rng):
    if kind == "random walk":
        n = int(rng.integers(2, 200))
        xs = np.cumsum(rng.uniform(0.01, 1.0, n)) * rng.choice([1.0, 1e-3, 1e3])
        return PiecewiseLinearFunction(xs - xs[0] * rng.integers(0, 2), np.cumsum(rng.normal(size=n)))
    if kind == "integer ties":
        # few levels and unit steps: exact ties, flat runs and cells that
        # meet in a single value
        n = int(rng.integers(2, 60))
        xs = np.cumsum(rng.integers(1, 4, n)).astype(float)
        return PiecewiseLinearFunction(xs, rng.integers(-2, 3, n).astype(float))
    if kind == "flat runs":
        # runs of flat pieces, several at one level, between rises and
        # falls of one or two steps; a breakpoint may sit at 0
        n = int(rng.integers(2, 150))
        steps = rng.integers(-2, 3, n - 1) * (rng.random(n - 1) < rng.uniform(0.05, 0.6))
        xs = np.cumsum(rng.uniform(0.01, 1.0, n)) * rng.choice([1.0, 1e-3, 1e3])
        ys = np.cumsum(np.r_[0, steps]) * rng.choice([1.0, 0.1, 1e-5, 3.7, -2.3])
        return PiecewiseLinearFunction(xs - xs[rng.integers(0, n)] * rng.integers(0, 2), ys)
    if kind == "single piece":
        x0 = rng.normal()
        return PiecewiseLinearFunction([x0, x0 + rng.uniform(0.1, 10.0)], rng.integers(-1, 2, 2))
    if kind == "single point":
        return PiecewiseLinearFunction([rng.normal()], [rng.normal()])
    spec = ClosedIntervalSet.from_pairs(SAWTOOTH_PAIRS) if rng.random() < 0.3 else random_chord_set(rng)
    return smooth_chord_function(spec).to_piecewise(int(rng.integers(2, 400)))


def _bits(pairs):
    return np.asarray(pairs, dtype=np.float64).reshape(-1, 2).tobytes()


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(
        ["random walk", "integer ties", "flat runs", "single piece", "single point", "smooth sawtooth"]
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)
# isolated lengths inside the set, where one length both enters and leaves
@example("integer ties", 6)
@example("smooth sawtooth", 106)
def test_chord_set_and_scan_match_the_reference(kind, seed):
    rng = np.random.default_rng(seed)
    f = _chord_set_input(kind, rng)
    assert _bits(chord_set(f).to_pairs()) == _bits(reference_chord_set(f).to_pairs())
    if f.width == 0:
        return
    resolution = f.width / int(rng.integers(1, 700))
    scan = chord_set_scan(f, resolution)
    lengths, membership, brackets = reference_chord_scan(f, resolution)
    assert scan.lengths.tobytes() == lengths.tobytes()
    assert scan.membership.tobytes() == membership.tobytes()
    assert _bits(scan.refined_boundaries) == _bits(brackets)


_KINDS = ["random walk", "integer ties", "flat runs", "single piece", "single point", "smooth sawtooth"]


@pytest.mark.parametrize("block", [1, 7])
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_KINDS), st.integers(min_value=0, max_value=2**32 - 1))
def test_chord_set_does_not_depend_on_its_blocks(block, kind, seed):
    # blocks of 1 and 7 cells cut nearly every run, and a run of several
    # blocks holds one piece across block boundaries
    f = _chord_set_input(kind, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle_mod, "_BLOCK_CELLS", block)
        got = chord_set(f)
    assert _bits(got.to_pairs()) == _bits(reference_chord_set(f).to_pairs())


def _value_ranges(f):
    ys = np.asarray(f.ys)
    return np.minimum(ys[:-1], ys[1:]), np.maximum(ys[:-1], ys[1:])


def _overlaps(f):
    """Boolean matrix of the pieces whose value ranges overlap, touching
    included, by brute force."""
    vmin, vmax = _value_ranges(f)
    return (vmin[:, None] <= vmax) & (vmin <= vmax[:, None])


def _longest_run(f):
    """Most pieces that one piece overlaps at or after itself in the
    stable order of the lowest values."""
    vmin, _ = _value_ranges(f)
    idx = np.arange(vmin.size)
    after = (vmin > vmin[:, None]) | ((vmin == vmin[:, None]) & (idx >= idx[:, None]))
    return int((after & _overlaps(f)).sum(axis=1).max())


def _flat_level(m):
    # a rise, m flat pieces at one level and a fall: the rise's run holds
    # every piece
    return PiecewiseLinearFunction(np.arange(m + 3.0), np.r_[0.0, np.ones(m + 1), 0.0])


def _tied_floors(m):
    # m teeth of three heights on one floor: half the pieces tie at vmin 0
    ys = np.zeros(2 * m + 1)
    ys[1::2] = np.arange(m) % 3 + 1.0
    return PiecewiseLinearFunction(np.cumsum(np.r_[0.0, np.arange(2 * m) % 5 + 1.0]), ys)


@pytest.mark.parametrize(
    "f, block",
    [
        (_flat_level(30), 1),
        (_flat_level(30), 7),
        (_flat_level(1100), oracle_mod._BLOCK_CELLS),
        (_tied_floors(25), 1),
        (_tied_floors(25), 7),
    ],
    ids=["flat-level-1", "flat-level-7", "flat-level-default", "tied-floors-1", "tied-floors-7"],
)
def test_runs_longer_than_a_block(f, block):
    assert _longest_run(f) > block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle_mod, "_BLOCK_CELLS", block)
        got = chord_set(f)
        sizes = [ii.size for ii, _ in oracle_mod._cell_blocks(*_value_ranges(f))]
    assert max(sizes) == block
    assert _bits(got.to_pairs()) == _bits(reference_chord_set(f).to_pairs())


def _left_out(f):
    """The overlapping pairs of f's pieces, i <= j, that _cell_blocks
    leaves out, after checking that it yields every other one once."""
    blocks = list(oracle_mod._cell_blocks(*_value_ranges(f)))
    assert all(0 < ii.size <= oracle_mod._BLOCK_CELLS for ii, _ in blocks)
    cells = [(i, j) for ii, jj in blocks for i, j in zip(ii.tolist(), jj.tolist())]
    i, j = np.nonzero(np.triu(_overlaps(f)))
    pairs = set(zip(i.tolist(), j.tolist()))
    assert len(set(cells)) == len(cells) and set(cells) <= pairs
    return sorted(pairs - set(cells))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_KINDS), st.integers(min_value=0, max_value=2**32 - 1))
def test_cell_blocks_leave_out_only_own_and_touching_neighbour_cells(kind, seed):
    # every overlapping pair is yielded or left out, exactly once; a pair
    # left out is a piece's own cell or two neighbours whose ranges meet
    # in one value
    f = _chord_set_input(kind, np.random.default_rng(seed))
    vmin, vmax = _value_ranges(f)
    left_out = _left_out(f)
    assert {(i, i) for i in range(vmin.size)} <= set(left_out)
    for i, j in left_out:
        assert i == j or (j == i + 1 and (vmin[j] == vmax[i] or vmin[i] == vmax[j]))


def _merge_flat_runs(f):
    # the pieces that chord_set works: a run of flat pieces at one level is one
    ys = f.ys.tolist()
    keep = [0 < k < len(ys) - 1 and ys[k - 1] == ys[k] == ys[k + 1] for k in range(len(ys))]
    keep = ~np.array(keep, dtype=bool)
    return PiecewiseLinearFunction(f.xs[keep], f.ys[keep])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_KINDS), st.integers(min_value=0, max_value=2**32 - 1))
def test_left_out_cells_give_only_zero_and_flat_pieces_own_lengths(kind, seed):
    # worked with the reference's float expressions, each cell left out
    # gives exactly [0, 0], or [0, x1 - x0] of a flat piece of the cell
    f = _merge_flat_runs(_chord_set_input(kind, np.random.default_rng(seed)))
    left_out = _left_out(f)
    if not left_out:
        return
    ii, jj = np.array(left_out).T
    lo, hi = reference_cells(f)(ii, jj)
    assert lo.tobytes() == np.zeros(lo.size).tobytes()
    xs, ys = f.xs, f.ys
    for i, j, h in zip(ii.tolist(), jj.tolist(), hi):
        own = [0.0] + [xs[k + 1] - xs[k] for k in (i, j) if ys[k] == ys[k + 1]]
        assert h.tobytes() in {np.float64(w).tobytes() for w in own}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_KINDS), st.integers(min_value=0, max_value=2**32 - 1))
def test_chord_bounds_hold_what_the_set_does_not_check(kind, seed):
    # the guarantees of the join's bounds, which ClosedIntervalSet checks
    # again as chord_set builds its set from them
    f = _chord_set_input(kind, np.random.default_rng(seed))
    los, his = oracle_mod._chord_bounds(f)
    assert los.dtype == his.dtype == np.float64
    assert los.shape == his.shape and los.size >= 1
    assert np.isfinite(los).all() and np.isfinite(his).all()
    assert los[:1].tobytes() == np.zeros(1).tobytes()
    assert (los <= his).all() and (his[:-1] < los[1:]).all()
    checked = ClosedIntervalSet(tuple(zip(los.tolist(), his.tolist())))
    assert _bits(checked.to_pairs()) == _bits(chord_set(f).to_pairs())


def test_a_monotone_function_has_no_cells(monkeypatch):
    # the pieces of a strictly increasing function overlap only their own
    # and, at their shared value, their successor's: no cell is worked
    n = 10**4
    xs = np.arange(n + 1.0)
    f = PiecewiseLinearFunction(xs, np.sqrt(xs))
    sizes = _count_cells(monkeypatch)
    assert chord_set(f).to_pairs() == [[0.0, 0.0]]
    assert sum(sizes) == 0


def _count_cells(monkeypatch):
    """A list that collects the size of every block of cells that
    chord_set works from here on."""
    sizes, real = [], oracle_mod._cell_blocks

    def counted(vmin, vmax):
        for ii, jj in real(vmin, vmax):
            sizes.append(ii.size)
            yield ii, jj

    monkeypatch.setattr(oracle_mod, "_cell_blocks", counted)
    return sizes


def test_a_constant_function_is_one_cell(monkeypatch):
    # its 10^4 flat pieces are one run, worked as one piece, whose own
    # cell is the whole set and is not worked
    n = 10**4
    f = PiecewiseLinearFunction(np.arange(n + 1.0), np.full(n + 1, 2.5))
    sizes = _count_cells(monkeypatch)
    assert chord_set(f).to_pairs() == [[0.0, float(n)]]
    assert sum(sizes) == 0


def test_flat_runs_of_the_smooth_sawtooth_are_merged(monkeypatch):
    # the samples that underflow to 0 lie in flat runs; merged, they leave
    # 23608 of the 24823 overlapping pairs of pieces, of which 15500 are
    # neither a piece's own cell nor two neighbours meeting in one value,
    # and the same set
    f = smooth_chord_function(ClosedIntervalSet.from_pairs(SAWTOOTH_PAIRS)).to_piecewise(4097)
    sizes = _count_cells(monkeypatch)
    got = chord_set(f)
    assert sum(sizes) == 15500
    assert _bits(got.to_pairs()) == _bits(reference_chord_set(f).to_pairs())


def test_only_chord_set_builds_a_set(monkeypatch, sawtooth_fn):
    # every set is checked once as it is built, however its intervals
    # are made, so counting the constructor's checks counts the sets
    built, check = [], ClosedIntervalSet.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(ClosedIntervalSet, "__post_init__", counted)
    chord_set_scan(sawtooth_fn, sawtooth_fn.width / 500)
    assert built == []
    s = chord_set(sawtooth_fn)
    assert len(built) == 1 and built[0] is s
    assert len(s.intervals) == 5


# six intervals with gaps (0.95 j, 1.05 j), the last one cut short
_SIX_PAIRS = [[0, 0.95], [1.05, 1.9], [2.1, 2.85], [3.15, 3.8], [4.2, 4.75], [5.25, 5.4]]


def test_small_chord_set_calls_within_budget():
    """A grid scan and an additivity check of a 22-piece Hopf tent, the
    size of most real queries, where the fixed part of each call is most
    of its cost; best of 50 against a time budget."""
    budget = 1e-3
    f = build_hopf(_SIX_PAIRS)
    assert f.xs.size == 23
    resolution = f.width / 500
    best = math.inf
    for _ in range(50):
        t0 = time.perf_counter()
        scan = chord_set_scan(f, resolution)
        check = verify_complement_additivity(f, resolution)
        best = min(best, time.perf_counter() - t0)
    print(
        f"chord_set_scan + verify_complement_additivity on a 22-piece Hopf tent: "
        f"{best * 1e3:.3f} ms (budget {budget * 1e3:.1f} ms)"
    )
    assert check.holds and scan.membership[0] and scan.membership[-1]
    assert best < budget


def test_chord_set_of_16385_samples_within_budget(monkeypatch):
    """The smooth sawtooth sampled at 16385 points, against a time budget,
    with the cells it works."""
    budget = 0.1
    spec = ClosedIntervalSet.from_pairs(SAWTOOTH_PAIRS)
    f = smooth_chord_function(spec).to_piecewise(16385)
    sizes = _count_cells(monkeypatch)
    t0 = time.perf_counter()
    s = chord_set(f)
    dt = time.perf_counter() - t0
    print(
        f"chord_set at {f.xs.size} samples of the smooth sawtooth: {sum(sizes)} cells, "
        f"{dt:.3f}s (budget {budget:.2f}s)"
    )
    assert len(s.intervals) == len(SAWTOOTH_PAIRS)
    assert sum(sizes) == 61214
    assert dt < budget


def test_chord_set_memory_within_budget():
    """The sawtooth's Hopf tent sampled at 4097 points, against a budget
    on the peak of memory traced during one chord_set."""
    budget = 0.75
    tent = build_hopf(SAWTOOTH_PAIRS)
    xs = np.linspace(0.0, tent.x_max, 4097)
    f = PiecewiseLinearFunction(xs, tent(xs))
    tracemalloc.start()
    try:
        s = chord_set(f)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    print(f"chord_set at {xs.size} samples of the Hopf tent: peak {peak:.2f} MB (budget {budget:.2f} MB)")
    assert len(s.intervals) == len(SAWTOOTH_PAIRS)
    assert peak <= budget
