import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordlab import PiecewiseLinearFunction
from _corpus import reference_shift_difference_blocks


def tent():
    return PiecewiseLinearFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]))


def test_evaluation_interpolates():
    f = tent()
    assert f(0.5) == 0.5
    assert f(1.5) == 0.5
    assert f(1.0) == 1.0
    out = f(np.array([0.25, 1.75]))
    assert isinstance(out, np.ndarray)
    np.testing.assert_allclose(out, [0.25, 0.25])


def test_scalar_in_scalar_out():
    f = tent()
    assert isinstance(f(0.3), float)


def test_metadata():
    f = tent()
    assert f.x_min == 0.0
    assert f.x_max == 2.0
    assert f.width == 2.0
    np.testing.assert_array_equal(f.slopes(), [1.0, -1.0])
    bp = f.breakpoints()
    assert bp.shape == (3, 2)


def test_from_breakpoints():
    f = PiecewiseLinearFunction.from_breakpoints([[0, 0], [1, 2]])
    assert f(0.5) == 1.0
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        PiecewiseLinearFunction.from_breakpoints([0, 1, 2])
    # rows without a length are read one by one
    with pytest.raises(ValueError, match=r"^breakpoints must be an \(n, 2\) array of \[x, y\] rows$"):
        PiecewiseLinearFunction.from_breakpoints([iter((0, 0)), iter((1, 1))])


@pytest.mark.parametrize(
    "points, shown",
    [([[0, True], ["1", "2"], [2, 0]], "True"), ([[0, 0], ["1", 2]], "'1'"), ([[0, 0], "12"], "'12'")],
)
def test_from_breakpoints_refuses_booleans_and_strings(points, shown):
    with pytest.raises(ValueError, match=rf'^"breakpoints" must hold numbers, got {shown}$'):
        PiecewiseLinearFunction.from_breakpoints(points)


@pytest.mark.parametrize(
    "xs, ys, message",
    [
        (["0", "1"], [0, 1], "\"xs\" must hold numbers, got '0'"),
        ([0, 1], [True, False], '"ys" must hold numbers, got True'),
        ([0, True], [0, 1], '"xs" must hold numbers, got True'),
        ([0.0, 1.0], [2.0, b"1"], "\"ys\" must hold numbers, got b'1'"),
        (np.array([0, 1]), np.array([False, True]), '"ys" must hold numbers, got False'),
        ("01", [0, 1], "\"xs\" must hold numbers, got '01'"),
        ([0, 1], [np.True_, np.False_], f'"ys" must hold numbers, got {np.True_!r}'),
    ],
    ids=[
        "strings", "booleans", "int-and-bool", "bytes", "bool-array", "string-column",
        "numpy-booleans",
    ],
)
def test_constructor_refuses_booleans_and_strings(xs, ys, message):
    # np.asarray reads each as numbers; [0, True] even as an int array
    with pytest.raises(ValueError) as info:
        PiecewiseLinearFunction(xs, ys)
    assert str(info.value) == message


def test_constructor_reads_numbers_of_any_kind():
    f = PiecewiseLinearFunction(range(3), [np.float64(1.5), 2, np.int32(-1)])
    assert f.xs.dtype == f.ys.dtype == np.float64
    assert f.xs.tolist() == [0.0, 1.0, 2.0] and f.ys.tolist() == [1.5, 2.0, -1.0]


def test_scaled():
    g = tent().scaled(-2.0)
    assert g(1.0) == -2.0
    assert g.x_max == 2.0


def test_arrays_are_read_only():
    f = tent()
    with pytest.raises(ValueError):
        f.xs[0] = 5.0


def test_single_breakpoint_allowed():
    f = PiecewiseLinearFunction(np.array([1.0]), np.array([3.0]))
    assert f.width == 0.0
    assert f(1.0) == 3.0
    assert f.slopes().size == 0


def test_rejects_bad_shapes():
    with pytest.raises(ValueError, match="equal length"):
        PiecewiseLinearFunction(np.array([0.0, 1.0]), np.array([0.0]))
    with pytest.raises(ValueError, match="at least one"):
        PiecewiseLinearFunction(np.array([]), np.array([]))
    with pytest.raises(ValueError, match="finite"):
        PiecewiseLinearFunction(np.array([0.0, 1.0]), np.array([0.0, np.nan]))


def test_rejects_unsorted_with_indices():
    with pytest.raises(ValueError, match=r"xs\[1\] = 2 is not below xs\[2\] = 1"):
        PiecewiseLinearFunction(np.array([0.0, 2.0, 1.0]), np.array([0.0, 0.0, 0.0]))


def test_owned_arrays_are_validated_not_copied():
    xs, ys = np.array([0.0, 1.0, 3.0]), np.array([2.0, 0.0, 1.0])
    f = PiecewiseLinearFunction._from_owned(xs, ys)
    assert np.shares_memory(f.xs, xs) and np.shares_memory(f.ys, ys)
    assert not np.shares_memory(PiecewiseLinearFunction(xs, ys).xs, xs)
    with pytest.raises(ValueError, match=r"xs\[1\] = 2 is not below xs\[2\] = 1"):
        PiecewiseLinearFunction._from_owned(np.array([0.0, 2.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        PiecewiseLinearFunction._from_owned(np.array([0.0, 1.0]), np.array([0.0, np.inf]))


class TestShiftDifference:
    def test_tent_golden(self):
        g = tent().shift_difference(1.0)
        np.testing.assert_array_equal(g.xs, [0.0, 1.0])
        np.testing.assert_array_equal(g.ys, [1.0, -1.0])

    def test_zero_shift_is_zero_function(self):
        g = tent().shift_difference(0.0)
        assert np.all(g.ys == 0.0)
        assert g.width == 2.0

    def test_full_width_shift_collapses(self):
        g = tent().shift_difference(2.0)
        assert g.xs.size == 1
        assert g.ys[0] == 0.0

    def test_domain_check(self):
        with pytest.raises(ValueError, match="shift"):
            tent().shift_difference(2.5)
        with pytest.raises(ValueError, match="shift"):
            tent().shift_difference(-0.5)

    def test_nan_shift_refused(self):
        with pytest.raises(ValueError) as info:
            tent().shift_difference(float("nan"))
        assert str(info.value) == (
            "shift (chord length) nan must lie in [0, 2] for a function of that width"
        )

    @pytest.mark.parametrize(
        "x0, x1",
        [(0.00175655620602559, 5414.613959047123), (199.5154439682133, 3850.6171264164986), (0.0, 4.4)],
    )
    def test_full_width_range(self, x0, x1):
        # in the first two, x1 - (x1 - x0) rounds below x0: the end x_max - s
        # is then the difference's only vertex
        f = PiecewiseLinearFunction([x0, 0.5 * (x0 + x1), x1], [1.0, -2.0, 0.5])
        g = f.shift_difference(f.width)
        assert g.xs.size == 1
        assert f._shift_difference_range(f.width) == (g.ys[0], g.ys[0])

    def test_range_at_an_interior_translate(self):
        # g rises until x = 0.1, the translate of the kink at 0.5, then falls
        f = PiecewiseLinearFunction([0.0, 0.3, 0.5, 1.0], [0.0, 0.3, 2.3, -2.7])
        g = f.shift_difference(0.4)
        assert f._shift_difference_range(0.4) == (g.ys.min(), g.ys.max())
        i = int(np.argmax(g.ys))
        assert g.xs[i] == 0.5 - 0.4 and g.ys[i] > max(g(0.0), g(0.3))

    @pytest.mark.parametrize(
        "lo, s, y",
        [
            (5.167034084532541, 9.50959059362676, 14.6766246781593),
            (8.294255678822374, 4.151071450054697, 12.44532712887707),
        ],
    )
    def test_first_translate_corrects_a_rounded_guess(self, lo, s, y):
        # y - s and lo + s round so that searchsorted(xs, lo + s) is one
        # index off the first j with xs[j] - s >= lo, above it or below it
        f = PiecewiseLinearFunction([lo, y, lo + 2 * s], [0.0, 1.0, -0.5])
        want = int(np.flatnonzero(f.xs - s >= lo)[0])
        assert want != int(np.searchsorted(f.xs, lo + s))
        assert f._first_translate(lo, s) == want
        g = f.shift_difference(s)
        assert f._shift_difference_range(s) == (g.ys.min(), g.ys.max())

    def test_breakpoints_cover_both_translates(self):
        f = PiecewiseLinearFunction(
            np.array([0.0, 0.7, 1.3, 3.0]), np.array([0.0, 2.0, -1.0, 0.0])
        )
        g = f.shift_difference(0.5)
        for x in (0.7, 1.3 - 0.5, 0.7 - 0.5):
            assert np.any(np.isclose(g.xs, x))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.05, max_value=2.0, allow_nan=False), min_size=1, max_size=8),
    st.lists(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=2, max_size=9),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_shift_difference_matches_pointwise(steps, ys, s_frac, x_frac):
    xs = np.concatenate([[0.0], np.cumsum(steps)])
    ys_arr = np.asarray(ys[: xs.size], dtype=np.float64)
    if ys_arr.size < xs.size:
        ys_arr = np.pad(ys_arr, (0, xs.size - ys_arr.size))
    f = PiecewiseLinearFunction(xs, ys_arr)
    s = s_frac * f.width
    g = f.shift_difference(s)
    assert g.x_min == pytest.approx(f.x_min)
    assert g.x_max == pytest.approx(f.x_max - s, abs=1e-12)
    x = g.x_min + x_frac * g.width
    assert g(x) == pytest.approx(f(x + s) - f(x), abs=1e-9)


def test_evaluation_does_not_copy_the_breakpoints():
    # np.interp copies read-only arrays; at 10^5 breakpoints that is 1.6 MB
    # for a 16-point query
    xs = np.linspace(0.0, 1.0, 100_000)
    f = PiecewiseLinearFunction(xs, np.sin(xs))
    q = np.linspace(0.1, 0.9, 16)
    f(q)
    tracemalloc.start()
    try:
        f(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    with pytest.raises(ValueError):
        f.ys[0] = 1.0


def _edge_shifts(f, rng):
    """Shifts at which the vertex families meet their edge cases: 0, the
    width and the float just below it, and the distance between two
    breakpoints, at which a translate can land exactly on a breakpoint."""
    a, b = sorted(rng.choice(f.xs.size, 2, replace=False)) if f.xs.size > 1 else (0, 0)
    return (0.0, f.width, float(np.nextafter(f.width, 0.0)), float(f.xs[b] - f.xs[a]))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["uniform", "integer", "offset"]),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_blocks_match_the_clip_and_deduplicate_reference(n, seed, grid, s_frac):
    # integer breakpoints make translates land exactly on breakpoints; an
    # offset far from 0 makes x_max - width round away from x_min
    rng = np.random.default_rng(seed)
    if grid == "integer":
        xs = np.unique(rng.integers(0, 2 * n + 1, n)).astype(np.float64)
    else:
        xs = np.unique(rng.uniform(0.0, 10.0, n))
        if grid == "offset":
            xs = xs * rng.uniform(1.0, 5000.0) + rng.uniform(0.0, 500.0)
    f = PiecewiseLinearFunction(xs, rng.normal(size=xs.size))
    for s in (s_frac * f.width,) + _edge_shifts(f, rng):
        for first in (1, 2, 1024, xs.size):
            got = list(f._shift_difference_blocks(s, first))
            want = list(reference_shift_difference_blocks(f, s, first))
            assert [bx.size for bx, _ in got] == [bx.size for bx, _ in want]
            for (gx, gy), (wx, wy) in zip(got, want):
                assert gx.tobytes() == wx.tobytes() and gy.tobytes() == wy.tobytes()
        g = f.shift_difference(s)
        wx, wy = (np.concatenate(p) for p in zip(*reference_shift_difference_blocks(f, s, 1)))
        assert g.xs.tobytes() == wx.tobytes() and g.ys.tobytes() == wy.tobytes()


@pytest.mark.parametrize(
    "x0, x1",
    [(0.00175655620602559, 5414.613959047123), (199.5154439682133, 3850.6171264164986)],
)
def test_blocks_keep_only_the_end_when_it_rounds_below_x_min(x0, x1):
    f = PiecewiseLinearFunction([x0, 0.5 * (x0 + x1), x1], [1.0, -2.0, 0.5])
    s = f.width
    assert f.x_max - s < f.x_min
    ((bx, by),) = f._shift_difference_blocks(s, 1)
    ((wx, wy),) = reference_shift_difference_blocks(f, s, 1)
    assert bx.tolist() == [f.x_max - s] and bx.tobytes() == wx.tobytes()
    assert by.tobytes() == wy.tobytes()
