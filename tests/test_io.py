import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordlab import (
    ChordScan,
    ClosedIntervalSet,
    PiecewiseLinearFunction,
    RaceProfile,
    build_adversarial_profile,
    build_hopf,
    chord_set_scan,
)
from chordlab.io import (
    _pairs12,
    _round12,
    function_to_obj,
    interval_set_to_obj,
    load_json,
    parse_function,
    parse_interval_set,
    parse_profile,
    format_json,
    profile_to_obj,
    save_json,
    smooth_samples_to_obj,
    svg_for_curves,
    write_chord_scan,
)
from _corpus import SAWTOOTH_PAIRS


class TestIntervalSetJson:
    def test_round_trip_exact(self):
        s = ClosedIntervalSet.from_pairs(SAWTOOTH_PAIRS)
        obj = interval_set_to_obj(s)
        assert obj == {"intervals": [[0.0, 0.9], [1.1, 1.8], [2.2, 2.7], [3.3, 3.6], [4.4, 4.4]]}
        assert parse_interval_set(obj) == s

    def test_missing_key(self):
        with pytest.raises(ValueError, match='"intervals"'):
            parse_interval_set({"nope": []})

    def test_bad_rows(self):
        with pytest.raises(ValueError):
            parse_interval_set({"intervals": [[0, 1, 2]]})
        for rows in ("oops", {"0": 1}, None):
            with pytest.raises(ValueError, match=r'^"intervals" must be a list of \[lo, hi\] pairs$'):
                parse_interval_set({"intervals": rows})
        for rows in ([[0, True]], [["0", 1]], ["01"]):
            with pytest.raises(ValueError, match="^interval endpoints must be numbers, got "):
                parse_interval_set({"intervals": rows})


class TestFunctionJson:
    def test_round_trip_close(self):
        f = build_hopf(SAWTOOTH_PAIRS)
        g = parse_function(function_to_obj(f))
        np.testing.assert_allclose(g.xs, f.xs, atol=1e-12)
        np.testing.assert_allclose(g.ys, f.ys, atol=1e-12)

    def test_short_decimals_round_trip_exact(self):
        f = PiecewiseLinearFunction(np.array([0.0, 1.5, 3.0]), np.array([0.0, -0.25, 0.0]))
        g = parse_function(function_to_obj(f))
        np.testing.assert_array_equal(g.xs, f.xs)
        np.testing.assert_array_equal(g.ys, f.ys)

    def test_twelve_digit_rounding(self):
        f = PiecewiseLinearFunction(np.array([0.0, 0.1 + 0.2]), np.array([0.0, 1.0]))
        obj = function_to_obj(f)
        assert obj["breakpoints"][1][0] == 0.3

    def test_samples_parse_as_polyline(self):
        obj = smooth_samples_to_obj(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, 0.0]))
        assert obj["kind"] == "smooth"
        f = parse_function(obj)
        assert f(0.5) == 0.25

    def test_samples_refuse_booleans_and_strings(self):
        # np.asarray reads both columns as numbers
        for xs, ys, message in (
            ([True, False], [1.0, 2.0], '"xs" must hold numbers, got True'),
            ([0.0, 1.0], ["1", "2"], "\"ys\" must hold numbers, got '1'"),
        ):
            with pytest.raises(ValueError) as info:
                smooth_samples_to_obj(xs, ys)
            assert str(info.value) == message

    def test_errors(self):
        with pytest.raises(ValueError, match="breakpoints.*samples"):
            parse_function({"stuff": []})
        with pytest.raises(ValueError, match="nonempty"):
            parse_function({"breakpoints": []})
        with pytest.raises(ValueError, match=r"\[x, y\]"):
            parse_function({"breakpoints": [[0, 1, 2]]})
        with pytest.raises(ValueError, match="JSON object"):
            parse_function([1, 2])

    @pytest.mark.parametrize("key", ["breakpoints", "samples"])
    def test_booleans_and_strings_refused(self, key):
        for rows, shown in (([[0, 0], [1, True]], "True"), ([[0, 0], ["1", 2]], "'1'"),
                            ([[0, 0], "12"], "'12'")):
            with pytest.raises(ValueError, match=rf'^"{key}" must hold numbers, got {shown}$'):
                parse_function({key: rows})
        f = parse_function({key: [[0, 0], [1, 2]]})  # JSON integers are numbers
        np.testing.assert_array_equal(f.ys, [0.0, 2.0])


class TestProfileJson:
    def test_round_trip_exact(self):
        p = RaceProfile.from_splits(3.0, 1080.0, [(1.0, 330.0), (2.0, 720.0), (3.0, 1080.0)])
        obj = profile_to_obj(p)
        assert obj["total_distance"] == 3.0
        assert obj["splits"] == [[1.0, 330.0], [2.0, 720.0], [3.0, 1080.0]]
        q = parse_profile(obj)
        np.testing.assert_array_equal(q.position.xs, p.position.xs)
        np.testing.assert_array_equal(q.position.ys, p.position.ys)

    def test_missing_keys(self):
        with pytest.raises(ValueError, match='"total_time"'):
            parse_profile({"total_distance": 1.0, "splits": []})
        with pytest.raises(ValueError, match="^profile object must be a JSON object$"):
            parse_profile([1])
        with pytest.raises(ValueError, match=r'^"splits" must be a list of \[distance, time\] pairs$'):
            parse_profile({"total_distance": 1.0, "total_time": 1.0, "splits": "x"})

    def test_bad_totals(self):
        with pytest.raises(ValueError, match="numbers"):
            parse_profile({"total_distance": "x", "total_time": 1.0, "splits": []})

    def test_booleans_and_strings_refused(self):
        good = {"total_distance": 3, "total_time": 1080, "splits": [[1, 330], [3, 1080]]}
        for key, value, shown in (
            ("total_distance", True, "True"),
            ("total_time", "1080", "'1080'"),
            ("splits", [[1, 330], [True, "1080"]], "True"),
            ("splits", [["1", 330], [3, 1080]], "'1'"),
            ("splits", ["13", [3, 1080]], "'13'"),
        ):
            with pytest.raises(ValueError, match=rf'^"{key}" must hold numbers, got {shown}$'):
                parse_profile({**good, key: value})
        p = parse_profile(good)  # JSON integers are numbers
        np.testing.assert_array_equal(p.position.ys, [0.0, 1.0, 3.0])

    def test_bytes_row_refused(self):
        # not JSON, but a library caller's row; float() and numpy read it as
        # its character codes
        obj = {"total_distance": 50, "total_time": 100, "splits": [b"12", [50, 100]]}
        with pytest.raises(ValueError, match=r'^"splits" must hold numbers, got b\'12\'$'):
            parse_profile(obj)


def _layout_objects():
    f = build_hopf(SAWTOOTH_PAIRS)
    xs = np.linspace(0.0, 4.4, 9)
    p = RaceProfile.from_splits(3.0, 1080.0, [(1.0, 330.0), (2.0, 720.0), (3.0, 1080.0)])
    return [
        interval_set_to_obj(ClosedIntervalSet.from_pairs(SAWTOOTH_PAIRS)),
        function_to_obj(f),
        smooth_samples_to_obj(xs, np.sin(xs) * 1e-7),
        profile_to_obj(p),
    ]


def _sig_rows(rows):
    """12-digit rows formatted through numpy scalars, one value at a time."""
    return [[float(f"{float(a):.12g}"), float(f"{float(b):.12g}")] for a, b in rows]


def test_rows_from_lists_are_byte_identical_to_rows_from_scalars():
    f = build_hopf(SAWTOOTH_PAIRS)
    xs = np.linspace(0.0, 4.4, 1001)
    ys = np.sin(7.0 * xs) * np.exp(-1.0 / (xs + 1e-3))
    p = build_adversarial_profile(33.6, 5000.0, 1.0, "sin_squared")
    pos = p.position
    pairs = [
        (function_to_obj(f), {"breakpoints": _sig_rows(zip(f.xs, f.ys))}),
        (smooth_samples_to_obj(xs, ys), {"kind": "smooth", "samples": _sig_rows(zip(xs, ys))}),
        (
            profile_to_obj(p),
            {
                "total_distance": 33.6,
                "total_time": 5000.0,
                "splits": _sig_rows(zip(pos.ys[1:], pos.xs[1:])),
            },
        ),
    ]
    assert pos.xs.size > 2000
    for new, old in pairs:
        assert format_json(new) == format_json(old)


class TestFormatJson:
    @pytest.mark.parametrize("obj", _layout_objects())
    def test_parses_to_indented_dump(self, obj, tmp_path):
        # the same values as json.dumps(obj, indent=2), the former layout
        path = tmp_path / "obj.json"
        save_json(obj, path)
        assert path.read_text() == format_json(obj)
        assert json.loads(format_json(obj)) == json.loads(json.dumps(obj, indent=2))

    @pytest.mark.parametrize("obj", _layout_objects())
    def test_one_row_per_line(self, obj):
        lines = format_json(obj).splitlines()
        rows = [line for line in lines if line.startswith("    [")]
        table = next(v for v in obj.values() if isinstance(v, list))
        assert [json.loads(r.rstrip(",")) for r in rows] == table
        # braces, one line per key and the closing bracket of the table
        assert len(lines) == 2 + len(obj) + len(table) + 1

    def test_golden_layout(self):
        obj = {"kind": "smooth", "samples": [[0.0, 0.0], [0.5, -0.25]], "empty": []}
        assert format_json(obj) == (
            "{\n"
            '  "kind": "smooth",\n'
            '  "samples": [\n'
            "    [0.0, 0.0],\n"
            "    [0.5, -0.25]\n"
            "  ],\n"
            '  "empty": []\n'
            "}\n"
        )

    def test_strings_inside_rows_left_on_one_line(self):
        obj = {"rows": [["], [", 1], ["x", 2]]}
        text = format_json(obj)
        assert json.loads(text) == obj
        assert len(text.splitlines()) == 3


class TestJsonFiles:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "obj.json"
        save_json({"a": 1}, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert "  \"a\": 1" in text
        assert load_json(path) == {"a": 1}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_json(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_json(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ValueError) as info:
            load_json(path)
        assert str(info.value) == f"{path} is not UTF-8 text"


class TestChordScanCsv:
    def test_writes_scan_and_boundaries(self, tmp_path):
        f = build_hopf(SAWTOOTH_PAIRS)
        scan = chord_set_scan(f, 0.05)
        main_path, bpath = write_chord_scan(scan, tmp_path / "scan.csv")
        assert bpath.name == "scan_boundaries.csv"
        with main_path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["s", "in_chord_set"]
        assert len(rows) == scan.lengths.size + 1
        parsed = [(float(s), flag == "true") for s, flag in rows[1:]]
        for (s, member), expect in zip(parsed, scan.membership):
            assert member == bool(expect)
        with bpath.open() as fh:
            brows = list(csv.reader(fh))
        assert brows[0] == ["s_lo", "s_hi"]
        assert len(brows) == len(scan.refined_boundaries) + 1
        for (lo_s, hi_s), (lo, hi) in zip(brows[1:], scan.refined_boundaries):
            assert float(lo_s) == pytest.approx(lo, rel=1e-11)
            assert float(hi_s) == pytest.approx(hi, rel=1e-11)


class TestSvg:
    def test_deterministic(self):
        xs = np.array([0.0, 1.0, 2.0])
        ys = np.array([0.0, 1.0, 0.0])
        a = svg_for_curves([(xs, ys)])
        b = svg_for_curves([(xs, ys)])
        assert a == b
        assert a.startswith("<svg ")
        assert a.rstrip().endswith("</svg>")

    def test_polyline_per_curve(self):
        xs = np.array([0.0, 1.0])
        svg = svg_for_curves([(xs, xs), (xs, -xs), (xs, 2 * xs)])
        assert svg.count("<polyline") == 3

    def test_axis_lines_when_zero_in_range(self):
        xs = np.array([-1.0, 1.0])
        ys = np.array([-2.0, 2.0])
        svg = svg_for_curves([(xs, ys)])
        assert svg.count("<line") == 2
        svg2 = svg_for_curves([(xs + 10.0, ys + 10.0)])
        assert svg2.count("<line") == 0

    def test_degenerate_ranges_handled(self):
        xs = np.array([1.0, 1.0 + 0.0])
        svg = svg_for_curves([(xs, xs * 0.0)])
        assert "<polyline" in svg

    def test_curves_refuse_booleans_and_strings(self):
        for curve, message in (
            (([True, False], [1.0, 2.0]), '"xs" must hold numbers, got True'),
            (([0.0, 1.0], ["1", "2"]), "\"ys\" must hold numbers, got '1'"),
        ):
            with pytest.raises(ValueError) as info:
                svg_for_curves([([0.0, 1.0], [0.0, 1.0]), curve])
            assert str(info.value) == message

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one curve"):
            svg_for_curves([])


# ---------------------------------------------------------------------------
# The writers format whole tables at once; these oracles are the former
# per-number code, and the tables must come out byte for byte the same.


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _sig_each(values):
    return [float(f"{x:.12g}") for x in values]


def _oracle_format_json(obj: dict) -> str:
    lines = []
    for key, value in obj.items():
        text = json.dumps(value)
        if text.startswith("[[") and '"' not in text:
            text = "[\n    " + text[1:-1].replace("], [", "],\n    [") + "\n  ]"
        lines.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _oracle_write_chord_scan(scan, path):
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "in_chord_set"])
        for s, m in zip(scan.lengths, scan.membership):
            writer.writerow([f"{float(s):.12g}", "true" if m else "false"])
    bpath = path.with_name(path.stem + "_boundaries" + path.suffix)
    with bpath.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s_lo", "s_hi"])
        for lo, hi in scan.refined_boundaries:
            writer.writerow([f"{lo:.12g}", f"{hi:.12g}"])
    return path, bpath


def _oracle_svg(curves) -> str:
    width, height, pad = 720, 360, 45
    data = [(np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)) for xs, ys in curves]
    x_lo = min(float(xs.min()) for xs, _ in data)
    x_hi = max(float(xs.max()) for xs, _ in data)
    y_lo = min(float(ys.min()) for _, ys in data)
    y_hi = max(float(ys.max()) for _, ys in data)
    if x_hi - x_lo <= 0:
        x_hi = x_lo + 1.0
    if y_hi - y_lo <= 0:
        y_hi = y_lo + 1.0

    def px(x: float) -> float:
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def py(y: float) -> float:
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if y_lo <= 0 <= y_hi:
        y0 = py(0.0)
        parts.append(
            f'<line x1="{pad}" y1="{y0:.3f}" x2="{width - pad}" y2="{y0:.3f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
    if x_lo <= 0 <= x_hi:
        x0 = px(0.0)
        parts.append(
            f'<line x1="{x0:.3f}" y1="{pad}" x2="{x0:.3f}" y2="{height - pad}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
    styles = (("#111111", 2.0), ("#888888", 1.2), ("#c0392b", 1.2), ("#2980b9", 1.2))
    for i, (xs, ys) in enumerate(data):
        color, stroke = styles[i % len(styles)]
        pts = " ".join(f"{px(float(x)):.3f},{py(float(y)):.3f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{stroke}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_finite = st.floats(allow_nan=False, allow_infinity=False)
_EDGES = (1e-11, 1e12, 1e16, 1e34)


@st.composite
def _near_ties(draw):
    """The double nearest (m + 0.5) * 10**e for a 12-digit m, halfway
    between two 12-digit decimals, or one of its neighbours; e spans the
    scaled range 1e-11 <= |x| < 1e34 and a little beyond."""
    m = draw(st.integers(min_value=10**11, max_value=10**12 - 1))
    e = draw(st.integers(min_value=-25, max_value=25))
    x = float(f"{10 * m + 5}e{e - 1}")
    return float(np.nextafter(x, draw(st.sampled_from([-np.inf, x, np.inf]))))


@st.composite
def _edges(draw):
    x = draw(st.sampled_from(_EDGES))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        x = float(np.nextafter(x, draw(st.sampled_from([0.0, np.inf]))))
    return -x if draw(st.booleans()) else x


_round12_inputs = st.one_of(_finite, _near_ties(), _edges(), st.sampled_from([0.0, -0.0, 5e-324, 1e-44]))


class TestRound12:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_round12_inputs, min_size=1, max_size=80))
    def test_equals_the_f_string_bit_for_bit(self, values):
        np.testing.assert_array_equal(_bits(_round12(values)), _bits(_sig_each(values)))

    def test_decades_ties_and_non_finite(self):
        # every power of ten in range with its neighbours, exact ties of
        # binary fractions, and values outside 1e-11 <= |x| < 1e34
        powers = [float(f"1e{k}") for k in range(-12, 36)]
        values = np.array(powers + [0.5, 2.5, 1.5e-5, 123456789012.5, 0.1 + 0.2])
        values = np.concatenate(
            [values, np.nextafter(values, 0.0), np.nextafter(values, np.inf), -values]
        )
        np.testing.assert_array_equal(_bits(_round12(values)), _bits(_sig_each(values.tolist())))
        special = _round12([np.inf, -np.inf, np.nan, 1e300, -1e-300])
        assert special[0] == np.inf and special[1] == -np.inf and np.isnan(special[2])
        np.testing.assert_array_equal(special[3:], [1e300, -1e-300])

    @pytest.mark.parametrize("decades", [1.0, -1.0])
    def test_exact_when_log10_is_off_by_a_decade(self, monkeypatch, decades):
        # the scaled value then leaves [1e11, 1e12], and every element
        # must take the f-string
        real = np.log10

        def off(y, out=None, where=True):
            out = real(y, out=out, where=where)
            return np.add(out, decades, out=out, where=where)

        values = np.random.default_rng(3).uniform(-50.0, 50.0, 200)
        monkeypatch.setattr(np, "log10", off)
        np.testing.assert_array_equal(_bits(_round12(values)), _bits(_sig_each(values.tolist())))

    def test_keeps_shape(self):
        a = np.arange(12.0).reshape(3, 4) / 7.0
        out = _round12(a)
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(_bits(out.ravel()), _bits(_sig_each(a.ravel().tolist())))


# floats of every kind format_json has to write as repr does: 12-digit
# values, full-precision ones, integral ones (fixed notation up to 1e16),
# signed zeros, tiny and huge exponents
_table_floats = st.one_of(
    _finite,
    _finite.map(lambda x: float(f"{x:.12g}")),
    st.integers(min_value=-(10**17), max_value=10**17).map(float),
    st.integers(min_value=-(10**6), max_value=10**6).map(lambda k: k * 1e10),
    st.sampled_from([0.0, -0.0, 1e-44, -1e-44, 1e12, 1e16, 9.999999999995e15, 1e-5, 1.5e-7]),
    # subnormals of 12 digits or fewer, which repr writes shorter
    st.integers(min_value=1, max_value=2**52 - 1).map(lambda k: float(f"{k * 5e-324:.12g}")),
)
_rows = st.lists(_table_floats, min_size=2, max_size=2)
_finite_or_not = st.one_of(_table_floats, st.sampled_from([float("nan"), float("inf"), -float("inf")]))
# short and long tables alike: every table of float rows, the empty one
# aside, takes the one format call
_tables = st.one_of(st.lists(_rows, max_size=32), st.lists(_rows, min_size=33, max_size=120))


class TestBulkWritersMatchPerNumberCode:
    @settings(max_examples=200, deadline=None)
    @given(_tables, st.sampled_from(["samples", "breakpoints", "splits"]))
    def test_format_json(self, rows, key):
        obj = {"total": 3.0, key: rows, "kind": "smooth"}
        assert format_json(obj) == _oracle_format_json(obj)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_tables, st.lists(st.lists(_finite_or_not, min_size=2, max_size=2), max_size=40)))
    def test_tables_written_from_arrays(self, rows):
        # rounded once as an array and written from it: the bytes of the
        # public lists, also for an empty or a non-finite table
        a, b = np.array(rows, dtype=np.float64).reshape(-1, 2).T
        obj = {"total": 3.0, "splits": np.column_stack((a, b))}
        assert format_json(obj) == _oracle_format_json({"total": 3.0, "splits": _pairs12(a, b)})

    def test_format_json_leaves_other_tables_to_json(self):
        rows = [[float(k), 0.5] for k in range(40)]
        for bad in ([1, 0.5], [0.5, True], [0.5], (0.5, 0.5), [0.5, float("nan")],
                    [0.5, float("inf")], [np.float64(0.5), 0.5], [0.5, 0.25, 0.125]):
            obj = {"rows": rows[:20] + [list(bad) if isinstance(bad, list) else bad] + rows[20:]}
            assert format_json(obj) == _oracle_format_json(obj)

    def test_writer_objects(self):
        p = build_adversarial_profile(33.6, 5000.0, 1.3, "sin_squared")
        xs = np.linspace(0.0, 4.4, 1001)
        for obj in _layout_objects() + [
            profile_to_obj(p),
            smooth_samples_to_obj(xs, np.sin(7.0 * xs) * np.exp(-1.0 / (xs + 1e-3))),
        ]:
            assert format_json(obj) == _oracle_format_json(obj)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(_table_floats, st.booleans()), min_size=0, max_size=120),
        st.lists(st.tuples(_table_floats, _table_floats), min_size=0, max_size=12),
    )
    def test_write_chord_scan(self, tmp_path_factory, rows, brackets):
        lengths = np.array([s for s, _ in rows], dtype=np.float64)
        member = np.array([m for _, m in rows], dtype=bool)
        scan = ChordScan(lengths, member, tuple(brackets), 0.1)
        tmp = tmp_path_factory.mktemp("scan")
        new = write_chord_scan(scan, tmp / "new.csv")
        old = _oracle_write_chord_scan(scan, tmp / "old.csv")
        assert [p.name for p in new] == ["new.csv", "new_boundaries.csv"]
        for a, b in zip(new, old):
            assert a.read_bytes() == b.read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.one_of(
                        st.floats(min_value=-(2.0**52), max_value=2.0**52),
                        st.sampled_from([0.0, -0.0, 1e-44]),
                    ),
                    st.floats(min_value=-1e6, max_value=1e6),
                ),
                min_size=1,
                max_size=60,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_svg_for_curves(self, curves):
        curves = [(np.array([x for x, _ in c]), np.array([y for _, y in c])) for c in curves]
        assert svg_for_curves(curves) == _oracle_svg(curves)

    def test_svg_of_a_huge_constant(self):
        # x_lo + 1.0 rounds back to x_lo from 2**53 up; the per-number code
        # divided by zero there
        xs = np.array([2.0**53, 2.0**53])
        for curve in ((xs, xs), (-xs, xs)):
            svg = svg_for_curves([curve])
            assert "nan" not in svg and "inf" not in svg

    def test_svg_at_scale(self):
        p = build_adversarial_profile(33.6, 5000.0, 1.3, "sin_squared")
        xs, ys = p.position.xs, p.position.ys
        curves = [(xs, ys), (xs + 1.3, ys)]
        assert svg_for_curves(curves) == _oracle_svg(curves)


def test_writers_at_scale_within_budget(tmp_path):
    """Each writer on a 10^5-split profile, against a budget."""
    n = 100_000
    rng = np.random.default_rng(9)
    ts = np.concatenate([[0.0], np.cumsum(rng.uniform(150.0, 400.0, n))])
    ds = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, n))])
    p = RaceProfile(float(ds[-1]), float(ts[-1]), PiecewiseLinearFunction(ts, ds))
    lengths = np.linspace(0.0, float(ds[-1]), n + 1)
    scan = ChordScan(lengths, lengths < ds[-1] / 2, ((1.0, 1.0),), lengths[1])
    jobs = [
        ("format_json(profile_to_obj)", 0.5, lambda: format_json(profile_to_obj(p))),
        ("svg_for_curves", 0.5, lambda: svg_for_curves([(ts, ds)])),
        ("write_chord_scan", 0.5, lambda: write_chord_scan(scan, tmp_path / "scan.csv")),
    ]
    for name, budget, job in jobs:
        t0 = time.perf_counter()
        job()
        dt = time.perf_counter() - t0
        print(f"{name} with {n} rows: {dt:.3f}s (budget {budget:.2f}s)")
        assert dt < budget


def test_parse_profile_at_scale_within_budget():
    """parse_profile of a 10^5-split JSON profile, against a budget."""
    n, budget = 100_000, 0.5
    rng = np.random.default_rng(9)
    ts = np.cumsum(rng.uniform(150.0, 400.0, n))
    ds = np.cumsum(rng.uniform(0.5, 1.5, n))
    splits = np.column_stack((ds, ts)).tolist()
    obj = {"total_distance": splits[-1][0], "total_time": splits[-1][1], "splits": splits}
    t0 = time.perf_counter()
    p = parse_profile(obj)
    dt = time.perf_counter() - t0
    print(f"parse_profile with {n} rows: {dt:.3f}s (budget {budget:.2f}s)")
    assert p.position.xs.tobytes() == np.concatenate(([0.0], ts)).tobytes()
    assert p.position.ys.tobytes() == np.concatenate(([0.0], ds)).tobytes()
    assert dt < budget
