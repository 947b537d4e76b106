import csv
import json

import numpy as np
import pytest

from chordlab import (
    ClosedIntervalSet,
    PiecewiseLinearFunction,
    RaceProfile,
    build_adversarial_profile,
    build_hopf,
    chord_set_scan,
)
from chordlab.io import (
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
        with pytest.raises(ValueError, match="list"):
            parse_interval_set({"intervals": "oops"})


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

    def test_errors(self):
        with pytest.raises(ValueError, match="breakpoints.*samples"):
            parse_function({"stuff": []})
        with pytest.raises(ValueError, match="nonempty"):
            parse_function({"breakpoints": []})
        with pytest.raises(ValueError, match=r"\[x, y\]"):
            parse_function({"breakpoints": [[0, 1, 2]]})
        with pytest.raises(ValueError, match="JSON object"):
            parse_function([1, 2])


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

    def test_bad_totals(self):
        with pytest.raises(ValueError, match="numbers"):
            parse_profile({"total_distance": "x", "total_time": 1.0, "splits": []})


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

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one curve"):
            svg_for_curves([])
