import contextlib
import csv
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordlab import (
    ClosedIntervalSet,
    build_adversarial_profile,
    build_hopf,
    function_to_obj,
    profile_to_obj,
    smooth_chord_function,
    smooth_samples_to_obj,
)
from chordlab import cli, oracle
from chordlab.cli import main, parse_duration
from _corpus import SAWTOOTH_PAIRS


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"intervals": SAWTOOTH_PAIRS}))
    return str(path)


@pytest.fixture
def miles_path(tmp_path):
    path = tmp_path / "miles.json"
    path.write_text(
        json.dumps(
            {
                "total_distance": 3.0,
                "total_time": 1080,
                "splits": [[1, 330], [2, 720], [3, 1080]],
            }
        )
    )
    return str(path)


class TestParseDuration:
    def test_formats(self):
        assert parse_duration("90") == 90.0
        assert parse_duration("90.5") == 90.5
        assert parse_duration("20:00") == 1200.0
        assert parse_duration("1:05:30") == 3930.0
        assert parse_duration("0:30") == 30.0

    def test_rejects_garbage(self):
        for bad in ("", "1:2:3:4", "abc", "1::2", "-5"):
            with pytest.raises(ValueError):
                parse_duration(bad)


class TestValidate:
    def test_golden(self, spec_path, capsys):
        assert main(["validate", spec_path]) == 0
        out = capsys.readouterr().out
        assert "additive: yes, l = 0.9" in out
        assert "valid chord set" in out

    def test_invalid_set_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"intervals": [[0, 0.9], [1.1, 2.5]]}))
        assert main(["validate", str(path)]) == 3
        assert "not a valid chord set" in capsys.readouterr().out

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "none.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_wrong_schema_exits_1(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"things": []}))
        assert main(["validate", str(path)]) == 1
        assert '"intervals"' in capsys.readouterr().err


class TestConstruct:
    def test_hopf_stdout(self, spec_path, capsys):
        assert main(["construct", spec_path]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["breakpoints"]) == 17
        assert obj["breakpoints"][1] == [0.45, 0.45]

    def test_hopf_to_file(self, spec_path, tmp_path, capsys):
        out = tmp_path / "fn.json"
        assert main(["construct", spec_path, "--output", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert out.exists()

    def test_smooth_default_resolution(self, spec_path, capsys):
        assert main(["construct", spec_path, "--shape", "smooth"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["kind"] == "smooth"
        assert len(obj["samples"]) == 1001

    def test_smooth_custom_resolution(self, spec_path, capsys):
        assert main(["construct", spec_path, "--shape", "smooth", "--resolution", "0.1"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["samples"]) == 45

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    def test_smooth_resolution_must_be_positive_and_finite(self, spec_path, capsys, value):
        argv = ["construct", spec_path, "--shape", "smooth", f"--resolution={value}"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: resolution must be positive and finite")

    def test_inadmissible_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"intervals": [[0, 0.9], [1.1, 2.5]]}))
        assert main(["construct", str(path)]) == 1
        assert "fails validation" in capsys.readouterr().err


class TestChords:
    def test_scan_outputs(self, spec_path, tmp_path, capsys):
        fn_path = tmp_path / "fn.json"
        main(["construct", spec_path, "--output", str(fn_path)])
        capsys.readouterr()
        out_csv = tmp_path / "scan.csv"
        assert main(["chords", str(fn_path), "--output", str(out_csv)]) == 0
        assert "scanned" in capsys.readouterr().out
        assert out_csv.exists()
        assert (tmp_path / "scan_boundaries.csv").exists()
        header = out_csv.read_text().splitlines()[0]
        assert header == "s,in_chord_set"

    def test_summary_names_exact_intervals(self, spec_path, tmp_path, capsys):
        fn_path = tmp_path / "fn.json"
        main(["construct", spec_path, "--output", str(fn_path)])
        capsys.readouterr()
        assert main(["chords", str(fn_path), "--output", str(tmp_path / "scan.csv")]) == 0
        out = capsys.readouterr().out
        assert "[0, 0.9], [1.1, 1.8], [2.2, 2.7], [3.3, 3.6], [4.4, 4.4]" in out

    def test_smooth_construction_round_trip(self, spec_path, tmp_path, capsys):
        # sampled at sup/1000 and scanned at sup/500, the smooth
        # construction must give back the prescribed boundaries
        fn_path = tmp_path / "smooth.json"
        assert main(["construct", spec_path, "--shape", "smooth", "--output", str(fn_path)]) == 0
        assert main(["chords", str(fn_path), "--output", str(tmp_path / "scan.csv")]) == 0
        with (tmp_path / "scan_boundaries.csv").open() as fh:
            found = [0.5 * (float(lo) + float(hi)) for lo, hi in list(csv.reader(fh))[1:]]
        expected = [0.9, 1.1, 1.8, 2.2, 2.7, 3.3, 3.6, 4.4]
        allowed = 2 * (4.4 / 1000 + 4.4 / 500)
        assert len(found) == len(expected)
        assert max(abs(a - b) for a, b in zip(found, expected)) <= allowed

    def test_computes_the_chord_set_once(self, spec_path, tmp_path, capsys, monkeypatch):
        fn_path = tmp_path / "fn.json"
        assert main(["construct", spec_path, "--output", str(fn_path)]) == 0
        calls = []
        exact = oracle.chord_set

        def counted(f):
            calls.append(f)
            return exact(f)

        # under both names, in case the command imports it directly
        monkeypatch.setattr(oracle, "chord_set", counted)
        monkeypatch.setattr(cli, "chord_set", counted, raising=False)
        assert main(["chords", str(fn_path), "--output", str(tmp_path / "scan.csv")]) == 0
        assert len(calls) == 1
        assert "[0, 0.9], [1.1, 1.8]" in capsys.readouterr().out

    def test_tolerance_not_accepted(self, spec_path, miles_path, tmp_path):
        # tolerances follow from the data; no subcommand takes the flag
        race = ["--window", "1"]
        for argv in (
            ["validate", spec_path],
            ["construct", spec_path],
            ["chords", spec_path, "--output", str(tmp_path / "scan.csv")],
            ["race-plan", "--distance", "3", "--time", "20:00", "--window", "2"],
            ["race-find-split", miles_path] + race,
            ["race-exists-split", miles_path] + race,
            ["plot", spec_path, "--output", str(tmp_path / "f.svg")],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--tolerance", "0"])
            assert exc.value.code == 2


def _refuse_huge(monkeypatch, name, size_arg):
    """Make numpy.<name> raise MemoryError, as numpy does when it cannot
    allocate, for requests above 10**9 elements, so that no test makes one."""
    real = getattr(np, name)

    def alloc(*args, **kwargs):
        n = args[size_arg] if len(args) > size_arg else kwargs.get("num", 50)
        if n > 10**9:
            raise MemoryError(f"Unable to allocate {8 * n / 2**50:.2f} PiB for an array")
        return real(*args, **kwargs)

    monkeypatch.setattr(np, name, alloc)


class TestUnhonourableResolution:
    """A resolution that cannot be honoured is an error line and exit 1."""

    def _fn_path(self, spec_path, tmp_path, capsys):
        fn_path = tmp_path / "fn.json"
        assert main(["construct", spec_path, "--output", str(fn_path)]) == 0
        capsys.readouterr()
        return str(fn_path)

    # past the float range, and past the largest array numpy can hold: both
    # are refused before anything is allocated
    HUGE = ("5e-324", "1e-300", "1e-18")

    def test_chords_step_count_overflows(self, spec_path, tmp_path, capsys, monkeypatch):
        fn_path = self._fn_path(spec_path, tmp_path, capsys)
        _refuse_huge(monkeypatch, "arange", 0)
        out = tmp_path / "scan.csv"
        for resolution in self.HUGE:
            assert main(["chords", fn_path, "--resolution", resolution, "--output", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"error: resolution {float(resolution):g} gives too many grid lengths over width 4.4\n"
            )
            assert not out.exists()

    def test_construct_sample_count_overflows(self, spec_path, capsys, monkeypatch):
        _refuse_huge(monkeypatch, "linspace", 2)
        for resolution in self.HUGE:
            argv = ["construct", spec_path, "--shape", "smooth", "--resolution", resolution]
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: resolution {float(resolution):g} gives too many samples over [0, 4.4]\n"
            )

    def test_chords_out_of_memory(self, spec_path, tmp_path, capsys, monkeypatch):
        fn_path = self._fn_path(spec_path, tmp_path, capsys)
        _refuse_huge(monkeypatch, "arange", 0)
        out = tmp_path / "scan.csv"
        assert main(["chords", fn_path, "--resolution", "1e-14", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()

    def test_construct_out_of_memory(self, spec_path, capsys, monkeypatch):
        _refuse_huge(monkeypatch, "linspace", 2)
        argv = ["construct", spec_path, "--shape", "smooth", "--resolution", "1e-13"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate")

    def test_memory_error_without_message(self, spec_path, capsys, monkeypatch):
        def boom(spec):
            raise MemoryError

        monkeypatch.setattr(cli, "build_hopf", boom)
        assert main(["construct", spec_path]) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"


class TestMalformedSplits:
    @pytest.mark.parametrize(
        "splits, shown", [([1, 2], "got 1"), ([[1, None], [3, 10]], "got [1, None]")]
    )
    @pytest.mark.parametrize("command", ["race-exists-split", "race-find-split", "plot"])
    def test_one_error_line(self, tmp_path, capsys, splits, shown, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"total_distance": 3, "total_time": 10, "splits": splits}))
        svg = tmp_path / "p.svg"
        extra = ["--output", str(svg)] if command == "plot" else ["--window", "1"]
        assert main([command, str(path)] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: each split must be a (distance, time) pair of numbers, {shown}\n"
        )
        assert not svg.exists()


class TestRaceCommands:
    def test_find_split_golden_line(self, miles_path, capsys):
        assert main(["race-find-split", miles_path, "--window", "1.0"]) == 0
        assert capsys.readouterr().out == "t* = 165.000000 s\n"

    def test_exists_split_positive(self, miles_path, capsys):
        assert main(["race-exists-split", miles_path, "--window", "1.0"]) == 0
        assert capsys.readouterr().out == "t* = 165.000000 s\n"

    def test_find_split_zero_tolerance(self, tmp_path, capsys):
        # the interpolated window is exact, so no rounding slack is needed
        path = tmp_path / "steep.json"
        path.write_text(
            json.dumps(
                {
                    "total_distance": 3.0,
                    "total_time": 900,
                    "splits": [[1.15, 883], [1.85, 897], [3, 900]],
                }
            )
        )
        code = main(["race-find-split", str(path), "--window", "1"])
        assert code == 0
        assert capsys.readouterr().out == "t* = 595.511628 s\n"

    def test_find_split_non_divisor_exits_1(self, miles_path, capsys):
        assert main(["race-find-split", miles_path, "--window", "2.0"]) == 1
        assert "whole-number multiple" in capsys.readouterr().err

    def test_race_plan_and_exists_negative(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        assert (
            main(
                [
                    "race-plan",
                    "--distance", "3", "--time", "20:00", "--window", "2",
                    "--output", str(plan),
                ]
            )
            == 0
        )
        capsys.readouterr()
        obj = json.loads(plan.read_text())
        assert obj["total_time"] == 1200.0
        assert main(["race-exists-split", str(plan), "--window", "2"]) == 3
        assert capsys.readouterr().out == "none\n"

    def test_race_plan_sin2(self, tmp_path, capsys):
        plan = tmp_path / "plan2.json"
        code = main(
            [
                "race-plan",
                "--distance", "5", "--time", "1500", "--window", "2",
                "--shape", "sin2", "--output", str(plan),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["race-exists-split", str(plan), "--window", "2"]) == 3

    def test_race_plan_sin2_too_close_to_a_whole_ratio_exits_1(self, capsys):
        argv = ["race-plan", "--distance", "3.00000002", "--time", "1000", "--window", "1"]
        assert main(argv + ["--shape", "sin2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "from the whole number 3" in err
        assert "--shape triangle" in err
        assert main(argv + ["--shape", "triangle"]) == 0

    def test_race_plan_whole_ratio_exits_1(self, capsys):
        code = main(["race-plan", "--distance", "4", "--time", "1200", "--window", "2"])
        assert code == 1
        assert "unavoidable" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["race-plan", "--distance", "inf", "--time", "20:00", "--window", "1"],
            ["race-plan", "--distance", "3", "--time", "20:00", "--window", "1e-320"],
            ["race-find-split", None, "--window", "1e-320"],
            ["race-exists-split", None, "--window", "1e-320"],
        ],
    )
    def test_non_finite_ratio_exits_1(self, argv, miles_path, capsys):
        # L/d overflows to inf: an error line, no traceback and no warning
        argv = [miles_path if a is None else a for a in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err

    def test_bad_duration_exits_1(self, capsys):
        code = main(["race-plan", "--distance", "3", "--time", "x", "--window", "2"])
        assert code == 1
        assert "duration" in capsys.readouterr().err


class TestRacePlanRoundTrip:
    """race-plan, then race-exists-split on the written file, prints none.

    The file keeps 12 significant digits, and for sin^2 the unit
    increment shrinks like the square of the distance to a whole ratio,
    so that distance must stay above about 1e-5 (see README)."""

    @staticmethod
    def _round_trip(tmp_path, L, T, d, shape):
        plan = tmp_path / "plan.json"
        argv = ["race-plan", "--distance", repr(L), "--time", repr(T), "--window", repr(d)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv + ["--shape", shape, "--output", str(plan)]) == 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["race-exists-split", str(plan), "--window", repr(d)])
        assert (code, out.getvalue()) == (3, "none\n")

    @pytest.mark.parametrize(
        "shape, L",
        [("sin2", 3.0001), ("sin2", 3.00003), ("triangle", 3.0001), ("triangle", 3.00003),
         ("triangle", 3.000001)],
    )
    def test_near_whole_ratios(self, tmp_path, shape, L):
        self._round_trip(tmp_path, L, 1000.0, 1.0, shape)

    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from(["sin2", "triangle"]),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=1e-4, max_value=1.0 - 1e-4),
        st.floats(min_value=0.05, max_value=50.0),
        st.floats(min_value=10.0, max_value=20000.0),
    )
    def test_random_non_whole_ratios(self, tmp_path_factory, shape, n, frac, d, T):
        self._round_trip(tmp_path_factory.mktemp("plan"), (n + frac) * d, T, d, shape)


class TestJsonOutput:
    """stdout and --output carry the same text, one [x, y] row per line,
    parsing to the values of the library objects."""

    @pytest.mark.parametrize(
        "argv, build",
        [
            (["construct", None], lambda: function_to_obj(build_hopf(SAWTOOTH_PAIRS))),
            (
                ["construct", None, "--shape", "smooth", "--resolution", "0.044"],
                lambda: smooth_samples_to_obj(
                    *smooth_chord_function(ClosedIntervalSet.from_pairs(SAWTOOTH_PAIRS)).sample(101)
                ),
            ),
            (
                ["race-plan", "--distance", "5", "--time", "1500", "--window", "2", "--shape", "sin2"],
                lambda: profile_to_obj(build_adversarial_profile(5.0, 1500.0, 2.0, "sin_squared")),
            ),
        ],
    )
    def test_stdout_and_file(self, spec_path, tmp_path, capsys, argv, build):
        argv = [spec_path if a is None else a for a in argv]
        assert main(argv) == 0
        text = capsys.readouterr().out
        want = build()
        assert json.loads(text) == json.loads(json.dumps(want, indent=2))
        table = next(v for v in want.values() if isinstance(v, list))
        rows = [line.rstrip(",") for line in text.splitlines() if line.startswith("    [")]
        assert [json.loads(row) for row in rows] == json.loads(json.dumps(table))
        out = tmp_path / "out.json"
        assert main(argv + ["--output", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert out.read_text() == text


class TestPlot:
    def test_profile_plot_deterministic(self, miles_path, tmp_path, capsys):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        assert main(["plot", miles_path, "--output", str(a)]) == 0
        assert main(["plot", miles_path, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_function_plot_with_overlay(self, spec_path, tmp_path, capsys):
        fn_path = tmp_path / "fn.json"
        main(["construct", spec_path, "--output", str(fn_path)])
        out = tmp_path / "fn.svg"
        assert main(["plot", str(fn_path), "--output", str(out), "--overlay-shift", "1.0"]) == 0
        assert out.read_text().count("<polyline") == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_overlay_shift_exits_1(self, miles_path, tmp_path, capsys, value):
        out = tmp_path / "p.svg"
        assert main(["plot", miles_path, "--output", str(out), f"--overlay-shift={value}"]) == 1
        assert capsys.readouterr().err.startswith("error: overlay shift must be finite")
        assert not out.exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
