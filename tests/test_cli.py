import contextlib
import csv
import gc
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

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
import chordlab
from chordlab import cli, oracle
from chordlab.cli import build_parser, main, parse_duration
from chordlab.io import format_json
from _corpus import SAWTOOTH_PAIRS, refuse_huge


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
        with pytest.raises(ValueError, match="^duration must be positive, got '0:00'$"):
            parse_duration("0:00")

    @pytest.mark.parametrize("text", ["nan", "inf", "1e400", "10:nan", "-inf", "1e307:0"])
    def test_rejects_non_finite(self, text):
        # float() reads these, and the last overflows once its minutes become seconds
        with pytest.raises(ValueError, match=rf"^cannot parse duration '{text}'; use seconds"):
            parse_duration(text)

    def test_non_finite_time_exits_1(self, capsys):
        argv = ["race-plan", "--distance", "10", "--time", "nan", "--window", "3"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cannot parse duration 'nan'; use seconds, MM:SS, or H:MM:SS\n"
        )


# "intervals" values that float() or iteration would misread as a set:
# the characters of a string, the keys of an object, true as 1
_MISREAD_SPECS = [
    ("oops", 'structure: FAIL ("intervals" must be a list of [lo, hi] pairs)'),
    ({"0": 1}, 'structure: FAIL ("intervals" must be a list of [lo, hi] pairs)'),
    ([[0, True]], "structure: FAIL (interval endpoints must be numbers, got [0, True])"),
    (["01"], "structure: FAIL (interval endpoints must be numbers, got ['0', '1'])"),
]
_MISREAD_IDS = ["string", "object", "boolean-endpoint", "string-pair"]


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

    @pytest.mark.parametrize("intervals, report", _MISREAD_SPECS, ids=_MISREAD_IDS)
    def test_misread_spec_fails_structure(self, tmp_path, capsys, intervals, report):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"intervals": intervals}))
        assert main(["validate", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == f"{report}\nnot a valid chord set\n"
        assert captured.err == ""


def _run_module(*args: str) -> subprocess.CompletedProcess:
    """``python -m chordlab`` with ``args``, importing this chordlab."""
    env = dict(os.environ)
    src = str(Path(chordlab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "chordlab", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


class TestModuleEntryPoint:
    def test_validate_exits_0(self, spec_path):
        proc = _run_module("validate", spec_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("\nvalid chord set\n")

    def test_unknown_command_exits_2_with_usage(self):
        proc = _run_module("nosuch")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: chordlab")


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "5e-324"])
    def test_smooth_resolution_must_be_positive_and_finite(self, tmp_path, capsys, value):
        # the spacing is sup / 1000: a non-finite sup fails validation, and
        # {0} and [0, 5e-324], which validate, are refused because 1001
        # samples of [0, sup] would repeat
        sup = float(value)
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"intervals": [[0, sup]]}))
        if np.isfinite(sup):
            assert main(["validate", str(path)]) == 0
            capsys.readouterr()
            expected = f"the chord set's sup {sup:g} is too small to sample at 1001 distinct points"
        else:
            expected = (
                "chord set fails validation:\n"
                f"structure: FAIL (interval endpoints must be finite, got [0, {sup:g}])\n"
                "not a valid chord set"
            )
        assert main(["construct", str(path), "--shape", "smooth"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {expected}\n"

    def test_inadmissible_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"intervals": [[0, 0.9], [1.1, 2.5]]}))
        assert main(["construct", str(path)]) == 1
        assert "fails validation" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", ["hopf", "smooth"])
    @pytest.mark.parametrize(
        "pairs, report",
        [
            ([[0.5, 0.9]], "structure: FAIL (the first interval must start at 0, got lo = 0.5)"),
            (
                [[0, 0.9], [1.1, 2.5]],
                "structure: ok (2 intervals, sup = 2.5)\nadditivity: FAIL (complement not "
                "closed under addition: 1 + 1 = 2 lies in the set)",
            ),
            *_MISREAD_SPECS,
        ],
        ids=["malformed", "inadmissible", *_MISREAD_IDS],
    )
    def test_refused_set_reads_the_same_for_every_shape(
        self, tmp_path, capsys, shape, pairs, report
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"intervals": pairs}))
        assert main(["construct", str(path), "--shape", shape]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: chord set fails validation:\n{report}\nnot a valid chord set\n"
        )


_TOO_SMALL = "the function's width {} is too small to scan at 501 evenly spaced lengths"


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
        exact = oracle._chord_bounds

        def counted(f):
            calls.append(f)
            return exact(f)

        # every path to the set's cells goes through this one function
        monkeypatch.setattr(oracle, "_chord_bounds", counted)
        assert main(["chords", str(fn_path), "--output", str(tmp_path / "scan.csv")]) == 0
        assert len(calls) == 1
        assert "[0, 0.9], [1.1, 1.8]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "breakpoints, message",
        [
            # width / 500 rounds to 0, or to steps that give 406 and 608 lengths
            ("[0, 0], [1e-321, 1]", _TOO_SMALL.format("9.98013e-322")),
            ("[0, 0], [2e-321, 1]", _TOO_SMALL.format("2.00097e-321")),
            ("[0, 0], [6e-321, 1]", _TOO_SMALL.format("5.99796e-321")),
            ("[0, 0]", "cannot scan a single-point function"),
        ],
        ids=["1e-321", "2e-321", "6e-321", "single-point"],
    )
    def test_width_too_small_to_scan(self, tmp_path, capsys, breakpoints, message):
        path = tmp_path / "f.json"
        path.write_text(f'{{"breakpoints": [{breakpoints}]}}')
        out = tmp_path / "scan.csv"
        assert main(["chords", str(path), "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    def test_subnormal_step_scans_501_lengths(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"breakpoints": [[0, 0], [1e-310, 1]]}')
        out = tmp_path / "scan.csv"
        assert main(["chords", str(path), "--output", str(out)]) == 0
        assert capsys.readouterr().out.startswith("scanned 501 lengths")
        assert len(out.read_text().splitlines()) == 502

    def test_tolerance_not_accepted(self, spec_path, miles_path, tmp_path):
        # tolerances follow from the data; no subcommand takes the flag
        _refused_by_every_subcommand(["--tolerance", "0"], spec_path, miles_path, tmp_path)

    def test_resolution_not_accepted(self, spec_path, miles_path, tmp_path):
        # the grid and sample counts are constants; no subcommand takes the flag
        _refused_by_every_subcommand(["--resolution", "0.1"], spec_path, miles_path, tmp_path)


def _refused_by_every_subcommand(flag, spec_path, miles_path, tmp_path):
    """Every subcommand exits 2, argparse's usage error, when given flag."""
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
            main(argv + flag)
        assert exc.value.code == 2


_NO_MEMORY = "Unable to allocate 3.91 KiB for an array with shape (501,) and data type float64"


def _fail_allocation(monkeypatch, name):
    """Make numpy.<name> raise MemoryError with numpy's message, as it
    does when it cannot allocate."""

    def alloc(*args, **kwargs):
        raise MemoryError(_NO_MEMORY)

    monkeypatch.setattr(np, name, alloc)


class TestUnhonourableResolution:
    """A grid or sample count that cannot be honoured, because it is too
    large or its allocation fails, is one error line and exit 1, with
    nothing written."""

    def test_chords_step_count_overflows(self, monkeypatch):
        # chords scans at width / 500; the scan behind it refuses resolutions
        # past the float range, and past the largest array numpy can hold,
        # before anything is allocated
        refuse_huge(monkeypatch, "arange", 0)
        f = build_hopf(SAWTOOTH_PAIRS)
        for resolution in (5e-324, 1e-300, 1e-18):
            with pytest.raises(ValueError) as info:
                cli._scan_bounds(f, resolution)
            assert str(info.value) == (
                f"resolution {resolution:g} gives too many grid lengths over width 4.4"
            )

    def test_chords_out_of_memory(self, spec_path, tmp_path, capsys, monkeypatch):
        fn_path = tmp_path / "fn.json"
        assert main(["construct", spec_path, "--output", str(fn_path)]) == 0
        capsys.readouterr()
        _fail_allocation(monkeypatch, "arange")  # the grid of 501 lengths
        out = tmp_path / "scan.csv"
        assert main(["chords", str(fn_path), "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {_NO_MEMORY}\n"
        assert not out.exists()

    def test_construct_out_of_memory(self, spec_path, capsys, monkeypatch):
        _fail_allocation(monkeypatch, "linspace")  # the 1001 sample points
        assert main(["construct", spec_path, "--shape", "smooth"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {_NO_MEMORY}\n"

    def test_memory_error_without_message(self, spec_path, capsys, monkeypatch):
        def boom(spec):
            raise MemoryError

        monkeypatch.setattr(cli, "build_hopf", boom)
        assert main(["construct", spec_path]) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"


def test_additivity_check_validates_resolution_without_a_grid(monkeypatch):
    # width * 1e-10 asks for 10^10 grid lengths, which are never built
    refuse_huge(monkeypatch, "arange", 0)
    f = build_hopf(SAWTOOTH_PAIRS)
    assert oracle.verify_complement_additivity(f, f.width * 1e-10).holds
    with pytest.raises(ValueError, match="too many grid lengths"):
        oracle.verify_complement_additivity(f, 5e-324)


class TestOverflowingInputs:
    """Inputs whose arithmetic would pass the largest float exit 1 with one
    line naming the cause; pytest turns any leaked warning into a failure."""

    def test_chords_on_values_spanning_past_the_largest_float(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"breakpoints": [[0, 0], [1, 1e308], [2, -1e308], [3, 0]]}))
        out = tmp_path / "scan.csv"
        assert main(["chords", str(path), "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: function values span [-1e+308, 1e+308], a range past the largest "
            "float; scale them down\n"
        )
        assert not out.exists()

    def test_chords_on_breakpoints_spanning_past_the_largest_float(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"breakpoints": [[-1e308, 0], [1e308, 1]]}))
        out = tmp_path / "scan.csv"
        assert main(["chords", str(path), "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: breakpoints span [-1e+308, 1e+308], a range past the largest "
            "float; scale them down\n"
        )
        assert not out.exists()

    def test_race_plan_with_a_subnormal_time(self, capsys):
        argv = ["race-plan", "--distance", "10", "--time", "1e-320", "--window", "3"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: (L/d)/T = 3.33333/9.99989e-321 overflows; the total time is too short\n"
        )

    def test_race_exists_split_with_a_subnormal_time(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        splits = [[5, 5e-321], [10, 1e-320]]
        path.write_text(json.dumps({"total_distance": 10, "total_time": 1e-320, "splits": splits}))
        assert main(["race-exists-split", str(path), "--window", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: (L/d)/T = 3.33333/") and err.endswith("the total time is too short\n")
        assert err.count("\n") == 1


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


_BIG = "1" + "0" * 400  # a JSON integer past the largest float


@pytest.mark.parametrize(
    "command, extra, text",
    [
        ("validate", [], f'{{"intervals": [[0, 1], [2, {_BIG}]]}}'),
        ("construct", [], f'{{"intervals": [[0, 1], [2, {_BIG}]]}}'),
        ("construct", ["--shape", "smooth"], f'{{"intervals": [[0, 1], [2, {_BIG}]]}}'),
        ("chords", ["--output", "scan.csv"], f'{{"breakpoints": [[0, 0], [1, {_BIG}]]}}'),
        ("plot", ["--output", "f.svg"], f'{{"breakpoints": [[0, 0], [1, {_BIG}]]}}'),
        (
            "race-exists-split",
            ["--window", "1"],
            f'{{"total_distance": 3, "total_time": 10, "splits": [[1, 2], [3, {_BIG}]]}}',
        ),
        (
            "race-find-split",
            ["--window", "1"],
            f'{{"total_distance": {_BIG}, "total_time": 10, "splits": [[1, 2], [3, 10]]}}',
        ),
    ],
    ids=["validate", "construct", "construct-smooth", "chords", "plot", "race-exists-split",
         "race-find-split"],
)
def test_integer_past_the_largest_float_exits_1(
    tmp_path, capsys, monkeypatch, command, extra, text
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(text)
    assert main([command, "in.json"] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: in.json holds an integer past the largest float\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]


_PROFILE = '{{"total_distance": {}, "total_time": {}, "splits": [[1, 2], [{}, 10]]}}'


@pytest.mark.parametrize(
    "command, extra, text, err",
    [
        ("race-exists-split", ["--window", "0.3"], _PROFILE.format("true", 10, 3),
         '"total_distance" must hold numbers, got True'),
        ("race-find-split", ["--window", "1"], _PROFILE.format(3, '"10"', 3),
         '"total_time" must hold numbers, got \'10\''),
        ("plot", ["--output", "p.svg"], _PROFILE.format(3, 10, '"3"'),
         '"splits" must hold numbers, got \'3\''),
        ("chords", ["--output", "s.csv"], '{"breakpoints": [[0, 0], ["1", true], [2, false]]}',
         '"breakpoints" must hold numbers, got \'1\''),
        ("plot", ["--output", "f.svg"], '{"kind": "smooth", "samples": [[0, 0], [1, false]]}',
         '"samples" must hold numbers, got False'),
    ],
    ids=["boolean-total", "string-total", "string-split", "string-breakpoint", "boolean-sample"],
)
def test_boolean_or_string_number_exits_1(tmp_path, capsys, monkeypatch, command, extra, text, err):
    # float() and numpy read them as numbers; the files hold JSON numbers only
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(text)
    assert main([command, "in.json"] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]


def test_file_not_utf8_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_bytes(b"\xff\xfe{}")
    assert main(["validate", "in.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: in.json is not UTF-8 text\n"


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
                ["construct", None, "--shape", "smooth"],
                lambda: smooth_samples_to_obj(
                    *smooth_chord_function(ClosedIntervalSet.from_pairs(SAWTOOTH_PAIRS)).sample(1001)
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


    @pytest.mark.parametrize(
        "rows, points",
        [
            ([[-1e308, 0], [1e308, 1]], "45.000,315.000 675.000,45.000"),
            ([[0, 1e308], [1, -1e308]], "45.000,45.000 675.000,315.000"),
        ],
        ids=["x", "y"],
    )
    def test_range_past_the_largest_float(self, tmp_path, capsys, rows, points):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"breakpoints": rows}))
        out = tmp_path / "f.svg"
        assert main(["plot", str(path), "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert f'<polyline points="{points}"' in out.read_text()

    def test_overlay_shift_past_the_largest_float_exits_1(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"breakpoints": [[0, 0], [1e308, 1]]}))
        out = tmp_path / "f.svg"
        assert main(["plot", str(path), "--output", str(out), "--overlay-shift", "1e308"]) == 1
        assert capsys.readouterr().err == (
            "error: overlay shift 1e+308 moves the curve past the largest float\n"
        )
        assert not out.exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


class TestOneParserPerProcess:
    """main builds its parser once and reuses it; no call leaves a trace
    in the next."""

    def test_different_subcommands_back_to_back(self, spec_path, miles_path, capsys):
        assert main(["validate", spec_path]) == 0
        assert "valid chord set" in capsys.readouterr().out
        assert main(["race-find-split", miles_path, "--window", "1"]) == 0
        assert capsys.readouterr().out.startswith("t* = ")
        assert main(["validate", spec_path]) == 0
        assert "valid chord set" in capsys.readouterr().out

    def test_a_malformed_call_leaves_the_next_working(self, spec_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", spec_path, "--shape", "cube"])
        assert exc.value.code == 2
        assert "invalid choice: 'cube'" in capsys.readouterr().err
        assert main(["construct", spec_path]) == 0
        assert json.loads(capsys.readouterr().out) == function_to_obj(build_hopf(SAWTOOTH_PAIRS))

    def test_no_default_leaks_between_calls(self, spec_path, tmp_path, capsys):
        out = tmp_path / "f.json"
        assert main(["construct", spec_path, "--output", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert main(["construct", spec_path]) == 0
        assert capsys.readouterr().out == out.read_text()

    @pytest.mark.parametrize("argv", [["--help"], ["race-plan", "--help"]])
    def test_help_is_that_of_a_fresh_parser(self, argv, capsys):
        texts = []
        for parse in (main, build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        if argv == ["--help"]:
            for command in ("validate", "construct", "chords", "race-plan", "race-find-split",
                            "race-exists-split", "plot"):
                assert command in texts[0]


class TestTablesWrittenFromArrays:
    """construct and race-plan write their tables from arrays, rounded
    once; the bytes are those of format_json over the public lists, which
    round a table of at most 32 rows number by number."""

    @pytest.mark.parametrize(
        "argv, build, small",
        [
            (["construct", [[0, 1], [2, 2]]], lambda: function_to_obj(build_hopf([[0, 1], [2, 2]])), True),
            (["construct", SAWTOOTH_PAIRS], lambda: function_to_obj(build_hopf(SAWTOOTH_PAIRS)), True),
            (
                ["construct", SAWTOOTH_PAIRS, "--shape", "smooth"],
                lambda: smooth_samples_to_obj(
                    *smooth_chord_function(ClosedIntervalSet.from_pairs(SAWTOOTH_PAIRS)).sample(1001)
                ),
                False,
            ),
            (
                ["race-plan", "--distance", "5", "--time", "1500", "--window", "2"],
                lambda: profile_to_obj(build_adversarial_profile(5.0, 1500.0, 2.0, "triangle_wave")),
                True,
            ),
            (
                ["race-plan", "--distance", "3", "--time", "20:00", "--window", "1.25", "--shape", "sin2"],
                lambda: profile_to_obj(build_adversarial_profile(3.0, 1200.0, 1.25, "sin_squared")),
                False,
            ),
            (
                ["race-plan", "--distance", "33.6", "--time", "5000", "--window", "1.3"],
                lambda: profile_to_obj(build_adversarial_profile(33.6, 5000.0, 1.3, "triangle_wave")),
                False,
            ),
        ],
        ids=["hopf-small", "hopf-sawtooth", "smooth", "triangle-small", "sin2", "triangle"],
    )
    def test_bytes_equal_format_json_of_the_lists(self, tmp_path, capsys, argv, build, small):
        if argv[0] == "construct":
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"intervals": argv[1]}))
            argv = ["construct", str(spec)] + argv[2:]
        assert main(argv) == 0
        text = capsys.readouterr().out
        want = build()
        assert text == format_json(want)
        table = next(v for v in want.values() if isinstance(v, list))
        assert (len(table) <= 32) == small
        # each table holds integral floats, such as 0.0 or the totals
        assert any(x.is_integer() for row in table for x in row)
        if "smooth" in argv:
            assert "-0.0]" in text

    def test_a_warm_race_plan_collects_garbage_at_most_once(self, capsys):
        # row lists as Python objects set off about 8 collections per call
        argv = ["race-plan", "--distance", "33.6", "--time", "5000", "--window", "1.3", "--shape", "sin2"]
        assert main(argv) == 0
        capsys.readouterr()
        counts = []

        def count(phase, info):
            if phase == "start":
                counts.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            assert main(argv) == 0
        finally:
            gc.callbacks.remove(count)
        rows = capsys.readouterr().out.count("\n")
        print(f"race-plan --shape sin2 ({rows} lines): {len(counts)} collections (at most 1)")
        assert len(counts) <= 1
