"""Command line interface.

Exit codes: 0 success (or positive finding), 3 negative result (failed
validation, no window found), 1 input, file or computation errors.
argparse keeps its usual exit 2 for malformed invocations.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .builders import build_hopf, smooth_chord_function
from .intervals import tolerance, validate_chord_spec
from .io import (
    _function_obj,
    _profile_obj,
    _smooth_samples_obj,
    format_json,
    load_json,
    parse_function,
    parse_profile,
    save_json,
    svg_for_curves,
    write_chord_scan,
)
from .oracle import _scan_bounds
from .race import build_adversarial_profile, exists_average_split, find_average_split

_PHI_KINDS = {"triangle": "triangle_wave", "sin2": "sin_squared"}
_SMOOTH_SAMPLES = 1001  # construct --shape smooth: spacing sup/1000


def parse_duration(text: str) -> float:
    """Seconds from 'SS', 'MM:SS', or 'H:MM:SS' (fractions allowed)."""
    parts = text.strip().split(":")
    # more than three parts, or one that float() cannot read, make the total NaN
    total = 0.0 if len(parts) <= 3 else math.nan
    for part in parts:
        try:
            value = float(part)
        except ValueError:
            value = math.nan
        total = total * 60.0 + value
        # float() also reads "nan", "inf" and "1e400", and the total can overflow
        if not math.isfinite(total):
            raise ValueError(f"cannot parse duration {text!r}; use seconds, MM:SS, or H:MM:SS")
        if value < 0:
            raise ValueError(f"duration components must be nonnegative in {text!r}")
    if total <= 0:
        raise ValueError(f"duration must be positive, got {text!r}")
    return total


def _emit(obj: dict, output: str | None) -> None:
    if output is None:
        sys.stdout.write(format_json(obj))
    else:
        save_json(obj, output)
        print(f"wrote {output}")


def _load_spec(path):
    """The "intervals" value of a chord-set spec file, unchecked."""
    obj = load_json(path)
    if not isinstance(obj, dict) or "intervals" not in obj:
        raise ValueError(f'{path} must contain key "intervals"')
    return obj["intervals"]


def _cmd_validate(args) -> int:
    report = validate_chord_spec(_load_spec(args.spec))
    print(report.summary())
    return 0 if report.ok else 3


def _cmd_construct(args) -> int:
    spec = _load_spec(args.spec)
    if args.shape == "hopf":
        _emit(_function_obj(build_hopf(spec)), args.output)
        return 0
    sf = smooth_chord_function(spec)
    xs, ys = sf.sample(_SMOOTH_SAMPLES)
    if not (xs[1:] > xs[:-1]).all():
        raise ValueError(
            f"the chord set's sup {sf.x_max:g} is too small to sample at "
            f"{_SMOOTH_SAMPLES} distinct points"
        )
    _emit(_smooth_samples_obj(xs, ys), args.output)
    return 0


def _cmd_chords(args) -> int:
    f = parse_function(load_json(args.function))
    w = f.width
    step = w / 500.0
    # A subnormal step rounds so coarsely that 500 of them miss the
    # width; a width of 0 keeps the scan's single-point message.
    if w > 0 and abs(500.0 * step - w) > tolerance(w):
        raise ValueError(
            f"the function's width {w:g} is too small to scan at 501 evenly spaced lengths"
        )
    scan, los, his = _scan_bounds(f, step)
    main_path, bpath = write_chord_scan(scan, args.output)
    member = int(scan.membership.sum())
    pairs = ", ".join(f"[{lo:.6g}, {hi:.6g}]" for lo, hi in zip(los.tolist(), his.tolist()))
    print(
        f"scanned {scan.lengths.size} lengths, {member} in the chord set {pairs}; "
        f"wrote {main_path} and {bpath}"
    )
    return 0


def _cmd_race_plan(args) -> int:
    total_time = parse_duration(args.time)
    profile = build_adversarial_profile(
        args.distance, total_time, args.window, phi_kind=_PHI_KINDS[args.shape]
    )
    _emit(_profile_obj(profile), args.output)
    return 0


def _cmd_race_find_split(args) -> int:
    profile = parse_profile(load_json(args.profile))
    t = find_average_split(profile, args.window)
    print(f"t* = {t:.6f} s")
    return 0


def _cmd_race_exists_split(args) -> int:
    profile = parse_profile(load_json(args.profile))
    res = exists_average_split(profile, args.window)
    if res.exists:
        print(f"t* = {res.witness_x:.6f} s")
        return 0
    print("none")
    return 3


def _cmd_plot(args) -> int:
    shift = args.overlay_shift
    if shift is not None and not math.isfinite(shift):
        raise ValueError(f"overlay shift must be finite, got {shift:g}")
    obj = load_json(args.input)
    if isinstance(obj, dict) and "splits" in obj:
        pos = parse_profile(obj).position
        xs, ys = pos.xs, pos.ys
    else:
        f = parse_function(obj)
        xs, ys = f.xs, f.ys
    curves = [(xs, ys)]
    if shift is not None:
        if not (math.isfinite(float(xs[0]) + shift) and math.isfinite(float(xs[-1]) + shift)):
            raise ValueError(f"overlay shift {shift:g} moves the curve past the largest float")
        curves.append((xs + shift, ys))
    Path(args.output).write_text(svg_for_curves(curves))
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chordlab",
        description="Horizontal chord sets and average-pace race analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a chord set for admissibility")
    p.add_argument("spec", help="JSON file with an 'intervals' list")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("construct", help="build a function realizing a chord set")
    p.add_argument("spec", help="JSON file with an 'intervals' list")
    p.add_argument("--shape", choices=("hopf", "smooth"), default="hopf")
    p.add_argument("--output", default=None, help="output JSON path (default stdout)")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("chords", help="compute which chord lengths a function has")
    p.add_argument("function", help="JSON file with 'breakpoints' or 'samples'")
    p.add_argument("--output", required=True, help="CSV output path")
    p.set_defaults(handler=_cmd_chords)

    p = sub.add_parser(
        "race-plan",
        help="build a profile with no average-pace window of the given distance",
    )
    p.add_argument("--distance", type=float, required=True, help="total race distance")
    p.add_argument("--time", required=True, help="total time (seconds, MM:SS, or H:MM:SS)")
    p.add_argument("--window", type=float, required=True, help="window distance to avoid")
    p.add_argument("--shape", choices=tuple(_PHI_KINDS), default="triangle")
    p.add_argument("--output", default=None, help="output JSON path (default stdout)")
    p.set_defaults(handler=_cmd_race_plan)

    p = sub.add_parser(
        "race-find-split",
        help="locate an average-pace window when the distance divides the race",
    )
    p.add_argument("profile", help="profile JSON file")
    p.add_argument("--window", type=float, required=True, help="window distance")
    p.set_defaults(handler=_cmd_race_find_split)

    p = sub.add_parser(
        "race-exists-split",
        help="decide whether any average-pace window of the given distance exists",
    )
    p.add_argument("profile", help="profile JSON file")
    p.add_argument("--window", type=float, required=True, help="window distance")
    p.set_defaults(handler=_cmd_race_exists_split)

    p = sub.add_parser("plot", help="render a function or profile to SVG")
    p.add_argument("input", help="JSON file with a function or profile")
    p.add_argument("--output", required=True, help="SVG output path")
    p.add_argument(
        "--overlay-shift",
        type=float,
        default=None,
        help="also draw the curve translated right by this amount",
    )
    p.set_defaults(handler=_cmd_plot)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses: parsing leaves it as it was, so one
    per process serves every call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
