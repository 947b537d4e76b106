"""Serialization: JSON schemas for sets, functions, and profiles; CSV
output for chord scans; a small deterministic SVG writer for plots.

All emitted numbers are rounded to 12 significant digits, which keeps
files diff-friendly and makes round trips exact for short-decimal data.
:func:`format_json` lays a JSON object out with one top-level key per
line, indented by two spaces, and a list of rows such as ``[x, y]``
pairs with one row per line, indented by four::

    {
      "kind": "smooth",
      "samples": [
        [0.0, 0.0],
        [0.0044, -0.0]
      ]
    }

It is built on json's C encoder (``indent`` would switch that off), so
large sample lists are written several times faster.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .intervals import ClosedIntervalSet
from .oracle import ChordScan
from .piecewise import PiecewiseLinearFunction
from .race import RaceProfile


def _sig(x: float) -> float:
    return float(f"{float(x):.12g}")


def _pairs(rows) -> list[list[float]]:
    """12-digit [a, b] rows from pairs of Python numbers, such as the
    ``zip`` of two ``tolist()`` columns, which format faster than numpy
    scalars."""
    return [[float(f"{a:.12g}"), float(f"{b:.12g}")] for a, b in rows]


def interval_set_to_obj(s: ClosedIntervalSet) -> dict:
    return {"intervals": _pairs(s.to_pairs())}


def parse_interval_set(obj: dict) -> ClosedIntervalSet:
    if not isinstance(obj, dict) or "intervals" not in obj:
        raise ValueError('interval set object must contain key "intervals"')
    rows = obj["intervals"]
    if not isinstance(rows, list):
        raise ValueError('"intervals" must be a list of [lo, hi] pairs')
    return ClosedIntervalSet.from_pairs(rows)


def function_to_obj(f: PiecewiseLinearFunction) -> dict:
    return {"breakpoints": _pairs(zip(f.xs.tolist(), f.ys.tolist()))}


def smooth_samples_to_obj(xs: np.ndarray, ys: np.ndarray) -> dict:
    xs, ys = (np.asarray(a, dtype=np.float64).tolist() for a in (xs, ys))
    return {"kind": "smooth", "samples": _pairs(zip(xs, ys))}


def parse_function(obj: dict) -> PiecewiseLinearFunction:
    """Read a function object: exact breakpoints, or sampled values of a
    smooth function (which become an approximating polyline)."""
    if not isinstance(obj, dict):
        raise ValueError("function object must be a JSON object")
    if "breakpoints" in obj:
        rows = obj["breakpoints"]
        key = "breakpoints"
    elif "samples" in obj:
        rows = obj["samples"]
        key = "samples"
    else:
        raise ValueError('function object must contain "breakpoints" or "samples"')
    if not isinstance(rows, list) or not rows:
        raise ValueError(f'"{key}" must be a nonempty list of [x, y] pairs')
    try:
        pts = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f'could not parse "{key}": {exc}') from exc
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f'"{key}" must be a list of [x, y] pairs')
    return PiecewiseLinearFunction(pts[:, 0], pts[:, 1])


def profile_to_obj(profile: RaceProfile) -> dict:
    return {
        "total_distance": _sig(profile.total_distance),
        "total_time": _sig(profile.total_time),
        "splits": _pairs(profile.splits()),
    }


def parse_profile(obj: dict) -> RaceProfile:
    if not isinstance(obj, dict):
        raise ValueError("profile object must be a JSON object")
    for key in ("total_distance", "total_time", "splits"):
        if key not in obj:
            raise ValueError(f'profile object must contain key "{key}"')
    try:
        L = float(obj["total_distance"])
        T = float(obj["total_time"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"profile totals must be numbers: {exc}") from exc
    splits = obj["splits"]
    if not isinstance(splits, list):
        raise ValueError('"splits" must be a list of [distance, time] pairs')
    return RaceProfile.from_splits(L, T, splits)


def load_json(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def format_json(obj: dict) -> str:
    """JSON text for a top-level object in the layout of this module's
    docstring, ending in a newline."""
    lines = []
    for key, value in obj.items():
        text = json.dumps(value)
        if text.startswith("[[") and '"' not in text:
            text = "[\n    " + text[1:-1].replace("], [", "],\n    [") + "\n  ]"
        lines.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def save_json(obj: dict, path) -> None:
    Path(path).write_text(format_json(obj))


def write_chord_scan(scan: ChordScan, path) -> tuple[Path, Path]:
    """Write scan membership as CSV, plus a companion file of refined
    boundary brackets.  Returns (main_path, boundaries_path)."""
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


_SVG_STYLES = (
    ("#111111", 2.0),
    ("#888888", 1.2),
    ("#c0392b", 1.2),
    ("#2980b9", 1.2),
)


def svg_for_curves(curves) -> str:
    """Render (xs, ys) polylines into a fixed-size standalone SVG string.

    Hand-rolled so output is byte-for-byte deterministic for identical
    input; plotting libraries embed generated ids and metadata."""
    width, height, pad = 720, 360, 45
    data = [
        (np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64))
        for xs, ys in curves
    ]
    if not data:
        raise ValueError("need at least one curve to plot")
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
    for i, (xs, ys) in enumerate(data):
        color, stroke = _SVG_STYLES[i % len(_SVG_STYLES)]
        pts = " ".join(f"{px(float(x)):.3f},{py(float(y)):.3f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{stroke}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
