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

Each schema is built once, by a private builder that is told how to
make its table from two columns, and :func:`format_json` has two paths.
The command line's table is an (n, 2) array value, which is rounded once
with :func:`_round12` and written with one format call, so no row
becomes a Python object.  Every other value goes through ``json.dumps``,
the lists of the public ``*_to_obj`` functions among them
(:func:`_pairs12` rounds small tables number by number and larger ones
with the same :func:`_round12`), and a table comes out with the same
bytes on either path.  A CSV file or a polyline is formatted with one
call over all its numbers, with the bytes that formatting one number at
a time would give."""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .intervals import ClosedIntervalSet, _number_column, _number_pairs
from .oracle import ChordScan
from .piecewise import PiecewiseLinearFunction
from .race import RaceProfile


# Tables of at most this many numbers are rounded one number at a time:
# there numpy's per-call cost exceeds the loop's.
_LOOP_MAX = 64

# 10**k for k = -22 .. 22 as the quotient _UP / _DOWN of two exact
# factors, one of them 1, so that scaling by it rounds once.
_UP = np.array([float(10 ** max(k, 0)) for k in range(-22, 23)])
_DOWN = _UP[::-1].copy()


def _round12(a) -> np.ndarray:
    """``float(f"{x:.12g}")`` of every element of ``a``, bit for bit.

    |x| is scaled by an exact 10**k into [1e11, 1e12] with one rounding,
    which errs by less than 2**-14, then rounded to an integer m and scaled
    back with one rounding: that is the parse of the 12-digit decimal
    m * 10**-k.  Elements within 1e-3 of a rounding tie, or outside
    1e-11 <= |x| < 1e34, where 10**k is not exact, take the f-string, as
    do any whose k, read off log10, misses [1e11, 1e12] by a decade."""
    a = np.asarray(a, dtype=np.float64)
    y = np.abs(a)
    fast = (y >= 1e-11) & (y < 1e34)
    # index of k = 11 - floor(log10 |x|) in the tables; k = 0 elsewhere
    j = np.log10(y, out=np.full_like(y, 11.0), where=fast)
    j = (33.0 - np.floor(j, out=j)).astype(np.intp)
    np.clip(j, 0, 44, out=j)
    up, down = _UP[j], _DOWN[j]
    y *= up
    y /= down
    m = np.rint(y)
    slow = ~fast | (y < 1e11) | (y > 1e12)
    with np.errstate(invalid="ignore"):  # inf - inf where not fast
        y -= m
    slow |= np.abs(y, out=y) > 0.499
    m *= down
    m /= up
    np.copysign(m, a, out=m)
    idx = np.flatnonzero(slow)
    m.reshape(-1)[idx] = [float(f"{x:.12g}") for x in a.ravel()[idx].tolist()]
    return m


def _pairs12(a, b) -> list[list[float]]:
    """12-digit [a_i, b_i] rows from two equal-length columns: float
    arrays, or lists of Python floats."""
    if 2 * len(a) > _LOOP_MAX:
        return _round12(np.column_stack((a, b))).tolist()
    if isinstance(a, np.ndarray):
        a, b = a.tolist(), b.tolist()
    return [[float(f"{x:.12g}"), float(f"{y:.12g}")] for x, y in zip(a, b)]


def interval_set_to_obj(s: ClosedIntervalSet) -> dict:
    ivs = s.intervals
    return {"intervals": _pairs12([iv.lo for iv in ivs], [iv.hi for iv in ivs])}


def parse_interval_set(obj: dict) -> ClosedIntervalSet:
    if not isinstance(obj, dict) or "intervals" not in obj:
        raise ValueError('interval set object must contain key "intervals"')
    return ClosedIntervalSet.from_pairs(obj["intervals"])


# ``table`` makes a schema's table from two columns: an (n, 2) array
# (_array) for the command line, or the lists of _pairs12 for the public
# *_to_obj functions.


def _array(a, b) -> np.ndarray:
    return np.column_stack((a, b))


def _function_obj(f: PiecewiseLinearFunction, table=_array) -> dict:
    return {"breakpoints": table(f.xs, f.ys)}


def function_to_obj(f: PiecewiseLinearFunction) -> dict:
    return _function_obj(f, _pairs12)


def _smooth_samples_obj(xs: np.ndarray, ys: np.ndarray, table=_array) -> dict:
    xs, ys = _number_column(xs, "xs"), _number_column(ys, "ys")
    return {"kind": "smooth", "samples": table(xs, ys)}


def smooth_samples_to_obj(xs: np.ndarray, ys: np.ndarray) -> dict:
    return _smooth_samples_obj(xs, ys, _pairs12)


def parse_function(obj: dict) -> PiecewiseLinearFunction:
    """Read a function object: exact breakpoints, or sampled values of a
    smooth function (which become an approximating polyline).  A boolean,
    string or bytes where a number belongs is refused, naming the key;
    JSON integers are numbers."""
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
    pts = _number_pairs(rows, key, '"{key}" must be a list of [x, y] pairs')
    return PiecewiseLinearFunction._from_owned(pts[:, 0].copy(), pts[:, 1].copy())


def _profile_obj(profile: RaceProfile, table=_array) -> dict:
    pos = profile.position
    return {
        "total_distance": float(f"{profile.total_distance:.12g}"),
        "total_time": float(f"{profile.total_time:.12g}"),
        "splits": table(pos.ys[1:], pos.xs[1:]),
    }


def profile_to_obj(profile: RaceProfile) -> dict:
    return _profile_obj(profile, _pairs12)


def parse_profile(obj: dict) -> RaceProfile:
    """Read a profile object through :meth:`RaceProfile.from_splits`.  A
    boolean, string or bytes where a number belongs, in the totals or the
    splits, is refused, naming the key; JSON integers are numbers."""
    if not isinstance(obj, dict):
        raise ValueError("profile object must be a JSON object")
    for key in ("total_distance", "total_time", "splits"):
        if key not in obj:
            raise ValueError(f'profile object must contain key "{key}"')
    splits = obj["splits"]
    if not isinstance(splits, list):
        raise ValueError('"splits" must be a list of [distance, time] pairs')
    return RaceProfile.from_splits(obj["total_distance"], obj["total_time"], splits)


def _json_int(text: str) -> int:
    # ints stay ints, so messages show them as written; float() raises
    # OverflowError for one past the largest float
    value = int(text)
    float(value)
    return value


def load_json(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text") from exc
    try:
        return json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    except OverflowError as exc:
        raise ValueError(f"{path} holds an integer past the largest float") from exc


# How json.dumps writes a finite float x (its repr), as a printf-style
# spec: "%.1f" for integral |x| < 1e16; "%.12g" for any other normal x
# that 12 significant digits represent exactly, since no other decimal of
# 12 digits or fewer lies within half an ulp of it, so repr's shortest
# digits are %.12g's, and both use an exponent below 1e-4 and from 1e16
# up (from 1e12 such an x is integral); "%r" otherwise, subnormals
# included.
_SPECS = ("%.12g", "%.1f", "%r")
_TINY = np.finfo(np.float64).tiny


def _rows_text(v: np.ndarray) -> str | None:
    """The rows of the (n, 2) float array ``v``, rounded by
    :func:`_round12`, in the layout of :func:`format_json`, each number
    written as ``json.dumps`` writes it, with one format call over all of
    them; None if ``v`` is empty or not finite."""
    if not (v.size and np.isfinite(v).all()):
        return None
    kind = np.where(np.abs(v) >= _TINY, 0, 2).ravel()
    kind[((v == np.trunc(v)) & (np.abs(v) < 1e16)).ravel()] = 1
    seps = (", ", "],\n    [")
    specs = [_SPECS[0] + seps[0], _SPECS[0] + seps[1]] * len(v)
    idx = np.flatnonzero(kind)
    for i, k in zip(idx.tolist(), kind[idx].tolist()):
        specs[i] = _SPECS[k] + seps[i % 2]
    text = "".join(specs) % tuple(v.ravel().tolist())
    return "[\n    [" + text[: -len(seps[1])] + "]\n  ]"


def format_json(obj: dict) -> str:
    """JSON text for a top-level object in the layout of this module's
    docstring, ending in a newline.  An (n, 2) array value, a schema
    builder's table, is rounded once to 12 digits and written with one
    format call; every other value, the public lists included, by
    ``json.dumps``."""
    lines = []
    for key, value in obj.items():
        if isinstance(value, np.ndarray) and value.shape[1:] == (2,):
            value = _round12(value)
            text = _rows_text(value) or json.dumps(value.tolist())
        else:
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
    rows = np.where(np.asarray(scan.membership, dtype=bool), "%.12g,true\r\n", "%.12g,false\r\n")
    lengths = tuple(np.asarray(scan.lengths, dtype=np.float64).tolist())
    # csv's default dialect: "\r\n" line ends, and no field here needs quotes
    with path.open("w", newline="") as fh:
        fh.write("s,in_chord_set\r\n" + "".join(rows.tolist()) % lengths)
    bpath = path.with_name(path.stem + "_boundaries" + path.suffix)
    brackets = tuple(chain.from_iterable(scan.refined_boundaries))
    with bpath.open("w", newline="") as fh:
        fh.write("s_lo,s_hi\r\n" + "%.12g,%.12g\r\n" * len(scan.refined_boundaries) % brackets)
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
    data = [(_number_column(xs, "xs"), _number_column(ys, "ys")) for xs, ys in curves]
    if not data:
        raise ValueError("need at least one curve to plot")
    x_lo = min(float(xs.min()) for xs, _ in data)
    x_hi = max(float(xs.max()) for xs, _ in data)
    y_lo = min(float(ys.min()) for _, ys in data)
    y_hi = max(float(ys.max()) for _, ys in data)
    # a unit range for a constant, widened where 1.0 is below half an ulp
    if x_hi - x_lo <= 0:
        x_hi = x_lo + max(1.0, abs(x_lo) * 2.0**-52)
    if y_hi - y_lo <= 0:
        y_hi = y_lo + max(1.0, abs(y_lo) * 2.0**-52)
    # a range past the largest float is halved before subtracting, which is
    # exact for normal values and leaves every ratio below as it was
    kx = 1.0 if math.isfinite(x_hi - x_lo) else 0.5
    ky = 1.0 if math.isfinite(y_hi - y_lo) else 0.5

    # on floats and, elementwise with the same roundings, on arrays
    def px(x):
        return pad + (x * kx - x_lo * kx) / (x_hi * kx - x_lo * kx) * (width - 2 * pad)

    def py(y):
        return height - pad - (y * ky - y_lo * ky) / (y_hi * ky - y_lo * ky) * (height - 2 * pad)

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
        pts = " ".join(["%.3f,%.3f"] * xs.size) % tuple(
            np.column_stack((px(xs), py(ys))).ravel().tolist()
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{stroke}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
