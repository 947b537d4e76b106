"""Seeded inputs, operations and answer checks for the four workloads.

Each op calls chordlab's public functions through the package object
``cl``, each call inside a span named ``<module>.<function>``, so the
traced run can attribute time to layers. The library only ever sees the
inputs generated here from the seed. Sizes are fixed ladders and only
values are random, so runs with different seeds cost about the same.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import chordlab as cl
import chordlab.cli as cl_cli
import reference as ref
from harness import Op, Workload, cpu_clock

SAWTOOTH = [[0.0, 0.9], [1.1, 1.8], [2.2, 2.7], [3.3, 3.6], [4.4, 4.4]]
SCAN_STEPS = 500  # scan resolution width / 500, the `chordlab chords` default
SMOOTH_SAMPLES = 4097
SMOOTH_DEFECT = (
    "smooth construction then chords: exp(-1/(alpha beta)) values fall under the "
    "absolute 1e-9 zero test, so the sawtooth's boundaries come back near 2.818, "
    "3.153, ... instead of 0.9, 1.1, ..."
)


def _close(a, b, rtol=0.0, atol=0.0) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=rtol, atol=atol))


def _same_pl(a, b) -> bool:
    """Equal polylines up to the 12 significant digits io writes."""
    return _close(a.xs, b.xs, rtol=1e-11) and _close(a.ys, b.ys, rtol=1e-11)


# ---------------------------------------------------------------- inputs


def admissible_pairs(rng: np.random.Generator, k: int) -> list[list[float]]:
    """k intervals with gaps (j c (1-e), j c (1+e)) for j < k, the last
    interval cut at a random point. A sum of two gaps is again a gap or
    lies past the cut, so the complement is additive. Every interval and
    gap is at least three scan steps wide, so a scan resolves them all."""
    c = rng.uniform(0.5, 2.0)
    e = rng.uniform(0.4, 0.7) / (2 * k - 1)
    pairs = [[0.0, c * (1 - e)]]
    for j in range(1, k):
        pairs.append([j * c * (1 + e), (j + 1) * c * (1 - e)])
    lo, hi = pairs[-1]
    pairs[-1][1] = lo + (hi - lo) * rng.uniform(0.25, 1.0)
    return pairs


def inadditive_pairs(rng: np.random.Generator, k: int) -> list[list[float]]:
    """Admissible shape with the second gap narrowed to half its width:
    twice the first gap then reaches into an interval."""
    pairs = admissible_pairs(rng, k)
    c = (pairs[1][0] + pairs[0][1]) / 2
    e = (pairs[1][0] - pairs[0][1]) / (2 * c)
    pairs[1][1] = 2 * c * (1 - e / 2)
    pairs[2][0] = 2 * c * (1 + e / 2)
    return pairs


def random_pl(rng: np.random.Generator, n: int) -> "cl.PiecewiseLinearFunction":
    """Random-walk bridge with n breakpoints, zero at both ends."""
    w = rng.uniform(2.0, 8.0)
    xs = np.concatenate([[0.0], np.sort(rng.uniform(0.0, w, n - 2)), [w]])
    walk = np.cumsum(rng.normal(size=n))
    ys = walk - walk[0] - xs / w * (walk[-1] - walk[0])
    ys *= rng.uniform(0.5, 3.0) / np.abs(ys).max()
    ys[0] = ys[-1] = 0.0
    return cl.PiecewiseLinearFunction(xs, ys)


def random_profile(rng: np.random.Generator, n: int) -> "cl.RaceProfile":
    """n splits, each run at 0.7 to 1.3 times the average speed."""
    L = rng.uniform(5.0, 45.0)
    T = L * rng.uniform(180.0, 420.0)
    dur = rng.uniform(0.5, 1.5, n)
    dur *= T / dur.sum()
    gain = dur * rng.uniform(0.7, 1.3, n)
    gain *= L / gain.sum()
    ts = np.concatenate([[0.0], np.cumsum(dur)])
    ds = np.concatenate([[0.0], np.cumsum(gain)])
    ts[-1], ds[-1] = T, L
    return cl.RaceProfile(L, T, cl.PiecewiseLinearFunction(ts, ds))


def _rng(seed: int, stream: int) -> np.random.Generator:
    # One stream per workload; any integer seed, negative ones included.
    return np.random.default_rng([seed % 2**64, stream])


def non_integer_ratio(rng: np.random.Generator, whole: int) -> float:
    # The whole part is fixed by the caller, not drawn: the cost of the
    # Levy and adversarial constructions grows with it, and a drawn whole
    # part would make runs with different seeds cost different amounts.
    return whole + rng.uniform(0.2, 0.8)


# -------------------------------------------------------------- chordset


def _scan_op(kind, f, pairs, figures, probes=None, known=None, sampled=False) -> Op:
    """Scan, verify additivity and take the Levit bound of f.

    With ``pairs`` the chord set is known: every grid length off its
    boundary must be classified right, and the refined boundaries must
    match the prescribed ones. Otherwise the scan is compared with the
    reference chord test at the ``probes`` grid indices."""
    res = f.width / SCAN_STEPS
    spacing = float(np.max(np.diff(f.xs)))
    if known or sampled:  # a sampled function only approximates its boundary
        margin, tol = 2 * spacing, 2 * (spacing + res)
    else:
        margin, tol = 1e-9 * f.width, res / 100

    def run(tr):
        with tr.span("oracle.chord_set_scan") as sp:
            scan = cl.chord_set_scan(f, res)
        sp.add("lengths", scan.lengths.size)
        with tr.span("oracle.verify_complement_additivity") as sp:
            add = cl.verify_complement_additivity(f, res)
        absent = int(np.count_nonzero(~scan.membership))
        sp.add("pairs", absent * absent)
        with tr.span("oracle.levit_bound"):
            bound = cl.levit_bound(f)
        return scan, add, bound

    def check(out):
        scan, add, bound = out
        s, member = scan.lengths, scan.membership
        if not add.holds:
            return f"scanned complement not additive: {add.violations[0]}"
        if not (member[0] and member[-1]):
            return "0 or the full width is missing from the chord set"
        short = s <= bound * (1 - 1e-12)
        if not member[short].all():
            return f"a length below the Levit bound {bound:.6g} is missing"
        if pairs is None:
            for i in probes:
                want = ref.chord_exists(f.xs, f.ys, float(s[i]), 1e-9)
                if bool(member[i]) != want:
                    return f"length {s[i]:.6g} classified {bool(member[i])}, reference {want}"
            return None
        flips = ref.set_flips(pairs)
        found = [0.5 * (lo + hi) for lo, hi in scan.refined_boundaries]
        err = ref.hausdorff(found, flips)
        figures["boundary_err"] = max(figures.get("boundary_err", 0.0), err)
        wrong = (member != ref.in_set(pairs, s)) & (ref.distance_to(flips, s) > margin)
        if err > tol or wrong.any():
            return (
                f"boundary error {err:.4g} (allowed {tol:.3g}); "
                f"{int(wrong.sum())} grid lengths misclassified"
            )
        return None

    return Op(kind, run, check, known)


def chordset(seed: int, work: Path, tiny: bool) -> Workload:
    rng = _rng(seed, 1)
    figures: dict[str, float] = {}
    ops = []
    for k in (2, 3) if tiny else (2, 3, 4, 5, 6, 8):
        pairs = admissible_pairs(rng, k)
        ops.append(_scan_op("scan.hopf", cl.build_hopf(pairs), pairs, figures))
    for n in (10, 30) if tiny else (10, 32, 100, 316, 1000):
        f = random_pl(rng, n)
        probes = rng.integers(0, SCAN_STEPS + 1, size=8)
        ops.append(_scan_op("scan.random", f, None, figures, probes=probes))
    # The sawtooth sampled at 4097 points twice: its smooth realization,
    # with values down to 1e-44, hits the known defect; its Hopf tent, with
    # values of order 1, is the same size and must pass.
    saw = cl.smooth_chord_function(cl.ClosedIntervalSet.from_pairs(SAWTOOTH))
    ops.append(
        _scan_op("scan.smooth", saw.to_piecewise(SMOOTH_SAMPLES), SAWTOOTH, figures, known=SMOOTH_DEFECT)
    )
    tent = cl.build_hopf(SAWTOOTH)
    xs = np.linspace(0.0, tent.x_max, SMOOTH_SAMPLES)
    ops.append(_scan_op("scan.sampled", cl.PiecewiseLinearFunction(xs, tent(xs)), SAWTOOTH, figures, sampled=True))
    return Workload(ops, figures=figures)


# ------------------------------------------------------------------ race


def _race_ops(p, rng, k: int) -> list[Op]:
    L, T = p.total_distance, p.total_time
    ts, ds = p.position.xs, p.position.ys
    inv = p.inverse
    d_whole = L / k
    d = L / non_integer_ratio(rng, k)
    starts = np.sort(rng.uniform(0.0, L - d, 256))
    margin = 1e-9 * T

    def find(tr):
        with tr.span("race.find_average_split"):
            return cl.find_average_split(p, d_whole)

    def check_find(t):
        window = T / round(L / d_whole)
        if not 0.0 <= t <= T - window:
            return f"start {t:g} outside [0, {T - window:g}]"
        r = float(np.interp(t + window, ts, ds) - np.interp(t, ts, ds)) - d_whole
        return None if abs(r) <= 2e-9 * d_whole else f"residual {r:.3g}"

    def exists(tr):
        with tr.span("race.exists_average_split"):
            return cl.exists_average_split(p, d)

    def check_exists(res):
        want = ref.window_exists(ts, ds, d, margin)
        if want is not None and res.exists != want:
            return f"exists = {res.exists}, reference {want}"
        if res.exists:
            t = res.witness_x
            r = float(np.interp(t + res.s, ts, ds) - np.interp(t, ts, ds)) - d
            if abs(r) > 1e-6 * d:
                return f"witness residual {r:.3g}"
        return None

    def extrema(tr):
        with tr.span("race.window_time_extrema"):
            return cl.window_time_extrema(p, d)

    def check_extrema(ex):
        lo, hi = ref.window_times(ts, ds, d)
        if abs(ex.min_time - lo) > margin or abs(ex.max_time - hi) > margin:
            return f"extrema ({ex.min_time:.9g}, {ex.max_time:.9g}), reference ({lo:.9g}, {hi:.9g})"
        return None

    def curve(tr):
        with tr.span("piecewise.shift_difference") as sp:
            g = inv.shift_difference(d)
        sp.add("breakpoints", inv.xs.size)
        with tr.span("piecewise.eval"):
            return g(starts)

    def check_curve(vals):
        want = ref.elapsed(ts, ds, d, starts)
        return None if _close(vals, want, atol=margin) else "window times differ from reference"

    def chord(tr):
        with tr.span("race.to_chord_problem"):
            g = cl.to_chord_problem(p, d)
        with tr.span("oracle.has_horizontal_chord"):
            return cl.has_horizontal_chord(g, 1.0)

    def check_chord(res):
        want = ref.window_exists(ts, ds, d, margin)
        if want is not None and res.exists != want:
            return f"unit chord exists = {res.exists}, reference {want}"
        return None

    return [
        Op("race.find", find, check_find),
        Op("race.exists", exists, check_exists),
        Op("race.extrema", extrema, check_extrema),
        Op("race.curve", curve, check_curve),
        Op("race.chord", chord, check_chord),
    ]


def _adversarial_op(rng, kind, whole: int) -> Op:
    L = rng.uniform(10.0, 45.0)
    T = L * rng.uniform(180.0, 420.0)
    d = L / non_integer_ratio(rng, whole)

    def run(tr):
        with tr.span("race.build_adversarial_profile"):
            return cl.build_adversarial_profile(L, T, d, kind)

    def check(p):
        if abs(p.total_distance - L) > 1e-9 * L or abs(p.total_time - T) > 1e-9 * T:
            return "profile totals changed"
        if ref.window_exists(p.position.xs, p.position.ys, d, 1e-9 * T) is not False:
            return "profile is not clearly free of average-pace windows"
        return None

    return Op("race.adversarial", run, check)


def _ingest_ops(p) -> list[Op]:
    L, T = p.total_distance, p.total_time
    obj = json.loads(json.dumps(cl.profile_to_obj(p)))
    splits = p.splits()

    def parse(tr):
        with tr.span("io.parse"):
            return cl.parse_profile(obj)

    def from_splits(tr):
        with tr.span("race.from_splits") as sp:
            out = cl.RaceProfile.from_splits(L, T, splits)
        sp.add("splits", len(splits))
        return out

    def check(q):
        return None if _same_pl(q.position, p.position) else "ingested profile differs from the source"

    return [Op("race.parse", parse, check), Op("race.from_splits", from_splits, check)]


def race(seed: int, work: Path, tiny: bool) -> Workload:
    rng = _rng(seed, 2)
    ops = []
    # Profiles per size: the median op falls in the middle of the 10^4
    # cluster, not at its edge, so it does not jump between op kinds.
    ladder = {100: 1, 1000: 1} if tiny else {100: 1, 1000: 1, 10_000: 3, 100_000: 2}
    sizes = [n for n, count in ladder.items() for _ in range(count)]
    for i, n in enumerate(sizes):
        # Window ratios L/d of 2, 3, ... and just above, one per profile.
        ops += _race_ops(random_profile(rng, n), rng, 2 + i)
    ops.append(_adversarial_op(rng, "triangle_wave", 3))
    ops.append(_adversarial_op(rng, "sin_squared", 5))
    for n in (100,) if tiny else (100, 1000, 10_000):
        ops += _ingest_ops(random_profile(rng, n))
    return Workload(ops)


# ------------------------------------------------------------- construct


def _validate_op(pairs, expect_ok: bool) -> Op:
    def run(tr):
        with tr.span("intervals.validate_chord_spec"):
            return cl.validate_chord_spec(pairs)

    def check(report):
        return None if report.ok == expect_ok else f"ok = {report.ok}, expected {expect_ok}"

    return Op("construct.validate", run, check)


def _additive_op(pairs, expect: bool) -> Op:
    s = cl.ClosedIntervalSet.from_pairs(pairs)

    def run(tr):
        with tr.span("intervals.is_additive"):
            return cl.is_additive(s)

    def check(res):
        return None if res.additive == expect else f"additive = {res.additive}, expected {expect}"

    return Op("construct.additive", run, check)


def _hopf_op(pairs, xq) -> Op:
    def run(tr):
        with tr.span("builders.build_hopf"):
            f = cl.build_hopf(pairs)
        with tr.span("piecewise.eval"):
            return f, f(xq)

    def check(out):
        f, vals = out
        if f.x_min != 0.0 or abs(f.x_max - pairs[-1][1]) > 1e-12:
            return "domain differs from [0, sup]"
        ok = _close(vals, ref.signed_distance(pairs, xq), atol=1e-9)
        return None if ok else "values differ from the signed boundary distance"

    return Op("construct.hopf", run, check)


def _smooth_op(pairs, xq) -> Op:
    s = cl.ClosedIntervalSet.from_pairs(pairs)

    def run(tr):
        with tr.span("builders.eval_smooth") as sp:
            out = cl.eval_smooth(s, xq)
        sp.add("points", xq.size)
        return out

    def check(vals):
        want = ref.smooth_value(pairs, xq, 1e-9)
        same = _close(vals, want, rtol=1e-9) and np.array_equal(np.signbit(vals), np.signbit(want))
        return None if same else "values differ from exp(-1/(alpha beta))"

    return Op("construct.eval_smooth", run, check)


def _to_piecewise_op(pairs) -> Op:
    s = cl.ClosedIntervalSet.from_pairs(pairs)

    def run(tr):
        sf = cl.smooth_chord_function(s)
        with tr.span("builders.to_piecewise"):
            return sf.to_piecewise(SMOOTH_SAMPLES)

    def check(f):
        want = ref.smooth_value(pairs, f.xs, 1e-9)
        same = _close(f.ys, want, rtol=1e-9) and np.array_equal(np.signbit(f.ys), np.signbit(want))
        return None if same else "samples differ from exp(-1/(alpha beta))"

    return Op("construct.to_piecewise", run, check)


def _levy_ops(rng) -> list[Op]:
    h = rng.uniform(0.5, 2.0)
    w = h * non_integer_ratio(rng, 4)
    xq = rng.uniform(0.0, w - h, 64)
    frac = w / h - math.floor(w / h)
    step = -(h / w) * 2.0 * min(frac, 1.0 - frac)  # triangle wave of period h at w
    sin_end = math.sin(math.pi * w / h) ** 2

    def triangle(tr):
        with tr.span("builders.build_levy"):
            f = cl.build_levy(w, h)
        with tr.span("piecewise.eval"):
            return f(np.array([0.0, w])), f(xq + h) - f(xq)

    def check_triangle(out):
        ends, inc = out
        if not _close(ends, [0.0, 0.0], atol=1e-9):
            return "endpoint values are not 0"
        return None if _close(inc, np.full_like(inc, step), atol=1e-9) else "increments over h vary"

    def sin2(tr):
        with tr.span("builders.build_levy"):
            f = cl.build_levy(w, h, cl.SmoothShapeSpec("sin_squared", period=h))
        with tr.span("builders.to_piecewise"):
            return f.to_piecewise(1025)

    def check_sin2(f):
        want = np.sin(np.pi * f.xs / h) ** 2 - f.xs / w * sin_end
        return None if _close(f.ys, want, atol=1e-12) else "samples differ from phi(x) - x phi(w) / w"

    return [Op("construct.levy", triangle, check_triangle), Op("construct.levy", sin2, check_sin2)]


def _round_trip_op(kind, to_obj, parse, value, same) -> Op:
    def run(tr):
        with tr.span("io.serialize"):
            obj = to_obj(value)
        text = json.dumps(obj)
        with tr.span("io.parse"):
            return parse(json.loads(text))

    def check(back):
        return None if same(back) else "round trip changed the value"

    return Op(kind, run, check)


def _scan_file_op(pairs, path: Path) -> Op:
    sup = pairs[-1][1]
    lengths = np.linspace(0.0, sup, SCAN_STEPS + 1)
    member = ref.in_set(pairs, lengths)
    brackets = tuple((b - 1e-6, b + 1e-6) for b in ref.set_flips(pairs))
    scan = cl.ChordScan(lengths, member, brackets, sup / SCAN_STEPS)

    def run(tr):
        with tr.span("io.write_chord_scan"):
            main, bpath = cl.write_chord_scan(scan, path)
        with main.open() as fh:
            rows = list(csv.reader(fh))[1:]
        with bpath.open() as fh:
            brows = list(csv.reader(fh))[1:]
        return rows, brows

    def check(out):
        rows, brows = out
        s = [float(r[0]) for r in rows]
        m = [r[1] == "true" for r in rows]
        b = [[float(lo), float(hi)] for lo, hi in brows]
        ok = _close(s, lengths, rtol=1e-11) and m == member.tolist() and _close(b, brackets, rtol=1e-11)
        return None if ok else "written scan differs from the scan"

    return Op("construct.write_scan", run, check)


def construct(seed: int, work: Path, tiny: bool) -> Workload:
    rng = _rng(seed, 3)
    good = [admissible_pairs(rng, k) for k in ((2, 3) if tiny else (2, 3, 4, 5, 6, 7))]
    bad = [inadditive_pairs(rng, 3), inadditive_pairs(rng, 5)]
    disordered = admissible_pairs(rng, 4)
    disordered[1], disordered[2] = disordered[2], disordered[1]
    ops = [_validate_op(p, True) for p in good]
    ops += [_validate_op(p, False) for p in bad + [disordered]]
    ops += [_additive_op(p, True) for p in good[:4]] + [_additive_op(p, False) for p in bad]
    for p in good:
        ops.append(_hopf_op(p, rng.uniform(0.0, p[-1][1], 257)))
    for p in good[:3]:
        ops.append(_smooth_op(p, rng.uniform(0.0, p[-1][1], 1025)))
    ops += [_to_piecewise_op(p) for p in good[-2:]]
    ops += _levy_ops(rng)

    for p in good[:3]:
        s = cl.ClosedIntervalSet.from_pairs(p)
        ops.append(
            _round_trip_op(
                "construct.io_set", cl.interval_set_to_obj, cl.parse_interval_set, s,
                lambda back, p=p: _close(back.to_pairs(), p, rtol=1e-11),
            )
        )
        f = cl.build_hopf(p)
        ops.append(
            _round_trip_op(
                "construct.io_function", cl.function_to_obj, cl.parse_function, f,
                lambda back, f=f: _same_pl(back, f),
            )
        )
    sm = cl.smooth_chord_function(cl.ClosedIntervalSet.from_pairs(good[-1])).to_piecewise(SMOOTH_SAMPLES)
    ops.append(
        _round_trip_op(
            "construct.io_samples", lambda f: cl.smooth_samples_to_obj(f.xs, f.ys), cl.parse_function, sm,
            lambda back: _same_pl(back, sm),
        )
    )
    prof = random_profile(rng, 1000)
    ops.append(
        _round_trip_op(
            "construct.io_profile", cl.profile_to_obj, cl.parse_profile, prof,
            lambda back: _same_pl(back.position, prof.position),
        )
    )
    ops.append(_scan_file_op(good[0], work / "scan.csv"))
    return Workload(ops)


# ------------------------------------------------------------------- cli


def _read_boundaries(path: Path) -> list[float]:
    with path.open() as fh:
        rows = list(csv.reader(fh))[1:]
    return [0.5 * (float(lo) + float(hi)) for lo, hi in rows]


def _t_star(stdout: str) -> float:
    # "t* = 123.456789 s"
    return float(stdout.split("=", 1)[1].split()[0])


def _startup_ms(env: dict) -> float:
    """Median CPU time of three fresh interpreters importing chordlab, the
    start-up every command line call pays."""
    times = []
    for _ in range(3):
        t0 = cpu_clock()
        subprocess.run([sys.executable, "-c", "import chordlab"], env=env, check=True, timeout=120)
        times.append(cpu_clock() - t0)
    return statistics.median(times) * 1e3


def cli(seed: int, work: Path, tiny: bool) -> Workload:
    """Every subcommand through chordlab.cli.main on small inputs, one at a
    time, in this process. A subprocess per call would time mostly the
    interpreter and numpy starting up, whose CPU time swings by up to 2x
    for whole runs on a shared host; start-up is timed in set-up instead
    (``_startup_ms``), so it counts in this workload's setup_s."""
    rng = _rng(seed, 4)
    src = str(Path(cl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    figures: dict[str, float] = {"import_ms": _startup_ms(env)}

    def command(kind, argv, check, known=None) -> Op:
        def run(tr):
            out, err = io.StringIO(), io.StringIO()
            with tr.span(kind), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cl_cli.main(argv)
            return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())

        def checked(cp):
            if cp.returncode not in (0, 3):
                return f"exit {cp.returncode}: {cp.stderr.strip()[-200:]}"
            return check(cp)

        return Op(kind, run, checked, known)

    def exit_is(code, extra=lambda cp: None):
        return lambda cp: extra(cp) if cp.returncode == code else f"exit {cp.returncode}, expected {code}"

    good = admissible_pairs(rng, 4)
    bad = inadditive_pairs(rng, 4)
    sup = good[-1][1]
    saw = cl.ClosedIntervalSet.from_pairs(SAWTOOTH)
    sxs, svals = cl.smooth_chord_function(saw).sample(1001)  # `construct --shape smooth` default
    svals_ref = ref.smooth_value(SAWTOOTH, sxs, 1e-9)
    fn = cl.build_hopf(good)
    whole = random_profile(rng, 50)
    d_whole = whole.total_distance / 3
    frac = random_profile(rng, 50)
    d_frac = frac.total_distance / non_integer_ratio(rng, 3)
    inputs = {
        "good.json": {"intervals": good},
        "bad.json": {"intervals": bad},
        "saw.json": {"intervals": SAWTOOTH},
        "smooth.json": cl.smooth_samples_to_obj(sxs, svals),
        "fn.json": cl.function_to_obj(fn),
        "whole.json": cl.profile_to_obj(whole),
        "frac.json": cl.profile_to_obj(frac),
    }
    for name, obj in inputs.items():
        (work / name).write_text(json.dumps(obj))

    def path(name: str) -> str:
        return str(work / name)

    def valid(cp):
        return None if "\nvalid chord set" in "\n" + cp.stdout else "verdict missing"

    def hopf_out(cp):
        pts = np.asarray(json.loads(cp.stdout)["breakpoints"], dtype=np.float64)
        ok = _close(pts[:, 1], ref.signed_distance(good, pts[:, 0]), atol=1e-9) and abs(pts[-1, 0] - sup) < 1e-9
        return None if ok else "breakpoints differ from the signed boundary distance"

    def smooth_out(cp):
        # Compare at the unrounded sample points: exp(-1/(alpha beta)) is
        # too steep to recompute from x rounded to 12 digits.
        pts = np.asarray(json.loads((work / "smooth_out.json").read_text())["samples"], dtype=np.float64)
        ok = _close(pts[:, 0], sxs, rtol=1e-11) and _close(pts[:, 1], svals_ref, rtol=1e-11)
        return None if ok else "samples differ from exp(-1/(alpha beta))"

    def boundaries(name, pairs, tol):
        def check(cp):
            err = ref.hausdorff(_read_boundaries(work / f"{name}_boundaries.csv"), ref.set_flips(pairs))
            figures["boundary_err"] = max(figures.get("boundary_err", 0.0), err)
            return None if err <= tol else f"boundary error {err:.4g} (allowed {tol:.3g})"
        return check

    saw_tol = 2 * (4.4 / 1000 + 4.4 / SCAN_STEPS)

    def windowless(T, d):
        def check(cp):
            p = cl.parse_profile(json.loads(cp.stdout))
            if ref.window_exists(p.position.xs, p.position.ys, d, 1e-9 * T) is not False:
                return "planned profile is not clearly free of average-pace windows"
            return None
        return check

    def residual(p, d, window):
        ts, ds = p.position.xs, p.position.ys
        vmax = float(np.max(np.diff(ds) / np.diff(ts)))

        def check(cp):
            t = _t_star(cp.stdout)
            r = float(np.interp(t + window, ts, ds) - np.interp(t, ts, ds)) - d
            return None if abs(r) <= 2e-6 * vmax + 1e-9 * d else f"window residual {r:.3g}"
        return check

    frac_want = ref.window_exists(frac.position.xs, frac.position.ys, d_frac, 1e-6 * frac.total_time)

    def exists_out(cp):
        if frac_want is not None and (cp.returncode == 0) != frac_want:
            return f"exit {cp.returncode}, reference says a window exists: {frac_want}"
        if cp.returncode == 0:
            return residual(frac, d_frac, frac.total_time * d_frac / frac.total_distance)(cp)
        return None if cp.stdout.strip() == "none" else "expected 'none'"

    def svg(cp):
        text = (work / "plot.svg").read_text()
        return None if text.startswith("<svg") and "<polyline" in text else "not an SVG polyline"

    L1, T1 = rng.uniform(10.0, 45.0), rng.uniform(1800.0, 9000.0)
    d1 = L1 / non_integer_ratio(rng, 3)
    L2, T2 = rng.uniform(10.0, 45.0), rng.uniform(1800.0, 9000.0)
    d2 = L2 / non_integer_ratio(rng, 5)
    ops = [
        command("cli.validate", ["validate", path("good.json")], exit_is(0, valid)),
        command("cli.validate", ["validate", path("bad.json")], exit_is(3)),
        command("cli.construct", ["construct", path("good.json")], exit_is(0, hopf_out)),
        command(
            "cli.construct",
            ["construct", path("saw.json"), "--shape", "smooth", "--output", path("smooth_out.json")],
            exit_is(0, smooth_out),
        ),
        command(
            "cli.chords", ["chords", path("fn.json"), "--output", path("fn.csv")],
            exit_is(0, boundaries("fn", good, sup / SCAN_STEPS / 100)),
        ),
        command(
            "cli.chords", ["chords", path("smooth.json"), "--output", path("smooth.csv")],
            exit_is(0, boundaries("smooth", SAWTOOTH, saw_tol)), known=SMOOTH_DEFECT,
        ),
        command(
            "cli.race-plan",
            ["race-plan", "--distance", repr(L1), "--time", repr(T1), "--window", repr(d1)],
            exit_is(0, windowless(T1, d1)),
        ),
        command(
            "cli.race-plan",
            ["race-plan", "--distance", repr(L2), "--time", repr(T2), "--window", repr(d2), "--shape", "sin2"],
            exit_is(0, windowless(T2, d2)),
        ),
        command(
            "cli.race-find-split",
            ["race-find-split", path("whole.json"), "--window", repr(d_whole)],
            exit_is(0, residual(whole, d_whole, whole.total_time / round(whole.total_distance / d_whole))),
        ),
        command("cli.race-exists-split", ["race-exists-split", path("frac.json"), "--window", repr(d_frac)], exists_out),
        command("cli.plot", ["plot", path("fn.json"), "--output", path("plot.svg")], exit_is(0, svg)),
    ]
    if tiny:
        ops = ops[:1] + ops[5:6]
    return Workload(ops, figures=figures)


BUILDERS = {"chordset": chordset, "race": race, "construct": construct, "cli": cli}
