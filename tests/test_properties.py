"""Properties tying the exact chord set to the other layers: point
queries, the Hopf construction (and its breakpoints to the tents it is
made of), the additivity of the complement, the
sign-change bound and JSON round trips; the validator's verdict to
additivity alone; every answer to the units of its input; and a
profile to the shape its splits come in.  And a failing property is
reported as one failure under the repository's pytest settings."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chordlab import (
    ClosedIntervalSet,
    PiecewiseLinearFunction,
    RaceProfile,
    build_hopf,
    chord_set,
    exists_average_split,
    function_to_obj,
    has_horizontal_chord,
    is_additive,
    levit_bound,
    parse_function,
    parse_profile,
    smooth_samples_to_obj,
    tolerance,
    validate_chord_spec,
)
from _corpus import (
    SAWTOOTH_PAIRS,
    interval_layouts,
    random_bounded_profile,
    random_chord_set,
    random_integer_ratio_profile,
    random_zero_ended_pl,
    reference_hopf,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
# powers of two rescale binary floats exactly, so no answer may change
powers = st.integers(min_value=-40, max_value=30)


def tied_pl(rng: np.random.Generator) -> PiecewiseLinearFunction:
    """Zero-ended function on an eighths grid with values from a few
    levels, so flat pieces and exactly tied values are common."""
    interior = np.unique(rng.integers(1, 80, int(rng.integers(1, 15)))) / 8.0
    xs = np.concatenate([[0.0], interior, [10.0 + int(rng.integers(0, 8)) / 8.0]])
    ys = rng.integers(-3, 4, xs.size) * float(rng.choice([1.0, 0.1, 1.0 / 3.0]))
    ys[0] = ys[-1] = 0.0
    return PiecewiseLinearFunction(xs, ys)


def functions(seed: int):
    rng = np.random.default_rng(seed)
    return random_zero_ended_pl(rng), tied_pl(rng), build_hopf(random_chord_set(rng))


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_agrees_with_point_queries(seed):
    rng = np.random.default_rng(seed)
    for f in functions(seed):
        s = chord_set(f)
        w = f.width
        boundary = np.array(s.boundary)
        for length in np.concatenate([np.linspace(0.0, w, 41), rng.uniform(0.0, w, 20)]):
            if np.min(np.abs(boundary - length)) <= 1e-9 * w:
                continue
            assert s.contains(length) == has_horizontal_chord(f, length).exists, length


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_hopf_breakpoints_are_the_tents(seed):
    # bitwise: the same floats in the same order as the sorted tents
    for s in (
        random_chord_set(np.random.default_rng(seed)),
        ClosedIntervalSet.from_pairs([[0, 0]]),
        ClosedIntervalSet.from_pairs(SAWTOOTH_PAIRS),
    ):
        f, want = build_hopf(s), reference_hopf(s)
        assert f.xs.tobytes() == want.xs.tobytes()
        assert f.ys.tobytes() == want.ys.tobytes()


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_hopf_construction_recovered(seed):
    spec = random_chord_set(np.random.default_rng(seed))
    got = np.array(chord_set(build_hopf(spec)).to_pairs())
    want = np.array(spec.to_pairs())
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_complement_additive(seed):
    for f in functions(seed):
        assert is_additive(chord_set(f)).additive


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_levit_bound_never_exceeds_the_exact_value(seed):
    # the sign-change bound is a theorem about the chord set; equality
    # occurs, so the comparison keeps the tolerance
    rng = np.random.default_rng(seed)
    for f in (random_zero_ended_pl(rng), build_hopf(random_chord_set(rng))):
        assert levit_bound(f) <= chord_set(f).gap_infimum + tolerance(f.width)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_survives_json_round_trip(seed):
    # io rounds to 12 significant digits, which moves boundaries by about
    # as much; tied_pl is left out because that rounding breaks its ties
    rng = np.random.default_rng(seed)
    for f in (random_zero_ended_pl(rng), build_hopf(random_chord_set(rng))):
        want = np.array(chord_set(f).to_pairs())
        for obj in (function_to_obj(f), smooth_samples_to_obj(f.xs, f.ys)):
            back = parse_function(json.loads(json.dumps(obj)))
            got = np.array(chord_set(back).to_pairs())
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-9 * f.width


def _verdicts_agree(pairs):
    s = ClosedIntervalSet.from_pairs(pairs)
    assert validate_chord_spec(pairs).ok == is_additive(s).additive


@settings(max_examples=100, deadline=None)
@given(interval_layouts())
def test_validator_verdict_is_additivity(pairs):
    # every other admissibility condition follows from additivity, so on
    # structurally valid sets the validator can say nothing more
    _verdicts_agree(pairs)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_validator_accepts_admissible_sets(seed):
    _verdicts_agree(random_chord_set(np.random.default_rng(seed)).to_pairs())


def _scaled(pairs, k):
    return [[lo * 2.0**k, hi * 2.0**k] for lo, hi in pairs]


@settings(max_examples=100, deadline=None)
@given(interval_layouts(), powers)
def test_validator_verdict_is_scale_invariant(pairs, k):
    assert validate_chord_spec(_scaled(pairs, k)).ok == validate_chord_spec(pairs).ok


@settings(max_examples=30, deadline=None)
@given(seeds, powers)
def test_admissible_sets_stay_admissible_at_any_scale(seed, k):
    pairs = random_chord_set(np.random.default_rng(seed)).to_pairs()
    assert validate_chord_spec(_scaled(pairs, k)).ok


@settings(max_examples=30, deadline=None)
@given(seeds, powers)
def test_hopf_chords_are_scale_invariant(seed, k):
    rng = np.random.default_rng(seed)
    spec = random_chord_set(rng)
    f, g = build_hopf(spec), build_hopf(_scaled(spec.to_pairs(), k))
    boundary = np.array(spec.boundary)
    for length in rng.uniform(0.0, spec.sup, 40):
        if np.min(np.abs(boundary - length)) <= 1e-6 * spec.sup:
            continue
        a, b = has_horizontal_chord(f, length), has_horizontal_chord(g, length * 2.0**k)
        assert a.exists == b.exists, length
        if a.exists:
            assert b.witness_x == a.witness_x * 2.0**k


def _rescaled(p: RaceProfile, a: int, b: int) -> RaceProfile:
    pos = PiecewiseLinearFunction(p.position.xs * 2.0**b, p.position.ys * 2.0**a)
    return RaceProfile(p.total_distance * 2.0**a, p.total_time * 2.0**b, pos)


@settings(max_examples=50, deadline=None)
@given(seeds, powers, powers)
def test_average_split_is_unit_free(seed, a, b):
    # distance and time each in their own unit; the witness moves with time
    rng = np.random.default_rng(seed)
    whole, d, _ = random_integer_ratio_profile(rng)
    other = random_bounded_profile(rng)
    for p, dist in ((whole, d), (other, other.total_distance / rng.uniform(1.2, 4.5))):
        want = exists_average_split(p, dist)
        got = exists_average_split(_rescaled(p, a, b), dist * 2.0**a)
        assert got.exists == want.exists
        assert got.s == want.s * 2.0**b
        if want.exists:
            assert got.witness_x == want.witness_x * 2.0**b


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_splits_read_alike_in_every_shape(seed):
    rng = np.random.default_rng(seed)
    p = random_integer_ratio_profile(rng)[0] if seed % 2 else random_bounded_profile(rng)
    L, T, splits = p.total_distance, p.total_time, p.splits()
    rows = [list(r) for r in splits]
    shapes = [
        splits,
        np.array(splits),
        (r for r in splits),
        [[0, 0]] + rows,
        [(0.0, 0.0)] + splits,
        np.array([(0.0, 0.0)] + splits),
    ]
    want = RaceProfile.from_splits(L, T, rows).position
    got = [RaceProfile.from_splits(L, T, shape).position for shape in shapes]
    got.append(parse_profile({"total_distance": L, "total_time": T, "splits": rows}).position)
    for pos in got:
        assert pos.xs.tobytes() == want.xs.tobytes()
        assert pos.ys.tobytes() == want.ys.tobytes()


def test_a_failing_property_is_one_failure(tmp_path):
    # Hypothesis's failure report imports libcst, whose DeprecationWarning
    # the settings' "error" filter would turn into an INTERNALERROR that
    # stops the run
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), str(tmp_path / "test_fails.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed in ")
