"""Properties tying the exact chord set to the other layers: point
queries, the Hopf construction, the additivity of the complement and
JSON round trips; and the validator's verdict to additivity alone."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chordlab import (
    ClosedIntervalSet,
    PiecewiseLinearFunction,
    build_hopf,
    chord_set,
    function_to_obj,
    has_horizontal_chord,
    is_additive,
    parse_function,
    smooth_samples_to_obj,
    validate_chord_spec,
)
from _corpus import interval_layouts, random_chord_set, random_zero_ended_pl

seeds = st.integers(min_value=0, max_value=2**32 - 1)


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
            assert s.contains(length, 0.0) == has_horizontal_chord(f, length).exists, length


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
