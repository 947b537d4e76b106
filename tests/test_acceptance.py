"""Acceptance gate: eight end-to-end criteria, each printing a PASS/FAIL
line (visible with pytest -s) and enforcing a runtime budget."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from chordlab import (
    ClosedIntervalSet,
    RaceProfile,
    SmoothShapeSpec,
    build_hopf,
    build_levy,
    chord_set_scan,
    eval_smooth,
    exists_average_split,
    find_average_split,
    has_horizontal_chord,
    levit_bound,
    validate_chord_spec,
    verify_complement_additivity,
)
from _corpus import (
    SAWTOOTH_PAIRS,
    random_chord_set,
    random_integer_ratio_profile,
    random_zero_ended_pl,
)


@contextmanager
def _criterion(num: int, title: str, budget: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance {num}] {title}: FAIL")
        raise
    dt = time.perf_counter() - t0
    if dt > budget:
        print(f"[acceptance {num}] {title}: FAIL (took {dt:.2f}s, budget {budget:.0f}s)")
        raise AssertionError(f"criterion {num} exceeded its {budget:.0f}s budget: {dt:.2f}s")
    print(f"[acceptance {num}] {title}: PASS ({dt:.2f}s < {budget:.0f}s)")


@pytest.fixture(scope="module")
def pl_corpus():
    rng = np.random.default_rng(1234)
    return [random_zero_ended_pl(rng) for _ in range(100)]


def test_acceptance_1_sawtooth_set_realized_exactly():
    with _criterion(1, "prescribed chord set realized exactly", 1.0):
        report = validate_chord_spec(SAWTOOTH_PAIRS)
        assert report.ok
        assert "additive: yes, l = 0.9" in report.summary()
        f = build_hopf(SAWTOOTH_PAIRS)
        assert not has_horizontal_chord(f, 1.0).exists
        present = [0.5, 1.5, 2.5, 3.5, 4.4, 1.1, 1.8, 2.2, 2.7, 3.3, 3.6]
        for s in present:
            res = has_horizontal_chord(f, s)
            assert res.exists, f"expected a chord of length {s}"
            w = res.witness_x
            assert abs(f(w + s) - f(w)) <= 1e-9, f"witness mismatch at {s}"
        for s in (1.0, 2.0, 3.0, 4.0):
            assert not has_horizontal_chord(f, s).exists, f"unexpected chord of length {s}"


def test_acceptance_2_half_marathon_dichotomy():
    with _criterion(2, "half-marathon window dichotomy", 1.0):
        from chordlab import window_time_extrema

        profile = RaceProfile.from_splits(
            21.1, 3950.0, [(9.1, 1620.0), (12.0, 2330.0), (21.1, 3950.0)]
        )
        ex = window_time_extrema(profile, 12.0)
        assert ex.min_time == pytest.approx(2330.0, abs=1e-9)
        assert ex.max_time == pytest.approx(2330.0, abs=1e-9)
        res = exists_average_split(profile, 12.0)
        assert not res.exists
        assert res.s == pytest.approx(47400.0 / 21.1, rel=1e-12)
        assert res.s == pytest.approx(2246.445, abs=1e-3)


def test_acceptance_3_whole_number_windows_always_found():
    with _criterion(3, "whole-number average windows always found", 5.0):
        miles = RaceProfile.from_splits(
            3.0, 1080.0, [(1.0, 330.0), (2.0, 720.0), (3.0, 1080.0)]
        )
        t = find_average_split(miles, 1.0)
        assert t == pytest.approx(165.0, abs=1e-4)
        rng = np.random.default_rng(99)
        for _ in range(100):
            profile, d, n = random_integer_ratio_profile(rng)
            t = find_average_split(profile, d)
            window = profile.total_time / n
            covered = profile.position(t + window) - profile.position(t)
            assert abs(covered - d) <= 1e-9 * d


def test_acceptance_4_chord_avoiding_constructions():
    with _criterion(4, "chord-avoiding constructions verified", 5.0):
        rng = np.random.default_rng(4321)
        for _ in range(50):
            ratio = float(rng.uniform(1.15, 7.85))
            while abs(ratio - round(ratio)) < 0.05:
                ratio = float(rng.uniform(1.15, 7.85))
            h = float(rng.uniform(0.3, 1.6))
            amp = float(rng.uniform(0.4, 2.5))
            shape = SmoothShapeSpec("triangle_wave", period=h, amplitude=amp)
            w = ratio * h
            f = build_levy(w, h, shape)
            const = -(h / w) * float(shape(w))
            xs = np.linspace(0.0, w - h, 200)
            incs = f(xs + h) - f(xs)
            assert float(np.max(np.abs(incs - const))) < 1e-12
            assert not has_horizontal_chord(f, h).exists
        for _ in range(5):
            ratio = float(rng.uniform(1.2, 6.8))
            while abs(ratio - round(ratio)) < 0.1:
                ratio = float(rng.uniform(1.2, 6.8))
            h = float(rng.uniform(0.5, 1.6))
            amp = float(rng.uniform(0.4, 1.5))
            shape = SmoothShapeSpec("sin_squared", period=h, amplitude=amp)
            w = ratio * h
            f = build_levy(w, h, shape)
            const = -(h / w) * float(shape(w))
            xs = np.linspace(0.0, w - h, 200)
            incs = f(xs + h) - f(xs)
            assert float(np.max(np.abs(incs - const))) < 1e-12
            assert not has_horizontal_chord(f.to_piecewise(4097), h).exists
        with pytest.raises(ValueError, match="universal chord"):
            build_levy(3.0, 1.0)


def test_acceptance_5_scanned_complements_additive(pl_corpus):
    with _criterion(5, "scanned chord-set complements additive", 30.0):
        for f in pl_corpus:
            check = verify_complement_additivity(f, f.width / 500.0)
            assert check.holds, check.violations[:3]


def test_acceptance_6_random_admissible_sets_realized():
    with _criterion(6, "random admissible sets realized", 10.0):
        rng = np.random.default_rng(2024)
        sets = [random_chord_set(rng) for _ in range(20)]
        for s in sets:
            f = build_hopf(s)
            for iv in s.intervals:
                targets = {iv.lo, iv.hi, 0.5 * (iv.lo + iv.hi)}
                for s_len in targets:
                    res = has_horizontal_chord(f, s_len)
                    assert res.exists
                    w = res.witness_x
                    assert abs(f(w + s_len) - f(w)) <= 1e-9
            for glo, ghi in s.gaps:
                for frac in (0.25, 0.5, 0.75):
                    assert not has_horizontal_chord(f, glo + frac * (ghi - glo)).exists
        # absent lengths force strictly decreasing increments everywhere
        per_set = 50
        for s in sets:
            f = build_hopf(s)
            gaps = s.gaps
            for _ in range(per_set):
                glo, ghi = gaps[int(rng.integers(len(gaps)))]
                s_star = glo + float(rng.uniform(0.05, 0.95)) * (ghi - glo)
                x = float(rng.uniform(0.0, s.sup - s_star))
                assert f(x + s_star) < f(x)


def test_acceptance_7_smooth_variant_behaves_analytically():
    with _criterion(7, "smooth variant sign and flatness", 5.0):
        s = ClosedIntervalSet.from_pairs(SAWTOOTH_PAIRS)
        f = build_hopf(s)
        assert eval_smooth(s, 0.45) == pytest.approx(0.007166975037612415, rel=1e-12)
        assert eval_smooth(s, 0.45) == pytest.approx(0.00717, abs=1e-4)
        grid = np.linspace(0.0, 4.4, 1000)
        hv = f(grid)
        sv = eval_smooth(s, grid)
        for h_val, s_val in zip(hv, sv):
            if abs(h_val) <= 1e-9:
                continue
            assert (h_val < 0) == (math.copysign(1.0, s_val) < 0)
        eps = 1e-4
        for b in (0.9, 1.1, 4.4):
            sides = [b - eps] + ([b + eps] if b + eps <= s.sup else [])
            for x in sides:
                assert abs(eval_smooth(s, x)) / eps < 1e-6


def test_acceptance_8_guaranteed_short_chords_present(pl_corpus):
    with _criterion(8, "sign-change bound guarantees chords", 30.0):
        for f in pl_corpus:
            bound = levit_bound(f)
            assert 0.0 < bound <= f.width + 1e-12
            for s in np.linspace(bound / 20.0, bound, 20):
                assert has_horizontal_chord(f, float(s)).exists, (bound, s)
