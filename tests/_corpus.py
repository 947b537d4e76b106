"""Shared fixtures: the golden sawtooth chord set, random generators
for admissible sets, zero-ended piecewise linear functions and race
profiles, a Hypothesis strategy for structurally valid layouts, and a
brute-force reference for locating points against a set's boundary.

The random chord sets are built the honest way: start from random open
gaps, close them under addition (so the complement is additive by
construction), and certify the result with the library's own checker
before handing it to a test.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from chordlab import ClosedIntervalSet, PiecewiseLinearFunction, RaceProfile, is_additive, tolerance

SAWTOOTH_PAIRS = [[0, 0.9], [1.1, 1.8], [2.2, 2.7], [3.3, 3.6], [4.4, 4.4]]


def _merge_strict(intervals):
    """Union of open intervals, merging only strict overlaps: (a, b) and
    (b, c) stay separate so the shared endpoint b remains outside."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo < out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [tuple(iv) for iv in out]


def _additive_closure(base, cap):
    """Smallest superset of the base gaps closed under addition, clipped
    to (0, cap].  Sums are truncated at cap: callers pick cap so that
    everything past it is provably in the closure anyway, and the
    complement is only read below cap.  Integer endpoints on a bounded
    range, so the fixed point is exact and terminates."""
    current = _merge_strict((lo, min(hi, cap)) for lo, hi in base if lo < cap)
    while True:
        sums = []
        for i, (p1, q1) in enumerate(current):
            for p2, q2 in current[i:]:
                if p1 + p2 < cap:
                    sums.append((p1 + p2, min(q1 + q2, cap)))
        merged = _merge_strict(current + sums)
        if merged == current:
            return current
        current = merged


def _closure_complement(gaps, cap):
    """Closed complement of the gap union within [0, cap], as pairs.
    A gap starting exactly where the previous one ended leaves behind an
    isolated point."""
    pairs = []
    cursor = 0
    for lo, hi in gaps:
        if lo >= cap:
            break
        pairs.append([cursor, lo])
        cursor = hi
        if cursor >= cap:
            return pairs
    pairs.append([cursor, cap])
    return pairs


def random_chord_set(rng: np.random.Generator) -> ClosedIntervalSet:
    """Random admissible chord set, complement certified additive.

    Gap endpoints are drawn as integers and the closure is computed in
    integer arithmetic (no rounding, guaranteed termination), then the
    whole set is scaled by a random float."""
    for _ in range(100):
        p = int(rng.integers(25, 150))
        w = int(rng.integers(max(1, p // 12), max(2, (3 * p) // 4)))
        base = [(p, p + w)]
        if rng.random() < 0.5:
            lo2 = int((p + w) * rng.uniform(1.02, 2.2))
            w2 = int(rng.integers(max(1, p // 20), max(2, (3 * p) // 5)))
            base.append((lo2, lo2 + w2))
        cap = min(bg[0] * (bg[0] // (bg[1] - bg[0]) + 1) for bg in base)
        gaps = _additive_closure(base, cap)
        int_pairs = _closure_complement(gaps, cap)
        if not (2 <= len(int_pairs) <= 40):
            continue
        scale = rng.uniform(0.005, 0.03)
        pairs = [[lo * scale, hi * scale] for lo, hi in int_pairs]
        if rng.random() < 0.5 and len(pairs) >= 3:
            j = int(rng.integers(1, len(pairs)))
            lo, hi = pairs[j]
            x0 = rng.uniform(lo, hi)
            pairs = pairs[:j] + [[lo, x0]]
        try:
            s = ClosedIntervalSet.from_pairs(pairs)
        except ValueError:
            continue
        if is_additive(s).additive:
            return s
    raise RuntimeError("failed to draw an admissible chord set")


def _sorted_interior(rng: np.random.Generator, m: int, total: float, min_gap_frac: float = 0.01):
    """m strictly increasing interior points of (0, total) with a minimum
    spacing, as a list (empty for m == 0)."""
    if m == 0:
        return []
    for _ in range(200):
        pts = np.sort(rng.uniform(0.03 * total, 0.97 * total, size=m))
        edges = np.concatenate([[0.0], pts, [total]])
        if np.min(np.diff(edges)) > min_gap_frac * total:
            return [float(v) for v in pts]
    raise RuntimeError("failed to place interior points")


def random_zero_ended_pl(rng: np.random.Generator) -> PiecewiseLinearFunction:
    """Random piecewise linear function vanishing at both endpoints."""
    width = rng.uniform(2.0, 8.0)
    m = int(rng.integers(0, 11))
    xs = [0.0] + _sorted_interior(rng, m, width, 0.005) + [width]
    amp = rng.uniform(0.5, 3.0)
    ys = [0.0]
    for _ in range(m):
        ys.append(float(rng.uniform(0.08, 1.0) * rng.choice([-1.0, 1.0]) * amp))
    ys.append(0.0)
    return PiecewiseLinearFunction(np.array(xs), np.array(ys))


def random_integer_ratio_profile(rng: np.random.Generator):
    """Random profile whose total distance is a whole multiple of d.
    Returns (profile, d, n)."""
    n = int(rng.integers(1, 9))
    d = float(rng.choice([0.5, 1.0, 1.5, 2.0, 2.5]))
    L = n * d
    T = rng.uniform(600.0, 4200.0)
    m = int(rng.integers(0, 7))
    ts = _sorted_interior(rng, m, T)
    ds = _sorted_interior(rng, m, L)
    splits = [(dist, t) for dist, t in zip(ds, ts)] + [(L, T)]
    return RaceProfile.from_splits(L, T, splits), d, n


def random_bounded_profile(rng: np.random.Generator) -> RaceProfile:
    """Random profile whose speed stays well inside (0, 2x) the average,
    so the chord-problem round trip never triggers an amplitude rescale."""
    L = rng.uniform(2.0, 12.0)
    T = rng.uniform(500.0, 4000.0)
    m = int(rng.integers(1, 7))
    durations = rng.uniform(0.5, 2.0, size=m)
    durations *= T / durations.sum()
    gains = rng.uniform(0.72, 1.28, size=m) * durations
    gains *= L / gains.sum()
    ts = np.concatenate([[0.0], np.cumsum(durations)])
    ds = np.concatenate([[0.0], np.cumsum(gains)])
    ts[-1] = T
    ds[-1] = L
    return RaceProfile(L, T, PiecewiseLinearFunction(ts, ds))


@st.composite
def interval_layouts(draw):
    """Alternating interval/gap lengths; always a structurally valid set."""
    n = draw(st.integers(min_value=1, max_value=6))
    lengths = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
            min_size=2 * n - 1,
            max_size=2 * n - 1,
        )
    )
    pairs = []
    cursor = 0.0
    for i in range(n):
        hi = cursor + lengths[2 * i]
        pairs.append([cursor, hi])
        if i < n - 1:
            cursor = hi + lengths[2 * i + 1]
    return pairs


def reference_locator(pairs):
    """Brute-force counterpart of ``ClosedIntervalSet.locate`` built from
    [lo, hi] pairs alone: a scan over every endpoint.  Returns a function
    of x giving (sign, a, b), or None outside the domain [0, sup]."""
    sup = pairs[-1][1]
    slack = tolerance(sup)
    ends = sorted({e for pair in pairs for e in pair})

    def locate(x):
        if not -slack <= x <= sup + slack:
            return None
        x = min(max(x, 0.0), sup)
        near = min(ends, key=lambda e: (abs(x - e), e))
        if abs(x - near) <= slack:
            return 0, near, near
        a = max(e for e in ends if e < x)
        b = min(e for e in ends if e > x)
        return (1 if any(lo < x < hi for lo, hi in pairs) else -1), a, b

    return locate
