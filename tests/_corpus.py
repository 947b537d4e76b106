"""Shared fixtures: the golden sawtooth chord set, random generators
for admissible sets, zero-ended piecewise linear functions and race
profiles, a Hypothesis strategy for structurally valid layouts, and
brute-force references: for locating points against a set's boundary,
for the additivity test, for the Hopf construction, for the shift
difference's blocks and for the exact chord set, cell by cell, and its
grid scan; and a guard that keeps a test from allocating a huge array.

The random chord sets are built the honest way: start from random open
gaps, close them under addition (so the complement is additive by
construction), and certify the result with the library's own checker
before handing it to a test.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from chordlab import ClosedIntervalSet, PiecewiseLinearFunction, RaceProfile, is_additive, tolerance
from chordlab.intervals import AdditivityResult, _sum_counterexample

SAWTOOTH_PAIRS = [[0, 0.9], [1.1, 1.8], [2.2, 2.7], [3.3, 3.6], [4.4, 4.4]]


def refuse_huge(monkeypatch, name: str, size_arg: int) -> None:
    """Make numpy.<name> raise MemoryError, as numpy does when it cannot
    allocate, for requests above 10**9 elements, so that no test makes one."""
    real = getattr(np, name)

    def alloc(*args, **kwargs):
        n = args[size_arg] if len(args) > size_arg else kwargs.get("num", 50)
        if n > 10**9:
            raise MemoryError(f"Unable to allocate {8 * n / 2**50:.2f} PiB for an array")
        return real(*args, **kwargs)

    monkeypatch.setattr(np, name, alloc)


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
    """Random profile whose speed stays well inside (0, 2x) the average."""
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


def reference_shift_difference_blocks(f: PiecewiseLinearFunction, s: float, first: int):
    """Clip-and-deduplicate counterpart of
    ``PiecewiseLinearFunction._shift_difference_blocks`` for s in [0, width]:
    each block takes all of its candidates, f's breakpoints and their left
    translates by s, clips those outside [x_min, x_max - s] onto the ends
    and deduplicates them away.  Yields (vertices, values) per block."""
    xs = np.asarray(f.xs)
    lo, hi = f.x_min, f.x_max - s

    def first_translate(x, start):
        at = np.flatnonzero(xs[start:] - s >= x)
        return start + int(at[0]) if at.size else xs.size

    i0, j0, size = 0, 0, first
    while True:
        i1 = i0 + size
        last = i1 >= xs.size or xs[i1] > hi
        if last:
            cand = np.concatenate([xs[i0:], xs[j0:] - s, [hi]])
        else:
            j1 = first_translate(xs[i1], j0)
            cand = np.concatenate([xs[i0:i1], xs[j0:j1] - s])
        if i0 == 0 or last:
            cand = np.clip(cand, lo, hi)
        cand = np.sort(cand, kind="stable")
        cand = cand[np.concatenate(([True], cand[1:] != cand[:-1]))]
        yield cand, f(cand + s) - f(cand)
        if last:
            return
        i0, j0, size = i1, j1, 2 * size


def reference_is_additive(s: ClosedIntervalSet) -> AdditivityResult:
    """Counterpart of :func:`is_additive` that tests every gap for each
    pair's sum, in O(g^3) for g gaps."""
    gaps = s.gaps
    slack = s._slack
    for j, (p1, q1) in enumerate(gaps):
        for p2, q2 in gaps[j:]:
            lo = p1 + p2
            hi = q1 + q2
            if lo >= s.sup - slack:
                continue
            if not any(glo <= lo + slack and hi <= ghi + slack for glo, ghi in gaps):
                return AdditivityResult(False, _sum_counterexample(s, (p1, q1), (p2, q2), lo, hi))
    return AdditivityResult(True)


def reference_hopf(s: ClosedIntervalSet) -> PiecewiseLinearFunction:
    """The Hopf construction of s from its tents: the positive tents over
    the intervals and the negative ones over the gaps, collected and then
    sorted."""
    points = []
    for iv in s.intervals:
        points.append((iv.lo, 0.0))
        if not iv.degenerate:
            points.append((0.5 * (iv.lo + iv.hi), 0.5 * iv.length))
            points.append((iv.hi, 0.0))
    for glo, ghi in s.gaps:
        points.append((0.5 * (glo + ghi), -0.5 * (ghi - glo)))
    points.sort()
    arr = np.asarray(points)
    return PiecewiseLinearFunction(arr[:, 0], arr[:, 1])


def near_additive_family(m: int) -> list[list[float]]:
    """[0, 1], [1.0001 k, k + 1] for 1 <= k < m and {1.0001 m}: admissible,
    with m gaps (k, 1.0001 k), each sum of two of which below the top is
    another gap up to rounding."""
    return [[0.0, 1.0]] + [[1.0001 * k, k + 1.0] for k in range(1, m)] + [[1.0001 * m] * 2]


def _reference_union(lo, hi, eps):
    lo, hi = np.sort(lo), np.sort(hi)
    new = np.flatnonzero(lo[1:] > hi[:-1] + eps) + 1
    return lo[np.r_[0, new]], hi[np.r_[new - 1, lo.size - 1]]


# pairs of pieces per row block of the reference, fixed apart from the library's blocks
_REFERENCE_BLOCK_PAIRS = 2**16


def reference_cells(f: PiecewiseLinearFunction):
    """The reference's float expressions for cells of f: a function that
    maps index arrays ii <= jj of pieces whose value ranges overlap to
    the clamped starts and ends of their chord lengths, one per cell."""
    xs, ys = f.xs, f.ys
    vmin, vmax = np.minimum(ys[:-1], ys[1:]), np.maximum(ys[:-1], ys[1:])
    flat = ys[:-1] == ys[1:]
    dy = np.where(flat, 1.0, np.diff(ys))

    def ends(k, v):
        t = (v - ys[k]) / dy[k]
        x = (1.0 - t) * xs[k] + t * xs[k + 1]
        return x, np.where(flat[k], xs[k + 1], x)

    def cells(ii, jj):
        v = np.stack([np.maximum(vmin[ii], vmin[jj]), np.minimum(vmax[ii], vmax[jj])])
        (xl, xr), (yl, yr) = ends(ii, v), ends(jj, v)
        lo = np.clip(np.minimum(*(yl - xr)), 0.0, f.width)
        return lo, np.clip(np.maximum(*(yr - xl)), 0.0, f.width)

    return cells


def reference_chord_set(f: PiecewiseLinearFunction) -> ClosedIntervalSet:
    """Dense counterpart of :func:`chord_set`: it tests every pair of
    pieces i <= j in row blocks of up to 2^16 pairs, with ``np.ogrid`` and
    a flat ``divmod``, and works every overlapping pair with
    :func:`reference_cells`, the ones the library leaves out too.  The
    cells it shares with the library get the same float operations, only
    grouped into other blocks, and the eps-closed union does not depend
    on the grouping, so the sets must agree bitwise."""
    ys = f.ys
    n = ys.size - 1
    vmin, vmax = np.minimum(ys[:-1], ys[1:]), np.maximum(ys[:-1], ys[1:])
    eps = 4 * np.spacing(max(abs(f.x_min), abs(f.x_max)))
    work = reference_cells(f)
    parts = [(np.zeros(1), np.zeros(1))]
    rows = max(1, _REFERENCE_BLOCK_PAIRS // max(n, 1))
    for r0 in range(0, n, rows):
        i, j = np.ogrid[r0 : min(r0 + rows, n), r0:n]
        cells = (vmin[i] <= vmax[j]) & (vmin[j] <= vmax[i]) & (j >= i)
        ii, jj = np.add(np.divmod(np.flatnonzero(cells), n - r0), r0)
        parts.append(_reference_union(*work(ii, jj), eps))
    lo, hi = _reference_union(*map(np.concatenate, zip(*parts)), eps)
    return ClosedIntervalSet(tuple(zip(lo.tolist(), hi.tolist())))


def reference_chord_scan(f: PiecewiseLinearFunction, resolution: float):
    """Counterpart of :func:`chord_set_scan` read from
    :func:`reference_chord_set`, with the flips as the sorted union of the
    ends short of the width and the starts past 0.  Returns (lengths,
    membership, refined boundaries)."""
    steps, w = f.width / resolution, f.width
    grid = np.arange(int(np.floor(steps + tolerance(steps))) + 1) * float(resolution)
    grid = np.append(grid[grid < w - tolerance(w)], w)
    los, his = np.array(reference_chord_set(f).to_pairs()).T
    member = grid <= his[np.searchsorted(los, grid, side="right") - 1]
    flips = np.union1d(his[his < w], los[1:])
    return grid, member, tuple((b, b) for b in flips.tolist())
