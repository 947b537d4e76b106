"""Finding the average-pace mile in a 3 mile race.

Mile splits 5:30, 6:30, 6:00 give an 18:00 finish, so average pace is
6:00 per mile.  None of the three recorded miles hits 6:00, but because
3 / 1 is a whole number some sub-interval of exactly one mile must be
run at exactly average pace.  The distance covered by the window
starting at t is piecewise linear in t, so the finder reads the first
such window off exactly, interpolating between its vertices.  Here it
lands at t* = 165 s: the mile from 2:45 to 8:45.

The same guarantee holds for every divisor window, and for randomly
generated profiles; the demo closes with a quick random check.
"""

import numpy as np

from chordlab import RaceProfile, find_average_split


def fmt_mmss(seconds: float) -> str:
    m, s = divmod(round(seconds), 60)
    return f"{m}:{s:02d}"


def main() -> None:
    profile = RaceProfile.from_splits(
        3.0, 1080.0, [(1.0, 330.0), (2.0, 720.0), (3.0, 1080.0)]
    )
    print("3 mile race, mile splits "
          + ", ".join(fmt_mmss(t) for t in (330.0, 390.0, 360.0)))
    print(f"average pace {fmt_mmss(profile.average_pace)} per mile")

    d = 1.0
    t_star = find_average_split(profile, d)
    window = profile.total_time * d / profile.total_distance
    covered = profile.position(t_star + window) - profile.position(t_star)
    print(f"average-pace mile starts at t* = {t_star:.3f} s "
          f"({fmt_mmss(t_star)} into the race)")
    print(f"it covers {covered:.9f} miles in {fmt_mmss(window)}")

    # the half-mile window also divides evenly: 3 / 0.5 = 6
    t_half = find_average_split(profile, 0.5)
    print(f"average-pace half mile starts at t* = {t_half:.3f} s")

    print()
    print("random whole-ratio profiles always admit a split:")
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        d_rand = float(rng.choice([0.5, 1.0, 2.0]))
        total = n * d_rand
        times = np.cumsum(rng.uniform(200.0, 500.0, size=n))
        splits = [(d_rand * (k + 1), float(times[k])) for k in range(n)]
        p = RaceProfile.from_splits(total, float(times[-1]), splits)
        t = find_average_split(p, d_rand)
        w = p.total_time / n
        got = p.position(t + w) - p.position(t)
        print(f"  L = {total:g}, d = {d_rand:g}: t* = {t:10.3f} s, "
              f"window covers {got:.9f}")


if __name__ == "__main__":
    main()
