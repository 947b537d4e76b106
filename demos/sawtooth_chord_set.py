"""Flagship chord-set example: five components with a gap around every
whole number.

The target set keeps the interval [0, 0.9], shifted copies starting at
1.1, 2.2 and 3.3, and the single point 4.4.  The walkthrough validates
admissibility, builds the tent function whose horizontal chord set is
exactly this set, spot checks a few chord queries, computes the chord
set back exactly, writes its membership on a fine grid and renders the
function to SVG.

Artifacts land in demo_output/ next to the package root.
"""

from pathlib import Path

from chordlab import (
    build_hopf,
    chord_set,
    chord_set_scan,
    function_to_obj,
    has_horizontal_chord,
    save_json,
    svg_for_curves,
    validate_chord_spec,
    write_chord_scan,
)

SAWTOOTH = [[0.0, 0.9], [1.1, 1.8], [2.2, 2.7], [3.3, 3.6], [4.4, 4.4]]


def main() -> None:
    out = Path(__file__).resolve().parent.parent / "demo_output"
    out.mkdir(exist_ok=True)

    report = validate_chord_spec(SAWTOOTH)
    print(report.summary())
    print()

    f = build_hopf(SAWTOOTH)
    print(f"tent function: {len(f.xs)} breakpoints on [0, {f.width:g}]")
    for s in (0.5, 1.0, 1.5, 2.0, 4.4):
        res = has_horizontal_chord(f, s)
        if res.exists:
            print(f"  length {s:g}: chord at x = {res.witness_x:.6f}")
        else:
            print(f"  length {s:g}: no chord")
    print()

    print("exact chord set:")
    for iv in chord_set(f).intervals:
        print(f"  [{iv.lo:.6f}, {iv.hi:.6f}]")
    scan = chord_set_scan(f, resolution=0.01)
    n_in = int(scan.membership.sum())
    print(f"scanned {scan.lengths.size} lengths, {n_in} in the chord set")
    csv_path, boundary_path = write_chord_scan(scan, out / "sawtooth_scan.csv")
    print(f"wrote {csv_path}")
    print(f"wrote {boundary_path}")

    save_json(function_to_obj(f), out / "sawtooth_tents.json")
    # overlay a copy shifted by 1.0 to make the missing chord visible:
    # the curves never sit at equal heights one unit apart
    svg = svg_for_curves([(f.xs, f.ys), (f.xs + 1.0, f.ys)])
    (out / "sawtooth_tents.svg").write_text(svg)
    print(f"wrote {out / 'sawtooth_tents.json'}")
    print(f"wrote {out / 'sawtooth_tents.svg'}")


if __name__ == "__main__":
    main()
