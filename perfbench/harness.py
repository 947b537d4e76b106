"""Closed-loop timing, in-memory tracing and metric reduction.

A workload is a fixed list of ops built from the seed. The loop runs whole
passes over that list, one op at a time from a single caller, until the
requested seconds have passed, so every run sees the same op mix.
Each op's answer is checked after its timer stops.

Spans are recorded only from the benchmark's own files, around its calls
into each chordlab module. With tracing off every span is a shared no-op
object, so the untraced run pays one method call per span.

Every time is read from ``cpu_clock``: CPU seconds of this process plus
those of its finished child processes. chordlab is single-threaded and
CPU-bound, so on an idle machine an op's CPU time is its wall time (they
differ by under 1% on chordset). On a shared host the CPU clock leaves out
the time the process waits for a CPU that another tenant holds, which
wall time counts and which says nothing about the program.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Span names the per-layer metrics report on, with the work counts each
# span carries (reported as a mean per call). The layer is the part of
# the name before the first dot.
TRACED_CALLS: dict[str, tuple[str, ...]] = {
    "piecewise.shift_difference": ("breakpoints",),
    "piecewise.eval": (),
    "oracle.chord_set_scan": ("lengths",),
    "oracle.verify_complement_additivity": ("pairs",),
    "oracle.has_horizontal_chord": (),
    "oracle.levit_bound": (),
    "intervals.validate_chord_spec": (),
    "intervals.is_additive": (),
    "builders.build_hopf": (),
    "builders.eval_smooth": ("points",),
    "builders.to_piecewise": (),
    "builders.build_levy": (),
    "race.from_splits": ("splits",),
    "race.find_average_split": (),
    "race.exists_average_split": (),
    "race.window_time_extrema": (),
    "race.to_chord_problem": (),
    "race.build_adversarial_profile": (),
    "io.parse": (),
    "io.serialize": (),
    "io.write_chord_scan": (),
}
CLI_COMMANDS = (
    "validate",
    "construct",
    "chords",
    "race-plan",
    "race-find-split",
    "race-exists-split",
    "plot",
)
# "bench" is the benchmark's own code inside an op, between library calls.
LAYERS = ("piecewise", "oracle", "intervals", "builders", "race", "io", "cli", "bench")


def cpu_clock() -> float:
    """CPU seconds (user + system) of this process and its reaped children.

    A subprocess op's time is then the parent's own CPU time plus the
    child's whole CPU time, start-up and import included."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def end_to_end_units() -> dict[str, str]:
    return {
        "setup_s": "s",
        "ops_per_s": "1/s",
        "op_p50_ms": "ms",
        "op_tail_ms": "ms",
        "ok_ratio": "ratio",
        "peak_rss_mb": "MB",
    }


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name, counts in TRACED_CALLS.items():
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.p50_ms"] = "ms"
        for key in counts:
            units[f"{name}.{key}"] = "count"
    units["cli.import_ms"] = "ms"
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.p50_ms"] = "ms"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["oracle.boundary_err"] = "length"
    units["trace.spans"] = "count"
    units["trace.overhead_frac"] = "ratio"
    return units


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def add(self, key: str, n: int) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "index", "start", "counts")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.counts: dict[str, int] = {}

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr.stack.append(self.index)
        self.start = cpu_clock()
        return self

    def __exit__(self, *exc):
        end = cpu_clock()
        tr = self.tracer
        tr.stack.pop()
        parent = tr.stack[-1] if tr.stack else None
        tr.spans[self.index] = (self.name, self.start, end, parent, tr.op_id, self.counts)
        return False

    def add(self, key: str, n: int) -> None:
        """Add a work count; callable during or after the span."""
        self.counts[key] = self.counts.get(key, 0) + int(n)


class Tracer:
    """Keeps spans in memory as (name, start, end, parent, op id, counts)."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = 0

    def span(self, name: str):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for name, start, end, parent, op_id, counts in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "op": op_id}
                rec.update(counts)
                fh.write(json.dumps(rec) + "\n")


@dataclass
class Op:
    """One closed-loop operation: ``run`` calls the library and returns its
    answer; ``check`` returns None when the answer is right, else why not.
    ``known_failure`` names a documented defect the op is expected to hit."""

    kind: str
    run: Callable[[Tracer], object]
    check: Callable[[object], "str | None"]
    known_failure: str | None = None


@dataclass
class Workload:
    ops: list[Op]
    # Figures the builder and the checks record, such as the start-up
    # time of the command line or the largest boundary error.
    figures: dict[str, float] = field(default_factory=dict)


@dataclass
class Sample:
    kind: str
    seconds: float
    failure: str | None
    known: bool
    traced: bool
    pass_no: int
    op_no: int  # index in the workload's op list


def run_op(op: Op, tracer: Tracer) -> tuple[float, str | None]:
    tracer.op_id += 1
    t0 = cpu_clock()
    try:
        with tracer.span("bench." + op.kind):
            result = op.run(tracer)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return cpu_clock() - t0, f"raised {type(exc).__name__}: {exc}"
    dt = cpu_clock() - t0
    try:
        return dt, op.check(result)
    except Exception as exc:
        return dt, f"check raised {type(exc).__name__}: {exc}"


def warm_up(ops: list[Op], tracer: Tracer) -> None:
    """Run the first op of each kind once, untimed and unchecked."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            run_op(op, tracer)


def measure(wl: Workload, seconds: float, tracer: Tracer, traced: bool) -> list[Sample]:
    """Run whole passes until ``seconds`` have passed. In a traced run the
    passes alternate untraced and traced (at least one of each), so the
    tracing overhead is measured on the same ops in the same run."""
    samples: list[Sample] = []
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < (2 if traced else 1) or time.perf_counter() < deadline or (traced and passes % 2):
        tracer.enabled = traced and passes % 2 == 1
        for i, op in enumerate(wl.ops):
            dt, failure = run_op(op, tracer)
            samples.append(Sample(op.kind, dt, failure, op.known_failure is not None, tracer.enabled, passes, i))
        passes += 1
    tracer.enabled = False
    return samples


def tail(sorted_vals: list[float]) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with at least 10 samples beyond
    it: (value, percentile, samples strictly above the value)."""
    rank = max(1, len(sorted_vals) - 10)
    value = sorted_vals[rank - 1]
    beyond = sum(1 for v in sorted_vals if v > value)
    return value, 100.0 * rank / len(sorted_vals), beyond


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(samples: list[Sample], setup_s: float) -> tuple[dict, dict]:
    times = sorted(s.seconds for s in samples)
    failed = sum(1 for s in samples if s.failure)
    # Even in CPU time, the speed of a shared host drifts by up to 1.75x
    # for seconds to minutes at a time (the best time of one fixed chord
    # scan over 5 s stretches went from 77 to 44 ms within a minute on the
    # reference machine, with nothing else of the benchmark running). Every
    # pass runs the same ops, so each op's fastest pass is its cost with
    # the least interference: throughput and the median op are taken over
    # those best times, which repeat across runs where the mean and median
    # of all samples follow the share of the run the host spent slow. The
    # tail is about slow cases, so it is taken over all samples.
    best: dict[int, float] = {}
    for s in samples:
        best[s.op_no] = min(best.get(s.op_no, math.inf), s.seconds)
    tail_s, tail_pct, beyond = tail(times)
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(best) / math.fsum(best.values()),
        "op_p50_ms": statistics.median(best.values()) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ok_ratio": 1.0 - failed / len(samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    by_kind: dict[str, list[float]] = {}
    for s in samples:
        by_kind.setdefault(s.kind, []).append(s.seconds)
    detail = {
        "kind_p50_ms": {k: statistics.median(v) * 1e3 for k, v in sorted(by_kind.items())},
        "samples": len(times),
        "passes": len({s.pass_no for s in samples}),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "all_samples_ops_per_s": len(times) / math.fsum(times),
        "all_samples_p50_ms": statistics.median(times) * 1e3,
        "fail_ratio": failed / len(samples),
    }
    return values, detail


def per_layer(spans: list, samples: list[Sample], figures: dict) -> dict[str, dict]:
    """Calls, busy time, median and work counts per traced call; self time
    per layer; the tracing overhead of traced passes over untraced ones."""
    units = per_layer_units()
    values = {name: 0.0 for name in units}
    durations: dict[str, list[float]] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op, _counts in spans:
        if parent is not None:
            child_time[parent] += end - start
    for i, (name, start, end, parent, _op, counts) in enumerate(spans):
        dur = end - start
        durations.setdefault(name, []).append(dur)
        values[name.split(".", 1)[0] + ".self_s"] += dur - child_time[i]
        for key, n in counts.items():
            metric = f"{name}.{key}"
            if metric in values:
                values[metric] += n
    for name, durs in durations.items():
        if name in TRACED_CALLS:
            for key in TRACED_CALLS[name]:
                values[f"{name}.{key}"] /= len(durs)
            values[f"{name}.calls"] = len(durs)
            values[f"{name}.busy_s"] = math.fsum(durs)
            values[f"{name}.p50_ms"] = statistics.median(durs) * 1e3
        elif name.startswith("cli."):
            values[f"{name}.p50_ms"] = statistics.median(durs) * 1e3
    values["cli.import_ms"] = figures.get("import_ms", 0.0)
    values["oracle.boundary_err"] = figures.get("boundary_err", 0.0)
    values["trace.spans"] = len(spans)
    traced = math.fsum(s.seconds for s in samples if s.traced)
    untraced = math.fsum(s.seconds for s in samples if not s.traced)
    values["trace.overhead_frac"] = traced / untraced - 1.0
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
