"""The repository benchmark: one command, three workloads.

Usage::

    python3 perfbench/run.py --workload compile-suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with no wrappers
installed, its timings stated at a reference host speed (speed.py).
``--trace 1`` measures the per-layer metrics: it runs the workload
untraced and traced on the same requests and reports, besides each
layer's self time, counts and rates, the time no layer span covers
(``trace.unaccounted_ms``) and the cost of tracing
(``trace.overhead_ms``, traced minus untraced).  Every answer is checked;
the human-readable report comes first and the last line of standard
output is one JSON object.  The exit code is 0 when every answer was
right, 1 when any was wrong, 2 when the checkout cannot run the
benchmark.  See README.md in this directory for what each workload and
metric is for.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from collections import defaultdict

from common import (
    SETUP_REPEATS,
    WORK,
    SetupError,
    digest,
    layer_metrics,
    median,
    peak_rss_mb,
    tail,
)
from speed import SpeedProbe
from tracing import Recorder, install, load_spans, self_times

WORKLOADS = ("compile-suite", "execute-suite", "serve-edit")

SERVE_KINDS = ("read", "edit", "revisit")

#: Per-layer metrics whose unit is not ms.
LAYER_UNITS = {
    "lang.parse_bytes_per_ms": "B/ms",
    "ir.lower_calls": "count",
    "ir.instrs_per_ms": "1/ms",
    "analysis.bulk_builds": "count",
    "opt.rle_alias_queries": "count",
    "opt.rle_queries_per_s": "1/s",
    "opt.loads_eliminated": "count",
    "runtime.instrs_per_s": "1/s",
    "runtime.instructions": "count",
    "runtime.heap_loads": "count",
    "serve.factstore_stores": "count",
    "serve.session_hit_ratio": "ratio",
    "serve.restore_ratio": "ratio",
    "trace.overhead_pct": "%",
}


class Report:
    """Metrics of one run.  ``metrics`` go into the JSON line;
    ``printed`` metrics appear only in the human-readable report."""

    def __init__(self, workload):
        self.workload = workload
        self.metrics = {}
        self.printed = {}
        self.notes = {}
        self.attempted = 0
        self.failed = 0

    def add(self, name, value, unit, note="", printed_only=False):
        target = self.printed if printed_only else self.metrics
        target[name] = {"value": value, "unit": unit}
        self.notes[name] = note

    def add_tail(self, name, values, q, printed_only=False):
        value, n, beyond = tail(values, q)
        self.add(name, value, "ms", "n={}, {} beyond".format(n, beyond),
                 printed_only)

    def print(self):
        print("workload {}".format(self.workload))
        self.add("failed_frac", self.failed / max(1, self.attempted),
                 "ratio", "{} of {} requests".format(
                     self.failed, self.attempted), printed_only=True)
        for name, entry in sorted({**self.metrics, **self.printed}.items()):
            print("  {:<28} {:>14.6g} {:<6} {}".format(
                name, entry["value"], entry["unit"], self.notes[name]))


def _attempt(request, name):
    """Run one request; a raised error counts as a wrong answer."""
    try:
        return bool(request(name))
    except Exception:  # noqa: BLE001 - every request must be counted
        traceback.print_exc(file=sys.stderr)
        return False


def _run_pass(workload, index, samples, between=None):
    """Run plan pass *index*, appending each request's ``(start,
    seconds)`` to *samples*; returns the number of wrong answers.
    *between* runs before each request, outside the timed region."""
    failed = 0
    for name in workload.plan[index]:
        if between is not None:
            between()
        start = time.perf_counter()
        ok = _attempt(workload.request, name)
        samples.append((start, time.perf_counter() - start))
        failed += not ok
    return failed


def _setup(cls, seed):
    """A set-up workload and its set-up's ``(start, seconds)``."""
    start = time.perf_counter()
    workload = cls()
    workload.setup(seed)
    return workload, (start, time.perf_counter() - start)


class SpreadSetups:
    """Repeats a workload's set-up ``SETUP_REPEATS`` times, spread evenly
    over the timed loop, so that ``setup_s`` sees the same spells of
    machine speed as the timed requests.

    The first set-up happens before the loop and gives the workload the
    requests run on; the later ones build a throwaway copy between two
    requests, outside the timed region.  Set-up *k* runs once *k* fifths
    of the run's requests are done.
    """

    def __init__(self, cls, seed):
        self.cls, self.seed = cls, seed
        self.workload, first = _setup(cls, seed)
        self.times = [first]

    def due(self, done):
        """Run the set-ups that a *done* share of the requests makes due."""
        while (len(self.times) < SETUP_REPEATS
               and done * SETUP_REPEATS >= len(self.times)):
            self.times.append(_setup(self.cls, self.seed)[1])

    def finish(self):
        """The ``(start, seconds)`` of every set-up."""
        self.due(1.0)
        return self.times


def _end_to_end(report, probe, setups, samples, per_pass, rss_mb):
    """The gated metrics from ``(start, seconds)`` set-ups and requests,
    *per_pass* requests to a pass.  Timings are stated at reference
    host speed (see speed.py); the wall values are printed beside them.
    Returns the requests' scaled seconds."""
    scaled = [probe.scale(start, took) for start, took in samples]
    for suffix, times, setup_times in (
            ("", scaled, [probe.scale(*setup) for setup in setups]),
            (".wall", [took for _start, took in samples],
             [took for _start, took in setups])):
        ms = [1000.0 * t for t in times]
        passes = [sum(times[i:i + per_pass])
                  for i in range(0, len(times), per_pass)]
        p90, n, beyond = tail(ms, 0.9)
        for name, value, unit, note in (
                ("setup_s", median(setup_times), "s",
                 "median of {} set-ups".format(len(setup_times))),
                ("program_ms.p50", median(ms), "ms", "n={}".format(n)),
                ("program_ms.p90", p90, "ms",
                 "n={}, {} beyond".format(n, beyond)),
                ("suite_s", median(passes), "s",
                 "median of {} passes".format(len(passes))),
                ("requests_per_s", len(times) / sum(times), "1/s", "")):
            report.add(name + suffix, value, unit, note,
                       printed_only=bool(suffix))
    report.add("peak_rss_mb", rss_mb, "MB")
    report.add("speed.unit_ms", 1000.0 * probe.unit_s(), "ms",
               "mean of {} calibration units".format(len(probe.units)),
               printed_only=True)
    report.add("speed.factor", probe.factor(), "ratio",
               "reference unit / mean unit over the whole run",
               printed_only=True)
    return scaled


def _zero_serve_metrics(metrics):
    for kind in SERVE_KINDS:
        metrics["serve.handle_ms." + kind] = 0.0
    for name in ("serve.transport_ms", "serve.session_hit_ratio",
                 "serve.restore_ratio"):
        metrics[name] = 0.0


def _layer_report(report, metrics, traced_s, untraced_s, passes):
    metrics["trace.overhead_ms"] = 1000.0 * (traced_s - untraced_s) / passes
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    for name, value in metrics.items():
        report.add(name, value, LAYER_UNITS.get(name, "ms"))


def run_inprocess(cls, args):
    samples = []
    if not args.trace:
        with SpeedProbe() as probe:
            setups = SpreadSetups(cls, args.seed)
            workload = setups.workload
            report = Report(workload.name)
            print("plan digest {}".format(
                digest(workload.plan_for_digest())))
            # A fixed number of whole passes, sized from --seconds, so
            # that the request count and with it the ranks p50 and p90
            # fall on do not change with the machine's speed.
            passes = min(len(workload.plan), max(
                workload.min_passes, round(args.seconds / workload.pass_s)))
            total = passes * len(workload.plan[0])
            for index in range(passes):
                report.failed += _run_pass(
                    workload, index, samples,
                    lambda: setups.due(len(samples) / total))
            setup_times = setups.finish()
        report.attempted = len(samples)
        _end_to_end(report, probe, setup_times, samples,
                    len(workload.plan[0]), peak_rss_mb())
        return report
    workload, _setup_time = _setup(cls, args.seed)
    report = Report(workload.name)
    print("plan digest {}".format(digest(workload.plan_for_digest())))
    begin = time.perf_counter()
    # Traced: each plan pass runs once untraced and once with the
    # wrappers installed, in alternating order, so both sides do the
    # same requests and drift hits both alike.
    recorder = Recorder()
    wall_s = {False: 0.0, True: 0.0}
    index = 0
    while index < len(workload.plan) and (
            index < 1 or time.perf_counter() - begin < args.seconds):
        for traced in (index % 2 == 1, index % 2 == 0):
            restore = install(recorder) if traced else None
            start = time.perf_counter()
            report.failed += _run_pass(workload, index, samples)
            wall_s[traced] += time.perf_counter() - start
            if restore:
                restore()
        index += 1
    untraced_s, traced_s = wall_s[False], wall_s[True]
    report.attempted = len(samples)
    os.makedirs(WORK, exist_ok=True)
    recorder.dump(os.path.join(WORK, "spans-{}-{}.json".format(
        workload.name, args.seed)))
    metrics = layer_metrics(recorder.spans, index, traced_s)
    _zero_serve_metrics(metrics)
    _layer_report(report, metrics, traced_s, untraced_s, index)
    return report


def _stream_spans(spans):
    """The spans of stream requests (not warm-up, stats or shutdown),
    re-indexed, plus each root's kind."""
    keep = {}
    kinds = {}
    for index, (name, parent, _s, _e, attrs) in enumerate(spans):
        if parent < 0:
            request_id = attrs.get("id")
            kind = str(request_id).split(":")[0]
            if name == "serve.handle" and kind in SERVE_KINDS:
                keep[index] = len(keep)
                kinds[keep[index]] = kind
        elif parent in keep:
            keep[index] = len(keep)
    selected = []
    for index, new in sorted(keep.items(), key=lambda item: item[1]):
        name, parent, start, end, attrs = spans[index]
        selected.append([name, keep.get(parent, -1), start, end, attrs])
    return selected, kinds


def _serve_layers(workload, spans, samples, stream_s, counters):
    """Per-layer metrics of the traced segments.  *counters* holds the
    deltas of the traced daemons' ``stats`` counters over the stream."""
    spans, kinds = _stream_spans(spans)
    rounds = workload.rounds * workload.segments
    own = self_times(spans)
    handle_ms = dict.fromkeys(SERVE_KINDS, 0.0)
    handled_ms = 0.0
    for index, kind in kinds.items():
        _name, _parent, start, end, _attrs = spans[index]
        handle_ms[kind] += own[index] * 1000.0
        handled_ms += (end - start) * 1000.0
    transport_ms = 1000.0 * sum(took for _kind, _start, took in samples)
    transport_ms -= handled_ms
    # Every daemon span lies inside a handle span, so what no layer
    # covers is the stream's wall time minus the client latencies.
    metrics = layer_metrics(spans, rounds, stream_s - transport_ms / 1000.0)
    for kind in SERVE_KINDS:
        metrics["serve.handle_ms." + kind] = handle_ms[kind] / rounds
    metrics["serve.transport_ms"] = transport_ms / rounds
    hits = counters["serve.session.hit"]
    misses = counters["serve.session.miss"]
    metrics["serve.session_hit_ratio"] = hits / max(1, hits + misses)
    metrics["serve.restore_ratio"] = (counters["serve.factcache.hit"]
                                      / max(1, misses))
    return metrics


def kind_makeup(samples, q, width=0.05):
    """Which request kinds hold the ranks ``q - width .. q + width`` of
    the sorted serve-edit latencies, as a note for the report."""
    ordered = sorted(samples, key=lambda sample: sample[1])
    low = int(len(ordered) * max(0.0, q - width))
    high = max(low + 1, int(len(ordered) * min(1.0, q + width)))
    window = [kind for kind, _ms in ordered[low:high]]
    return "ranks {:.0f}-{:.0f}%: {}".format(
        100 * (q - width), 100 * (q + width), ", ".join(
            "{} {:.0f}%".format(kind, 100.0 * window.count(kind) / len(window))
            for kind in SERVE_KINDS))


def run_serve(args):
    from serve_edit import ServeEdit

    os.makedirs(WORK, exist_ok=True)
    workload = ServeEdit(args.seed, args.seconds)
    report = Report(workload.name)
    try:
        workload.setup()
        print("stream digest {}".format(digest(workload.plan_for_digest())))
        if args.trace:
            return _trace_serve(workload, report)
        # One daemon per segment: its start and warm-up are the set-up
        # timed, so the set-ups are spread over the run like the stream.
        # The speed probe runs between requests, in this thread: on a
        # thread of its own it would hold the GIL when some answers
        # arrive and add its unit to their latency.
        setup_times = []
        samples = []
        with SpeedProbe(thread=False) as probe:
            for segment in range(workload.segments):
                start = time.perf_counter()
                workload.start()
                setup_times.append((start, time.perf_counter() - start))
                samples += workload.run_stream(segment, probe.tick)[0]
                workload.stop()
    finally:
        workload.kill()
    report.failed = workload.check()
    report.attempted = len(samples)
    scaled = _end_to_end(
        report, probe, setup_times,
        [(start, took) for _kind, start, took in samples],
        len(samples) // (workload.rounds * workload.segments),
        peak_rss_mb(resource.RUSAGE_CHILDREN))
    kinds = [(kind, 1000.0 * took)
             for (kind, _start, _took), took in zip(samples, scaled)]
    for name, q in (("program_ms.p50", 0.5), ("program_ms.p90", 0.9)):
        report.notes[name] += "; " + kind_makeup(kinds, q)
    by_kind = {k: [ms for kind, ms in kinds if kind == k]
               for k in SERVE_KINDS}
    for kind, q in (("read", 0.99), ("edit", 0.9)):
        report.add_tail("{}_ms.p{}".format(kind, int(q * 100)),
                        by_kind[kind], q, printed_only=True)
    for kind in SERVE_KINDS:
        report.add("{}_ms.p50".format(kind), median(by_kind[kind]), "ms",
                   "n={}".format(len(by_kind[kind])), printed_only=True)
    return report


def _trace_serve(workload, report):
    """Each segment once on a plain daemon and once on a daemon started
    through the launcher, which records spans inside the child.  Which
    of the two goes first alternates by segment, so drift hits both
    sides alike."""
    spans = []
    traced = []
    wall_s = {False: 0.0, True: 0.0}
    counters = defaultdict(int)
    for segment in range(workload.segments):
        for with_spans in (segment % 2 == 1, segment % 2 == 0):
            path = None
            if with_spans:
                path = os.path.join(WORK, "spans-serve-edit-{}-{}.json".format(
                    workload.seed, segment))
            workload.start(path)
            if with_spans:
                before = workload.stats()
            samples, rounds = workload.run_stream(segment)
            wall_s[with_spans] += sum(rounds)
            if with_spans:
                after = workload.stats()
                for name, value in after.items():
                    counters[name] += value - before.get(name, 0)
                traced += samples
            workload.stop()
            if with_spans:
                spans += _offset(load_spans(path), len(spans))
    report.failed = workload.check()
    report.attempted = 2 * len(traced)
    metrics = _serve_layers(workload, spans, traced, wall_s[True], counters)
    _layer_report(report, metrics, wall_s[True], wall_s[False],
                  workload.rounds * workload.segments)
    return report


def _offset(spans, base):
    """*spans* with parent indices shifted by *base*, for appending one
    span list to another."""
    return [[name, parent + base if parent >= 0 else -1, start, end, attrs]
            for name, parent, start, end, attrs in spans]


def run_all(args):
    """Each workload in its own process, one after the other."""
    codes = []
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        codes.append(subprocess.call(argv))
    print("all workloads: exit codes {}".format(dict(zip(WORKLOADS, codes))))
    return max(codes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        if args.workload == "serve-edit":
            report = run_serve(args)
        else:
            from compile_suite import CompileSuite
            from execute_suite import ExecuteSuite

            cls = {"compile-suite": CompileSuite,
                   "execute-suite": ExecuteSuite}[args.workload]
            report = run_inprocess(cls, args)
    except SetupError as err:
        print("perfbench: cannot run here: {}".format(err), file=sys.stderr)
        return 2
    report.print()
    correct = report.failed == 0
    print(json.dumps({"correct": correct, "attempted": report.attempted,
                      "failed": report.failed, "metrics": report.metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
