"""Shared helpers: locating the sources, percentiles, reference tables,
request-list digests, memory and the per-layer roll-up of a trace."""

import hashlib
import json
import os
import resource
import sys
from collections import defaultdict
from statistics import median  # noqa: F401 - shared with the workloads

from tracing import self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: The committed reference tables (the paper's rows as the repository
#: reproduces them).
RESULTS = os.path.join(ROOT, "benchmarks", "results")
#: Scratch space for fact stores and trace files, inside the checkout.
WORK = os.path.join(ROOT, ".perfbench-work")
#: Set-ups per run, spread over it; setup_s is their median.  serve-edit
#: cuts its stream into this many segments, one daemon each.
SETUP_REPEATS = 5


class SetupError(Exception):
    """The checkout cannot run the benchmark (no sources, no package)."""


def import_repro():
    """Put ``src/`` on the path and import the package under test."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SetupError("no repro package under {}".format(SRC))
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    return repro


def quantile(values, q):
    """Linear-interpolated quantile (inclusive method) of *values*."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail(values, q):
    """``(value, n, beyond)``: the *q* quantile of *values*, how many
    samples it rests on, and how many lie beyond it."""
    n = len(values)
    return quantile(values, q), n, int(round(n * (1.0 - q)))


def digest(obj):
    """Short stable digest of a JSON-able request list."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def peak_rss_mb(who=resource.RUSAGE_SELF):
    """Peak resident set in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def read_table(name):
    """Rows of a committed reference table: program -> cells (strings).

    The tables are fixed-width with at least two spaces between
    columns; only Table 4's last column holds single spaces.
    """
    rows = {}
    path = os.path.join(RESULTS, name + ".txt")
    if not os.path.isfile(path):
        raise SetupError("no reference table {}".format(path))
    with open(path) as f:
        lines = f.read().splitlines()
    dashes = next(i for i, line in enumerate(lines) if line.startswith("---"))
    for line in lines[dashes + 1:]:
        if line.strip():
            cells = [c for c in line.split("  ") if c.strip()]
            rows[cells[0].strip()] = [c.strip() for c in cells[1:]]
    return rows


def cell(value):
    """Render one table cell exactly as the committed tables do."""
    if isinstance(value, float):
        return "{:.2f}".format(value)
    return str(value)


def layer_metrics(spans, passes, traced_wall_s):
    """Per-pass self times, counts and rates from one traced phase.

    ``traced_wall_s`` is the wall time of the traced passes; what no
    layer span covers is reported as ``trace.unaccounted_ms``.
    """
    own = self_times(spans)
    self_ms = defaultdict(float)
    counts = defaultdict(int)
    for (name, _parent, _start, _end, attrs), seconds in zip(spans, own):
        self_ms[name] += seconds * 1000.0
        counts[name] += 1
        for key, value in attrs.items():
            if isinstance(value, int):
                counts[name + "." + key] += value

    def per_pass(value):
        return value / passes

    def rate(amount, ms):
        return amount / ms if ms > 0 else 0.0

    covered = sum(self_ms.values())
    return {
        "lang.parse_ms": per_pass(self_ms["lang.parse"]),
        "lang.parse_bytes_per_ms": rate(counts["lang.parse.bytes"],
                                        self_ms["lang.parse"]),
        "lang.check_ms": per_pass(self_ms["lang.check"]),
        "ir.lower_ms": per_pass(self_ms["ir.lower"]),
        "ir.lower_calls": per_pass(counts["ir.lower"]),
        "ir.instrs_per_ms": rate(counts["ir.lower.instrs"],
                                 self_ms["ir.lower"]),
        "analysis.facts_ms": per_pass(self_ms["analysis.facts"]),
        "analysis.build_ms": per_pass(self_ms["analysis.build"]),
        "analysis.table5_ms": per_pass(self_ms["analysis.table5"]),
        "analysis.bulk_build_ms": per_pass(self_ms["analysis.bulk_build"]),
        "analysis.bulk_builds": per_pass(counts["analysis.bulk_build"]),
        "opt.rle_ms": per_pass(self_ms["opt.rle"]),
        "opt.modref_ms": per_pass(self_ms["opt.modref"]),
        "opt.rle_alias_queries": per_pass(counts["opt.rle.queries"]),
        "opt.rle_queries_per_s": 1000.0 * rate(counts["opt.rle.queries"],
                                               self_ms["opt.rle"]),
        "opt.loads_eliminated": per_pass(counts["opt.rle.eliminated"]),
        "opt.backend_cse_ms": per_pass(self_ms["opt.backend_cse"]),
        "runtime.interp_ms": per_pass(self_ms["runtime.interp"]),
        "runtime.instrs_per_s": 1000.0 * rate(
            counts["runtime.interp.instructions"], self_ms["runtime.interp"]),
        "runtime.instructions": per_pass(
            counts["runtime.interp.instructions"]),
        "runtime.limit_ms": per_pass(self_ms["runtime.limit"]),
        "runtime.heap_loads": per_pass(counts["runtime.limit.heap_loads"]),
        "serve.lookup_ms": per_pass(self_ms["serve.lookup"]),
        "serve.compile_ms": per_pass(self_ms["serve.compile"]),
        "serve.factstore_store_ms": per_pass(
            self_ms["serve.factstore_store"]),
        "serve.factstore_stores": per_pass(counts["serve.factstore_store"]),
        "serve.factstore_load_ms": per_pass(self_ms["serve.factstore_load"]),
        "trace.unaccounted_ms": per_pass(traced_wall_s * 1000.0 - covered),
    }
