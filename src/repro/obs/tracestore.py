"""A bounded on-disk store for sampled trace records.

The continuous-tracing pipeline (DESIGN.md §6k) flushes one **trace
record** per sampled request/operation: the trace id, the producing
process token and origin, wall time, the collected span tree, and —
for work handed across a process boundary — the remote ``(proc, span)``
parent the subtree hangs under.  ``repro trace`` and ``GET /v1/traces``
read these records back and stitch the cross-process tree together
(:mod:`repro.obs.traceview`).

Layout: a directory of JSONL **segments** plus an ``index.json``
stamping the layout version.  Concurrency without locks comes from the
same trick as the fact store's content-hashed partitions — writers
never share a file: each process appends to its own
``seg-{proc}-{n}.jsonl`` (the proc token is fork-aware, so pool workers
get their own segments too).  Segments rotate at
:data:`SEGMENT_MAX_BYTES` and the store evicts oldest-first once the
directory exceeds ``max_bytes`` — continuous tracing must never grow
without bound.

Failure policy mirrors the serving stack's, in both directions:

* **writes never raise** — a trace record is telemetry, and telemetry
  must not take a request down.  Append failures are counted
  (``obs.trace.store_errors``) and dropped.
* **reads tolerate tearing** — a process dying mid-append leaves a
  truncated line; readers skip it with a warning and count it in
  ``obs.trace.torn_skipped``, exactly like the bench ledger's
  :func:`repro.obs.history.read_history`.  A line that decodes but
  fails validation is corruption of a different kind and is skipped
  under its own counter (``obs.trace.invalid_skipped``) — a bad record
  must not hide the good ones around it.
"""

import json
import os
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs import metrics
from repro.obs.core import jsonable
from repro.obs.reqlog import now as wall_now
from repro.obs.sampler import proc_id

__all__ = [
    "TRACE_SCHEMA_VERSION", "RECORD_KIND", "DEFAULT_TRACE_DIR",
    "DEFAULT_MAX_BYTES", "SEGMENT_MAX_BYTES", "TraceStore",
    "make_record", "validate_trace_record",
]

#: Bumped whenever the record shape changes incompatibly.
TRACE_SCHEMA_VERSION = 1

RECORD_KIND = "trace_record"

#: Where the CLI looks when ``--store`` is not given.
DEFAULT_TRACE_DIR = ".repro-traces"

#: Store size cap before oldest-first segment eviction.
DEFAULT_MAX_BYTES = 16 * 1024 * 1024

#: A writer rotates to a fresh segment past this many bytes.
SEGMENT_MAX_BYTES = 256 * 1024

#: ``index.json`` layout stamp; a future incompatible layout bumps it.
_LAYOUT_VERSION = 1

#: Keys every record must carry.
_REQUIRED_KEYS = ("kind", "schema", "trace", "proc", "origin", "op",
                  "ms", "ok", "ts", "parent", "spans")


def make_record(scope, origin: str, op: str, ms: float, ok: bool,
                unit: Optional[str] = None) -> dict:
    """One flushable record from a finished (collecting) trace scope."""
    parent = None
    if scope.remote_parent is not None:
        parent_proc, parent_span = scope.remote_parent
        parent = {"proc": parent_proc, "span": parent_span}
    return {
        "kind": RECORD_KIND,
        "schema": TRACE_SCHEMA_VERSION,
        "trace": scope.trace_id,
        "proc": proc_id(),
        "origin": origin,
        "op": op,
        "unit": unit,
        "ms": round(float(ms), 3),
        "ok": bool(ok),
        "ts": wall_now(),
        "parent": parent,
        "spans": scope.tree(),
        "notes": {k: jsonable(v) for k, v in scope.notes.items()},
        "dropped": scope.dropped,
    }


def validate_trace_record(obj: object) -> None:
    """Raise ``ValueError`` unless *obj* is a well-formed trace record."""
    if not isinstance(obj, dict):
        raise ValueError("trace record is not an object: {!r}".format(obj))
    for key in _REQUIRED_KEYS:
        if key not in obj:
            raise ValueError("trace record missing key {!r}".format(key))
    if obj["kind"] != RECORD_KIND:
        raise ValueError("unknown record kind: {!r}".format(obj["kind"]))
    if obj["schema"] != TRACE_SCHEMA_VERSION:
        raise ValueError(
            "unknown trace schema version: {!r}".format(obj["schema"]))
    for key in ("trace", "proc", "origin", "op"):
        if not isinstance(obj[key], str) or not obj[key]:
            raise ValueError(
                "trace record {!r} must be a non-empty string".format(key))
    if not isinstance(obj["ms"], (int, float)):
        raise ValueError("trace record 'ms' must be a number")
    if not isinstance(obj["ok"], bool):
        raise ValueError("trace record 'ok' must be a boolean")
    parent = obj["parent"]
    if parent is not None:
        if (not isinstance(parent, dict)
                or not isinstance(parent.get("proc"), str)
                or not isinstance(parent.get("span"), (int, type(None)))):
            raise ValueError(
                "trace record 'parent' must be null or "
                "{{proc, span}}: {!r}".format(parent))
    if not isinstance(obj["spans"], list):
        raise ValueError("trace record 'spans' must be a list")
    for span in obj["spans"]:
        if not isinstance(span, dict) or "name" not in span \
                or "id" not in span:
            raise ValueError(
                "trace record span missing name/id: {!r}".format(span))


class TraceStore:
    """Append-only segmented JSONL store under one directory."""

    def __init__(self, root, max_bytes: int = DEFAULT_MAX_BYTES,
                 segment_bytes: int = SEGMENT_MAX_BYTES):
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.segment_bytes = segment_bytes
        self._segment: Optional[Path] = None
        self._segment_proc: Optional[str] = None

    # -- writing --------------------------------------------------------

    def append(self, record: dict) -> bool:
        """Durably append one record; returns False (and counts) on
        failure instead of raising — tracing must never fail a request.

        The ``tracestore.append`` chaos point simulates the writer
        dying mid-append: the line lands truncated (counted in
        ``obs.trace.torn_writes``) and readers must skip it.
        """
        from repro.qa import chaos  # lazy: qa pulls in heavier modules

        registry = metrics.registry()
        try:
            validate_trace_record(record)
            line = json.dumps(record, sort_keys=True)
            if chaos.fire("tracestore.append", trace=record["trace"]):
                line = line[: max(1, len(line) // 3)]
                registry.counter("obs.trace.torn_writes").inc()
            segment = self._current_segment(len(line) + 1)
            with open(segment, "a") as f:
                f.write(line + "\n")
        except (OSError, ValueError, TypeError) as err:
            from repro.obs import log

            registry.counter("obs.trace.store_errors").inc()
            log.warn("trace store append failed: {}".format(err))
            return False
        registry.counter("obs.trace.flushed").inc()
        self._evict()
        return True

    def _current_segment(self, incoming: int) -> Path:
        """This process's open segment, rotating past the size cap."""
        proc = proc_id()
        if self._segment is None or self._segment_proc != proc:
            # First write (or a fork changed our identity): start a
            # fresh segment rather than appending to an inherited one.
            self._segment = self._next_segment(proc)
            self._segment_proc = proc
        try:
            size = self._segment.stat().st_size
        except OSError:
            size = 0
        if size and size + incoming > self.segment_bytes:
            self._segment = self._next_segment(proc)
        self._ensure_layout()
        return self._segment

    def _next_segment(self, proc: str) -> Path:
        n = 0
        while True:
            candidate = self.root / "seg-{}-{:04d}.jsonl".format(proc, n)
            if not candidate.exists():
                return candidate
            n += 1

    def _ensure_layout(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        index = self.root / "index.json"
        if not index.exists():
            tmp = index.with_suffix(".tmp")
            tmp.write_text(json.dumps(
                {"kind": "trace_store", "layout": _LAYOUT_VERSION},
                sort_keys=True))
            os.replace(tmp, index)

    def _evict(self) -> None:
        """Drop oldest segments until the store fits ``max_bytes``."""
        if self.max_bytes is None:
            return
        segments = self._segments()
        total = 0
        sizes: Dict[Path, int] = {}
        for segment in segments:
            try:
                sizes[segment] = segment.stat().st_size
            except OSError:
                sizes[segment] = 0
            total += sizes[segment]
        # Oldest first by (mtime, name); never evict the open segment —
        # a writer must not saw off the branch it is appending to.
        for segment in segments:
            if total <= self.max_bytes:
                break
            if segment == self._segment:
                continue
            try:
                segment.unlink()
            except OSError:
                continue
            total -= sizes[segment]
            metrics.registry().counter("obs.trace.evicted").inc()

    # -- reading --------------------------------------------------------

    def _segments(self) -> List[Path]:
        """Every segment, oldest first (mtime, then name for stability)."""
        if not self.root.is_dir():
            return []
        segments = sorted(self.root.glob("seg-*.jsonl"))

        def age(path: Path):
            try:
                return (path.stat().st_mtime, path.name)
            except OSError:
                return (0.0, path.name)

        return sorted(segments, key=age)

    def records(self) -> List[dict]:
        """Every valid record, oldest segment first, append order within.

        Torn lines (not JSON) and invalid records are skipped with
        their own counters — see the module docstring.
        """
        from repro.obs import log

        registry = metrics.registry()
        out: List[dict] = []
        for segment in self._segments():
            try:
                text = segment.read_text()
            except OSError:
                continue  # evicted or torn away under us
            for lineno, raw in enumerate(text.splitlines(), 1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    obj = json.loads(raw)
                except json.JSONDecodeError:
                    registry.counter("obs.trace.torn_skipped").inc()
                    log.warn("{}:{}: skipping torn trace line".format(
                        segment, lineno))
                    continue
                try:
                    validate_trace_record(obj)
                except ValueError as err:
                    registry.counter("obs.trace.invalid_skipped").inc()
                    log.warn("{}:{}: skipping invalid trace record: {}"
                             .format(segment, lineno, err))
                    continue
                out.append(obj)
        return out

    def traces(self) -> Dict[str, List[dict]]:
        """Records grouped by trace id, preserving append order."""
        grouped: Dict[str, List[dict]] = {}
        for record in self.records():
            grouped.setdefault(record["trace"], []).append(record)
        return grouped

    def trace(self, trace_id: str) -> List[dict]:
        """Every record of one trace (empty when unknown)."""
        return [r for r in self.records() if r["trace"] == trace_id]

    def stats(self) -> dict:
        """Store shape for dashboards: segments, bytes, record count."""
        segments = self._segments()
        total = 0
        for segment in segments:
            try:
                total += segment.stat().st_size
            except OSError:
                pass
        return {
            "root": str(self.root),
            "segments": len(segments),
            "bytes": total,
            "max_bytes": self.max_bytes,
        }
