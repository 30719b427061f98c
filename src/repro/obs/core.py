"""Phase spans and the process-wide recorder.

A :class:`Span` is a context manager around one phase of work (parse,
typecheck, lower, one analysis build, one benchmark run).  Spans nest:
each thread keeps a stack, so entering a span inside another records the
parent/child edge, and the finished record carries monotonic start and
duration taken from :func:`time.perf_counter`.

The process-wide :class:`Recorder` is **off by default** and free when
off: :func:`span` then returns one shared identity no-op object, so the
instrumented code paths cost a single predicate per phase (never per
query — per-query costs live in :mod:`repro.obs.metrics` counters).
``repro profile`` and the ``--trace`` CLI flag enable it.

**Request-scoped tracing** (DESIGN.md §6j) layers on top: a serving
daemon wraps each request in :func:`trace_scope`, which stamps every
span finished on that thread with the request's ``trace_id`` (emitted in
span JSON only when set, so batch traces are unchanged) and — when the
scope *collects* — captures the request's own spans into a bounded
per-request sink even while the global recorder stays disabled.  Scopes
are thread-local, exactly like span stacks, so concurrent requests can
never interleave trace ids.
"""

import itertools
import threading
import time
from typing import Dict, List, Optional

__all__ = ["Span", "NullSpan", "NULL_SPAN", "Recorder", "recorder",
           "span", "enable", "disable", "enabled", "reset",
           "trace_scope", "current_trace", "current_scope",
           "current_span_id", "reset_inherited_trace_state",
           "trace_note", "TraceScope"]


class NullSpan:
    """Shared do-nothing span used whenever the recorder is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs) -> None:
        """Accept and drop attributes (mirrors :meth:`Span.annotate`)."""


#: The identity no-op: every disabled ``span()`` call returns this object.
NULL_SPAN = NullSpan()


#: Thread-local holder for the active :class:`TraceScope` (if any).
_TRACE = threading.local()


#: Collecting scopes stop capturing past this many spans per request —
#: a runaway span loop must not grow an unbounded debug payload.
TRACE_SINK_CAP = 512


class TraceScope:
    """One request's tracing context: id, notes and an optional sink.

    Entered around a request's whole lifetime on its serving thread.
    While active, every :class:`Span` finished on this thread carries
    ``trace_id``; with ``collect=True`` finished spans are also appended
    to :attr:`spans` (bounded by :data:`TRACE_SINK_CAP`) even when the
    global recorder is disabled, which is what powers ``debug: true``
    responses.  :attr:`notes` is a scratch dict lower layers fill in via
    :func:`trace_note` (e.g. the session cache outcome) and the daemon
    reads back when journalling the request.

    ``remote_parent`` carries cross-process parentage (DESIGN.md §6k):
    a ``(proc, span_id)`` pair naming the span — in *another* process —
    that this scope's root spans hang under.  The scope itself only
    stores it; :mod:`repro.obs.tracestore` stamps it onto the flushed
    trace record so the viewer can reattach the subtree.
    """

    __slots__ = ("trace_id", "collect", "spans", "notes", "dropped",
                 "remote_parent", "_previous")

    def __init__(self, trace_id: str, collect: bool = False,
                 remote_parent: Optional[tuple] = None):
        self.trace_id = trace_id
        self.collect = collect
        self.spans: List["Span"] = []
        self.notes: Dict[str, object] = {}
        self.dropped = 0
        self.remote_parent = remote_parent
        self._previous: Optional["TraceScope"] = None

    def __enter__(self) -> "TraceScope":
        self._previous = getattr(_TRACE, "scope", None)
        _TRACE.scope = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _TRACE.scope = self._previous
        self._previous = None
        return False

    def _capture(self, span: "Span") -> None:
        if len(self.spans) < TRACE_SINK_CAP:
            self.spans.append(span)
        else:
            self.dropped += 1

    def tree(self, epoch: Optional[float] = None) -> List[dict]:
        """Collected spans as JSON dicts (start order), for responses."""
        if epoch is None:
            epoch = self.spans[0].start if self.spans else 0.0
        return [s.to_json(epoch) for s in
                sorted(self.spans, key=lambda s: s.span_id or 0)]


def trace_scope(trace_id: str, collect: bool = False,
                remote_parent: Optional[tuple] = None) -> TraceScope:
    """A context manager scoping *trace_id* to the current thread."""
    return TraceScope(trace_id, collect=collect,
                      remote_parent=remote_parent)


def current_scope() -> Optional[TraceScope]:
    """The thread's active :class:`TraceScope`, or None."""
    return getattr(_TRACE, "scope", None)


def current_span_id() -> Optional[int]:
    """The innermost *open* span's id on this thread, or None.

    This is what cross-process propagation stamps as the parent: work
    handed to another process attaches under whatever span was live at
    the moment of the hand-off.
    """
    stack = getattr(RECORDER._local, "stack", None)
    if stack:
        return stack[-1].span_id
    return None


def reset_inherited_trace_state() -> None:
    """Fork hygiene: drop trace state inherited from the parent process.

    A forked worker inherits the parent's open span stack and active
    trace scope over ``fork``.  Both are bogus in the child — the open
    spans live (and will close) in the *parent*, so any span the worker
    opens would parent under an id that does not exist in its own
    process, detaching its subtree from the cross-process trace.
    Workers call this before opening their own scope.
    """
    RECORDER._local.stack = []
    _TRACE.scope = None


def current_trace() -> Optional[str]:
    """The thread's active trace id, or None outside any scope."""
    scope = getattr(_TRACE, "scope", None)
    return scope.trace_id if scope is not None else None


def trace_note(key: str, value: object) -> None:
    """Attach a note to the active trace scope (no-op outside one)."""
    scope = getattr(_TRACE, "scope", None)
    if scope is not None:
        scope.notes[key] = value


class Span:
    """One timed, named phase; records itself into its recorder on exit."""

    __slots__ = ("recorder", "name", "attrs", "span_id", "parent_id",
                 "depth", "start", "duration", "thread", "error",
                 "trace_id")

    def __init__(self, recorder: "Recorder", name: str, attrs: Dict[str, object]):
        self.recorder = recorder
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.depth = 0
        self.start = 0.0
        self.duration = 0.0
        self.thread = ""
        self.error: Optional[str] = None
        self.trace_id: Optional[str] = None

    def __enter__(self) -> "Span":
        self.span_id = self.recorder._next_id()
        stack = self.recorder._stack()
        if stack:
            self.parent_id = stack[-1].span_id
            self.depth = len(stack)
        stack.append(self)
        scope = getattr(_TRACE, "scope", None)
        if scope is not None:
            self.trace_id = scope.trace_id
        self.thread = threading.current_thread().name
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self.start
        if exc_type is not None:
            self.error = exc_type.__name__
        stack = self.recorder._stack()
        # Defensive: only pop ourselves (mismatched exits must not corrupt
        # sibling bookkeeping).
        if stack and stack[-1] is self:
            stack.pop()
        # A span may exist only because a collecting trace scope asked
        # for it; the global recorder keeps it only while enabled.
        if self.recorder._enabled:
            self.recorder._record(self)
        scope = getattr(_TRACE, "scope", None)
        if scope is not None and scope.collect:
            scope._capture(self)
        return False

    def annotate(self, **attrs) -> None:
        """Attach extra attributes to a live span."""
        self.attrs.update(attrs)

    def to_json(self, epoch: float) -> dict:
        out = {
            "kind": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "start_ms": round((self.start - epoch) * 1000.0, 3),
            "duration_ms": round(self.duration * 1000.0, 6),
            "thread": self.thread,
            "attrs": {k: jsonable(v) for k, v in self.attrs.items()},
            "error": self.error,
        }
        # Additive: only request-scoped spans carry a trace id, so the
        # batch trace schema (golden-pinned key set) is unchanged.
        if self.trace_id is not None:
            out["trace"] = self.trace_id
        return out

    def __repr__(self) -> str:
        return "<Span {} {:.3f}ms>".format(self.name, self.duration * 1000.0)


def jsonable(value):
    """*value* itself if JSON has a scalar for it, else its ``str``."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class Recorder:
    """Collects finished spans; a no-op unless :meth:`enable`\\ d."""

    def __init__(self) -> None:
        self._enabled = False
        self._lock = threading.Lock()
        self._finished: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.epoch = time.perf_counter()

    # -- state ----------------------------------------------------------

    @property
    def is_enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        """Drop recorded spans and restart the clock epoch."""
        with self._lock:
            self._finished = []
            self._ids = itertools.count(1)
            self._local = threading.local()
            self.epoch = time.perf_counter()

    # -- recording ------------------------------------------------------

    def span(self, name: str, **attrs):
        """A context manager timing one phase (no-op when disabled)."""
        if not self._enabled and not _collecting():
            return NULL_SPAN
        return Span(self, name, attrs)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        return next(self._ids)

    def _record(self, span: Span) -> None:
        with self._lock:
            self._finished.append(span)

    # -- reading --------------------------------------------------------

    def spans(self) -> List[Span]:
        """Finished spans, in start order."""
        with self._lock:
            return sorted(self._finished, key=lambda s: s.span_id or 0)

    def roots(self) -> List[Span]:
        return [s for s in self.spans() if s.parent_id is None]

    def children_of(self) -> Dict[Optional[int], List[Span]]:
        """``parent_id -> [children in start order]`` for tree walks."""
        out: Dict[Optional[int], List[Span]] = {}
        for s in self.spans():
            out.setdefault(s.parent_id, []).append(s)
        return out


#: The process-wide recorder all instrumentation records into.
RECORDER = Recorder()


def recorder() -> Recorder:
    """The process-wide :class:`Recorder`."""
    return RECORDER


def _collecting() -> bool:
    """True when the thread's trace scope wants its own span copies."""
    scope = getattr(_TRACE, "scope", None)
    return scope is not None and scope.collect


def span(name: str, **attrs):
    """Module-level shorthand for ``recorder().span(...)``."""
    if not RECORDER._enabled and not _collecting():
        return NULL_SPAN
    return Span(RECORDER, name, attrs)


def enable() -> None:
    RECORDER.enable()


def disable() -> None:
    RECORDER.disable()


def enabled() -> bool:
    return RECORDER._enabled


def reset() -> None:
    RECORDER.reset()
