"""The serving daemon's request ring and slow-request access log.

:class:`RequestRing` is the daemon's one store of per-request outcomes:
a count-bounded, lock-protected ring of :class:`RequestRecord`\\ s (op,
trace id, unit, wall milliseconds, ok/error kind, cache outcome, wall
and monotonic timestamps), appended once per request by
:meth:`Daemon.handle_request` in O(1).  Everything else is computed on
read, from the records inside each sliding window:

* :meth:`RequestRing.snapshot` — ``GET /v1/requests``: the newest
  records (256 unless asked otherwise) and the count of every request;
* :meth:`RequestRing.burn` — ``stats``' ``slo_burn``: per window, the
  request and breach counts, the **burn rate** (the fraction of
  requests that breached the latency objective: 1.0 = the whole error
  budget burning, 0.0 = healthy), exact p50/p95/p99 and the slowest
  requests' trace ids as exemplars, so a hot window links straight to
  the stored traces that explain it (``repro trace show``);
* :meth:`RequestRing.publish` — the ``serve.slo.burn_rate_{5m,1h}``
  gauges and the per-op ``serve.request.ms.p50/p95/p99`` gauges (exact
  over the longest window), set just before ``/v1/metrics`` renders.

Windows default to 5 minutes and 1 hour, the classic fast/slow
burn-alert pair.  Windowed numbers are what a live dashboard needs: a
daemon that breached heavily an hour ago and is healthy now must not
look like one melting down right now.  The ring prunes by count only,
so an idle daemon still lists its last requests; records older than a
window just fall outside it.

:class:`AccessLog` is a structured JSONL log of *slow* requests (wall
time over ``--slow-ms``), deterministically sampled (every Nth slow
request) so a latency storm cannot turn the log into the bottleneck.
One JSON object per line, schema pinned by :data:`ACCESS_LOG_KEYS` and
checked by :func:`validate_access_line` (the obs-smoke battery runs it
over the file a live daemon wrote).  It never raises into the request
path: a failed write increments ``serve.accesslog.errors`` and serving
continues.
"""

import itertools
import json
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import metrics

__all__ = ["RequestRecord", "RequestRing", "AccessLog",
           "validate_access_line", "ACCESS_LOG_KEYS", "DEFAULT_WINDOWS"]

#: ``(label, seconds)`` sliding windows: the fast/slow burn pair.
DEFAULT_WINDOWS: Tuple[Tuple[str, float], ...] = (("5m", 300.0),
                                                  ("1h", 3600.0))

#: Ring capacity: records beyond this are dropped oldest-first even if
#: still inside the longest window (bounded memory beats exactness).
DEFAULT_RING_SIZE = 8192

#: Records ``GET /v1/requests`` returns unless asked for a limit.
RECENT_LIMIT = 256

#: Exemplars reported per window: the slowest requests' trace ids.
EXEMPLARS = 3

#: Quantiles reported per window and per op (exact over the records).
QUANTILES = (0.5, 0.95, 0.99)

#: Required keys of one access-log JSONL line.
ACCESS_LOG_KEYS = ("ts", "trace", "op", "unit", "ms", "ok", "error",
                   "cache", "slow")


class RequestRecord:
    """One served request."""

    __slots__ = ("op", "trace_id", "unit", "ms", "ok", "error_kind",
                 "cache", "ts", "t")

    def __init__(self, op: str, trace_id: Optional[str],
                 unit: Optional[str], ms: float, ok: bool,
                 error_kind: Optional[str], cache: Optional[str],
                 ts: float, t: float):
        self.op = op
        self.trace_id = trace_id
        self.unit = unit
        self.ms = ms
        self.ok = ok
        self.error_kind = error_kind
        #: Session-cache outcome for source ops: hit/restore/build/None.
        self.cache = cache
        #: Wall-clock seconds, for people and logs.
        self.ts = ts
        #: Monotonic seconds, for the sliding windows.
        self.t = t

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "trace": self.trace_id,
            "unit": self.unit,
            "ms": round(self.ms, 3),
            "ok": self.ok,
            "error": self.error_kind,
            "cache": self.cache,
            "ts": round(self.ts, 3),
        }


class RequestRing:
    """Count-bounded ring of recent requests; windows rolled up on read."""

    def __init__(self, slo_ms: float,
                 windows: Sequence[Tuple[str, float]] = DEFAULT_WINDOWS,
                 size: int = DEFAULT_RING_SIZE,
                 clock: Callable[[], float] = time.monotonic):
        self.slo_ms = slo_ms
        self.windows = tuple(windows)
        if not self.windows:
            raise ValueError("RequestRing needs at least one window")
        self._clock = clock
        self._lock = threading.Lock()
        self._ring: "deque[RequestRecord]" = deque(maxlen=max(1, size))
        self._total = 0

    def observe(self, ms: float, ok: bool = True,
                trace_id: Optional[str] = None, op: str = "?",
                unit: Optional[str] = None,
                error_kind: Optional[str] = None,
                cache: Optional[str] = None) -> RequestRecord:
        """Append one finished request; returns its record.  O(1)."""
        record = RequestRecord(op, trace_id, unit, float(ms), ok,
                               error_kind, cache, now(), self._clock())
        with self._lock:
            self._ring.append(record)
            self._total += 1
        return record

    @property
    def total(self) -> int:
        """Requests ever observed (ring evictions included)."""
        with self._lock:
            return self._total

    def snapshot(self, limit: Optional[int] = None) -> dict:
        """The ``GET /v1/requests`` payload (newest 256 by default)."""
        with self._lock:
            total = self._total
            records = list(itertools.islice(
                reversed(self._ring),
                RECENT_LIMIT if limit is None else limit))
        return {"total": total,
                "requests": [r.to_json() for r in records]}

    def _rollup(self) -> List[Tuple[str, float, List[RequestRecord]]]:
        """``(label, seconds, records)`` per window: the one rollup
        every windowed read starts from."""
        now_t = self._clock()
        with self._lock:
            records = list(self._ring)
        return [(label, seconds,
                 [r for r in records if r.t >= now_t - seconds])
                for label, seconds in self.windows]

    def _breaches(self, records: List[RequestRecord]) -> int:
        """Breaching requests: over the objective, or a typed error (a
        fast wrong answer still burns budget)."""
        return sum(1 for r in records if not r.ok or r.ms > self.slo_ms)

    def burn(self) -> Dict[str, dict]:
        """Per-window rollup: counts, burn rate, quantiles, exemplars."""
        out: Dict[str, dict] = {}
        for label, seconds, window in self._rollup():
            breaches = self._breaches(window)
            slowest = sorted(window, key=lambda r: -r.ms)[:EXEMPLARS]
            out[label] = {
                "seconds": seconds,
                "requests": len(window),
                "breaches": breaches,
                "burn_rate": (round(breaches / len(window), 4)
                              if window else None),
                "quantiles_ms": _quantiles([r.ms for r in window]),
                "slowest": [{"trace": r.trace_id, "ms": round(r.ms, 3)}
                            for r in slowest],
            }
        return out

    def publish(self) -> None:
        """Set the burn-rate gauges (0 for an empty window) and, per op
        seen in the longest window, its exact latency-quantile gauges."""
        registry = metrics.registry()
        windows = self._rollup()
        for label, _seconds, window in windows:
            rate = self._breaches(window) / len(window) if window else 0.0
            registry.gauge("serve.slo.burn_rate_" + label).set(
                round(rate, 4))
        by_op: Dict[str, List[float]] = {}
        for r in max(windows, key=lambda w: w[1])[2]:
            by_op.setdefault(r.op, []).append(r.ms)
        for op, values in by_op.items():
            for name, value in _quantiles(values).items():
                registry.gauge("serve.request.ms." + name, op=op).set(value)


def _quantiles(values: List[float]) -> Dict[str, Optional[float]]:
    """``{"p50": .., "p95": .., "p99": ..}``: linear-interpolated exact
    quantiles of *values*, rounded to the microsecond (None if empty)."""
    ordered = sorted(values)
    out: Dict[str, Optional[float]] = {}
    for q in QUANTILES:
        value = None
        if ordered:
            rank = q * (len(ordered) - 1)
            lo = int(rank)
            hi = min(lo + 1, len(ordered) - 1)
            frac = rank - lo
            value = round(ordered[lo] * (1.0 - frac) + ordered[hi] * frac,
                          3)
        out["p{}".format(int(round(q * 100)))] = value
    return out


class AccessLog:
    """Sampled JSONL log of slow requests (``--slow-ms``)."""

    def __init__(self, path: str, slow_ms: float, sample: int = 1):
        self.path = path
        self.slow_ms = slow_ms
        #: Log every Nth slow request (1 = all); deterministic counter
        #: based so tests and replays see the same lines.
        self.sample = max(1, sample)
        self._lock = threading.Lock()
        self._slow_seen = 0

    def maybe_log(self, record: RequestRecord) -> bool:
        """Write *record* if slow and selected by sampling; True if written."""
        if record.ms < self.slow_ms:
            return False
        with self._lock:
            self._slow_seen += 1
            if (self._slow_seen - 1) % self.sample != 0:
                metrics.registry().counter("serve.accesslog.sampled_out").inc()
                return False
            line = json.dumps(dict(record.to_json(), slow=True),
                              sort_keys=True)
            try:
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")
            except OSError:
                # Logging must never fail a request.
                metrics.registry().counter("serve.accesslog.errors").inc()
                return False
        metrics.registry().counter("serve.accesslog.lines").inc()
        return True


def validate_access_line(line: str) -> dict:
    """Validate one access-log JSONL line; returns the decoded object.

    Raises ValueError with a precise message on any violation — the
    obs-smoke battery runs this over every line a live daemon wrote.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as err:
        raise ValueError("not JSON: {}".format(err))
    if not isinstance(obj, dict):
        raise ValueError("line must be a JSON object")
    missing = [k for k in ACCESS_LOG_KEYS if k not in obj]
    if missing:
        raise ValueError("missing keys: {}".format(", ".join(missing)))
    if not isinstance(obj["trace"], str) or not obj["trace"]:
        raise ValueError("'trace' must be a non-empty string")
    if not isinstance(obj["op"], str):
        raise ValueError("'op' must be a string")
    if not isinstance(obj["ms"], (int, float)):
        raise ValueError("'ms' must be a number")
    if not isinstance(obj["ok"], bool):
        raise ValueError("'ok' must be a boolean")
    if obj["slow"] is not True:
        raise ValueError("'slow' must be true in the access log")
    return obj


def now() -> float:
    """Wall-clock seconds (split out so tests can monkeypatch)."""
    return time.time()
