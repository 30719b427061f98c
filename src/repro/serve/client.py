"""Clients for the serve daemon, plus the ``serve-smoke`` battery.

Two transports, one interface:

* :class:`StdioClient` spawns ``repro serve --stdio`` as a subprocess
  and exchanges JSONL lines over its pipes — what editors and scripts
  embed.
* :class:`HttpClient` POSTs the same payloads to a running daemon's
  ``/v1/query`` using only :mod:`urllib` (no external deps).

Both expose :meth:`query` (one request) and :meth:`batch` (a list, one
round trip).  :func:`run_smoke` is the ``make serve-smoke`` entry: it
boots a daemon with both transports and a differential session manager,
fires a batched query set over stdio *and* HTTP, asserts the transports
agree with each other and with the cold CLI path, and checks clean
shutdown — returning a JSON-able report the CLI prints.
"""

import json
import random
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Callable, List, Optional

from repro.obs import metrics
from repro.obs import sampler as tracing
from repro.qa import chaos
from repro.serve import protocol

#: How long (seconds) smoke waits on daemon subprocess I/O.
SMOKE_TIMEOUT = 120


def _inject_traceparent(payload):
    """Stamp the live trace context onto outgoing request objects.

    Any query sent from inside an active trace scope automatically
    carries a ``traceparent`` (unless the caller already set one), so
    the daemon's spans parent under whatever client span was open at
    send time — propagation is a property of *being traced*, not a
    per-call-site chore.  Returns *payload* (possibly mutated).
    """
    ctx = tracing.current_context()
    if ctx is None:
        return payload
    requests = payload if isinstance(payload, list) else [payload]
    for request in requests:
        if isinstance(request, dict) and "traceparent" not in request:
            request["traceparent"] = ctx.header()
    return payload

#: Default program for the smoke battery: small, but with a real type
#: hierarchy, fields, an array and a VAR formal, so all three analyses
#: and both worlds produce distinct, non-trivial counts.
SMOKE_SOURCE = """
MODULE ServeSmoke;

TYPE
  T = OBJECT f: T; n: INTEGER; END;
  S = T OBJECT g: T; END;
  Buf = REF ARRAY OF INTEGER;

VAR
  root: T;
  buf: Buf;

PROCEDURE Bump (VAR x: INTEGER) =
BEGIN
  x := x + 1;
END Bump;

PROCEDURE Link (a: T; b: S) =
BEGIN
  a.f := b;
  b.g := a.f;
  Bump (a.n);
END Link;

BEGIN
  root := NEW (S);
  buf := NEW (Buf, 4);
  buf^[0] := 1;
  Link (root, NEW (S));
END ServeSmoke.
"""


class ServeClientError(RuntimeError):
    """Transport-level failure talking to a daemon."""


class CircuitOpenError(ServeClientError):
    """The circuit breaker refused the call (daemon looks down)."""


class RetryPolicy:
    """Exponential backoff with seeded jitter.

    ``delay(attempt)`` is the sleep before retry *attempt* (0-based):
    ``base_delay * multiplier**attempt`` capped at ``max_delay``, scaled
    by a jitter factor in ``[0.5, 1.0]`` drawn from a seeded stream so
    chaos runs replay the exact same schedule.
    """

    def __init__(self, max_attempts: int = 5, base_delay: float = 0.05,
                 max_delay: float = 2.0, multiplier: float = 2.0,
                 seed: int = 0):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.multiplier = multiplier
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def delay(self, attempt: int) -> float:
        base = min(self.max_delay,
                   self.base_delay * self.multiplier ** attempt)
        with self._lock:
            return base * (0.5 + 0.5 * self._rng.random())


class CircuitBreaker:
    """Classic three-state breaker over daemon calls.

    *closed* passes everything; ``failure_threshold`` consecutive
    failures open it; while *open*, calls are refused without touching
    the network until ``reset_timeout`` has passed, after which one
    probe call is let through (*half-open*) — its success closes the
    breaker, its failure re-opens it for another full timeout.
    """

    def __init__(self, failure_threshold: int = 5,
                 reset_timeout: float = 1.0):
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if self._probing:
                return "half-open"
            return "open"

    def allow(self) -> bool:
        with self._lock:
            if self._opened_at is None:
                return True
            if self._probing:
                return False  # one probe at a time
            if time.monotonic() - self._opened_at >= self.reset_timeout:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._probing or self._failures >= self.failure_threshold:
                self._opened_at = time.monotonic()
                self._probing = False


class StdioClient:
    """Drive a ``repro serve --stdio`` subprocess over JSONL pipes.

    *env* overrides the child's environment (e.g. the cross-process
    chaos battery exports ``REPRO_CHAOS_PLAN`` so the subprocess daemon
    arms the same fault plan this process planned).
    """

    def __init__(self, argv: Optional[List[str]] = None,
                 cache_dir: Optional[str] = None,
                 env: Optional[dict] = None):
        cmd = list(argv) if argv else [
            sys.executable, "-m", "repro.cli", "serve", "--stdio"]
        if cache_dir:
            cmd += ["--cache-dir", cache_dir]
        self._proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=env)

    def _roundtrip(self, payload) -> object:
        if self._proc.poll() is not None:
            raise ServeClientError("daemon exited early (rc={})".format(
                self._proc.returncode))
        payload = _inject_traceparent(payload)
        self._proc.stdin.write(json.dumps(payload) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise ServeClientError("daemon closed the pipe")
        return json.loads(line)

    def query(self, request: dict) -> dict:
        return self._roundtrip(request)

    def batch(self, requests: List[dict]) -> List[dict]:
        return self._roundtrip(list(requests))

    def shutdown(self) -> int:
        """Request shutdown and reap the subprocess."""
        try:
            if self._proc.poll() is None:
                self._roundtrip({"op": "shutdown"})
        except (ServeClientError, BrokenPipeError, OSError):
            pass
        try:
            self._proc.stdin.close()
            return self._proc.wait(timeout=SMOKE_TIMEOUT)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            return self._proc.wait()

    def __enter__(self) -> "StdioClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False


class HttpClient:
    """Talk to a daemon's localhost HTTP shim."""

    def __init__(self, port: int, host: str = "127.0.0.1"):
        self.base = "http://{}:{}".format(host, port)

    def _post(self, payload) -> object:
        data = json.dumps(_inject_traceparent(payload)).encode()
        req = urllib.request.Request(
            self.base + "/v1/query", data=data,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=SMOKE_TIMEOUT) as resp:
                return json.loads(resp.read().decode())
        except (urllib.error.URLError, OSError) as err:
            raise ServeClientError("HTTP query failed: {}".format(err))

    def query(self, request: dict) -> dict:
        return self._post(request)

    def batch(self, requests: List[dict]) -> List[dict]:
        return self._post(list(requests))

    def ping(self) -> dict:
        try:
            with urllib.request.urlopen(
                    self.base + "/v1/ping", timeout=SMOKE_TIMEOUT) as resp:
                return json.loads(resp.read().decode())
        except (urllib.error.URLError, OSError) as err:
            raise ServeClientError("HTTP ping failed: {}".format(err))

    def get(self, path: str) -> str:
        """Raw GET of a daemon endpoint (``/v1/metrics``, ...)."""
        try:
            with urllib.request.urlopen(
                    self.base + path, timeout=SMOKE_TIMEOUT) as resp:
                return resp.read().decode("utf-8")
        except (urllib.error.URLError, OSError) as err:
            raise ServeClientError("HTTP GET {} failed: {}".format(path, err))

    def metrics_text(self) -> str:
        """The live ``/v1/metrics`` Prometheus exposition body."""
        return self.get("/v1/metrics")

    def requests_snapshot(self, limit: Optional[int] = None) -> dict:
        """The ``/v1/requests`` journal snapshot."""
        path = "/v1/requests"
        if limit is not None:
            path += "?limit={}".format(int(limit))
        return json.loads(self.get(path))


class ResilientHttpClient:
    """Self-healing HTTP client: retries + backoff + circuit breaker.

    Every call goes through the same loop: the breaker gates it, a
    transport failure (or a chaos-injected ``client.drop``) records a
    failure, sleeps the policy's jittered backoff and retries.  A
    daemon killed mid-request therefore leaves the client *retrying*,
    and a restart on the same port heals it transparently — which is
    exactly what the ``client-drop`` chaos plan asserts.

    Counters: ``serve.client.retries`` per retried failure,
    ``serve.client.breaker_open`` per breaker refusal.
    """

    def __init__(self, port: int, host: str = "127.0.0.1",
                 policy: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None):
        self._client = HttpClient(port, host)
        self.policy = policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()

    def _call(self, fn: Callable, *args) -> object:
        registry = metrics.registry()
        last: Optional[ServeClientError] = None
        for attempt in range(self.policy.max_attempts):
            if not self.breaker.allow():
                registry.counter("serve.client.breaker_open").inc()
                last = CircuitOpenError(
                    "circuit breaker is open (last error: {})".format(last))
            else:
                try:
                    if chaos.fire("client.drop", attempt=attempt) is not None:
                        raise ServeClientError(
                            "chaos: connection dropped before send")
                    result = fn(*args)
                except ServeClientError as err:
                    self.breaker.record_failure()
                    last = err
                else:
                    self.breaker.record_success()
                    return result
            if attempt + 1 < self.policy.max_attempts:
                registry.counter("serve.client.retries").inc()
                time.sleep(self.policy.delay(attempt))
        raise last if last is not None else ServeClientError("no attempts")

    def query(self, request: dict) -> dict:
        return self._call(self._client.query, request)

    def batch(self, requests: List[dict]) -> List[dict]:
        return self._call(self._client.batch, list(requests))

    def ping(self) -> dict:
        return self._call(self._client.ping)


# ----------------------------------------------------------------------
# The serve-smoke battery


def _smoke_requests(source: str) -> List[dict]:
    """The batched query set smoke fires over each transport."""
    requests: List[dict] = [{"op": "ping", "id": "ping"}]
    for open_world in (False, True):
        requests.append({
            "op": "tables", "id": "tables-ow{}".format(int(open_world)),
            "source": source, "name": "smoke",
            "open_world": open_world,
        })
    requests.append({
        "op": "tables", "id": "tables-both",
        "source": source, "name": "smoke", "worlds": "both",
    })
    requests.append(
        {"op": "facts", "id": "facts", "source": source, "name": "smoke"})
    return requests


def _assert_worlds_rows(responses: List[dict]) -> None:
    """The ``worlds: both`` rows must be exactly the closed rows
    followed by the open rows — all six configurations, pinned."""
    by_id = {resp.get("id"): resp for resp in responses}
    closed = by_id["tables-ow0"]["result"]["rows"]
    open_ = by_id["tables-ow1"]["result"]["rows"]
    both = by_id["tables-both"]["result"]["rows"]
    if both != closed + open_:
        raise AssertionError(
            "worlds=both rows disagree with per-world tables: {} vs {}"
            .format(both, closed + open_))


def _assert_ok(responses: List[dict], transport: str) -> None:
    for resp in responses:
        if not resp.get("ok"):
            raise AssertionError("smoke {} response failed: {}".format(
                transport, resp))


def _table_rows(responses: List[dict]) -> List[dict]:
    return [resp["result"] for resp in responses
            if resp.get("ok") and "rows" in resp.get("result", {})]


def run_smoke(source: str, cache_dir: str) -> dict:
    """Boot a daemon in-process, exercise both transports, verify.

    The in-process daemon runs with ``differential=True`` so every
    served count is already pinned against the cold fast + reference
    engines; smoke additionally pins the stdio subprocess transport
    against the in-process HTTP answers.
    """
    from pathlib import Path

    from repro.serve.daemon import Daemon
    from repro.serve.factcache import FactStore
    from repro.serve.session import SessionManager

    requests = _smoke_requests(source)

    # HTTP transport against an in-process daemon (differential mode).
    manager = SessionManager(
        store=FactStore(Path(cache_dir) / "http"), differential=True)
    daemon = Daemon(manager)
    port = daemon.start_http()
    try:
        http_client = HttpClient(port)
        ping = http_client.ping()
        http_responses = http_client.batch(requests)
        _assert_ok(http_responses, "http")
        _assert_worlds_rows(http_responses)
        # Second pass must be answered warm (no new fact rebuilds).
        http_warm = http_client.batch(requests)
        _assert_ok(http_warm, "http-warm")
    finally:
        daemon.stop_http()

    # Stdio transport against a real subprocess daemon.
    with StdioClient(cache_dir=str(Path(cache_dir) / "stdio")) as stdio:
        stdio_responses = stdio.batch(requests)
        _assert_ok(stdio_responses, "stdio")
        rc = stdio.shutdown()
    if rc != 0:
        raise AssertionError(
            "daemon did not shut down cleanly (rc={})".format(rc))

    # Transport agreement: identical Table 5 rows everywhere.
    http_rows = _table_rows(http_responses)
    if _table_rows(stdio_responses) != http_rows:
        raise AssertionError("stdio and HTTP transports disagree")
    if _table_rows(http_warm) != http_rows:
        raise AssertionError("warm answers drifted from cold answers")

    return {
        "ok": True,
        "ping": ping.get("result", {}),
        "queries_per_transport": len(requests),
        "table_rows": sum(len(r["rows"]) for r in http_rows),
        "differential_checks": manager.stats()["counters"][
            "serve.differential.checks"],
        "clean_shutdown": True,
    }


# ----------------------------------------------------------------------
# Debug span trees and the obs-smoke battery


def format_span_tree(spans: List[dict]) -> str:
    """Render a ``debug: true`` response's span list as an indented tree.

    Spans arrive as JSON objects in start order with ``depth`` already
    computed by the daemon's per-thread span stack, so rendering is a
    straight walk — used by ``repro client --debug``.
    """
    if not spans:
        return "(no spans collected)"
    lines: List[str] = []
    for span in spans:
        indent = "  " * int(span.get("depth", 0))
        attrs = span.get("attrs") or {}
        attr_text = ""
        if attrs:
            attr_text = "  [{}]".format(", ".join(
                "{}={}".format(k, v) for k, v in sorted(attrs.items())))
        error = span.get("error")
        lines.append("{}{:<{}} {:>9.3f} ms{}{}".format(
            indent, span.get("name", "?"), max(1, 36 - len(indent)),
            float(span.get("duration_ms", 0.0)), attr_text,
            "  ERROR={}".format(error) if error else ""))
    return "\n".join(lines)


def run_obs_smoke(source: str, cache_dir: str) -> dict:
    """The ``make obs-smoke`` battery: live observability end to end.

    Boots an in-process daemon with an access log and ``slow_ms=0`` (so
    every request logs), fires traced + debug queries over HTTP, then
    checks the whole observability surface: the client-chosen trace id
    comes back in the response, on every collected span, in
    ``/v1/requests`` and in the access-log JSONL (validated line by
    line); ``/v1/metrics`` passes the promtool-style self-lint and
    carries the quantile gauges + SLO counters; and ``repro top --once``
    renders a frame from the live daemon in a subprocess.
    """
    from pathlib import Path

    from repro.obs import promlint
    from repro.obs.reqlog import validate_access_line
    from repro.serve.daemon import Daemon
    from repro.serve.factcache import FactStore
    from repro.serve.session import SessionManager

    access_log = str(Path(cache_dir) / "access.jsonl")
    manager = SessionManager(store=FactStore(Path(cache_dir) / "facts"))
    daemon = Daemon(manager, slo_ms=5000.0, slow_ms=0.0,
                    access_log_path=access_log)
    port = daemon.start_http()
    trace_id = "obs-smoke-trace"
    try:
        client = HttpClient(port)
        debug_resp = client.query({
            "op": "tables", "id": "dbg", "source": source, "name": "smoke",
            "trace_id": trace_id, "debug": True})
        if not debug_resp.get("ok"):
            raise AssertionError("debug query failed: {}".format(debug_resp))
        if debug_resp.get("trace") != trace_id:
            raise AssertionError("response did not echo the trace id: {}"
                                 .format(debug_resp.get("trace")))
        spans = debug_resp.get("spans") or []
        if not spans:
            raise AssertionError("debug response collected no spans")
        off_trace = [s for s in spans if s.get("trace") != trace_id]
        if off_trace:
            raise AssertionError(
                "spans missing the trace id: {}".format(off_trace[:3]))
        # A couple of untraced warm queries so quantiles/journal move.
        warm = client.batch([
            {"op": "ping", "id": "p"},
            {"op": "alias", "id": "a", "source": source, "name": "smoke"},
        ])
        _assert_ok(warm, "obs-warm")

        metrics_body = client.metrics_text()
        promlint.check(metrics_body, source="/v1/metrics")
        for needle in ("repro_serve_request_ms_p50",
                       "repro_serve_request_ms_p95",
                       "repro_serve_request_ms_p99",
                       "repro_serve_slo_ok",
                       "repro_serve_slo_burn_rate_5m",
                       "repro_serve_slo_burn_rate_1h"):
            if needle not in metrics_body:
                raise AssertionError(
                    "/v1/metrics is missing {}".format(needle))

        # The stats op carries the windowed burn snapshot (rates,
        # quantiles, slowest-trace exemplars).
        stats = client.query({"op": "stats", "id": "burn"})
        if not stats.get("ok"):
            raise AssertionError("stats query failed: {}".format(stats))
        slo_burn = stats["result"].get("slo_burn") or {}
        for window in ("5m", "1h"):
            if window not in slo_burn:
                raise AssertionError(
                    "stats slo_burn is missing the {} window: {}".format(
                        window, sorted(slo_burn)))
        if not slo_burn["5m"]["requests"]:
            raise AssertionError(
                "slo_burn 5m window saw no requests: {}".format(slo_burn))

        journal = client.requests_snapshot()
        journal_traces = [r["trace"] for r in journal["requests"]]
        if trace_id not in journal_traces:
            raise AssertionError(
                "/v1/requests does not list trace {} (saw {})".format(
                    trace_id, journal_traces))

        # `repro top --once` renders one frame against the live daemon.
        top = subprocess.run(
            [sys.executable, "-m", "repro.cli", "-q", "top",
             "--port", str(port), "--once"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=SMOKE_TIMEOUT)
        if top.returncode != 0:
            raise AssertionError("repro top --once failed: {}".format(
                top.stderr.strip()))
        if "req/s" not in top.stdout:
            raise AssertionError(
                "repro top --once rendered no dashboard:\n" + top.stdout)
    finally:
        daemon.stop_http()

    access_lines = Path(access_log).read_text().splitlines()
    if not access_lines:
        raise AssertionError("access log is empty")
    logged_traces = []
    for line in access_lines:
        obj = validate_access_line(line)
        logged_traces.append(obj["trace"])
    if trace_id not in logged_traces:
        raise AssertionError(
            "access log has no line for trace {} (saw {})".format(
                trace_id, logged_traces))

    return {
        "ok": True,
        "trace_id": trace_id,
        "spans_collected": len(spans),
        "metrics_bytes": len(metrics_body),
        "journal_total": journal["total"],
        "access_log_lines": len(access_lines),
        "top_rendered": True,
    }


# ----------------------------------------------------------------------
# The trace-smoke battery: continuous tracing end to end


def run_trace_smoke(source: str, cache_dir: str) -> dict:
    """The ``make trace-smoke`` battery (DESIGN.md §6k).

    One trace, three kinds of process: this client opens a collecting
    trace scope and, under it, (1) fires a batch at a **subprocess**
    stdio daemon started with ``--trace-sample-rate 1 --trace-store``,
    and (2) drives a small sharded corpus run over a 2-worker forked
    pool with the context exported via ``REPRO_TRACEPARENT``.  Then it
    reads the trace store back and asserts the whole point of the
    subsystem: the client, daemon and corpus-worker records merge into
    a **single parent-linked tree**, and the ``repro trace ls / show /
    top`` CLI reconstructs it from disk in yet another process.
    """
    import os
    from pathlib import Path

    from repro.obs import core as obs
    from repro.obs.tracestore import TraceStore, make_record
    from repro.obs.traceview import merge_trace, render_trace
    from repro.qa.corpus import CorpusSpec, generate_corpus, run_corpus

    store_dir = Path(cache_dir) / "traces"
    store = TraceStore(store_dir)
    corpus_dir = Path(cache_dir) / "corpus"
    generate_corpus(CorpusSpec(seed=0, count=8, shard_size=4,
                               max_stmts=10), corpus_dir)
    trace_id = "trace-smoke"
    requests = _smoke_requests(source)

    daemon_argv = [
        sys.executable, "-m", "repro.cli", "serve", "--stdio",
        "--trace-sample-rate", "1", "--trace-store", str(store_dir),
    ]
    saved_env = {key: os.environ.get(key)
                 for key in (tracing.TRACEPARENT_ENV,
                             tracing.TRACE_STORE_ENV)}
    started = time.perf_counter()
    scope = obs.trace_scope(trace_id, collect=True)
    try:
        with scope, obs.span("client.trace_smoke"):
            with obs.span("client.query", op="batch"):
                with StdioClient(
                        argv=daemon_argv,
                        cache_dir=str(Path(cache_dir) / "facts")) as stdio:
                    responses = stdio.batch(requests)
                    rc = stdio.shutdown()
            _assert_ok(responses, "trace-smoke")
            if rc != 0:
                raise AssertionError(
                    "traced daemon did not shut down cleanly (rc={})"
                    .format(rc))
            off_trace = [r for r in responses if r.get("trace") != trace_id]
            if off_trace:
                raise AssertionError(
                    "daemon did not adopt the propagated trace id: {}"
                    .format(off_trace[:2]))
            with obs.span("client.corpus", jobs=2):
                # Export the *current* context (parent span =
                # client.corpus) so the forked pool workers attach
                # their records under it.
                tracing.export_context(tracing.current_context(),
                                       store_dir=str(store_dir))
                report = run_corpus(corpus_dir, jobs=2)
            if report.failures or report.quarantined:
                raise AssertionError(
                    "traced corpus run failed: {} failures, {} "
                    "quarantined".format(len(report.failures),
                                         len(report.quarantined)))
    finally:
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    total_ms = (time.perf_counter() - started) * 1000.0
    if not store.append(make_record(scope, origin="client",
                                    op="trace-smoke", ms=total_ms,
                                    ok=True)):
        raise AssertionError("client trace record failed to flush")

    # -- the cross-process tree, reconstructed from the store ----------
    records = store.trace(trace_id)
    origins = {r["origin"] for r in records}
    procs = {r["proc"] for r in records}
    for needed in ("client", "daemon", "corpus-worker"):
        if needed not in origins:
            raise AssertionError(
                "store has no {} record for the trace (origins: {})"
                .format(needed, sorted(origins)))
    if len(procs) < 3:
        raise AssertionError(
            "expected >= 3 distinct processes in the trace, got {}"
            .format(sorted(procs)))
    roots = merge_trace(records)
    if len(roots) != 1 or roots[0].detached:
        raise AssertionError(
            "trace did not merge into a single parent-linked tree: "
            "{} roots ({} detached)".format(
                len(roots), sum(r.detached for r in roots)))
    rendered = render_trace(trace_id, records)
    for span_name in ("client.trace_smoke", "serve.request.tables",
                      "corpus.shard.worker"):
        if span_name not in rendered:
            raise AssertionError(
                "rendered tree is missing {!r}:\n{}".format(
                    span_name, rendered))

    # -- the repro trace CLI, in its own process -----------------------
    cli_outputs = {}
    for argv, needle in (
            (["trace", "ls", "--store", str(store_dir)], trace_id),
            (["trace", "show", trace_id, "--store", str(store_dir)],
             "corpus.shard.worker"),
            (["trace", "top", "--by", "phase", "--store", str(store_dir)],
             "serve.request.tables"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "-q"] + argv,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=SMOKE_TIMEOUT)
        label = " ".join(argv[:2])
        if proc.returncode != 0:
            raise AssertionError("repro {} failed: {}".format(
                label, proc.stderr.strip()))
        if needle not in proc.stdout:
            raise AssertionError(
                "repro {} output is missing {!r}:\n{}".format(
                    label, needle, proc.stdout))
        cli_outputs[label] = len(proc.stdout.splitlines())

    return {
        "ok": True,
        "trace_id": trace_id,
        "records": len(records),
        "origins": sorted(origins),
        "processes": len(procs),
        "single_root": True,
        "corpus_shards": len(report.shards),
        "cli_lines": cli_outputs,
    }
