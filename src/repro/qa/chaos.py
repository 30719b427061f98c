"""Deterministic, seeded fault injection: the ``repro chaos`` harness.

The paper's value proposition is soundness — a wrong may-alias bit
miscompiles the program — so the serving stack must keep returning
*correct* answers (or clean, typed errors) when the infrastructure
around it misbehaves.  This module turns infrastructure faults into
routine, reproducible inputs:

* **Injection points** are named seams registered in :data:`POINTS` and
  compiled into the stack (fact-store I/O, partition corruption,
  session compiles, slow request handlers, corpus-worker kills,
  client-visible connection drops).  Each site calls :func:`fire`,
  which is a single ``is None`` check when no plan is armed — the
  production hot path pays nothing.
* A :class:`FaultPlan` declares *which* points fire and *when*: per-rule
  probability, trigger counts, skip-first-N, and exact context matching
  (e.g. only shard 1, only attempt 0).  Every rule draws from its own
  ``random.Random`` stream derived from ``(plan seed, rule index,
  point)``, so firing decisions are deterministic per point and
  independent of interleaving across points.
* :func:`run_chaos` drives the serve daemon or the corpus pipeline
  under a named plan and asserts the core invariant: **every answer
  that leaves the system is differential-pinned correct, or a typed
  error — never silently wrong, never a crash.**

Effects are *realistic* faults, not bespoke exceptions: fact-store
points raise :class:`InjectedIOError` (an ``OSError``), compile points
raise :class:`InjectedFault` (a ``RuntimeError``), slow handlers sleep
in small increments that poll the active :mod:`repro.qa.guards`
deadline (so per-request deadlines fire exactly as they would against a
genuinely hung handler), and corpus-worker kills call ``os._exit`` —
the same signal-free death a OOM-killed worker produces.

Plans cross process boundaries two ways: forked corpus workers inherit
the armed plan through module state, and subprocess daemons pick it up
from the ``REPRO_CHAOS_PLAN`` environment variable on first ``fire``.

Counters: every firing bumps ``chaos.injected`` labelled by point (plus
the unlabelled total), so chaos runs are observable like any workload.
"""

import hashlib
import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs import metrics

__all__ = [
    "POINTS",
    "ChaosPoint",
    "FaultRule",
    "FaultPlan",
    "InjectedFault",
    "InjectedIOError",
    "active_plan",
    "install_plan",
    "clear_plan",
    "armed",
    "fire",
    "built_in_plans",
    "plan_spec",
    "run_chaos",
    "register_metrics",
]

#: Environment variable carrying a JSON-encoded plan into subprocesses.
PLAN_ENV_VAR = "REPRO_CHAOS_PLAN"


class InjectedFault(RuntimeError):
    """A chaos-injected internal failure (compile crash, handler bug)."""


class InjectedIOError(OSError):
    """A chaos-injected I/O failure (disk error, unreadable partition)."""


@dataclass(frozen=True)
class ChaosPoint:
    """One named injection seam and the fault it simulates."""

    name: str
    effect: str  # "io_error" | "error" | "sleep" | "exit" | "mark"
    description: str


#: Every injection point compiled into the stack.  ``mark`` effects
#: return the fired rule to the call site, which applies a
#: site-specific corruption (e.g. truncating a partition file) that the
#: production code must then survive.
POINTS: Dict[str, ChaosPoint] = {
    point.name: point
    for point in (
        ChaosPoint("factstore.load", "io_error",
                   "FactStore.load raises OSError (disk read failure)"),
        ChaosPoint("factstore.store", "io_error",
                   "FactStore.store raises OSError (disk write failure)"),
        ChaosPoint("factstore.corrupt", "mark",
                   "partition bytes are truncated mid-byte before a read"),
        ChaosPoint("session.compile", "error",
                   "SessionManager's cold compile dies mid-build"),
        ChaosPoint("daemon.handler", "sleep",
                   "request handler stalls (deadline-polling sleep, "
                   "arg = seconds)"),
        ChaosPoint("client.drop", "mark",
                   "client-visible connection drop before the request "
                   "reaches the daemon"),
        ChaosPoint("corpus.worker_kill", "exit",
                   "forked corpus worker dies mid-shard via os._exit "
                   "(arg = exit code)"),
        ChaosPoint("corpus.shard_hang", "sleep",
                   "corpus shard hangs (plain sleep, arg = seconds)"),
        ChaosPoint("history.append", "mark",
                   "a bench-ledger append is torn mid-line (writer died "
                   "mid-write); readers must skip it"),
        ChaosPoint("tracestore.append", "mark",
                   "a trace-store segment append is torn mid-line "
                   "(writer died mid-write); readers must skip it and "
                   "serving must not degrade"),
    )
}


@dataclass(frozen=True)
class FaultRule:
    """When one injection point fires.

    ``probability`` draws from the rule's own seeded stream;
    ``times``/``after`` bound and offset firings by eligible encounter
    count; ``match`` restricts to call sites whose context kwargs equal
    the given strings (e.g. ``{"shard": "1", "attempt": "0"}``);
    ``arg`` parameterises the effect (sleep seconds, exit code).
    """

    point: str
    probability: float = 1.0
    times: Optional[int] = None
    after: int = 0
    arg: Optional[float] = None
    match: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.point not in POINTS:
            raise ValueError("unknown injection point {!r}; known: {}".format(
                self.point, sorted(POINTS)))
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        # Accept a plain dict for convenience; store a hashable tuple.
        if isinstance(self.match, dict):
            object.__setattr__(
                self, "match",
                tuple(sorted((str(k), str(v)) for k, v in self.match.items())))

    def matches(self, context: Dict[str, str]) -> bool:
        return all(context.get(key) == value for key, value in self.match)

    def to_json(self) -> dict:
        obj = {"point": self.point, "probability": self.probability}
        if self.times is not None:
            obj["times"] = self.times
        if self.after:
            obj["after"] = self.after
        if self.arg is not None:
            obj["arg"] = self.arg
        if self.match:
            obj["match"] = dict(self.match)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "FaultRule":
        return cls(
            point=obj["point"],
            probability=obj.get("probability", 1.0),
            times=obj.get("times"),
            after=obj.get("after", 0),
            arg=obj.get("arg"),
            match=tuple(sorted(
                (str(k), str(v))
                for k, v in obj.get("match", {}).items())),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative set of fault rules."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()
    name: str = "custom"

    def __post_init__(self):
        if isinstance(self.rules, list):
            object.__setattr__(self, "rules", tuple(self.rules))

    def with_seed(self, seed: int) -> "FaultPlan":
        return FaultPlan(seed=seed, rules=self.rules, name=self.name)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "rules": [rule.to_json() for rule in self.rules],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FaultPlan":
        return cls(
            seed=int(obj.get("seed", 0)),
            rules=tuple(FaultRule.from_json(r) for r in obj.get("rules", ())),
            name=obj.get("name", "custom"),
        )


def _rule_stream(seed: int, index: int, point: str) -> random.Random:
    """One independent, deterministic RNG stream per (plan, rule)."""
    digest = hashlib.sha256(
        "{}:{}:{}".format(seed, index, point).encode()).hexdigest()
    return random.Random(int(digest[:16], 16))


class _ArmedPlan:
    """A plan plus its mutable firing state (streams, counters)."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._streams = [
            _rule_stream(plan.seed, i, rule.point)
            for i, rule in enumerate(plan.rules)
        ]
        self._encounters = [0] * len(plan.rules)
        self._fired = [0] * len(plan.rules)

    def decide(self, point: str,
               context: Dict[str, str]) -> Optional[FaultRule]:
        """The first rule that fires for this encounter, or None."""
        with self._lock:
            for i, rule in enumerate(self.plan.rules):
                if rule.point != point or not rule.matches(context):
                    continue
                self._encounters[i] += 1
                if self._encounters[i] <= rule.after:
                    continue
                if rule.times is not None and self._fired[i] >= rule.times:
                    continue
                if rule.probability < 1.0 and \
                        self._streams[i].random() >= rule.probability:
                    continue
                self._fired[i] += 1
                return rule
        return None

    def injected(self) -> Dict[str, int]:
        """Total firings per point (stable over reruns of one battery)."""
        with self._lock:
            out: Dict[str, int] = {}
            for rule, fired in zip(self.plan.rules, self._fired):
                if fired:
                    out[rule.point] = out.get(rule.point, 0) + fired
            return out


#: The process-wide armed plan.  ``None`` keeps every ``fire`` call a
#: single attribute load + ``is None`` test.
_ARMED: Optional[_ArmedPlan] = None

#: Set once the environment has been consulted, so an unarmed process
#: pays the ``os.environ`` lookup at most once.
_ENV_CHECKED = False


def install_plan(plan: FaultPlan, env: bool = False) -> None:
    """Arm *plan* process-wide; ``env=True`` also exports it so
    subprocess daemons and spawned workers inherit it."""
    global _ARMED, _ENV_CHECKED
    _ARMED = _ArmedPlan(plan)
    _ENV_CHECKED = True
    if env:
        os.environ[PLAN_ENV_VAR] = json.dumps(plan.to_json(), sort_keys=True)


def clear_plan(env: bool = True) -> None:
    """Disarm chaos (and scrub the environment unless told otherwise)."""
    global _ARMED, _ENV_CHECKED
    _ARMED = None
    _ENV_CHECKED = True
    if env:
        os.environ.pop(PLAN_ENV_VAR, None)


class armed:
    """Context manager: arm *plan* for the duration of the block."""

    def __init__(self, plan: FaultPlan, env: bool = False):
        self.plan = plan
        self.env = env
        self.state: Optional[_ArmedPlan] = None

    def __enter__(self) -> "_ArmedPlan":
        install_plan(self.plan, env=self.env)
        self.state = _ARMED
        return self.state

    def __exit__(self, exc_type, exc, tb) -> bool:
        clear_plan(env=self.env)
        return False


def active_plan() -> Optional[FaultPlan]:
    """The armed plan, if any (checks the environment once)."""
    _check_env()
    return _ARMED.plan if _ARMED is not None else None


def _check_env() -> None:
    global _ENV_CHECKED
    if _ENV_CHECKED:
        return
    _ENV_CHECKED = True
    raw = os.environ.get(PLAN_ENV_VAR)
    if raw:
        try:
            install_plan(FaultPlan.from_json(json.loads(raw)))
        except (ValueError, KeyError, TypeError):
            # A malformed plan must never take the process down; chaos
            # stays disarmed.
            pass


def _count_injection(point: str) -> None:
    registry = metrics.registry()
    registry.counter("chaos.injected").inc()
    registry.counter("chaos.injected.point", point=point).inc()


def fire(point: str, **context: object) -> Optional[FaultRule]:
    """Maybe inject a fault at *point*; no-op when chaos is disarmed.

    Raises/sleeps/exits per the point's registered effect; ``mark``
    effects (and ``sleep``, after sleeping) return the fired rule so
    the site can apply or record a site-specific consequence.
    """
    _check_env()
    state = _ARMED
    if state is None:
        return None
    ctx = {key: str(value) for key, value in context.items()}
    rule = state.decide(point, ctx)
    if rule is None:
        return None
    _count_injection(point)
    effect = POINTS[point].effect
    if effect == "io_error":
        raise InjectedIOError(
            "chaos: injected I/O failure at {} ({})".format(point, ctx))
    if effect == "error":
        raise InjectedFault(
            "chaos: injected failure at {} ({})".format(point, ctx))
    if effect == "sleep":
        _deadline_polling_sleep(rule.arg if rule.arg is not None else 0.05)
        return rule
    if effect == "exit":
        os._exit(int(rule.arg) if rule.arg is not None else 137)
    return rule  # "mark": the site applies the fault


def _deadline_polling_sleep(seconds: float) -> None:
    """Sleep in small slices, polling the active guard deadline.

    A genuinely hung handler would be interrupted by whatever polls
    :func:`repro.qa.guards.check_active` deep in the work it performs;
    an injected stall must honour the same contract, so a daemon
    per-request deadline turns injected slowness into a typed
    ``deadline_exceeded`` answer instead of a wedged worker.
    """
    from repro.qa import guards

    end = time.monotonic() + seconds
    while True:
        guards.check_active()
        remaining = end - time.monotonic()
        if remaining <= 0:
            return
        time.sleep(min(0.005, remaining))


def register_metrics() -> None:
    """Touch every chaos/robustness series so exports carry them at
    zero even when nothing fired (``BENCH_obs.prom`` stability)."""
    registry = metrics.registry()
    registry.counter("chaos.injected")
    registry.counter("serve.deadline.installed")
    registry.counter("serve.deadline.expired")
    registry.counter("serve.request.rejected")
    registry.counter("serve.factcache.io_error")
    registry.counter("serve.client.retries")
    registry.counter("serve.client.breaker_open")
    registry.counter("corpus.shard.retries")
    registry.counter("corpus.shard.quarantined")
    registry.gauge("serve.degraded")


# ----------------------------------------------------------------------
# Built-in plans


@dataclass(frozen=True)
class ChaosPlanSpec:
    """A named, ready-to-run plan plus its battery configuration."""

    name: str
    description: str
    target: str  # "serve" | "corpus" | "stdio" | "ledger"
    rules: Tuple[FaultRule, ...]
    deadline_seconds: Optional[float] = None
    restart: bool = False  # serve: kill + restart the daemon mid-battery

    def plan(self, seed: int) -> FaultPlan:
        return FaultPlan(seed=seed, rules=self.rules, name=self.name)


_PLAN_SPECS: Tuple[ChaosPlanSpec, ...] = (
    ChaosPlanSpec(
        name="cache-flaky",
        description="fact-store reads and writes fail half the time; the "
        "daemon degrades to cold compute and every answer stays pinned",
        target="serve",
        rules=(
            FaultRule("factstore.load", probability=0.5),
            FaultRule("factstore.store", probability=0.5),
        ),
    ),
    ChaosPlanSpec(
        name="cache-corrupt",
        description="every disk restore finds a truncated partition; "
        "corruption reads as a miss, facts rebuild and self-heal",
        target="serve",
        rules=(FaultRule("factstore.corrupt"),),
    ),
    ChaosPlanSpec(
        name="compile-crash",
        description="cold compiles die with 30% probability; failures "
        "become typed internal errors and retries succeed",
        target="serve",
        rules=(FaultRule("session.compile", probability=0.3),),
    ),
    ChaosPlanSpec(
        name="slow-handler",
        description="handlers stall past the per-request deadline 40% of "
        "the time; stalled requests answer deadline_exceeded, the rest "
        "stay correct",
        target="serve",
        deadline_seconds=0.2,
        rules=(FaultRule("daemon.handler", probability=0.4, arg=1.0),),
    ),
    ChaosPlanSpec(
        name="client-drop",
        description="connections drop before 40% of requests and the "
        "daemon is killed and restarted mid-battery; the client retries "
        "with backoff and every query eventually succeeds",
        target="serve",
        restart=True,
        rules=(FaultRule("client.drop", probability=0.4),),
    ),
    ChaosPlanSpec(
        name="mixed",
        description="flaky fact store + occasional compile crashes + "
        "stalled handlers under a deadline, all at once",
        target="serve",
        deadline_seconds=0.2,
        rules=(
            FaultRule("factstore.load", probability=0.4),
            FaultRule("factstore.store", probability=0.4),
            FaultRule("session.compile", probability=0.15, times=3),
            FaultRule("daemon.handler", probability=0.2, arg=1.0),
        ),
    ),
    ChaosPlanSpec(
        name="worker-kill",
        description="shard 1's first worker is killed mid-shard; the "
        "watchdog retries it on a fresh worker and the run completes",
        target="corpus",
        rules=(
            FaultRule("corpus.worker_kill",
                      match=(("attempt", "0"), ("shard", "1"))),
        ),
    ),
    ChaosPlanSpec(
        name="poison-shard",
        description="shard 1 kills every worker that touches it; after "
        "bounded retries it is quarantined and reported while every "
        "other shard completes",
        target="corpus",
        rules=(FaultRule("corpus.worker_kill", match=(("shard", "1"),)),),
    ),
    ChaosPlanSpec(
        name="stdio-flaky",
        description="the plan crosses a process boundary: a subprocess "
        "stdio daemon picks it up from REPRO_CHAOS_PLAN and suffers a "
        "flaky fact store plus compile crashes; every answer that comes "
        "back over the pipe is pinned correct or a typed error",
        target="stdio",
        rules=(
            FaultRule("factstore.load", probability=0.4),
            FaultRule("factstore.store", probability=0.4),
            FaultRule("session.compile", probability=0.5, times=2),
        ),
    ),
    ChaosPlanSpec(
        name="ledger-torn",
        description="bench-ledger appends are torn mid-line half the "
        "time; read_history skips each torn line with a warning and "
        "bench compare still runs over the surviving records",
        target="ledger",
        rules=(FaultRule("history.append", probability=0.5),),
    ),
    ChaosPlanSpec(
        name="tracestore-torn",
        description="trace-store appends are torn mid-line half the "
        "time; readers skip each torn record with a counter and a "
        "daemon sampling at 100% keeps serving pinned-correct answers",
        target="tracestore",
        rules=(FaultRule("tracestore.append", probability=0.5),),
    ),
    ChaosPlanSpec(
        name="shard-hang",
        description="shard 0 hangs on its first attempt; the watchdog "
        "times it out, retries, and the run completes",
        target="corpus",
        rules=(
            FaultRule("corpus.shard_hang", arg=30.0,
                      match=(("attempt", "0"), ("shard", "0"))),
        ),
    ),
)

_SPECS_BY_NAME = {spec.name: spec for spec in _PLAN_SPECS}


def built_in_plans() -> List[ChaosPlanSpec]:
    return list(_PLAN_SPECS)


def plan_spec(name: str) -> ChaosPlanSpec:
    try:
        return _SPECS_BY_NAME[name]
    except KeyError:
        raise ValueError("unknown chaos plan {!r}; known: {}".format(
            name, sorted(_SPECS_BY_NAME)))


# ----------------------------------------------------------------------
# The chaos batteries


#: Error kinds a chaotic daemon may legitimately answer with.  Anything
#: else — and any ``differential`` mismatch in particular — is a
#: violation of the core invariant.
TYPED_ERROR_KINDS = frozenset({
    "compile", "internal", "resource_limit", "deadline_exceeded",
    "protocol", "unavailable",
})

#: Second module for the serve battery: distinct hierarchy and counts.
_BATTERY_SOURCE_B = """
MODULE ChaosB;

TYPE
  P = OBJECT next: P; v: INTEGER; END;
  Q = P OBJECT w: P; END;

VAR head: P;

PROCEDURE Push (n: P) =
BEGIN
  n.next := head;
  head := n;
END Push;

BEGIN
  Push (NEW (Q));
  Push (NEW (P));
END ChaosB.
"""

#: Edited variant of the smoke module (same unit name, one body edit) so
#: the battery exercises invalidation while chaos fires.
def _battery_sources() -> List[Tuple[str, str]]:
    from repro.serve.client import SMOKE_SOURCE

    edited = SMOKE_SOURCE.replace("buf^[0] := 1;", "buf^[1] := 2;")
    assert edited != SMOKE_SOURCE
    return [
        ("smoke", SMOKE_SOURCE),
        ("chaosb", _BATTERY_SOURCE_B),
        ("smoke", edited),
    ]


def _expected_counts(sources: List[Tuple[str, str]]) -> Dict[tuple, tuple]:
    """Reference-engine ground truth for every (source, analysis, world)."""
    from repro import compile_program
    from repro.analysis import ANALYSIS_NAMES
    from repro.analysis.alias_pairs import AliasPairCounter
    from repro.analysis.facts import source_hash

    expected: Dict[tuple, tuple] = {}
    for _name, source in sources:
        key = source_hash(source)
        program = compile_program(source, unit="<chaos>")
        base = program.base().program
        for analysis in ANALYSIS_NAMES:
            for open_world in (False, True):
                counter = AliasPairCounter(
                    base, program.analysis(analysis, open_world=open_world),
                    engine="reference")
                expected[(key, analysis, open_world)] = \
                    counter.count().counts()
    return expected


def _battery_requests(sources: List[Tuple[str, str]]) -> List[dict]:
    """The deterministic request stream the serve battery replays.

    Every request carries a ``trace_id`` derived from its id, so the
    battery can assert that trace propagation survives fault injection:
    the echoed ``trace`` must come back on every answer, pinned-correct
    responses and typed errors alike.
    """
    from repro.analysis import ANALYSIS_NAMES

    requests: List[dict] = [{"op": "ping", "id": "ping-0"}]
    rid = 0
    for round_index in range(2):
        for name, source in sources:
            for analysis in ANALYSIS_NAMES:
                rid += 1
                requests.append({
                    "op": "alias", "id": "alias-{}".format(rid),
                    "source": source, "name": name, "analysis": analysis,
                    "open_world": bool(rid % 2),
                })
            rid += 1
            requests.append({
                "op": "tables", "id": "tables-{}".format(rid),
                "source": source, "name": name, "worlds": "both",
            })
        requests.append({"op": "stats", "id": "stats-{}".format(round_index)})
    for request in requests:
        request["trace_id"] = "chaos-{}".format(request["id"])
    return requests


def _verify_response(request: dict, response: dict,
                     expected: Dict[tuple, tuple],
                     violations: List[dict],
                     typed_errors: Dict[str, int]) -> None:
    """Check one answer against the core invariant."""
    from repro.analysis.facts import source_hash

    if not isinstance(response, dict):
        violations.append({"id": request.get("id"),
                           "reason": "non-object response"})
        return
    wanted_trace = request.get("trace_id")
    if wanted_trace is not None and response.get("trace") != wanted_trace:
        violations.append({
            "id": request.get("id"),
            "reason": "trace id lost under fault injection",
            "sent": wanted_trace,
            "echoed": response.get("trace"),
        })
    if not response.get("ok"):
        kind = (response.get("error") or {}).get("kind")
        if kind in TYPED_ERROR_KINDS:
            typed_errors[kind] = typed_errors.get(kind, 0) + 1
        else:
            violations.append({
                "id": request.get("id"),
                "reason": "untyped or forbidden error kind {!r}".format(kind),
                "error": response.get("error"),
            })
        return
    result = response.get("result", {})
    if request["op"] == "alias":
        key = (source_hash(request["source"]), request["analysis"],
               request.get("open_world", False))
        served = (result.get("references"), result.get("local_pairs"),
                  result.get("global_pairs"))
        if served != expected[key]:
            violations.append({
                "id": request.get("id"),
                "reason": "wrong alias counts",
                "served": list(served),
                "expected": list(expected[key]),
            })
    elif request["op"] == "tables":
        key_base = source_hash(request["source"])
        for row in result.get("rows", ()):
            key = (key_base, row.get("analysis"),
                   row.get("open_world", False))
            served = (row.get("references"), row.get("local_pairs"),
                      row.get("global_pairs"))
            if served != expected[key]:
                violations.append({
                    "id": request.get("id"),
                    "reason": "wrong tables row",
                    "served": list(served),
                    "expected": list(expected[key]),
                })


def _run_serve_battery(spec: ChaosPlanSpec, seed: int,
                       cache_dir: str) -> dict:
    """Boot an in-process daemon under the plan; replay the battery."""
    from pathlib import Path

    from repro.serve.client import (
        CircuitBreaker,
        ResilientHttpClient,
        RetryPolicy,
        ServeClientError,
    )
    from repro.serve.daemon import Daemon
    from repro.serve.factcache import FactStore
    from repro.serve.session import SessionManager

    sources = _battery_sources()
    expected = _expected_counts(sources)
    requests = _battery_requests(sources)

    def build_daemon() -> Daemon:
        # max_sessions=2 forces session evictions, so disk restores (and
        # the fact-store injection points) actually run mid-battery.
        manager = SessionManager(
            store=FactStore(Path(cache_dir) / "store"),
            max_sessions=2, differential=True)
        return Daemon(manager, deadline_seconds=spec.deadline_seconds)

    violations: List[dict] = []
    typed_errors: Dict[str, int] = {}
    ok_responses = 0
    policy = RetryPolicy(max_attempts=8, base_delay=0.02, max_delay=0.5,
                         seed=seed)
    daemon = build_daemon()
    port = daemon.start_http()
    client = ResilientHttpClient(port, policy=policy,
                                 breaker=CircuitBreaker(failure_threshold=50))
    restart_at = len(requests) // 2 if spec.restart else None
    restarted = False
    try:
        with armed(plan_spec(spec.name).plan(seed)) as state:
            for i, request in enumerate(requests):
                if restart_at is not None and i == restart_at:
                    # Kill the daemon mid-battery; bring a fresh one up
                    # on the same port from another thread while the
                    # client is already retrying.
                    daemon.stop_http()
                    replacement: List[Daemon] = []

                    def revive():
                        time.sleep(0.15)
                        fresh = build_daemon()
                        fresh.start_http(port)
                        replacement.append(fresh)

                    reviver = threading.Thread(target=revive)
                    reviver.start()
                    try:
                        response = client.query(request)
                    except ServeClientError as err:
                        violations.append({
                            "id": request.get("id"),
                            "reason": "client did not heal across the "
                            "daemon restart: {}".format(err),
                        })
                        response = None
                    reviver.join()
                    if replacement:
                        daemon = replacement[0]
                    restarted = True
                    if response is None:
                        continue
                else:
                    try:
                        response = client.query(request)
                    except ServeClientError as err:
                        violations.append({
                            "id": request.get("id"),
                            "reason": "client gave up: {}".format(err),
                        })
                        continue
                _verify_response(request, response, expected,
                                 violations, typed_errors)
                if response.get("ok"):
                    ok_responses += 1
            injected = state.injected()
    finally:
        daemon.stop_http()
    registry = metrics.registry()
    return {
        "target": "serve",
        "requests": len(requests),
        "ok_responses": ok_responses,
        "typed_errors": dict(sorted(typed_errors.items())),
        "injected": injected,
        "violations": violations,
        "restarted": restarted,
        "client_retries": int(
            registry.counter("serve.client.retries").value),
        "deadline_expired": int(
            registry.counter("serve.deadline.expired").value),
        "degraded_seen": bool(
            registry.counter("serve.factcache.io_error").value),
    }


def _run_stdio_battery(spec: ChaosPlanSpec, seed: int,
                       cache_dir: str) -> dict:
    """Replay the battery against a *subprocess* stdio daemon.

    The plan never arms in this process: it crosses the process
    boundary as JSON in ``REPRO_CHAOS_PLAN``, exactly the way an
    operator (or CI) would inject faults into a real deployment.  The
    invariant is asserted on what comes back over the pipe, and the
    child's own ``chaos.injected`` counter — surfaced through the
    ``stats`` op — proves the faults actually fired on the far side.
    """
    from pathlib import Path

    from repro.serve.client import ServeClientError, StdioClient

    sources = _battery_sources()
    expected = _expected_counts(sources)
    requests = _battery_requests(sources)

    plan = spec.plan(seed)
    env = dict(os.environ)
    env[PLAN_ENV_VAR] = json.dumps(plan.to_json(), sort_keys=True)

    violations: List[dict] = []
    typed_errors: Dict[str, int] = {}
    ok_responses = 0
    child_injected = 0
    with StdioClient(cache_dir=str(Path(cache_dir) / "store"),
                     env=env) as client:
        for request in requests:
            try:
                response = client.query(request)
            except ServeClientError as err:
                violations.append({
                    "id": request.get("id"),
                    "reason": "stdio daemon died under chaos: {}".format(err),
                })
                break
            _verify_response(request, response, expected,
                             violations, typed_errors)
            if isinstance(response, dict) and response.get("ok"):
                ok_responses += 1
        try:
            stats = client.query({"op": "stats", "id": "stats-final",
                                  "trace_id": "chaos-stats-final"})
            child_injected = int(
                stats.get("result", {}).get("counters", {})
                .get("chaos.injected", 0))
        except ServeClientError as err:
            violations.append({
                "reason": "could not read child chaos counters: {}".format(
                    err)})
    if child_injected <= 0:
        violations.append({
            "reason": "plan did not cross the process boundary: the "
            "subprocess daemon reports zero injections"})
    return {
        "target": "stdio",
        "requests": len(requests),
        "ok_responses": ok_responses,
        "typed_errors": dict(sorted(typed_errors.items())),
        "injected": {"child": child_injected},
        "chaos_injected_total": child_injected,
        "violations": violations,
    }


def _run_ledger_battery(spec: ChaosPlanSpec, seed: int,
                        work_dir: str) -> dict:
    """Tear bench-ledger appends mid-line; readers must shrug it off.

    Appends a deterministic stream of valid records while the
    ``history.append`` point truncates about half of them, then asserts
    that :func:`repro.obs.history.read_history`, the validator CLI, and
    ``bench compare`` all succeed over the surviving records — a torn
    line is a crash artifact, and it must never wedge the gate.
    """
    import io
    from contextlib import redirect_stderr
    from pathlib import Path

    from repro.obs import history, regress

    path = str(Path(work_dir) / "BENCH_history.jsonl")
    n_records = 16
    host = history.host_fingerprint()
    violations: List[dict] = []
    with armed(plan_spec(spec.name).plan(seed)) as state:
        for i in range(n_records):
            history.append_record(path, {
                "schema": history.HISTORY_SCHEMA_VERSION,
                "kind": history.RECORD_KIND,
                "tool": "chaos-ledger-battery",
                "label": "run-{}".format(i),
                "git_sha": None,
                "timestamp_utc": history.utc_timestamp(),
                "host": host,
                "phases": {
                    "(suite)": {"bench.run": 1.0 + 0.01 * (i % 4)},
                },
                "counters": {"alias.queries": 100 + i},
            })
        injected = state.injected()
    torn = injected.get("history.append", 0)
    if not 0 < torn < n_records:
        violations.append({
            "reason": "battery needs both torn and surviving appends",
            "torn": torn, "appended": n_records,
        })
    try:
        records = history.read_history(path)
    except ValueError as err:
        violations.append({
            "reason": "read_history crashed on a torn ledger: {}".format(
                err)})
        records = []
    if records and len(records) != n_records - torn:
        violations.append({
            "reason": "surviving record count is wrong",
            "read": len(records), "expected": n_records - torn,
        })
    skipped = int(
        metrics.registry().counter("obs.history.torn_skipped").value)
    if records and skipped < torn:
        violations.append({
            "reason": "torn lines were not counted as skipped",
            "torn": torn, "skipped": skipped,
        })
    try:
        n_valid = history.validate_file(path)
    except (OSError, ValueError) as err:
        n_valid = -1
        violations.append({
            "reason": "history validator rejected a torn-but-valid "
            "ledger: {}".format(err)})
    compare_report = None
    if len(records) >= 2:
        half = len(records) // 2
        try:
            # bench compare's engine; stderr noise (warnings about wide
            # deltas) is irrelevant here, only "does it crash" matters.
            with redirect_stderr(io.StringIO()):
                compare_report = regress.compare_records(
                    records[:half], records[half:])
        except ValueError as err:
            violations.append({
                "reason": "bench compare crashed on surviving records: "
                "{}".format(err)})
    return {
        "target": "ledger",
        "appended": n_records,
        "torn": torn,
        "read": len(records),
        "validated": n_valid,
        "compared": compare_report is not None,
        "injected": injected,
        "violations": violations,
    }


def _run_tracestore_battery(spec: ChaosPlanSpec, seed: int,
                            work_dir: str) -> dict:
    """Tear trace-store appends mid-line; tracing must stay telemetry.

    Two invariants, tested in two phases.  First, the store itself:
    append a deterministic record stream while ``tracestore.append``
    truncates about half of them, then assert readers return exactly
    the surviving records, counting each torn line
    (``obs.trace.torn_skipped``) instead of crashing.  Second, the
    serving stack: a daemon sampling at 100% (every request flushes a
    record through the same torn seam) must keep answering
    pinned-correct — a dying trace write is never allowed to cost a
    request.
    """
    from pathlib import Path

    from repro.obs.reqlog import now as wall_now
    from repro.obs.sampler import HeadSampler
    from repro.obs.tracestore import TraceStore
    from repro.obs.traceview import merge_trace
    from repro.serve import protocol
    from repro.serve.daemon import Daemon
    from repro.serve.session import SessionManager

    violations: List[dict] = []
    registry = metrics.registry()

    # -- phase 1: the store under torn appends -------------------------
    store_a = TraceStore(Path(work_dir) / "traces-direct")
    n_records = 16
    with armed(plan_spec(spec.name).plan(seed)) as state:
        for i in range(n_records):
            store_a.append({
                "kind": "trace_record", "schema": 1,
                "trace": "chaos-trace-{}".format(i),
                "proc": "battery0", "origin": "battery",
                "op": "chaos.append", "unit": None,
                "ms": 1.0 + 0.25 * i, "ok": True, "ts": wall_now(),
                "parent": None,
                "spans": [{"name": "chaos.append", "id": 1,
                           "parent": None, "duration_ms": 1.0}],
                "notes": {}, "dropped": 0,
            })
        torn = state.injected().get("tracestore.append", 0)
    if not 0 < torn < n_records:
        violations.append({
            "reason": "battery needs both torn and surviving appends",
            "torn": torn, "appended": n_records,
        })
    survivors = store_a.records()
    if len(survivors) != n_records - torn:
        violations.append({
            "reason": "surviving trace-record count is wrong",
            "read": len(survivors), "expected": n_records - torn,
        })
    skipped = int(registry.counter("obs.trace.torn_skipped").value)
    if skipped < torn:
        violations.append({
            "reason": "torn trace lines were not counted as skipped",
            "torn": torn, "skipped": skipped,
        })

    # -- phase 2: serving at 100% sampling through the same seam -------
    sources = _battery_sources()
    expected = _expected_counts(sources)
    requests = _battery_requests(sources)
    store_b = TraceStore(Path(work_dir) / "traces-daemon")
    daemon = Daemon(SessionManager(store=None), sampler=HeadSampler(1.0),
                    trace_store=store_b)
    typed_errors: Dict[str, int] = {}
    ok_responses = 0
    with armed(plan_spec(spec.name).plan(seed + 1)) as state:
        for request in requests:
            response = daemon.handle_request(
                protocol.Request.from_obj(dict(request)))
            _verify_response(request, response, expected,
                             violations, typed_errors)
            if response.get("ok"):
                ok_responses += 1
        daemon_torn = state.injected().get("tracestore.append", 0)
    if typed_errors:
        violations.append({
            "reason": "torn trace appends degraded serving",
            "typed_errors": typed_errors,
        })
    if daemon_torn <= 0:
        violations.append({
            "reason": "no daemon trace append was torn; the battery "
            "proved nothing"})
    daemon_records = store_b.records()
    if not daemon_records:
        violations.append({
            "reason": "no daemon trace record survived the tearing"})
    for trace_id, records in store_b.traces().items():
        if any(root.detached for root in merge_trace(records)):
            violations.append({
                "reason": "surviving trace does not merge cleanly",
                "trace": trace_id,
            })
    return {
        "target": "tracestore",
        "appended": n_records,
        "torn": torn,
        "read": len(survivors),
        "requests": len(requests),
        "ok_responses": ok_responses,
        "daemon_torn": daemon_torn,
        "daemon_records": len(daemon_records),
        "torn_skipped": int(
            registry.counter("obs.trace.torn_skipped").value),
        "injected": {"tracestore.append": torn + daemon_torn},
        "violations": violations,
    }


def _run_corpus_battery(spec: ChaosPlanSpec, seed: int,
                        work_dir: str) -> dict:
    """Generate a small corpus; run the sharded driver under the plan."""
    from pathlib import Path

    from repro.qa.corpus import CorpusSpec, generate_corpus, run_corpus

    corpus_dir = Path(work_dir) / "corpus"
    corpus_spec = CorpusSpec(seed=seed, count=12, shard_size=4,
                             max_stmts=10)
    generate_corpus(corpus_spec, corpus_dir)
    violations: List[dict] = []
    with armed(plan_spec(spec.name).plan(seed)):
        report = run_corpus(
            corpus_dir, jobs=2,
            shard_timeout_seconds=2.5, max_shard_retries=1)
    quarantined = {q["index"] for q in report.quarantined}
    completed = {o.index for o in report.shards}
    expected_shards = set(range(corpus_spec.n_shards()))
    # Every shard is either completed or quarantined-and-reported;
    # nothing is dropped silently.
    missing = expected_shards - completed - quarantined
    if missing:
        violations.append({
            "reason": "shards dropped silently",
            "missing": sorted(missing),
        })
    if report.failures:
        violations.append({"reason": "per-program failures",
                           "failures": report.failures})
    if spec.name == "poison-shard" and quarantined != {1}:
        violations.append({
            "reason": "poison shard not quarantined as expected",
            "quarantined": sorted(quarantined),
        })
    if spec.name in ("worker-kill", "shard-hang") and quarantined:
        violations.append({
            "reason": "transient fault must recover via retry, not "
            "quarantine",
            "quarantined": sorted(quarantined),
        })
    registry = metrics.registry()
    return {
        "target": "corpus",
        "shards": len(report.shards),
        "programs": report.programs,
        "quarantined": report.quarantined,
        "shard_retries": int(
            registry.counter("corpus.shard.retries").value),
        "violations": violations,
    }


def run_chaos(plan_name: str, seed: int = 0,
              work_dir: Optional[str] = None) -> dict:
    """Run one built-in plan's battery; returns a JSON-able report.

    The report's ``ok`` field is the core invariant: no violation was
    observed — every answer correct or a typed error, every shard
    completed or quarantined-and-reported, no crash.
    """
    import tempfile

    spec = plan_spec(plan_name)
    metrics.registry().reset()
    register_metrics()
    if work_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            return run_chaos(plan_name, seed=seed, work_dir=tmp)
    if spec.target == "corpus":
        body = _run_corpus_battery(spec, seed, work_dir)
    elif spec.target == "stdio":
        body = _run_stdio_battery(spec, seed, work_dir)
    elif spec.target == "ledger":
        body = _run_ledger_battery(spec, seed, work_dir)
    elif spec.target == "tracestore":
        body = _run_tracestore_battery(spec, seed, work_dir)
    else:
        body = _run_serve_battery(spec, seed, work_dir)
    report = {
        "plan": spec.name,
        "seed": seed,
        "description": spec.description,
        "ok": not body["violations"],
        "chaos_injected_total": int(
            metrics.registry().counter("chaos.injected").value),
    }
    report.update(body)
    return report
