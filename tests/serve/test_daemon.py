"""Daemon dispatch and transports: batches, errors, differential pinning."""

import json
import socket
import threading
import time

import pytest

from repro import compile_program
from repro.analysis import ANALYSIS_NAMES
from repro.analysis.alias_pairs import AliasPairCounter
from repro.obs import metrics
from repro.serve import protocol
from repro.serve.client import SMOKE_SOURCE, HttpClient
from repro.serve.daemon import Daemon
from repro.serve.session import SessionManager


@pytest.fixture()
def daemon():
    metrics.registry().reset()
    return Daemon(SessionManager(store=None, differential=True))


def _request(**fields):
    return protocol.Request.from_obj(fields)


def test_ping_stats_and_shutdown_ops(daemon):
    pong = daemon.handle_request(_request(op="ping"))
    assert pong["ok"] and pong["result"]["pong"] is True
    assert pong["result"]["protocol"] == protocol.PROTOCOL_VERSION

    stats = daemon.handle_request(_request(op="stats"))
    assert stats["ok"]
    assert "serve.session.hit" in stats["result"]["counters"]

    assert not daemon.shutdown_event.is_set()
    stop = daemon.handle_request(_request(op="shutdown"))
    assert stop["ok"] and stop["result"]["stopping"] is True
    assert daemon.shutdown_event.is_set()


def test_six_configurations_served_equal_fast_and_reference(daemon):
    """All 3 analyses x both worlds: served == cold fast == reference.

    The daemon runs in differential mode, so every served count is
    *already* pinned in-process against both cold engines (a mismatch
    would surface as an error response).  This test re-derives the cold
    answers independently and compares, so the pinning itself is pinned.
    """
    program = compile_program(SMOKE_SOURCE, "smoke.m3")
    base = program.base().program
    served = {}
    for analysis in ANALYSIS_NAMES:
        for open_world in (False, True):
            response = daemon.handle_request(_request(
                op="alias", source=SMOKE_SOURCE, name="smoke",
                analysis=analysis, open_world=open_world))
            assert response["ok"], response
            result = response["result"]
            served[(analysis, open_world)] = (
                result["references"], result["local_pairs"],
                result["global_pairs"])

    for (analysis, open_world), counts in served.items():
        alias = program.analysis(analysis, open_world=open_world)
        for engine in ("fast", "reference"):
            cold = AliasPairCounter(base, alias, engine=engine).count()
            assert cold.counts() == counts, (analysis, open_world, engine)

    checks = metrics.registry().counter("serve.differential.checks").value
    assert checks == 6


def test_batch_preserves_request_order_and_isolates_errors(daemon):
    line = json.dumps([
        {"op": "ping", "id": "first"},
        {"op": "alias", "id": "broken", "source": "MODULE Bad; BEGIN"},
        {"op": "tables", "id": "last", "source": SMOKE_SOURCE},
    ])
    out = daemon.handle_line(line)
    responses = json.loads(out)
    assert [r["id"] for r in responses] == ["first", "broken", "last"]
    assert responses[0]["ok"]
    assert not responses[1]["ok"]
    assert responses[1]["error"]["kind"] == "compile"
    assert responses[2]["ok"]  # the batch survived the middle failure
    assert len(responses[2]["result"]["rows"]) == len(ANALYSIS_NAMES)


def test_malformed_line_yields_protocol_error_not_crash(daemon):
    out = json.loads(daemon.handle_line("{truncated"))
    assert out["ok"] is False
    assert out["error"]["kind"] == "protocol"
    out = json.loads(daemon.handle_line('{"op": "explode"}'))
    assert out["error"]["kind"] == "protocol"
    # The daemon keeps serving afterwards.
    assert json.loads(daemon.handle_line('{"op": "ping"}'))["ok"]


def test_request_metrics_count_totals_errors_and_latency(daemon):
    daemon.handle_request(_request(op="ping"))
    daemon.handle_request(_request(op="ping"))
    daemon.handle_request(_request(
        op="alias", source="MODULE Bad; BEGIN", id="x"))
    registry = metrics.registry()
    assert registry.counter("serve.request.total", op="ping").value == 2
    assert registry.counter("serve.request.total", op="alias").value == 1
    assert registry.counter("serve.request.errors", op="alias").value == 1
    assert registry.histogram("serve.request.ms", op="ping").count == 2


def test_stdio_loop_echoes_one_line_per_line_until_shutdown(daemon):
    import io

    stdin = io.StringIO(
        '{"op": "ping", "id": 1}\n'
        "\n"  # blank lines are skipped, not answered
        '[{"op": "ping", "id": 2}, {"op": "shutdown", "id": 3}]\n'
        '{"op": "ping", "id": "never-reached"}\n')
    stdout = io.StringIO()
    rc = daemon.serve_stdio(stdin, stdout)
    assert rc == 0
    lines = stdout.getvalue().splitlines()
    assert len(lines) == 2  # shutdown stopped the loop mid-stream
    assert json.loads(lines[0])["id"] == 1
    batch = json.loads(lines[1])
    assert [r["id"] for r in batch] == [2, 3]


def test_http_transport_serves_same_answers(daemon):
    port = daemon.start_http()
    try:
        client = HttpClient(port)
        assert client.ping()["result"]["pong"] is True
        direct = daemon.handle_request(_request(
            op="tables", source=SMOKE_SOURCE, name="smoke"))
        via_http = client.query(
            {"op": "tables", "source": SMOKE_SOURCE, "name": "smoke"})
        assert via_http["ok"]
        assert via_http["result"]["rows"] == direct["result"]["rows"]
        batch = client.batch([{"op": "ping", "id": "a"},
                              {"op": "stats", "id": "b"}])
        assert [r["id"] for r in batch] == ["a", "b"]
    finally:
        daemon.stop_http()


def test_limit_and_facts_ops(daemon):
    limit = daemon.handle_request(_request(
        op="limit", source=SMOKE_SOURCE, name="smoke"))
    assert limit["ok"], limit
    result = limit["result"]
    assert result["heap_loads"] >= result["redundant_original"] >= 0
    assert result["redundant_after_rle"] <= result["redundant_original"]

    facts = daemon.handle_request(_request(
        op="facts", source=SMOKE_SOURCE, name="smoke"))
    assert facts["ok"], facts
    summary = facts["result"]
    assert summary["procedures"] >= 2
    assert summary["object_types"] >= 2
    assert summary["steensgaard_classes"] >= 1


def test_http_shutdown_answer_is_complete_before_drain_returns(daemon, monkeypatch):
    """``repro serve`` exits as soon as ``drain`` returns, killing the
    daemonic handler threads; so the ``shutdown`` answer must be fully
    written by then, however slowly the handler writes it."""
    from repro.serve import daemon as daemon_module

    handler_class = daemon_module._HTTPHandler
    original = handler_class._reply
    written = threading.Event()
    connections = []

    def slow_reply(self, status, payload):
        connections.append(self.connection)
        # Longer than stopping the HTTP server takes (it polls at 0.5s).
        time.sleep(1.0)
        original(self, status, payload)
        written.set()

    monkeypatch.setattr(handler_class, "_reply", slow_reply)
    port = daemon.start_http()
    written_at_exit = []

    def serve_main():
        # The tail of `repro serve`: wait for shutdown, drain, exit.
        daemon.shutdown_event.wait(10.0)
        daemon.drain(timeout=10.0)
        written_at_exit.append(written.is_set())
        for connection in connections:  # process exit severs them
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    main = threading.Thread(target=serve_main, daemon=True)
    main.start()
    response = HttpClient(port).query({"op": "shutdown", "id": "bye"})
    main.join(10.0)
    assert written_at_exit == [True]
    assert response["ok"] and response["result"] == {"stopping": True}
    assert response["id"] == "bye"
