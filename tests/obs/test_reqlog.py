"""Request ring listing + sampled slow-request access log."""

import json

import pytest

from repro.obs import metrics
from repro.obs.reqlog import (
    ACCESS_LOG_KEYS,
    AccessLog,
    RequestRecord,
    RequestRing,
    validate_access_line,
)


@pytest.fixture(autouse=True)
def _clean_registry():
    metrics.registry().reset()
    yield
    metrics.registry().reset()


def make_record(op="alias", trace="t-1", ms=1.5, ok=True, error=None,
                cache="hit", ts=1000.0):
    return RequestRecord(op=op, trace_id=trace, unit="smoke", ms=ms,
                         ok=ok, error_kind=error, cache=cache, ts=ts,
                         t=0.0)


def test_record_json_schema_matches_access_log_keys():
    obj = dict(make_record().to_json(), slow=True)
    assert set(obj) == set(ACCESS_LOG_KEYS)


def test_journal_is_a_bounded_newest_first_ring():
    ring = RequestRing(100.0, size=3)
    for i in range(5):
        ring.observe(1.5, trace_id="t-{}".format(i))
    snap = ring.snapshot()
    assert snap["total"] == 5  # evictions still counted
    assert [r["trace"] for r in snap["requests"]] == ["t-4", "t-3", "t-2"]
    assert [r["trace"] for r in ring.snapshot(limit=1)["requests"]] == \
        ["t-4"]


def test_journal_snapshot_payload():
    ring = RequestRing(100.0, size=8)
    ring.observe(1.5, ok=False, trace_id="t-1", op="alias",
                 error_kind="compile")
    snap = ring.snapshot()
    assert snap["total"] == 1
    (entry,) = snap["requests"]
    assert entry["error"] == "compile"
    assert entry["ok"] is False
    assert entry["cache"] is None
    assert entry["trace"] == "t-1"


def test_access_log_skips_fast_requests(tmp_path):
    log = AccessLog(str(tmp_path / "access.jsonl"), slow_ms=10.0)
    assert log.maybe_log(make_record(ms=9.99)) is False
    assert not (tmp_path / "access.jsonl").exists()


def test_access_log_writes_validated_slow_lines(tmp_path):
    path = tmp_path / "access.jsonl"
    log = AccessLog(str(path), slow_ms=10.0)
    assert log.maybe_log(make_record(ms=25.0)) is True
    (line,) = path.read_text().splitlines()
    obj = validate_access_line(line)
    assert obj["slow"] is True
    assert obj["ms"] == 25.0
    assert obj["trace"] == "t-1"
    assert metrics.registry().counter("serve.accesslog.lines").value == 1


def test_access_log_sampling_is_deterministic_every_nth(tmp_path):
    path = tmp_path / "access.jsonl"
    log = AccessLog(str(path), slow_ms=0.0, sample=3)
    written = [log.maybe_log(make_record(trace="t-{}".format(i)))
               for i in range(7)]
    assert written == [True, False, False, True, False, False, True]
    traces = [json.loads(line)["trace"]
              for line in path.read_text().splitlines()]
    assert traces == ["t-0", "t-3", "t-6"]
    assert metrics.registry().counter(
        "serve.accesslog.sampled_out").value == 4


def test_access_log_write_failure_never_raises(tmp_path):
    # Pointing the log at a directory makes every append an OSError.
    log = AccessLog(str(tmp_path), slow_ms=0.0)
    assert log.maybe_log(make_record()) is False
    assert metrics.registry().counter("serve.accesslog.errors").value == 1


def test_validate_access_line_rejects_bad_lines():
    good = json.dumps(dict(make_record().to_json(), slow=True))
    validate_access_line(good)
    with pytest.raises(ValueError, match="not JSON"):
        validate_access_line("{torn")
    with pytest.raises(ValueError, match="JSON object"):
        validate_access_line("[1, 2]")
    with pytest.raises(ValueError, match="missing keys"):
        validate_access_line("{}")
    broken = dict(make_record().to_json(), slow=True, trace="")
    with pytest.raises(ValueError, match="trace"):
        validate_access_line(json.dumps(broken))
    not_slow = dict(make_record().to_json(), slow=False)
    with pytest.raises(ValueError, match="slow"):
        validate_access_line(json.dumps(not_slow))
