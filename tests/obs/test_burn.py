"""Windowed SLO burn rates over the request ring: windows, breaches,
gauges, exemplars."""

import random
import statistics

import pytest

from repro.obs import metrics
from repro.obs.reqlog import RequestRing


@pytest.fixture(autouse=True)
def fresh_registry():
    metrics.registry().reset()
    yield


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _ring(slo_ms=100.0, **kwargs):
    clock = FakeClock()
    ring = RequestRing(slo_ms, clock=clock, **kwargs)
    return ring, clock


def test_requires_at_least_one_window():
    with pytest.raises(ValueError):
        RequestRing(100.0, windows=())


def test_burn_rate_is_breach_fraction_per_window():
    ring, clock = _ring(slo_ms=100.0)
    for ms in (50.0, 50.0, 150.0, 250.0):
        ring.observe(ms)
        clock.advance(1.0)
    snap = ring.burn()
    assert snap["5m"]["requests"] == 4
    assert snap["5m"]["breaches"] == 2
    assert snap["5m"]["burn_rate"] == pytest.approx(0.5)
    assert snap["1h"]["burn_rate"] == pytest.approx(0.5)


def test_error_counts_as_breach_regardless_of_latency():
    ring, _clock = _ring(slo_ms=100.0)
    ring.observe(1.0, ok=False)
    snap = ring.burn()
    assert snap["5m"]["breaches"] == 1
    assert snap["5m"]["burn_rate"] == pytest.approx(1.0)


def test_old_events_age_out_of_the_fast_window():
    ring, clock = _ring(slo_ms=100.0)
    ring.observe(500.0)  # breach
    clock.advance(301.0)  # past the 5m window, inside 1h
    ring.observe(10.0)
    snap = ring.burn()
    assert snap["5m"]["requests"] == 1
    assert snap["5m"]["burn_rate"] == pytest.approx(0.0)
    assert snap["1h"]["requests"] == 2
    assert snap["1h"]["burn_rate"] == pytest.approx(0.5)


def test_events_past_the_horizon_are_pruned_entirely():
    """Pruned from every window's rollup; the ring itself prunes by
    count only, so an idle daemon still lists its last requests."""
    ring, clock = _ring(slo_ms=100.0)
    ring.observe(500.0, trace_id="old")
    clock.advance(3601.0)
    snap = ring.burn()
    assert snap["1h"]["requests"] == 0
    assert snap["1h"]["burn_rate"] is None
    assert snap["1h"]["quantiles_ms"]["p50"] is None
    assert [r["trace"] for r in ring.snapshot()["requests"]] == ["old"]


def test_observe_sets_the_registry_gauges():
    """The gauges observed requests feed, set when published (what
    ``/v1/metrics`` does before it renders)."""
    ring, _clock = _ring(slo_ms=100.0)
    registry = metrics.registry()
    ring.observe(500.0)
    assert registry.gauge("serve.slo.burn_rate_5m").value == 0.0
    ring.publish()
    assert registry.gauge("serve.slo.burn_rate_5m").value == 1.0
    assert registry.gauge("serve.slo.burn_rate_1h").value == 1.0
    ring.observe(1.0)
    ring.publish()
    assert registry.gauge("serve.slo.burn_rate_5m").value == 0.5


def test_snapshot_quantiles_and_slowest_exemplars():
    ring, clock = _ring(slo_ms=1000.0)
    for i, ms in enumerate((10.0, 20.0, 30.0, 40.0, 500.0)):
        ring.observe(ms, trace_id="trace-{}".format(i))
        clock.advance(0.5)
    snap = ring.burn()["5m"]
    assert snap["quantiles_ms"]["p50"] == pytest.approx(30.0)
    assert snap["quantiles_ms"]["p99"] <= 500.0
    slowest = snap["slowest"]
    assert len(slowest) == 3
    assert slowest[0] == {"trace": "trace-4", "ms": 500.0}
    assert [e["ms"] for e in slowest] == sorted(
        (e["ms"] for e in slowest), reverse=True)


def test_ring_is_bounded():
    ring, _clock = _ring(slo_ms=100.0, size=8)
    for i in range(100):
        ring.observe(float(i))
    assert ring.burn()["1h"]["requests"] == 8
    assert ring.total == 100


def test_empty_windows_publish_zero_burn_and_no_op_gauges():
    ring, clock = _ring(slo_ms=100.0)
    ring.observe(500.0, op="aged-out")
    clock.advance(3601.0)
    ring.publish()
    registry = metrics.registry()
    assert registry.gauge("serve.slo.burn_rate_5m").value == 0.0
    assert registry.gauge("serve.slo.burn_rate_1h").value == 0.0
    assert not [e for e in registry.snapshot()
                if e["labels"].get("op") == "aged-out"]


def test_per_op_gauges_are_exact_quantiles_of_the_ops_records():
    ring, clock = _ring(slo_ms=100.0)
    rng = random.Random(7)
    values = {"alias": [], "tables": []}
    for _ in range(200):
        op = rng.choice(sorted(values))
        ms = rng.lognormvariate(1.0, 1.0)
        values[op].append(ms)
        ring.observe(ms, op=op)
        clock.advance(1.0)
    ring.publish()
    registry = metrics.registry()
    for op, samples in values.items():
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        for name, cut in (("p50", cuts[49]), ("p95", cuts[94]),
                          ("p99", cuts[98])):
            gauge = registry.gauge("serve.request.ms." + name, op=op)
            assert gauge.value == round(cut, 3), (op, name)
