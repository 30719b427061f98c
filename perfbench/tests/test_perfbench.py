"""Tests of the benchmark itself: determinism, exact counts and the load
generator.

Run from the repository root with
``PYTHONPATH=src python3 -m pytest perfbench/tests -q``.
"""

import difflib
import gc
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import serve_edit  # noqa: E402
import speed  # noqa: E402
from common import digest, import_repro  # noqa: E402
from compile_suite import CompileSuite  # noqa: E402
from execute_suite import ExecuteSuite  # noqa: E402

#: The counts the traced run must repeat exactly for one seed.
EXACT_COUNTS = ("ir.lower_calls", "serve.factstore_stores",
                "opt.loads_eliminated", "runtime.instructions",
                "analysis.bulk_builds")


def _sources():
    import_repro()
    from repro.bench import registry

    return {n: registry.load_source(n) for n in registry.benchmark_names()}


@pytest.mark.parametrize("cls", [CompileSuite, ExecuteSuite])
def test_plan_digest_follows_the_seed(cls):
    digests = []
    for seed in (1, 1, 2):
        workload = cls()
        workload.setup(seed)
        digests.append(digest(workload.plan_for_digest()))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_stream_digest_follows_the_seed():
    sources = _sources()
    views = [serve_edit.Stream(sources, seed, 2, 2).digest_view()
             for seed in (5, 5, 6)]
    assert digest(views[0]) == digest(views[1])
    assert views[0]["segments"] != views[2]["segments"]
    assert views[0]["versions"] != views[2]["versions"]


def test_revisits_stay_inside_their_segment():
    """Each segment runs on a fresh daemon and fact store, so a revisit
    may only name a committed module or a version its segment made."""
    stream = serve_edit.Stream(_sources(), 8, 2, 3)
    for requests in stream.segments:
        own = set(range(len(stream.modules)))
        for kind, _module, version in requests:
            if kind == "edit":
                own.add(version)
            else:
                assert version in own


def test_setups_are_spread_over_the_timed_loop():
    made = []

    class Fake:
        def setup(self, seed):
            made.append(seed)

    setups = run.SpreadSetups(Fake, 1)
    counts = []
    for done in (0.0, 0.19, 0.2, 0.59, 0.6, 0.79):
        setups.due(done)
        counts.append(len(made))
    assert counts == [1, 1, 2, 3, 4, 4]
    setups.finish()
    assert len(made) == len(setups.times) == run.SETUP_REPEATS


def test_speed_probe_samples_the_run_and_stops():
    with speed.SpeedProbe() as probe:
        time.sleep(5 * speed.INTERVAL)
    assert not probe._thread.is_alive()
    assert len(probe.units) >= 2
    assert probe.factor() > 0


def test_speed_probe_ticks_and_scales_by_the_units_around_a_timing():
    with speed.SpeedProbe(thread=False) as probe:
        probe.tick()
        probe.tick()
    assert len(probe.units) == 1
    start, took = probe.units[0]
    assert probe.scale(start, 2.0) == pytest.approx(
        2.0 * speed.REFERENCE_UNIT_S / took)


def test_calibration_unit_allocates_nothing_the_collector_tracks():
    """So the program's heap size cannot change what a unit costs."""
    gc.disable()
    try:
        before = gc.get_count()[0]
        speed._unit()
        assert gc.get_count()[0] == before
    finally:
        gc.enable()


def test_kind_makeup_names_the_kinds_around_a_rank():
    samples = ([("read", 1.0)] * 85 + [("revisit", 3.0)] * 10
               + [("edit", 50.0)] * 5)
    assert run.kind_makeup(samples, 0.9) == (
        "ranks 85-95%: read 0%, edit 0%, revisit 100%")
    assert run.kind_makeup(samples, 0.5).endswith(
        "read 100%, edit 0%, revisit 0%")


def test_edit_changes_one_literal_inside_a_procedure_body():
    import random

    repro = import_repro()
    rng = random.Random(0)
    for name, text in _sources().items():
        edited = serve_edit.edit_source(text, rng)
        changed = [line for line in difflib.ndiff(
            text.splitlines(), edited.splitlines()) if line[:1] in "+-"]
        assert len(changed) == 2, name
        old, new = changed[0][2:], changed[1][2:]
        old_tokens, new_tokens = old.split(), new.split()
        diffs = [(a, b) for a, b in zip(old_tokens, new_tokens) if a != b]
        assert len(diffs) == 1, name
        sites = serve_edit.literal_sites(text)
        start = text.index(old) + next(
            i for i, (a, b) in enumerate(zip(old, new)) if a != b)
        assert any(s <= start < e for s, e in sites), name
        repro.compile_program(edited, name)


def test_stream_kinds_match_the_daemon_cache():
    """Reads hit warm sessions, revisits restore from the fact store,
    edits build; checked against the daemon's own counters."""
    workload = serve_edit.ServeEdit(3, 1)
    workload.rounds = 2
    workload.segments = 2
    workload.setup()
    kinds = [kind for kind, _m, _v in workload.stream.segments[1]]
    workload.start()
    try:
        workload.run_stream(0)
        workload.stop()
        # The second segment runs on a fresh daemon: its revisits only
        # name versions its own fact store holds.
        workload.start()
        before = workload.stats()
        workload.run_stream(1)
        after = workload.stats()
        workload.stop()
    finally:
        workload.kill()
    assert workload.check() == 0

    def delta(name):
        return after[name] - before[name]

    assert delta("serve.session.hit") == kinds.count("read")
    assert delta("serve.factcache.hit") == kinds.count("revisit")
    assert delta("serve.session.compile") == kinds.count("edit")


def test_daemon_stop_accepts_a_cut_off_shutdown_answer(monkeypatch):
    def cut_off(port, payload):
        raise json.JSONDecodeError("Expecting value", "", 0)

    monkeypatch.setattr(serve_edit, "post", cut_off)
    daemon = serve_edit.Daemon.__new__(serve_edit.Daemon)
    daemon.port = 1
    daemon.proc = subprocess.Popen([sys.executable, "-c", "pass"],
                                   stdout=subprocess.PIPE)
    assert daemon.stop() == 0


def test_daemon_only_receives_generated_sources(monkeypatch):
    sent = []
    real_post = serve_edit.post

    def recording_post(port, payload):
        sent.append(payload)
        return real_post(port, payload)

    monkeypatch.setattr(serve_edit, "post", recording_post)
    workload = serve_edit.ServeEdit(4, 1)
    workload.rounds = 1
    workload.segments = 1
    workload.setup()
    workload.start()
    try:
        workload.run_stream(0)
        workload.stop()
    finally:
        workload.kill()
    assert workload.check() == 0
    generated = set(workload.stream.versions)
    with_source = [p for p in sent if "source" in p]
    assert len(with_source) == 10 + len(workload.stream.requests)
    for payload in sent:
        assert set(payload) <= {"op", "id", "name", "source", "worlds"}
        if payload["op"] == "tables":
            assert payload["source"] in generated
        else:
            assert payload["op"] in ("stats", "shutdown")


def _run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    return {name: m["value"] for name, m in result["metrics"].items()}


#: Per-layer times each workload is meant to stress, and to bypass.
STRESSED = {
    "compile-suite": ("lang.parse_ms", "ir.lower_ms", "analysis.table5_ms",
                      "opt.rle_ms", "opt.modref_ms", "opt.backend_cse_ms"),
    "execute-suite": ("runtime.interp_ms", "runtime.limit_ms"),
    "serve-edit": ("lang.parse_ms", "ir.lower_ms", "analysis.bulk_build_ms",
                   "serve.handle_ms.read", "serve.handle_ms.edit",
                   "serve.handle_ms.revisit", "serve.factstore_store_ms",
                   "serve.factstore_load_ms"),
}
BYPASSED = {
    "compile-suite": ("runtime.interp_ms", "runtime.limit_ms",
                      "analysis.bulk_build_ms", "serve.handle_ms.read"),
    "execute-suite": ("lang.parse_ms", "ir.lower_ms", "opt.rle_ms",
                      "analysis.table5_ms", "serve.handle_ms.read"),
    "serve-edit": ("runtime.interp_ms", "runtime.limit_ms", "opt.rle_ms",
                   "opt.modref_ms"),
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = _run(workload, 11, 1)
    second = _run(workload, 11, 1)
    counts = {name: first[name] for name in EXACT_COUNTS}
    assert counts == {name: second[name] for name in EXACT_COUNTS}
    assert any(counts.values())
    assert all(first[name] > 0 for name in STRESSED[workload])
    assert all(first[name] == 0 for name in BYPASSED[workload])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_are_declared_and_nonzero(workload):
    assert all(_run(workload, 12, 0).values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=""))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
