"""Smoke test for the machine-readable benchmark report.

Runs the real measurement code with a minimal configuration (one round,
two programs) so the ``BENCH_alias.json`` schema cannot rot without a
test failing, then checks the CLI writer round-trips through JSON.
"""

import json

import pytest

from repro.bench import perfjson


def test_quick_bench_schema(tmp_path):
    report = perfjson.run_quick_bench(
        query_benchmark="format",
        table5_names=["format", "m3cg"],
        rounds=1,
    )
    perfjson.validate_report(report)
    assert report["table5"]["programs"] == ["format", "m3cg"]
    # v3 reports (with the dropped numpy-era ``bulk_backend`` row) fail.
    with pytest.raises(AssertionError):
        perfjson.validate_report(dict(report, schema=3))
    v3_table5 = dict(report["table5"], bulk_backend="python")
    with pytest.raises(AssertionError):
        perfjson.validate_report(dict(report, table5=v3_table5))

    # The report must be valid JSON and survive a round trip.
    path = tmp_path / "BENCH_alias.json"
    path.write_text(json.dumps(report))
    assert json.loads(path.read_text()) == report


def test_validate_rejects_missing_keys():
    with pytest.raises(AssertionError):
        perfjson.validate_report({"schema": perfjson.SCHEMA_VERSION})


def test_normalize_report_rounds_floats_recursively():
    report = {"a": 1.23456789, "b": {"c": [2.00004, "s", 3]},
              "d": 0.1234999}
    assert perfjson.normalize_report(report) == {
        "a": 1.235, "b": {"c": [2.0, "s", 3]}, "d": 0.123}


def test_report_phases_maps_report_numbers_to_seconds():
    from repro.obs.history import SUITE_BUCKET

    report = {
        "query_benchmark": "m3cg",
        "construction_ms": {"TypeDecl": 2.5},
        "query_throughput": {"TypeDecl": {"ms": 10.0}},
        "table5": {"reference_ms": 100.0, "fast_ms": 20.0,
                   "bulk_build_ms": 5.0, "bulk_ms": 2.0},
        "serve": {"cold_ms": 50.0, "warm_ms": 1.0},
    }
    phases = perfjson.report_phases(report)
    assert phases["m3cg"]["quick.construction.TypeDecl"] == 0.0025
    assert phases["m3cg"]["quick.query.TypeDecl"] == 0.01
    assert phases[SUITE_BUCKET]["quick.table5.reference"] == 0.1
    assert phases[SUITE_BUCKET]["quick.table5.fast"] == 0.02
    assert phases[SUITE_BUCKET]["quick.table5.bulk_build"] == 0.005
    assert phases[SUITE_BUCKET]["quick.table5.bulk"] == 0.002
    assert phases[SUITE_BUCKET]["serve.cold"] == 0.05
    assert phases[SUITE_BUCKET]["serve.warm"] == 0.001


def test_perfjson_main_appends_history(tmp_path, capsys):
    from repro.obs import history

    out = str(tmp_path / "BENCH_alias.json")
    hist = str(tmp_path / "hist.jsonl")
    assert perfjson.main(["-o", out, "--rounds", "1",
                          "--history", hist]) == 0
    report = json.loads(open(out).read())
    perfjson.validate_report(report)
    [record] = history.read_history(hist)
    assert record["label"] == "bench-quick"
    # The report's own numbers became phase series next to the spans.
    bench = report["query_benchmark"]
    assert any(p.startswith("quick.query.")
               for p in record["phases"][bench])
    captured = capsys.readouterr()
    assert "appended bench-quick record" in captured.out
