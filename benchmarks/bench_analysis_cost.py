"""Analysis cost (Section 2.5) — TBAA is fast.

The paper's complexity argument: SMTypeRefs makes a single linear pass
over the program unioning type sets, so TBAA is O(n) bit-vector steps;
computing all may-alias pairs is O(e²) but each query is cheap.  This
bench measures construction time for all three analyses and the raw
query throughput over the largest benchmark, and emits the numbers both
as an aligned table and as machine-readable JSON (the same schema
``make bench-quick`` writes to ``BENCH_alias.json``).
"""

import json

from repro.analysis.openworld import AnalysisContext
from repro.bench.perfjson import (
    measure_construction,
    measure_query_throughput,
    measure_serve,
    measure_table5_engines,
    validate_report,
    SCHEMA_VERSION,
)
from repro.util.tables import render_table


def test_analysis_construction(benchmark, suite, emit):
    program = suite.program("m3cg")

    def build_all_three():
        ctx = AnalysisContext(program.checked)
        return [ctx.build(n) for n in ("TypeDecl", "FieldTypeDecl", "SMFieldTypeRefs")]

    analyses = benchmark.pedantic(build_all_three, rounds=5, iterations=1)
    assert len(analyses) == 3

    # Query throughput over real references, with memo-cache statistics.
    throughput = measure_query_throughput(suite, "m3cg", rounds=3)
    rows = []
    for name in ("TypeDecl", "FieldTypeDecl", "SMFieldTypeRefs"):
        entry = throughput[name]
        cache = entry["cache"]
        rows.append([name, entry["queries"], entry["ms"], entry["kqps"],
                     cache["hits"], cache["misses"]])
    text = render_table(
        ["Analysis", "Queries", "ms", "kq/s", "Cache hits", "Cache misses"],
        rows,
        title="May-alias query cost on m3cg (all reference pairs)",
    )
    emit("analysis_cost", text)
    assert all(row[3] > 0 for row in rows)

    # Table 5 wall time under both counting engines.
    table5 = measure_table5_engines(suite, rounds=3)
    report = {
        "schema": SCHEMA_VERSION,
        "query_benchmark": "m3cg",
        "construction_ms": measure_construction(suite, "m3cg", rounds=3),
        "query_throughput": throughput,
        "table5": table5,
        "serve": measure_serve(["m3cg"], rounds=2),
    }
    validate_report(report)
    emit("analysis_cost_json", json.dumps(report, indent=2, sort_keys=True))
    # The class-matrix engine must clearly beat the per-pair loop.
    assert table5["speedup"] > 1.0
