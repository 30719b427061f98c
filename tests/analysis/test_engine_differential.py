"""Differential test for the two alias-pair counting engines.

The class-matrix ``fast`` engine must produce byte-identical Table 5
counts to the per-pair ``reference`` loop, for every bundled benchmark,
every analysis (including the Steensgaard baseline and the trivial
analyses exercising the generic fallback), closed and open world.  The
``differential`` engine runs both and raises AssertionError on any
mismatch.  (``tests/analysis/test_bulk.py`` covers the matrix object
itself and a 200-seed generated-program sweep.)
"""

import pytest

from repro.analysis import (
    ANALYSIS_NAMES,
    EXTRA_ANALYSIS_NAMES,
    AliasPairCounter,
    AlwaysAliasAnalysis,
    NeverAliasAnalysis,
)
from repro.analysis.openworld import AnalysisContext
from repro.bench import registry
from repro.bench.suite import BASE


@pytest.mark.parametrize("name", registry.benchmark_names())
def test_engines_agree_closed_world(suite, name):
    program = suite.program(name)
    base = suite.build(name, BASE)
    for analysis_name in ANALYSIS_NAMES + EXTRA_ANALYSIS_NAMES:
        analysis = AnalysisContext(program.checked).build(analysis_name)
        report = AliasPairCounter(
            base.program, analysis, engine="differential"
        ).count()
        assert report.references > 0


@pytest.mark.parametrize("name", registry.benchmark_names())
def test_engines_agree_open_world(suite, name):
    program = suite.program(name)
    base = suite.build(name, BASE)
    for analysis_name in ANALYSIS_NAMES:
        analysis = program.analysis(analysis_name, open_world=True)
        AliasPairCounter(base.program, analysis, engine="differential").count()


@pytest.mark.parametrize("analysis", [AlwaysAliasAnalysis(), NeverAliasAnalysis()])
def test_generic_fallback_agrees(suite, analysis):
    """Analyses without Table 2 structure go through the generic path."""
    base = suite.build("slisp", BASE)
    AliasPairCounter(base.program, analysis, engine="differential").count()


def test_unknown_engine_rejected(suite):
    base = suite.build("format", BASE)
    program = suite.program("format")
    with pytest.raises(ValueError):
        AliasPairCounter(
            base.program, program.analysis("TypeDecl"), engine="bogus"
        )
