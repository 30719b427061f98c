"""The class matrix behind the fast engine: kernels, pickling, fuzz.

``test_engine_differential.py`` already pins fast == reference on every
bundled benchmark (the ``differential`` engine runs both).  This module
covers what that sweep cannot: the matrix object itself (point queries,
schemes, pickling) and a wide net of generated programs.
"""

import pickle

import pytest

from repro import compile_program
from repro.analysis import (
    ANALYSIS_NAMES,
    EXTRA_ANALYSIS_NAMES,
    AliasPairCounter,
    AlwaysAliasAnalysis,
    BulkAliasMatrix,
    build_matrix,
    collect_heap_references,
)
from repro.bench.suite import BASE
from repro.qa.generator import GenConfig, generate_program

FUZZ_SEEDS = 200
FUZZ_CONFIG = GenConfig(max_object_types=4, max_procs=3, max_stmts=14)


def _matrix(suite, bench="slisp", analysis_name="FieldTypeDecl"):
    base = suite.build(bench, BASE)
    program = suite.program(bench)
    analysis = program.analysis(analysis_name)
    return base.program, analysis, build_matrix(base.program, analysis)


def test_fuzz_seeds_all_engines_agree():
    """fast == reference over a wide range of generated shapes, in both
    worlds and for the Steensgaard baseline."""
    configs = [(name, False) for name in ANALYSIS_NAMES + EXTRA_ANALYSIS_NAMES]
    configs += [(name, True) for name in ANALYSIS_NAMES]
    for seed in range(FUZZ_SEEDS):
        generated = generate_program(seed, FUZZ_CONFIG)
        program = compile_program(generated.render(), generated.name)
        ir = program.pipeline.base().program
        for analysis_name, open_world in configs:
            analysis = program.analysis(analysis_name, open_world=open_world)
            # The differential engine raises AssertionError on any
            # disagreement between the two engines.
            AliasPairCounter(ir, analysis, engine="differential").count()


def test_point_queries_match_analysis(suite):
    ir, analysis, matrix = _matrix(suite)
    refs = collect_heap_references(ir)
    paths = [ap for aps in refs.values() for ap in aps][:60]
    for p in paths:
        for q in paths:
            assert matrix.may_alias_path(p, q) == analysis.may_alias(p, q)


def test_scheme_selection(suite):
    _, _, typedecl = _matrix(suite, analysis_name="TypeDecl")
    assert typedecl.scheme == "typedecl"
    for name in ("FieldTypeDecl", "SMFieldTypeRefs", "SteensgaardFieldTypeRefs"):
        _, _, field = _matrix(suite, analysis_name=name)
        assert field.scheme == "field"
    base = suite.build("slisp", BASE)
    generic = build_matrix(base.program, AlwaysAliasAnalysis())
    assert generic.scheme == "generic"
    # AlwaysAlias: every class adjacent to every class, itself included.
    k = generic.n_classes
    assert generic.adjacent_pairs() == k * (k + 1) // 2


def test_pickle_round_trip(suite):
    """Matrices ship between processes: counts and queries survive."""
    _, analysis, matrix = _matrix(suite)
    before = matrix.count_pairs()
    assert matrix.count_pairs() == before  # deterministic
    clone = pickle.loads(pickle.dumps(matrix))
    assert clone.analysis_name == matrix.analysis_name
    assert clone.n_paths == matrix.n_paths
    assert clone.n_classes == matrix.n_classes
    assert clone.count_pairs() == before
    # Index-level queries survive; the uid -> index map is a transient
    # tied to the building process's interned paths, so path lookups
    # fail loudly rather than silently misresolving.
    for i in range(min(clone.n_paths, 20)):
        for j in range(min(clone.n_paths, 20)):
            assert clone.may_alias_index(i, j) == matrix.may_alias_index(i, j)
    some_path = next(
        ap
        for aps in collect_heap_references(suite.build("slisp", BASE).program).values()
        for ap in aps
    )
    with pytest.raises(LookupError) as dropped:
        clone.index_of(some_path)
    assert dropped.type is LookupError  # not KeyError: the map is gone


def test_index_of_on_empty_matrix_is_key_error(suite):
    """A freshly built matrix with zero reference paths still has its
    uid map: an unknown path is a KeyError, not the pickled-matrix
    LookupError."""
    program = compile_program(
        "MODULE Empty;\nVAR x: INTEGER;\nBEGIN\n  x := 1;\nEND Empty.\n",
        "Empty")
    matrix = build_matrix(program.pipeline.base().program,
                          program.analysis("FieldTypeDecl"))
    assert matrix.n_paths == 0
    assert matrix.count_pairs().counts() == (0, 0, 0)
    ir, _, _ = _matrix(suite)
    foreign = next(ap for aps in collect_heap_references(ir).values()
                   for ap in aps)
    with pytest.raises(KeyError):
        matrix.index_of(foreign)


def test_from_references_matches_build_matrix(suite):
    ir, analysis, matrix = _matrix(suite)
    refs = collect_heap_references(ir)
    direct = BulkAliasMatrix.from_references(refs, analysis)
    assert direct.count_pairs() == matrix.count_pairs()


def test_adjacent_pairs_counts_unordered(suite):
    _, _, matrix = _matrix(suite)
    pairs = matrix.adjacent_pairs()
    brute = sum(
        1
        for i in range(matrix.n_classes)
        for j in range(i, matrix.n_classes)
        if (matrix.class_rows[i] >> j) & 1
    )
    assert pairs == brute
