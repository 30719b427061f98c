"""mmap matrix arenas: layout, lazy views, kernel agreement, sharing."""

import pickle

import pytest

from repro import compile_program
from repro.analysis import ANALYSIS_NAMES
from repro.analysis.bulk import build_matrix
from repro.analysis.bulkarena import (
    ARENA_VERSION,
    MAGIC,
    _MmapIntSeq,
    open_arena,
    write_arena,
)

SOURCE = """
MODULE Arena;

TYPE
  T = OBJECT f: T; n: INTEGER; END;
  S = T OBJECT g: T; END;

VAR root: T;

PROCEDURE Link (a: T; b: S) =
BEGIN
  a.f := b;
  b.g := a.f;
END Link;

BEGIN
  root := NEW (S);
  Link (root, NEW (S));
END Arena.
"""


@pytest.fixture(scope="module")
def matrices():
    program = compile_program(SOURCE, "arena.m3")
    base = program.base().program
    return [build_matrix(base, program.analysis(name))
            for name in ANALYSIS_NAMES]


def test_arena_roundtrips_counts_and_rows(tmp_path, matrices):
    path = tmp_path / "m.arena"
    write_arena(path, matrices)
    with open_arena(path) as arena:
        assert len(arena) == len(matrices)
        for original, view in zip(matrices, arena.matrices()):
            assert view.analysis_name == original.analysis_name
            assert list(view.class_rows) == list(original.class_rows)
            assert list(view.class_members) == list(original.class_members)
            assert list(view.path_proc_masks) == \
                list(original.path_proc_masks)
            assert view.count_pairs().counts() == \
                original.count_pairs().counts()


def test_mmap_seq_slices_negatives_and_pickles(tmp_path, matrices):
    path = tmp_path / "m.arena"
    write_arena(path, matrices)
    with open_arena(path) as arena:
        view = arena.matrix(0)
        seq = view.class_rows
        assert isinstance(seq, _MmapIntSeq)
        values = list(seq)
        assert seq[-1] == values[-1]
        assert seq[1:3] == values[1:3]
        with pytest.raises(IndexError):
            seq[len(seq)]
        # Pickling forfeits sharing but stays correct (plain list).
        clone = pickle.loads(pickle.dumps(view))
        assert list(clone.class_rows) == values
        assert clone.count_pairs().counts() == view.count_pairs().counts()


def test_arena_rejects_bad_magic_and_version(tmp_path, matrices):
    bogus = tmp_path / "bogus.arena"
    bogus.write_bytes(b"NOTANARE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="not a matrix arena"):
        open_arena(bogus)

    path = tmp_path / "m.arena"
    write_arena(path, matrices[:1])
    data = bytearray(path.read_bytes())
    # Corrupt the version field inside the JSON header (same length, so
    # the u64 header-size prefix stays valid).
    marker = ('"version": {}'.format(ARENA_VERSION)).encode()
    index = bytes(data).find(marker)
    assert index >= 0
    data[index:index + len(marker)] = \
        ('"version": {}'.format(ARENA_VERSION + 1)).encode()
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="unknown arena version"):
        open_arena(path)
    assert bytes(data[:8]) == MAGIC
