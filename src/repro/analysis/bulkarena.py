"""Read-only mmap arenas of bulk alias matrices.

The corpus pipeline used to move :class:`~repro.analysis.bulk.
BulkAliasMatrix` objects between processes by pickling, which gives
every worker its own private copy of every row — for a 10⁵-program
corpus that multiplies the matrix footprint by the worker count.  This
module packs many matrices into **one arena file** that workers map
read-only:

* :func:`write_arena` serialises a matrix list as an 8-byte length
  prefix, a JSON header (everything small: names, class tallies,
  per-procedure occupancy) and a binary payload holding the big-int
  sequences (``class_rows``, ``class_members``, ``path_proc_masks``)
  as little-endian bytes;
* :func:`open_arena` maps the file with :mod:`mmap` and materialises
  matrices **lazily**: the heavy sequences come back as
  :class:`_MmapIntSeq` views that decode one integer per access
  straight out of the mapping.  ``fork``-based pools inherit the
  mapping, so every worker reads the *same* physical pages — the
  per-worker cost drops from a full copy to page-cache references.

The substitution is sound because the counting kernel only ever indexes
and iterates those sequences (:meth:`BulkAliasMatrix.count_pairs` walks
``class_rows`` by position).  Pickling an
arena-backed matrix degrades gracefully — :class:`_MmapIntSeq` reduces
to a plain list — but the point of the arena is not to pickle at all.
"""

import json
import mmap
import struct
from itertools import accumulate
from pathlib import Path
from typing import Dict, List, Sequence

from repro.analysis.bulk import BulkAliasMatrix

#: Bumped whenever the arena layout changes.
ARENA_VERSION = 1

#: Arena files start with this magic, then the header length (u64 LE).
MAGIC = b"RPRARENA"

_PREFIX = struct.Struct("<8sQ")


def _int_to_bytes(value: int) -> bytes:
    return value.to_bytes(max((value.bit_length() + 7) // 8, 1), "little")


class _MmapIntSeq(Sequence):
    """Lazy ``Sequence[int]`` over length-delimited ints in an mmap."""

    __slots__ = ("_mm", "_offsets")

    def __init__(self, mm, base: int, lengths: List[int]):
        self._mm = mm
        self._offsets = [base] + [base + c for c in accumulate(lengths)]

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, index: int) -> int:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        lo, hi = self._offsets[index], self._offsets[index + 1]
        return int.from_bytes(self._mm[lo:hi], "little")

    def __iter__(self):
        offsets = self._offsets
        mm = self._mm
        for i in range(len(self)):
            yield int.from_bytes(mm[offsets[i]:offsets[i + 1]], "little")

    def __reduce__(self):
        # Crossing a pickle boundary forfeits the sharing; materialise.
        return (list, (list(self),))


class _PayloadWriter:
    """Accumulates int sequences, tracking per-sequence byte lengths."""

    def __init__(self) -> None:
        self.chunks: List[bytes] = []
        self.position = 0

    def put_seq(self, values: Sequence[int]) -> Dict[str, object]:
        base = self.position
        lengths = []
        for value in values:
            blob = _int_to_bytes(value)
            self.chunks.append(blob)
            lengths.append(len(blob))
            self.position += len(blob)
        return {"base": base, "lengths": lengths}


def write_arena(path: Path, matrices: List[BulkAliasMatrix]) -> None:
    """Pack *matrices* into one read-only arena file at *path*."""
    payload = _PayloadWriter()
    entries = []
    for matrix in matrices:
        entries.append({
            "analysis_name": matrix.analysis_name,
            "scheme": matrix.scheme,
            "proc_names": matrix.proc_names,
            "path_strs": matrix.path_strs,
            "path_class": list(matrix.path_class),
            "path_counts": list(matrix.path_counts),
            "class_totals": list(matrix.class_totals),
            "class_sumsq": list(matrix.class_sumsq),
            "class_same": list(matrix.class_same),
            "class_proc_counts": [
                {str(p): n for p, n in pc.items()}
                for pc in matrix.class_proc_counts
            ],
            "class_rows": payload.put_seq(matrix.class_rows),
            "class_members": payload.put_seq(matrix.class_members),
            "path_proc_masks": payload.put_seq(matrix.path_proc_masks),
        })
    header = json.dumps(
        {"version": ARENA_VERSION, "matrices": entries},
        sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(_PREFIX.pack(MAGIC, len(header)))
        f.write(header)
        for chunk in payload.chunks:
            f.write(chunk)


class MatrixArena:
    """One opened arena: lazy, shared, read-only matrix views."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self._file = open(self.path, "rb")
        self._mm = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        magic, header_len = _PREFIX.unpack(self._mm[:_PREFIX.size])
        if magic != MAGIC:
            raise ValueError("{}: not a matrix arena".format(self.path))
        header = json.loads(
            self._mm[_PREFIX.size:_PREFIX.size + header_len].decode())
        if header.get("version") != ARENA_VERSION:
            raise ValueError("{}: unknown arena version {!r}".format(
                self.path, header.get("version")))
        self._entries = header["matrices"]
        self._payload_base = _PREFIX.size + header_len

    def __len__(self) -> int:
        return len(self._entries)

    def _seq(self, ref: Dict[str, object]) -> _MmapIntSeq:
        return _MmapIntSeq(self._mm, self._payload_base + ref["base"],
                           ref["lengths"])

    def matrix(self, index: int) -> BulkAliasMatrix:
        """Matrix *index* with its heavy sequences backed by the mmap."""
        entry = self._entries[index]
        return BulkAliasMatrix(
            analysis_name=entry["analysis_name"],
            scheme=entry["scheme"],
            proc_names=list(entry["proc_names"]),
            path_strs=list(entry["path_strs"]),
            path_class=list(entry["path_class"]),
            path_counts=list(entry["path_counts"]),
            path_proc_masks=self._seq(entry["path_proc_masks"]),
            class_rows=self._seq(entry["class_rows"]),
            class_members=self._seq(entry["class_members"]),
            class_totals=list(entry["class_totals"]),
            class_sumsq=list(entry["class_sumsq"]),
            class_same=list(entry["class_same"]),
            class_proc_counts=[
                {int(p): n for p, n in pc.items()}
                for pc in entry["class_proc_counts"]
            ],
        )

    def matrices(self) -> List[BulkAliasMatrix]:
        return [self.matrix(i) for i in range(len(self))]

    def close(self) -> None:
        self._mm.close()
        self._file.close()

    def __enter__(self) -> "MatrixArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def open_arena(path: Path) -> MatrixArena:
    return MatrixArena(path)
