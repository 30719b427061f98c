"""Bitset-matrix alias kernels — the class matrix behind ``engine='fast'``.

The reference engine asks one ``may_alias`` query per reference pair.
The fast engine partitions the distinct reference paths into
*query-equivalence classes*, asks at most one query per class pair, and
lowers the answers to **packed bitvectors**, so a whole Table 5 count
becomes a handful of AND/popcount kernels over dense integer matrices:

* every query-equivalence class gets one row of a class-adjacency
  matrix, stored as a Python big int (bit *j* of ``class_rows[i]`` says
  "class *i* may alias class *j*"; the diagonal bit is self-adjacency,
  i.e. whether a path may alias its own occurrence elsewhere);
* every interned access path maps to its class, so
  :meth:`BulkAliasMatrix.path_row` expands one packed bitvector row per
  path uid over the path-index space on demand;
* counting local/global pairs reduces to popcounts and small sums over
  per-class tallies, in stdlib big-int arithmetic
  (:mod:`repro.util.bits`).

Three partition schemes cover the analyses:

* ``typedecl`` — TypeDecl ignores structure entirely, so the class key
  is the oracle's subtype mask and adjacency is mask intersection.
* ``field`` — FieldTypeDecl (hence SMFieldTypeRefs and the Steensgaard
  baseline) dispatches on Table 2.  A path's signature records exactly
  the facts the seven cases consult — constructor kind, field name, the
  AddressTaken bit, the leaf type identity and, recursively, the base's
  signature — so two same-signature paths answer every query
  identically, and a short induction over Table 2 shows they always
  alias each other (the base case is the oracle's reflexivity,
  ``Subtypes(T) ∩ Subtypes(T) ≠ ∅``).  One representative
  ``may_alias_canonical`` query decides each class pair; the zero cases
  (2 with differing fields, 5) skip even that.
* ``generic`` — anything else (the trivial analyses, third-party
  analyses) degrades to one class per distinct path with
  representative ``may_alias`` queries.

Matrices carry no AST/IR/type references — only names, ints and dicts —
so they pickle cheaply and cross process boundaries (the corpus
pipeline ships them between shard workers and the parent).  Transient
caches (path-row expansions, the process-local uid→index map) are
dropped on pickling; the row cache is rebuilt lazily.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.alias_base import AliasAnalysis
from repro.analysis.fieldtypedecl import FieldTypeDeclAnalysis
from repro.analysis.typedecl import TypeDeclAnalysis
from repro.ir.access_path import AccessPath, Deref, Qualify, Subscript, strip_index
from repro.obs import core as obs
from repro.obs import metrics
from repro.qa import guards
from repro.util.bits import iter_bits, popcount


@dataclass(frozen=True)
class BulkCounts:
    """Table 5 counts produced by one matrix sweep."""

    references: int
    local_pairs: int
    global_pairs: int

    def counts(self) -> Tuple[int, int, int]:
        return (self.references, self.local_pairs, self.global_pairs)


def _signature_fn(analysis: FieldTypeDeclAnalysis) -> Callable[[AccessPath], tuple]:
    """Memoised Table 2 query-equivalence signature of a canonical path.

    * ``('r', id(type))`` — roots, case 7, a pure type function;
    * ``('d', id(type))`` — dereferences, cases 3/4/7;
    * ``('q', field, taken, id(type), base_sig)`` — qualifies, 2/3/5;
    * ``('s', taken, id(type), base_sig)`` — subscripts, cases 4/5/6.
    """
    address_taken = analysis.address_taken
    sigs: Dict[int, tuple] = {}

    def sig(ap: AccessPath) -> tuple:
        s = sigs.get(ap.uid)
        if s is None:
            if isinstance(ap, Qualify):
                taken = address_taken.qualify_taken(ap.field, ap.base.type, ap.type)
                s = ("q", ap.field, taken, id(ap.type), sig(ap.base))
            elif isinstance(ap, Subscript):
                taken = address_taken.subscript_taken(ap.base.type, ap.type)
                s = ("s", taken, id(ap.type), sig(ap.base))
            elif isinstance(ap, Deref):
                s = ("d", id(ap.type))
            else:  # VarRoot / FreshRoot
                s = ("r", id(ap.type))
            sigs[ap.uid] = s
        return s

    return sig


def _classes_by(paths: List[AccessPath], key) -> Tuple[List[int], list, List[AccessPath]]:
    """``(path_class, class_keys, class_reps)``: classes numbered in
    first-appearance order, each with its key and first member."""
    class_by_key: Dict[object, int] = {}
    keys: list = []
    reps: List[AccessPath] = []
    path_class = []
    for ap in paths:
        k = key(ap)
        c = class_by_key.get(k)
        if c is None:
            c = class_by_key[k] = len(keys)
            keys.append(k)
            reps.append(ap)
        path_class.append(c)
    return path_class, keys, reps


class BulkAliasMatrix:
    """Class-adjacency bitset matrix for one (program, analysis) pair.

    Built once from the reference map via :meth:`from_references` (or the
    :func:`build_matrix` convenience); answers point queries through
    :meth:`may_alias_index` / :meth:`path_row` and whole Table 5 counts
    through :meth:`count_pairs` without touching the analysis again.
    """

    #: Partition schemes, most structured first (see module docstring).
    SCHEMES = ("typedecl", "field", "generic")

    #: Attributes dropped by ``__getstate__``.
    _TRANSIENT = ("_row_cache", "_index_by_uid")

    def __init__(
        self,
        analysis_name: str,
        scheme: str,
        proc_names: List[str],
        path_strs: List[str],
        path_class: List[int],
        path_counts: List[int],
        path_proc_masks: List[int],
        class_rows: List[int],
        class_members: List[int],
        class_totals: List[int],
        class_sumsq: List[int],
        class_same: List[int],
        class_proc_counts: List[Dict[int, int]],
        index_by_uid: Optional[Dict[int, int]] = None,
    ):
        self.analysis_name = analysis_name
        self.scheme = scheme
        self.proc_names = proc_names
        self.path_strs = path_strs
        self.path_class = path_class
        self.path_counts = path_counts
        self.path_proc_masks = path_proc_masks
        self.class_rows = class_rows
        self.class_members = class_members
        self.class_totals = class_totals
        self.class_sumsq = class_sumsq
        self.class_same = class_same
        self.class_proc_counts = class_proc_counts
        self._row_cache: Dict[int, int] = {}
        # None: built elsewhere (unpickled or arena-backed), so the
        # process-local uid map is unavailable.
        self._index_by_uid = index_by_uid

    # -- construction ---------------------------------------------------

    @classmethod
    def from_references(
        cls,
        references: Dict[str, List[AccessPath]],
        analysis: AliasAnalysis,
    ) -> "BulkAliasMatrix":
        """Build the matrix for ``analysis`` over the canonical reference
        map produced by
        :func:`~repro.analysis.alias_pairs.collect_heap_references`."""
        with obs.span("bulk.build", analysis=analysis.name):
            matrix = cls._build(references, analysis)
        registry = metrics.registry()
        name = analysis.name
        registry.new_counter("aliaspairs.bulk.paths", analysis=name).inc(
            matrix.n_paths)
        registry.new_counter("aliaspairs.bulk.classes", analysis=name).inc(
            matrix.n_classes)
        registry.new_counter("aliaspairs.bulk.adjacent_pairs", analysis=name).inc(
            matrix.adjacent_pairs())
        return matrix

    @classmethod
    def _build(
        cls,
        references: Dict[str, List[AccessPath]],
        analysis: AliasAnalysis,
    ) -> "BulkAliasMatrix":
        proc_names = list(references)
        paths: List[AccessPath] = []
        index_by_uid: Dict[int, int] = {}  # paths are hash-consed
        proc_masks: List[int] = []
        for proc_index, aps in enumerate(references.values()):
            for ap in aps:
                i = index_by_uid.get(ap.uid)
                if i is None:
                    i = index_by_uid[ap.uid] = len(paths)
                    paths.append(ap)
                    proc_masks.append(0)
                proc_masks[i] |= 1 << proc_index
        path_counts = [popcount(m) for m in proc_masks]

        scheme, path_class, k, adjacent, self_adjacent = cls._partition(
            paths, analysis)

        # Adjacency rows, diagonal included.  O(k²) decisions, but k is
        # the number of query-equivalence classes, not references.
        rows = [0] * k
        for i in range(k):
            if (i & 127) == 0:
                guards.check_active()
            if self_adjacent(i):
                rows[i] |= 1 << i
            bit_i = 1 << i
            for j in range(i + 1, k):
                if adjacent(i, j):
                    rows[i] |= 1 << j
                    rows[j] |= bit_i

        members = [0] * k
        totals = [0] * k
        sumsq = [0] * k
        same = [0] * k
        proc_counts: List[Dict[int, int]] = [{} for _ in range(k)]
        for i, c in enumerate(path_class):
            n = path_counts[i]
            members[c] |= 1 << i
            totals[c] += n
            sumsq[c] += n * n
            same[c] += n * (n - 1) // 2
            pc = proc_counts[c]
            for p in iter_bits(proc_masks[i]):
                pc[p] = pc.get(p, 0) + 1

        return cls(
            analysis_name=analysis.name,
            scheme=scheme,
            proc_names=proc_names,
            path_strs=[str(ap) for ap in paths],
            path_class=path_class,
            path_counts=path_counts,
            path_proc_masks=proc_masks,
            class_rows=rows,
            class_members=members,
            class_totals=totals,
            class_sumsq=sumsq,
            class_same=same,
            class_proc_counts=proc_counts,
            index_by_uid=index_by_uid,
        )

    @classmethod
    def _partition(
        cls, paths: List[AccessPath], analysis: AliasAnalysis
    ) -> Tuple[str, List[int], int, Callable[[int, int], bool],
               Callable[[int], bool]]:
        """Choose a scheme and return
        ``(scheme, path_class, n_classes, adjacent, self_adjacent)``."""
        may_alias = analysis.may_alias_canonical
        if isinstance(analysis, FieldTypeDeclAnalysis):
            path_class, sigs, reps = _classes_by(paths, _signature_fn(analysis))

            def adjacent(i: int, j: int) -> bool:
                a, b = sigs[i], sigs[j]
                if a[0] == "q":
                    if b[0] == "s" or (b[0] == "q" and a[1] != b[1]):
                        return False  # case 5, or case 2 with differing fields
                elif a[0] == "s" and b[0] == "q":
                    return False  # case 5, other order
                return may_alias(reps[i], reps[j])

            # Same signature: always aliases (module docstring).
            return "field", path_class, len(sigs), adjacent, lambda i: True
        if isinstance(analysis, TypeDeclAnalysis):
            type_mask = analysis.oracle.type_mask
            path_class, masks, _ = _classes_by(paths, lambda ap: type_mask(ap.type))
            return (
                "typedecl",
                path_class,
                len(masks),
                lambda i, j: (masks[i] & masks[j]) != 0,
                lambda i: True,  # masks contain the type's own bit
            )
        # Generic: one singleton class per distinct path, representative
        # queries for adjacency (including the diagonal).
        return (
            "generic",
            list(range(len(paths))),
            len(paths),
            lambda i, j: may_alias(paths[i], paths[j]),
            lambda i: may_alias(paths[i], paths[i]),
        )

    # -- introspection --------------------------------------------------

    @property
    def n_paths(self) -> int:
        return len(self.path_strs)

    @property
    def n_classes(self) -> int:
        return len(self.class_rows)

    def adjacent_pairs(self) -> int:
        """Number of set bits on or above the diagonal (unordered
        adjacencies, self-adjacency included)."""
        return sum(popcount(row >> i) for i, row in enumerate(self.class_rows))

    def __repr__(self) -> str:
        return "<BulkAliasMatrix {} scheme={} paths={} classes={}>".format(
            self.analysis_name, self.scheme, self.n_paths, self.n_classes)

    # -- point queries --------------------------------------------------

    def may_alias_index(self, i: int, j: int) -> bool:
        """May paths ``i`` and ``j`` (matrix path indices) alias?"""
        return bool(
            (self.class_rows[self.path_class[i]] >> self.path_class[j]) & 1)

    def index_of(self, ap: AccessPath) -> int:
        """Matrix index of an access path seen at build time.

        Uids are process-local, so this map is transient: a matrix that
        crossed a pickle boundary (or came out of an arena) answers
        index- and row-based queries only.
        """
        if self._index_by_uid is None:
            raise LookupError(
                "path-index map is process-local and was dropped on "
                "pickling; query by index instead")
        idx = self._index_by_uid.get(strip_index(ap).uid)
        if idx is None:
            raise KeyError("{} is not a reference path of this matrix".format(ap))
        return idx

    def may_alias_path(self, p: AccessPath, q: AccessPath) -> bool:
        return self.may_alias_index(self.index_of(p), self.index_of(q))

    def path_row(self, i: int) -> int:
        """Packed bitvector over path indices: bit ``j`` set iff path
        ``i`` may alias path ``j``.  Cached per class (all paths of a
        class share one row)."""
        ci = self.path_class[i]
        row = self._row_cache.get(ci)
        if row is None:
            row = 0
            for cj in iter_bits(self.class_rows[ci]):
                row |= self.class_members[cj]
            self._row_cache[ci] = row
        return row

    # -- bulk counting --------------------------------------------------

    def count_pairs(self) -> BulkCounts:
        """Table 5 counts by pure kernels over the prebuilt matrix.

        Within-class terms are gated on the diagonal bit; cross-class
        terms on the off-diagonal bits.  Exact integer arithmetic that
        agrees bit-for-bit with the reference engine.
        """
        with obs.span("bulk.count", analysis=self.analysis_name):
            rows = self.class_rows
            totals = self.class_totals
            proc_counts = self.class_proc_counts
            local = 0
            global_ = 0
            for c in range(len(rows)):
                row = rows[c]
                if (row >> c) & 1:
                    t = totals[c]
                    global_ += self.class_same[c] + (t * t - self.class_sumsq[c]) // 2
                    for n in proc_counts[c].values():
                        local += n * (n - 1) // 2
                for off in iter_bits(row >> (c + 1)):
                    j = c + 1 + off
                    global_ += totals[c] * totals[j]
                    ca, cb = proc_counts[c], proc_counts[j]
                    if len(cb) < len(ca):
                        ca, cb = cb, ca
                    local += sum(n * cb.get(p, 0) for p, n in ca.items())
            return BulkCounts(sum(totals), local, global_)

    # -- pickling -------------------------------------------------------

    def __getstate__(self):
        state = self.__dict__.copy()
        for name in self._TRANSIENT:
            state.pop(name, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._row_cache = {}
        self._index_by_uid = None


def build_matrix(program, analysis: AliasAnalysis) -> BulkAliasMatrix:
    """Matrix for a :class:`~repro.ir.cfg.ProgramIR` in one call."""
    # Imported lazily: alias_pairs imports this module for its fast
    # engine, so a module-level import would be circular.
    from repro.analysis.alias_pairs import collect_heap_references

    return BulkAliasMatrix.from_references(
        collect_heap_references(program), analysis)
