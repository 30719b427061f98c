"""Static alias pairs — the traditional metric (Table 5 of the paper).

For each benchmark the paper reports:

* **References** — heap memory references in the source;
* **L Alias** — *local* pairs: references within the same procedure that
  may alias each other (self-pairs excluded);
* **G Alias** — *global* pairs: references "not necessarily within the
  same procedure" that may alias.

We enumerate references from the IR (each distinct lexical access path
per procedure), excluding compiler-introduced dope-vector accesses (not
source-level) and variable accesses through handles (a VAR parameter read
is a variable access in the source, not a heap reference — its ``p^``
form only matters for alias queries).

Two counting engines produce these numbers:

* ``reference`` — the obvious O(e²) loop: one ``may_alias`` query per
  unordered pair of references.  Kept as the oracle.
* ``fast`` — the class matrix of :mod:`repro.analysis.bulk`: distinct
  canonical paths (each with a procedure bitmask) are partitioned into
  *query-equivalence classes*, one representative query decides each
  class pair, and the count is AND/popcount arithmetic over the
  resulting class-adjacency matrix.  The matrix is picklable, so callers
  that count repeatedly build it once with
  :func:`~repro.analysis.bulk.build_matrix` and reuse it.

``engine='differential'`` runs both engines and asserts they agree — the
regression harness for the fast path.
"""

from typing import Dict, List, Tuple

from repro.analysis.alias_base import AliasAnalysis
from repro.analysis.bulk import BulkAliasMatrix
from repro.ir.access_path import AccessPath, Deref, VarRoot, strip_index
from repro.ir.cfg import ProgramIR
from repro.obs import core as obs
from repro.qa import guards

#: Valid values for the ``engine`` argument of :class:`AliasPairCounter`.
ENGINES = ("reference", "fast", "differential")

#: Engine used when callers do not choose one.  The fast engine is the
#: default; the differential test suite pins it to the reference loop.
DEFAULT_ENGINE = "fast"


def collect_heap_references(program: ProgramIR) -> Dict[str, List[AccessPath]]:
    """Distinct source-level heap reference APs (canonical), per procedure."""
    refs: Dict[str, List[AccessPath]] = {}
    for proc in program.user_procs():
        seen = {}
        for instr in proc.all_instrs():
            if not (instr.is_heap_load or instr.is_heap_store):
                continue
            if instr.is_dope:
                continue  # implicit, not in the source
            ap = instr.ap
            assert ap is not None
            if _is_variable_access(ap):
                continue
            canonical = strip_index(ap)
            seen.setdefault(canonical, None)
        refs[proc.name] = list(seen)
    return refs


def _is_variable_access(ap: AccessPath) -> bool:
    """True for ``h^`` where h is a VAR param or WITH handle: the source
    wrote a plain variable name, not a heap reference."""
    if isinstance(ap, Deref) and isinstance(ap.base, VarRoot):
        return ap.base.is_handle
    return False


class AliasPairReport:
    """Counts for one (program, analysis) combination."""

    def __init__(self, analysis_name: str):
        self.analysis_name = analysis_name
        self.references = 0
        self.local_pairs = 0
        self.global_pairs = 0

    @property
    def local_per_reference(self) -> float:
        """Average number of intraprocedural references each reference may
        alias (the paper quotes 'on average 3.4 references')."""
        if self.references == 0:
            return 0.0
        return 2.0 * self.local_pairs / self.references

    @property
    def global_per_reference(self) -> float:
        if self.references == 0:
            return 0.0
        return 2.0 * self.global_pairs / self.references

    def counts(self) -> Tuple[int, int, int]:
        return (self.references, self.local_pairs, self.global_pairs)

    def __repr__(self) -> str:
        return "<AliasPairReport {}: refs={} L={} G={}>".format(
            self.analysis_name, self.references, self.local_pairs, self.global_pairs
        )


class AliasPairCounter:
    """Computes Table 5's numbers for one program and one analysis.

    ``engine`` selects the counting path (see module docstring); both
    engines are exact and produce identical reports.
    """

    def __init__(
        self,
        program: ProgramIR,
        analysis: AliasAnalysis,
        engine: str = DEFAULT_ENGINE,
    ):
        if engine not in ENGINES:
            raise ValueError(
                "unknown engine {!r}; expected one of {}".format(engine, ENGINES)
            )
        self.program = program
        self.analysis = analysis
        self.engine = engine
        self.references = collect_heap_references(program)

    def count(self) -> AliasPairReport:
        with obs.span("aliaspairs.count", analysis=self.analysis.name,
                      engine=self.engine):
            return self._count()

    def _count(self) -> AliasPairReport:
        if self.engine == "reference":
            return self._count_reference()
        fast = self._count_fast()
        if self.engine == "differential":
            reference = self._count_reference()
            if reference.counts() != fast.counts():
                raise AssertionError(
                    "alias-pair engines disagree for {}: reference={} "
                    "fast={}".format(self.analysis.name, reference, fast))
        return fast

    # ------------------------------------------------------------------
    # Fast engine: build the class matrix, count with pure kernels.

    def _count_fast(self) -> AliasPairReport:
        matrix = BulkAliasMatrix.from_references(self.references, self.analysis)
        counts = matrix.count_pairs()
        report = AliasPairReport(self.analysis.name)
        report.references = counts.references
        report.local_pairs = counts.local_pairs
        report.global_pairs = counts.global_pairs
        return report

    # ------------------------------------------------------------------
    # Reference engine: one query per unordered reference pair.

    def _count_reference(self) -> AliasPairReport:
        report = AliasPairReport(self.analysis.name)
        flat: List[Tuple[str, AccessPath]] = []
        for proc_name, aps in self.references.items():
            flat.extend((proc_name, ap) for ap in aps)
        report.references = len(flat)

        may_alias = self.analysis.may_alias_canonical
        for i in range(len(flat)):
            if (i & 127) == 0:
                guards.check_active()  # O(e²) loop: poll per outer row
            proc_i, ap_i = flat[i]
            for j in range(i + 1, len(flat)):
                proc_j, ap_j = flat[j]
                if may_alias(ap_i, ap_j):
                    report.global_pairs += 1
                    if proc_i == proc_j:
                        report.local_pairs += 1
        return report
