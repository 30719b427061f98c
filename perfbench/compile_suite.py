"""compile-suite: the compile-time half of the paper (Tables 5 and 6).

Each request compiles one paper program from source and produces its
Table 5 row and, for the 8 dynamic programs, its Table 6 row: parse and
type-check, lower the base program, build the three analyses, count
their alias pairs with the fast engine, and run RLE under each.  The
seed shuffles the order of the 10 programs in each pass.  Every row is
checked against the committed tables.
"""

import random

from common import cell, import_repro, read_table

#: Upper bound on passes in one run; the plan is generated up front so
#: its digest covers every request the run can send.
MAX_PASSES = 500


class CompileSuite:
    name = "compile-suite"
    #: 10 passes are 100 requests: enough for program_ms.p90.
    min_passes = 10
    #: Seconds one pass takes at the committed code; sizes the run.
    pass_s = 1.0

    def setup(self, seed):
        repro = import_repro()
        from repro.bench import registry

        self.repro = repro
        self.names = registry.benchmark_names()
        self.dynamic = set(registry.dynamic_benchmark_names())
        self.sources = {n: registry.load_source(n) for n in self.names}
        self.table5 = read_table("table5")
        self.table6 = read_table("table6")
        rng = random.Random(seed)
        self.plan = []
        for _ in range(MAX_PASSES):
            order = list(self.names)
            rng.shuffle(order)
            self.plan.append(order)
        # One untimed request per program, so lazy imports and
        # first-call costs are paid before timing.
        if not all(self.request(name) for name in self.names):
            raise AssertionError("warm-up request gave wrong rows")

    def plan_for_digest(self):
        return self.plan

    def request(self, name):
        """One program's Table 5 (and Table 6) row; True if correct."""
        repro = self.repro
        program = repro.compile_program(self.sources[name], name)
        base = program.base()
        t5 = []
        references = None
        for analysis in repro.ANALYSIS_NAMES:
            report = repro.AliasPairCounter(
                base.program, program.analysis(analysis), engine="fast"
            ).count()
            references = report.references
            t5.extend([report.local_pairs, report.global_pairs])
        t5.insert(0, references)
        ok = [cell(v) for v in t5] == self.table5[name]
        if name in self.dynamic:
            t6 = [program.optimize(a).rle.eliminated_loads
                  for a in repro.ANALYSIS_NAMES]
            ok = ok and [cell(v) for v in t6] == self.table6[name]
        return ok
