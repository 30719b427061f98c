"""execute-suite: the run-time half of the paper (Figures 8 to 10).

Set-up compiles and optimizes the 8 dynamic programs (base and
RLE[SMFieldTypeRefs]).  Each request then produces one program's
Figure 8/9/10 row: interpret the base and the RLE program under the
machine model, then run the limit study on the RLE program.  The seed
shuffles the order.  Only the runtime layer works in the timed region.

Checks per request: the optimized program prints exactly what the base
program prints, the base instruction count equals Table 4, and the
columns the request computes equal the committed figures (Figure 8's
SMFieldTypeRefs column, Figure 9's after-RLE column, all of Figure 10).
"""

import random

from common import cell, import_repro, read_table

ANALYSIS = "SMFieldTypeRefs"

MAX_PASSES = 100


class ExecuteSuite:
    name = "execute-suite"
    min_passes = 1
    #: Seconds one pass takes at the committed code; sizes the run.
    pass_s = 10.0

    def setup(self, seed):
        repro = import_repro()
        from repro.bench import registry
        from repro.runtime.limit import Category

        self.repro = repro
        self.categories = list(Category)
        self.names = registry.dynamic_benchmark_names()
        self.built = {}
        for name in self.names:
            program = repro.compile_program(registry.load_source(name), name)
            self.built[name] = (program.base(), program.optimize(ANALYSIS))
        self.table4 = read_table("table4")
        self.figure8 = read_table("figure8")
        self.figure9 = read_table("figure9")
        self.figure10 = read_table("figure10")
        rng = random.Random(seed)
        self.plan = []
        for _ in range(MAX_PASSES):
            order = list(self.names)
            rng.shuffle(order)
            self.plan.append(order)

    def plan_for_digest(self):
        return self.plan

    def request(self, name):
        repro = self.repro
        base, rle = self.built[name]
        before = repro.Interpreter(base.program,
                                   machine=repro.MachineModel()).run()
        after = repro.Interpreter(rle.program,
                                  machine=repro.MachineModel()).run()
        report = repro.LimitStudy(rle.program, rle.load_status).run()
        relative = after.cycles / before.cycles if before.cycles else 1.0
        ok = (
            after.output_text() == before.output_text()
            and cell(before.instructions) == self.table4[name][1]
            and cell(round(100.0 * relative, 1)) == self.figure8[name][3]
            and cell(round(report.redundant_fraction, 3))
            == self.figure9[name][1]
            and [cell(round(report.category_fraction(c), 4))
                 for c in self.categories]
            + [cell(round(report.redundant_fraction, 4))]
            == self.figure10[name]
        )
        return ok
