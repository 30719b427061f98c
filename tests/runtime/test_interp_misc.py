"""Interpreter odds and ends: stats properties, step limits, determinism."""

import pytest

from repro import compile_program
from repro.runtime import Interpreter, M3RuntimeError, MachineModel


SOURCE = """
MODULE M;
TYPE T = OBJECT n: INTEGER; END;
VAR t: T; x, i: INTEGER;
BEGIN
  t := NEW (T, n := 2);
  FOR i := 1 TO 100 DO
    x := x + t.n;
  END;
  PutInt (x);
END M.
"""

INFINITE = """
MODULE M;
VAR x: INTEGER;
BEGIN
  LOOP
    x := x + 1;
  END;
END M.
"""


def test_stats_properties():
    program = compile_program(SOURCE)
    stats = program.run()
    assert stats.loads == stats.heap_loads + stats.other_loads
    assert 0.0 < stats.heap_load_fraction < 1.0
    assert 0.0 <= stats.other_load_fraction < 1.0
    assert stats.output_text() == "200"
    assert "instrs" in repr(stats)


def test_step_limit_stops_runaway():
    from repro.lang.errors import ResourceLimitError

    program = compile_program(INFINITE)
    interp = Interpreter(program.base().program, max_steps=10_000)
    with pytest.raises(ResourceLimitError) as err:
        interp.run()
    assert err.value.kind == "steps"


def test_deadline_stops_runaway():
    from repro.lang.errors import ResourceLimitError
    from repro.qa.guards import Deadline, guarded

    program = compile_program(INFINITE)
    interp = Interpreter(program.base().program, deadline=Deadline(0.05, "test run"))
    with pytest.raises(ResourceLimitError) as err:
        interp.run()
    assert err.value.kind == "wall-clock"

    # The ambient guard stack works too, without threading a handle.
    with guarded(0.05, "ambient"):
        with pytest.raises(ResourceLimitError):
            Interpreter(program.base().program).run()


def test_no_machine_means_no_latency_cycles():
    program = compile_program(SOURCE)
    result = program.base()
    bare = Interpreter(result.program, machine=None).run()
    timed = Interpreter(result.program, machine=MachineModel()).run()
    assert bare.instructions == timed.instructions
    assert bare.cycles == bare.instructions  # only instruction cycles
    assert timed.cycles > timed.instructions


def test_allocations_counted():
    program = compile_program(SOURCE)
    stats = program.run()
    assert stats.allocations == 1


def test_empty_stats_fractions():
    from repro.runtime.interp import ExecutionStats

    stats = ExecutionStats()
    assert stats.heap_load_fraction == 0.0
    assert stats.other_load_fraction == 0.0


# ----------------------------------------------------------------------
# The counting contract: exact counters wherever execution stops.
#
# The interpreter counts an instruction before running it, so a trap
# leaves the faulting instruction counted and every later one uncounted;
# a callee's step check sees the caller's count up to and including the
# call.  These pins hold for any execution strategy.


def _counters(stats):
    return {
        "instructions": stats.instructions,
        "heap_loads": stats.heap_loads,
        "other_loads": stats.other_loads,
        "heap_stores": stats.heap_stores,
        "other_stores": stats.other_stores,
        "calls": stats.calls,
    }


def _trap(source, **kwargs):
    """Run *source*'s base program to its trap; returns (error, counters)."""
    program = compile_program(source)
    interp = Interpreter(program.base().program, machine=MachineModel(), **kwargs)
    with pytest.raises(Exception) as err:
        interp.run()
    return err.value, _counters(interp.stats)


NIL_MID_BLOCK = """
MODULE M;
TYPE T = OBJECT n: INTEGER; END;
VAR t, u: T; x, y: INTEGER;
PROCEDURE P () =
BEGIN
  u.n := 5;
  x := u.n + y;
  y := t.n;
  x := 7;
  u.n := x;
END P;
BEGIN
  u := NEW (T);
  y := 3;
  P ();
  PutInt (x);
END M.
"""


def test_counts_at_nil_dereference_mid_block():
    err, counters = _trap(NIL_MID_BLOCK)
    assert isinstance(err, M3RuntimeError)
    assert "NIL dereference" in str(err)
    assert counters == {
        "instructions": 14, "heap_loads": 0, "other_loads": 4,
        "heap_stores": 1, "other_stores": 3, "calls": 2,
    }


DIV_ZERO = """
MODULE M;
VAR x, y, z: INTEGER;
PROCEDURE Q (a, b: INTEGER): INTEGER =
BEGIN
  z := a + 1;
  RETURN a DIV b + z;
END Q;
BEGIN
  x := 10;
  PutInt (Q (x, y));
END M.
"""


def test_counts_at_div_by_zero():
    err, counters = _trap(DIV_ZERO)
    assert isinstance(err, M3RuntimeError)
    assert str(err) == "DIV by zero"
    assert counters == {
        "instructions": 12, "heap_loads": 0, "other_loads": 2,
        "heap_stores": 0, "other_stores": 2, "calls": 2,
    }


NESTED_LOOPS = """
MODULE M;
TYPE T = OBJECT n: INTEGER; END;
VAR t: T; x: INTEGER;
PROCEDURE Inner (k: INTEGER) =
BEGIN
  FOR i := 1 TO k DO
    t.n := t.n + i;
  END;
END Inner;
BEGIN
  t := NEW (T);
  LOOP
    Inner (50);
    x := x + 1;
  END;
END M.
"""


def test_counts_at_step_budget_inside_callee():
    from repro.lang.errors import ResourceLimitError

    err, counters = _trap(NESTED_LOOPS, max_steps=1000)
    assert isinstance(err, ResourceLimitError) and err.kind == "steps"
    assert counters == {
        "instructions": 1002, "heap_loads": 65, "other_loads": 131,
        "heap_stores": 65, "other_stores": 2, "calls": 3,
    }


def test_step_budget_is_checked_after_each_terminator():
    from repro.lang.errors import ResourceLimitError

    program = compile_program(SOURCE)
    ir = program.base().program
    total = Interpreter(ir).run().instructions
    # A budget equal to the whole run's count is never exceeded ...
    assert Interpreter(ir, max_steps=total).run().instructions == total
    # ... one less trips on the final return, with everything counted.
    interp = Interpreter(ir, max_steps=total - 1)
    with pytest.raises(ResourceLimitError):
        interp.run()
    assert interp.stats.instructions == total


def test_counts_at_deadline_stop():
    from repro.lang.errors import ResourceLimitError
    from repro.qa.guards import Deadline

    # An already-expired deadline fires at the first poll: the first
    # terminator at which some activation has run 2048 instructions.
    err, counters = _trap(NESTED_LOOPS, deadline=Deadline(0.0, "expired"))
    assert isinstance(err, ResourceLimitError) and err.kind == "wall-clock"
    assert counters == {
        "instructions": 2304, "heap_loads": 150, "other_loads": 303,
        "heap_stores": 150, "other_stores": 4, "calls": 4,
    }


UNTERMINATED = """
MODULE M;
VAR x: INTEGER;
PROCEDURE P (a: INTEGER) =
BEGIN
  x := x + a;
END P;
BEGIN
  x := 1;
  IF x > 100 THEN
    x := 0;
  END;
  P (2);
  PutInt (x);
END M.
"""


def _strip_terminator(proc):
    """Drop the terminator of *proc*'s entry block; returns the block."""
    block = proc.entry
    block.terminator = None
    return block


def test_call_into_unterminated_block_falls_off_the_end():
    program = compile_program(UNTERMINATED)
    ir = program.base().program
    block = _strip_terminator(ir.procs["P"])
    interp = Interpreter(ir, machine=MachineModel())
    with pytest.raises(M3RuntimeError) as err:
        interp.run()
    assert str(err.value) == "procedure P fell off the end of block {}".format(
        block.name)
    assert _counters(interp.stats) == {
        "instructions": 13, "heap_loads": 0, "other_loads": 2,
        "heap_stores": 0, "other_stores": 2, "calls": 2,
    }


def test_unreached_unterminated_block_is_harmless():
    program = compile_program(UNTERMINATED)
    ir = program.base().program
    expected = Interpreter(ir, machine=MachineModel()).run()
    # The THEN arm of ``IF x > 100`` never runs; leave it unterminated.
    from repro.lang.typecheck import MAIN_PROC

    main = ir.procs[MAIN_PROC]
    then_arm = main.entry.terminator.if_true
    then_arm.terminator = None
    stats = Interpreter(ir, machine=MachineModel()).run()
    assert stats.output_text() == expected.output_text() == "3"
    assert _counters(stats) == _counters(expected)
    assert stats.cycles == expected.cycles
