"""IR interpreter with instruction/load accounting.

Replaces the paper's Alpha simulator + ATOM instrumentation.  Counting
conventions (Table 4 of the paper):

* **instructions** — every executed IR instruction, terminators included;
* **heap loads** — LoadField / LoadElem / LoadDopeData / LoadDopeCount,
  and LoadInd when the handle resolves into the heap;
* **other loads** — LoadVar of globals, and LoadInd hitting a variable
  slot.  Reads of locals, parameters and temps are register traffic (the
  paper's baseline ran GCC's register allocator).

``tracer`` (when given) observes every *heap* load and store with its
simulated address, loaded/stored value, instruction and activation id —
the information ATOM recorded for the limit study.

Execution is *compiled*: the first call of a procedure in an
:class:`Interpreter` turns its CFG into one Python function (generated
source, see :class:`_ProcCompiler`) in which every instruction is
inlined as straight-line code on Python locals, and blocks with a single
predecessor are nested into it.  What the function does is fixed by the
interpreter's configuration (machine, tracer, step budget, deadline),
so none of those is tested per instruction.  The function is cached per
interpreter, never on the IR: optimization passes mutate IR in place.

The instruction count follows the one-at-a-time contract at every point
other code can observe it.  Each straight-line segment adds its count
before it runs; segments end at calls, so a callee (and its step check)
sees the caller's count up to and including the call; and when an
instruction raises, the instructions after it in the segment are taken
back off, so a trap leaves exactly the faulting instruction counted.

Cache simulation is *deferred*: during execution every counted memory
access appends its address to a log, and the machine model replays the
log once the program finishes.  A direct-mapped cache depends only on
the access order, which the log preserves, so hits/misses/cycles are
bit-identical to eager simulation — but interpretation and cache
simulation become two separately-timed phases (``run.interp`` and
``run.cachesim`` spans) and the per-access cost drops to a list append.
"""

import itertools
import sys
import weakref
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.ir import instructions as ins
from repro.ir.cfg import BasicBlock, ProgramIR, ProcIR
from repro.lang import types as ty
from repro.lang.errors import ResourceLimitError
from repro.obs import core as obs
from repro.obs import metrics
from repro.qa import guards
from repro.lang.symtab import Symbol
from repro.lang.typecheck import MAIN_PROC
from repro.runtime.machine import MachineModel
from repro.runtime.values import (
    ArrayRef,
    DopeRef,
    ElemLoc,
    FieldLoc,
    HeapAllocator,
    M3RuntimeError,
    ObjectRef,
    RecordRef,
    VarLoc,
    default_value,
)

_GLOBAL_BASE = 0x1000
_STACK_BASE = 0x8000_0000

#: Instructions between wall-clock polls: cheap enough to leave on,
#: frequent enough that runaway programs (and runaway *interpretation*)
#: die promptly.
_POLL_EVERY = 2048


class ExecutionStats:
    """Counters produced by one program run."""

    def __init__(self) -> None:
        self.instructions = 0
        self.heap_loads = 0
        self.other_loads = 0
        self.heap_stores = 0
        self.other_stores = 0
        self.calls = 0
        self.allocations = 0
        self.cycles = 0
        self.output: List[str] = []

    @property
    def loads(self) -> int:
        return self.heap_loads + self.other_loads

    @property
    def heap_load_fraction(self) -> float:
        return self.heap_loads / self.instructions if self.instructions else 0.0

    @property
    def other_load_fraction(self) -> float:
        return self.other_loads / self.instructions if self.instructions else 0.0

    def output_text(self) -> str:
        return "".join(self.output)

    def __repr__(self) -> str:
        return (
            "<ExecutionStats instrs={} heap_loads={} other_loads={} cycles={}>"
            .format(self.instructions, self.heap_loads, self.other_loads, self.cycles)
        )


class _Store:
    """Anything with a ``vars`` mapping — frames and the global area."""

    __slots__ = ("vars",)

    def __init__(self) -> None:
        self.vars: Dict[Symbol, object] = {}


class Frame(_Store):
    """One procedure activation whose locals have their address taken.

    Temps live in Python locals of the compiled procedure; only a
    procedure with ``AddrVar`` on a local builds a frame, because that
    handle (:class:`VarLoc`) needs a store and a stack address.
    """

    __slots__ = ("activation_id", "base_addr", "_addrs")

    def __init__(self, vars: Dict[Symbol, object], activation_id: int, base_addr: int):
        self.vars = vars
        self.activation_id = activation_id
        self.base_addr = base_addr
        self._addrs: Dict[Symbol, int] = {}

    def var_addr(self, symbol: Symbol) -> int:
        addr = self._addrs.get(symbol)
        if addr is None:
            addr = self.base_addr + len(self._addrs) * 8
            self._addrs[symbol] = addr
        return addr


class Interpreter:
    """Executes a :class:`~repro.ir.cfg.ProgramIR`."""

    def __init__(
        self,
        program: ProgramIR,
        machine: Optional[MachineModel] = None,
        tracer: Optional[object] = None,
        max_steps: Optional[int] = None,
        deadline: Optional["guards.Deadline"] = None,
    ):
        self.program = program
        self.machine = machine
        self.tracer = tracer
        self.max_steps = max_steps
        self.deadline = deadline
        self.stats = ExecutionStats()
        self.heap = HeapAllocator()
        self.globals = _Store()
        self._global_addrs: Dict[Symbol, int] = {}
        self._activations = itertools.count(1)
        # Deferred cache simulation: loads append ``addr``, stores append
        # ``~addr`` (addresses are non-negative, so the complement is an
        # unambiguous store marker).  Replayed by ``run()``.
        self._mem_log: List[int] = []
        self._procs = _ProcTable(self)
        self._init_globals()

    # ------------------------------------------------------------------

    def _init_globals(self) -> None:
        for i, symbol in enumerate(self.program.checked.globals):
            assert symbol.type is not None
            self.globals.vars[symbol] = default_value(symbol.type)
            self._global_addrs[symbol] = _GLOBAL_BASE + i * 8

    def run(self) -> ExecutionStats:
        """Execute the module body and return the statistics."""
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 100_000))
        try:
            with obs.span("run.interp", module=self.program.checked.name):
                self.call_proc(MAIN_PROC, [])
        finally:
            sys.setrecursionlimit(old_limit)
            # Replay (and export counters) even when execution dies on a
            # trap or resource limit, so partial runs stay accounted for.
            if self.machine is not None and self._mem_log:
                with obs.span("run.cachesim", accesses=len(self._mem_log)):
                    self.machine.replay(self._mem_log)
                    self._mem_log.clear()
            self._export_metrics()
            # The compiled procedures and their namespaces reference one
            # another; dropping them lets the interpreter (and the
            # program's heap) be freed without the cycle collector.
            self._procs.clear()
        self.stats.allocations = self.heap.allocations
        self.stats.cycles = self.stats.instructions + (
            self.machine.cycles if self.machine else 0
        )
        return self.stats

    def _export_metrics(self) -> None:
        """Bulk-increment the registry counters for this run (one call
        per series, never per event, so the hot loop stays untouched)."""
        registry = metrics.registry()
        stats = self.stats
        registry.counter("run.interp.instructions").inc(stats.instructions)
        registry.counter("run.interp.heap_loads").inc(stats.heap_loads)
        registry.counter("run.interp.heap_stores").inc(stats.heap_stores)
        registry.counter("run.interp.other_loads").inc(stats.other_loads)
        registry.counter("run.interp.calls").inc(stats.calls)
        if self.machine is not None:
            cache = self.machine.cache
            registry.counter("run.cachesim.hits").inc(cache.hits)
            registry.counter("run.cachesim.misses").inc(cache.misses)

    # ------------------------------------------------------------------
    # Procedure execution

    def call_proc(self, name: str, args: List[object]) -> object:
        """Run procedure *name* on *args*; returns its result."""
        return self._procs[name](args)


class _ProcTable(dict):
    """Procedure name -> compiled function, compiled on first call.

    Holds its interpreter weakly: the interpreter holds the table."""

    def __init__(self, interp: Interpreter):
        super().__init__()
        self.interp = weakref.ref(interp)

    def __missing__(self, name: str) -> Callable[[List[object]], object]:
        interp = self.interp()
        fn = self[name] = _ProcCompiler(interp, interp.program.procs[name]).build()
        return fn


# ----------------------------------------------------------------------
# Procedure compiler


def _text_char(text: str, index: object) -> str:
    if not isinstance(index, int) or index < 0 or index >= len(text):
        raise M3RuntimeError("TextChar index {} out of range".format(index))
    return text[index]


#: Builtin name -> expression over its argument names ``{0}``, ``{1}``.
#: ``out`` appends to the program's output.
_BUILTINS: Dict[str, str] = {
    "ORD": "ord({0}) if isinstance({0}, str) else int({0})",
    "VAL": "chr({0})",
    "ABS": "abs({0})",
    "MIN": "min({0}, {1})",
    "MAX": "max({0}, {1})",
    "TextLen": "len({0})",
    "TextChar": "text_char({0}, {1})",
    "TextCat": "{0} + {1}",
    "IntToText": "str({0})",
    "CharToText": "{0}",
    "PutText": "out({0})",
    "PutInt": "out(str({0}))",
    "PutChar": "out({0})",
}

#: BinOp operator -> Python operator.
_BINOPS: Dict[str, str] = {
    "+": "+", "-": "-", "*": "*",
    "=": "==", "#": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}

#: The :class:`ExecutionStats` counters a segment adds ahead of time.
#: An emitted instruction marks where one of its own counts happens by
#: yielding the counter's index instead of a line.
_COUNTERS = ("instructions", "heap_loads", "heap_stores", "other_loads",
             "other_stores")
_HEAP_LOAD, _HEAP_STORE, _OTHER_LOAD, _OTHER_STORE = 1, 2, 3, 4

#: Inline-nesting depth beyond which a block is dispatched instead
#: (Python caps statement nesting).
_MAX_NESTING = 40

#: The condition under which ``check_index`` traps: ``{0}`` the index,
#: ``{1}`` the array.
_BAD_INDEX = "not isinstance({0}, int) or {0} < 0 or {0} >= len({1}.data)"

_PROLOGUE = '''\
def run(args):
    act = next(activations)
    stats.calls += 1
    v = TEMPLATE.copy()'''

#: One emitted line: (indent, text, counts to take back if it raises).
_Line = Tuple[int, str, Optional[Tuple[int, ...]]]


def _take_back(stats: ExecutionStats, counts: Optional[Tuple[int, ...]]) -> None:
    """Undo the counts a segment added for instructions that never ran."""
    if counts is not None:
        for name, count in zip(_COUNTERS, counts):
            setattr(stats, name, getattr(stats, name) - count)


class _ProcCompiler:
    """Generates and compiles the Python function for one procedure.

    A block with exactly one predecessor is emitted inside that
    predecessor (a jump continues in place, a branch nests an ``if``);
    every other block is a *head*, dispatched by number in a ``while``
    loop.

    Each straight-line segment (split after every call) adds its
    instruction count, and the loads and stores its instructions always
    make, before it runs.  ``FIX`` maps each generated line to what its
    segment added for work not yet done when that line runs; the
    function's exception handler takes that back off.

    A temp set once from a constant and read only later in the same
    block is replaced by the literal.
    """

    def __init__(self, interp: Interpreter, proc: ProcIR):
        self.interp = interp
        self.proc = proc
        self.machine = interp.machine
        self.tracer = interp.tracer
        self.ns: Dict[str, object] = {
            "activations": interp._activations,
            "stats": interp.stats,
            "gvars": interp.globals.vars,
            "gstore": interp.globals,
            "log": interp._mem_log.append,
            "mach": interp.machine,
            "alloc": interp.heap.allocate,
            "procs": interp._procs,
            "out": interp.stats.output.append,
            "poll": interp.deadline.check if interp.deadline is not None
            else guards.check_active,
            "take_back": _take_back,
            "text_char": _text_char,
            "is_subtype": ty.is_subtype,
            "Frame": Frame,
            "VarLoc": VarLoc,
            "FieldLoc": FieldLoc,
            "ElemLoc": ElemLoc,
            "ObjectRef": ObjectRef,
            "RecordRef": RecordRef,
            "ArrayRef": ArrayRef,
            "DopeRef": DopeRef,
            "M3RuntimeError": M3RuntimeError,
            "ResourceLimitError": ResourceLimitError,
        }
        if interp.tracer is not None:
            self.ns["tload"] = interp.tracer.on_load
            self.ns["tstore"] = interp.tracer.on_store
        self._names: Dict[int, str] = {}
        self.blocks = proc.blocks()
        self.preds = dict.fromkeys(self.blocks, 0)
        for block in self.blocks:
            for succ in block.successors():
                self.preds[succ] += 1
        self.literals = self._constant_temps()
        self.heads: Dict[BasicBlock, int] = {}
        self.pending: List[BasicBlock] = []
        self.bodies: List[List[_Line]] = []
        self.uses_frame = False

    def _constant_temps(self) -> Dict[int, str]:
        """Temps defined once, by a constant with a Python literal, and
        read only after it in the same block -> that literal."""
        defs: Dict[int, int] = {}
        where: Dict[int, BasicBlock] = {}
        literal: Dict[int, str] = {}
        late: Set[int] = set()  # read outside the defining block or before the def
        for block in self.blocks:
            for instr in block.all_instrs():
                for temp in instr.sources:
                    if where.get(temp.index) is not block:
                        late.add(temp.index)
                dest = instr.dest
                if dest is not None:
                    defs[dest.index] = defs.get(dest.index, 0) + 1
                    where[dest.index] = block
                    text = self.literal(instr.value) if isinstance(
                        instr, ins.ConstInstr) else None
                    if text is not None:
                        literal[dest.index] = text
        return {t: text for t, text in literal.items()
                if defs[t] == 1 and t not in late}

    # -- naming ------------------------------------------------------------

    def const(self, obj: object) -> str:
        """A namespace name bound to *obj*."""
        name = self._names.get(id(obj))
        if name is None:
            name = self._names[id(obj)] = "K{}".format(len(self._names))
            self.ns[name] = obj
        return name

    @staticmethod
    def literal(value: object) -> Optional[str]:
        if value is None or type(value) in (bool, str):
            return repr(value)
        if type(value) is int:
            return repr(value) if value >= 0 else "({!r})".format(value)
        return None

    def t(self, temp: ins.Temp) -> str:
        """The expression reading *temp*."""
        return self.literals.get(temp.index) or "t{}".format(temp.index)

    @staticmethod
    def dest(instr: ins.Instr) -> str:
        return "t{}".format(instr.dest.index)

    def operand(self, instr: ins.Instr, temp: ins.Temp, scratch: str,
                code: list, attribute: bool = False) -> str:
        """*temp* as an operand read after *instr* writes its destination
        (or, with *attribute*, as the object of an attribute access):
        copied to *scratch* first where reading it in place is wrong."""
        name = self.t(temp)
        if (attribute and temp.index in self.literals) or (
                instr.dest is not None and instr.dest.index == temp.index):
            code.append("{} = {}".format(scratch, name))
            return scratch
        return name

    # -- assembly ----------------------------------------------------------

    def build(self) -> Callable[[List[object]], object]:
        self.head(self.proc.entry)
        while self.pending:
            block = self.pending.pop()
            body: List[_Line] = []
            self.block(block, body, 0, 0)
            self.bodies[self.heads[block]] = body
        code = compile("\n".join(self.assemble()) + "\n",
                       "<proc {}>".format(self.proc.name), "exec")
        exec(code, self.ns)
        return self.ns.pop("run")  # no ns -> function -> ns cycle

    def assemble(self) -> List[str]:
        checked = self.proc.checked
        self.ns["TEMPLATE"] = {
            symbol: default_value(symbol.type)
            for symbol in checked.all_symbols if symbol.type is not None
        }
        lines = _PROLOGUE.splitlines()
        if checked.params:
            self.ns["PARAMS"] = tuple(checked.params)
            lines.append("    v.update(zip(PARAMS, args))")
        if self.uses_frame:
            lines.append("    frame = Frame(v, act, {} + act % 4096 * 512)"
                         .format(_STACK_BASE))
        lines.append("    next_poll = stats.instructions + {}".format(_POLL_EVERY))
        read = sorted({t.index for block in self.blocks
                       for i in block.all_instrs() for t in i.sources
                       if t.index not in self.literals})
        if read:
            lines.append("    " + " = ".join("t{}".format(i) for i in read)
                         + " = None")
        fix: Dict[int, Tuple[int, ...]] = {}
        guarded = any(counts for body in self.bodies for _, _, counts in body)
        depth = 1
        if guarded:
            lines.append("    try:")
            depth = 2
        if len(self.bodies) > 1:
            lines.append("    " * depth + "b = 0")
        lines.append("    " * depth + "while True:")

        self.dispatch(0, len(self.bodies), depth + 1, lines, fix)
        if guarded:
            self.ns["FIX"] = fix
            lines.append("    except BaseException as e_:")
            lines.append("        take_back(stats, "
                         "FIX.get(e_.__traceback__.tb_lineno))")
            lines.append("        raise")
        return lines

    def dispatch(self, lo: int, hi: int, indent: int, lines: List[str],
                 fix: Dict[int, Tuple[int, ...]]) -> None:
        """Emit heads ``lo..hi-1``, selected on ``b`` by bisection."""
        if hi - lo == 1:
            self.emit_body(self.bodies[lo], indent, lines, fix)
        elif hi - lo <= 3:
            for k in range(lo, hi - 1):
                lines.append("    " * indent + ("if" if k == lo else "elif")
                             + " b == {}:".format(k))
                self.emit_body(self.bodies[k], indent + 1, lines, fix)
            lines.append("    " * indent + "else:")
            self.emit_body(self.bodies[hi - 1], indent + 1, lines, fix)
        else:
            mid = (lo + hi) // 2
            lines.append("    " * indent + "if b < {}:".format(mid))
            self.dispatch(lo, mid, indent + 1, lines, fix)
            lines.append("    " * indent + "else:")
            self.dispatch(mid, hi, indent + 1, lines, fix)

    @staticmethod
    def emit_body(body: List[_Line], indent: int, lines: List[str],
                  fix: Dict[int, Tuple[int, ...]]) -> None:
        for extra, text, counts in body:
            lines.append("    " * (indent + extra) + text)
            if counts:
                fix[len(lines)] = counts

    def head(self, block: BasicBlock) -> int:
        number = self.heads.get(block)
        if number is None:
            number = self.heads[block] = len(self.bodies)
            self.bodies.append([])
            self.pending.append(block)
        return number

    # -- blocks ------------------------------------------------------------

    def block(self, block: BasicBlock, body: List[_Line], indent: int,
              nesting: int) -> None:
        """Emit *block* and the single-predecessor blocks it reaches."""
        segments: List[List[ins.Instr]] = [[]]
        for instr in block.instrs:
            segments[-1].append(instr)
            if instr.is_call:
                segments.append([])
        terminator = block.terminator
        for number, segment in enumerate(segments):
            final = number == len(segments) - 1 and terminator is not None
            self.segment(segment, final, body, indent)
        if terminator is None:
            body.append((indent, "raise M3RuntimeError({!r})".format(
                "procedure {} fell off the end of block {}".format(
                    self.proc.name, block.name)), None))
            return
        max_steps = self.interp.max_steps
        if max_steps is not None:
            body.append((indent, "if n > {}: raise ResourceLimitError({!r}, "
                         "kind='steps')".format(
                             max_steps,
                             "execution exceeded the step budget of {}".format(
                                 max_steps)), None))
        body.append((indent, "if n >= next_poll:", None))
        body.append((indent + 1, "next_poll = n + {}".format(_POLL_EVERY), None))
        body.append((indent + 1, "poll()", None))
        if isinstance(terminator, ins.Jump):
            self.goto(terminator.target, body, indent, nesting)
        elif isinstance(terminator, ins.Branch):
            body.append((indent, "if {}:".format(self.t(terminator.cond)), None))
            self.goto(terminator.if_true, body, indent + 1, nesting + 1)
            body.append((indent, "else:", None))
            self.goto(terminator.if_false, body, indent + 1, nesting + 1)
        elif isinstance(terminator, ins.Return):
            body.append((indent, "return None" if terminator.value is None
                         else "return {}".format(self.t(terminator.value)), None))
        else:  # pragma: no cover
            body.append((indent, "raise M3RuntimeError({!r})".format(
                "unknown terminator {!r}".format(terminator)), None))

    def segment(self, segment: List[ins.Instr], final: bool,
                body: List[_Line], indent: int) -> None:
        """Emit one straight-line run of instructions behind its counts;
        *final* when the block's terminator ends it."""
        code = [(instr, self.instr(instr)) for instr in segment]
        pending = [0] * len(_COUNTERS)
        for instr, items in code:
            pending[0] += instr.counted
            for item in items:
                if isinstance(item, int):
                    pending[item] += 1
        if final:
            pending[0] += 1
            body.append((indent, "stats.instructions = n = "
                         "stats.instructions + {}".format(pending[0]), None))
        elif pending[0]:
            body.append((indent, "stats.instructions += {}".format(pending[0]), None))
        for name, count in zip(_COUNTERS[1:], pending[1:]):
            if count:
                body.append((indent, "stats.{} += {}".format(name, count), None))
        for instr, items in code:
            pending[0] -= instr.counted
            for item in items:
                if isinstance(item, int):
                    pending[item] -= 1
                    continue
                text = item.lstrip(" ")
                body.append((indent + (len(item) - len(text)) // 4, text,
                             tuple(pending) if any(pending) else None))

    def goto(self, target: BasicBlock, body: List[_Line], indent: int,
             nesting: int) -> None:
        if (target in self.heads or self.preds[target] != 1
                or target is self.proc.entry or nesting > _MAX_NESTING):
            body.append((indent, "b = {}".format(self.head(target)), None))
            body.append((indent, "continue", None))
        else:
            self.block(target, body, indent, nesting)

    # -- instructions --------------------------------------------------------
    #
    # An emitter returns the instruction's lines (nested lines indented
    # by four spaces) and, where it always counts a load or store, the
    # counter's index at the point the count happens.

    def instr(self, instr: ins.Instr) -> list:
        emit = _EMITTERS.get(type(instr))
        if emit is None:  # pragma: no cover
            return ["raise M3RuntimeError({!r})".format(
                "unknown instruction {!r}".format(instr))]
        return emit(self, instr)

    @staticmethod
    def nil_check(instr: ins.Instr, name: str, what: str) -> str:
        """The line trapping if *name* is NIL."""
        return "if {} is None: raise M3RuntimeError({!r})".format(
            name, "{} at {}".format(what, instr.loc))

    def heap_access(self, instr: ins.Instr, addr: str, value: str,
                    store: bool, always: bool = True) -> list:
        """Accounting of one heap load/store: counter, log, tracer.  Not
        *always* (a speculative load) counts inline."""
        code: list = []
        if always:
            code.append(_HEAP_STORE if store else _HEAP_LOAD)
        else:
            code.append("stats.heap_stores += 1" if store else "stats.heap_loads += 1")
        if self.machine is not None and self.tracer is not None:
            code.append("a_ = " + addr)
            addr = "a_"
        if self.machine is not None:
            code.append("log(~({}))".format(addr) if store else "log({})".format(addr))
        if self.tracer is not None:
            code.append("{}({}, {}, {}, act)".format(
                "tstore" if store else "tload", self.const(instr), addr, value))
        return code

    def speculate(self, instr: ins.Instr, test: str, default: str, code: list) -> list:
        """Guard a speculative load: if *test* holds, the destination
        gets *default* and nothing is counted."""
        return (["if {}:".format(test),
                 "    {} = {}".format(self.dest(instr), default),
                 "else:"] + ["    " + line for line in code])

    def e_const(self, instr: ins.ConstInstr) -> list:
        if instr.dest.index in self.literals:
            return []
        value = self.literal(instr.value) or self.const(instr.value)
        return ["{} = {}".format(self.dest(instr), value)]

    def e_move(self, instr: ins.Move) -> list:
        return ["{} = {}".format(self.dest(instr), self.t(instr.src))]

    def e_loadvar(self, instr: ins.LoadVar) -> list:
        symbol = instr.symbol
        if not symbol.is_global:
            return ["{} = v[{}]".format(self.dest(instr), self.const(symbol))]
        code = ["{} = gvars[{}]".format(self.dest(instr), self.const(symbol)),
                _OTHER_LOAD]
        if self.machine is not None:
            code.append("log({})".format(self.interp._global_addrs[symbol]))
        return code

    def e_storevar(self, instr: ins.StoreVar) -> list:
        symbol = instr.symbol
        if not symbol.is_global:
            return ["v[{}] = {}".format(self.const(symbol), self.t(instr.src))]
        code = ["gvars[{}] = {}".format(self.const(symbol), self.t(instr.src)),
                _OTHER_STORE]
        if self.machine is not None:
            code.append("log({})".format(~self.interp._global_addrs[symbol]))
        return code

    def e_binop(self, instr: ins.BinOp) -> list:
        dest, a, b = self.dest(instr), self.t(instr.left), self.t(instr.right)
        op = instr.op
        if op in _BINOPS:
            return ["{} = {} {} {}".format(dest, a, _BINOPS[op], b)]
        if op in ("DIV", "MOD"):
            return ["if {} == 0: raise M3RuntimeError({!r})".format(
                        b, "{} by zero".format(op)),
                    "{} = {} {} {}".format(dest, a, "//" if op == "DIV" else "%", b)]
        if op in ("AND", "OR"):
            return ["{} = bool({} {} {})".format(dest, a, op.lower(), b)]
        return ["raise M3RuntimeError({!r})".format(  # pragma: no cover
            "unknown operator {!r}".format(op))]

    def e_unop(self, instr: ins.UnOp) -> list:
        return ["{} = {}{}".format(self.dest(instr),
                                   "-" if instr.op == "neg" else "not ",
                                   self.t(instr.operand))]

    # -- heap loads/stores

    def _load(self, instr: ins.Instr, code: list, value: str, addr: str,
              base: str, nil_trap: str, default: str,
              index: Optional[str] = None) -> list:
        """A heap load of *value* at *addr*: trap on a NIL *base* (and on
        a bad *index* into it), or, when speculative, yield *default*."""
        dest = self.dest(instr)
        load = ["{} = {}".format(dest, value)] + self.heap_access(
            instr, addr, dest, store=False, always=not instr.speculative)
        bad_index = _BAD_INDEX.format(index, base) if index else None
        if instr.speculative:
            test = "{} is None".format(base) + (
                " or " + bad_index if bad_index else "")
            return code + self.speculate(instr, test, default, load)
        code.append(self.nil_check(instr, base, nil_trap))
        if bad_index:
            code.append("if {}: {}.check_index({})".format(bad_index, base, index))
        return code + load

    def e_loadfield(self, instr: ins.LoadField) -> list:
        code: list = []
        base = self.operand(instr, instr.base, "r_", code, attribute=True)
        field = repr(instr.field)
        return self._load(instr, code, "{}.slots[{}]".format(base, field),
                          "{0}.addr + {0}.offsets[{1}]".format(base, field),
                          base, "NIL dereference", "None")

    def e_storefield(self, instr: ins.StoreField) -> list:
        code: list = []
        base = self.operand(instr, instr.base, "r_", code, attribute=True)
        field = repr(instr.field)
        src = self.t(instr.src)
        return code + [
            self.nil_check(instr, base, "NIL dereference"),
            "{}.slots[{}] = {}".format(base, field, src),
        ] + self.heap_access(instr, "{0}.addr + {0}.offsets[{1}]".format(
            base, field), src, store=True)

    def e_loadelem(self, instr: ins.LoadElem) -> list:
        code: list = []
        base = self.operand(instr, instr.base, "r_", code, attribute=True)
        index = self.operand(instr, instr.index, "i_", code)
        return self._load(instr, code, "{}.data[{}]".format(base, index),
                          "{0}.addr + {1} * {0}.esize".format(base, index),
                          base, "NIL array", "None", index)

    def e_storeelem(self, instr: ins.StoreElem) -> list:
        code: list = []
        base = self.operand(instr, instr.base, "r_", code, attribute=True)
        index = self.t(instr.index)
        src = self.t(instr.src)
        return code + [
            self.nil_check(instr, base, "NIL array"),
            "if {}: {}.check_index({})".format(
                _BAD_INDEX.format(index, base), base, index),
            "{}.data[{}] = {}".format(base, index, src),
        ] + self.heap_access(instr, "{0}.addr + {1} * {0}.esize".format(
            base, index), src, store=True)

    def _dope_load(self, instr: ins.Instr, attr: str, offset: int, default: str) -> list:
        code: list = []
        base = self.operand(instr, instr.base, "r_", code, attribute=True)
        addr = "{}.addr + {}".format(base, offset) if offset else base + ".addr"
        return self._load(instr, code, "{}.{}".format(base, attr), addr,
                          base, "NIL open array", default)

    def e_loaddope_data(self, instr: ins.LoadDopeData) -> list:
        return self._dope_load(instr, "data", DopeRef.DATA_OFFSET, "None")

    def e_loaddope_count(self, instr: ins.LoadDopeCount) -> list:
        return self._dope_load(instr, "count", DopeRef.COUNT_OFFSET, "0")

    # -- indirect (handles and scalar REF cells)

    def _indirect(self, instr: ins.Instr, store: bool) -> List[str]:
        """The four handle kinds of LoadInd/StoreInd, as an if-chain on
        ``h_``.  A load assigns ``x_``; a store writes ``x_``."""
        slot = repr(RecordRef.SCALAR_SLOT)

        def access(addr: str) -> List[str]:
            return self.heap_access(instr, addr, "x_", store, always=False)

        other = (["h_.store.vars[h_.symbol] = x_", "stats.other_stores += 1"]
                 if store else
                 ["x_ = h_.store.vars[h_.symbol]", "stats.other_loads += 1"])
        if self.machine is not None:
            other.append("log(~h_.addr)" if store else "log(h_.addr)")
        cases = [
            ("VarLoc", other),
            ("FieldLoc", ["r_ = h_.ref", "f_ = h_.field"]
             + (["r_.slots[f_] = x_"] if store else ["x_ = r_.slots[f_]"])
             + access("r_.addr + r_.offsets[f_]")),
            ("ElemLoc", ["r_ = h_.array", "i_ = h_.index", "r_.check_index(i_)"]
             + (["r_.data[i_] = x_"] if store else ["x_ = r_.data[i_]"])
             + access("r_.addr + i_ * r_.esize")),
            ("RecordRef", (["h_.slots[{}] = x_".format(slot)] if store
                           else ["x_ = h_.slots[{}]".format(slot)])
             + access("h_.addr + h_.offsets[{}]".format(slot))),
        ]
        code = []
        for k, (kind, lines) in enumerate(cases):
            code.append("{} isinstance(h_, {}):".format("if" if k == 0 else "elif", kind))
            code.extend("    " + line for line in lines)
        code.append("else:")
        code.append("    raise M3RuntimeError('bad indirect {} target {{!r}}'"
                    ".format(h_))".format("store" if store else "load"))
        return code

    def e_loadind(self, instr: ins.LoadInd) -> list:
        load = self._indirect(instr, store=False) + [
            "{} = x_".format(self.dest(instr))]
        code = ["h_ = {}".format(self.t(instr.handle))]
        if instr.speculative:
            return code + self.speculate(instr, "h_ is None", "None", load)
        return code + [self.nil_check(instr, "h_", "NIL dereference")] + load

    def e_storeind(self, instr: ins.StoreInd) -> list:
        return ["h_ = {}".format(self.t(instr.handle)),
                "x_ = {}".format(self.t(instr.src)),
                self.nil_check(instr, "h_", "NIL dereference"),
                ] + self._indirect(instr, store=True)

    # -- address-of

    def e_addrvar(self, instr: ins.AddrVar) -> list:
        symbol = instr.symbol
        name = self.const(symbol)
        if symbol.is_global:
            return ["{} = VarLoc(gstore, {}, {})".format(
                self.dest(instr), name, self.interp._global_addrs[symbol])]
        self.uses_frame = True
        return ["{} = VarLoc(frame, {}, frame.var_addr({}))".format(
            self.dest(instr), name, name)]

    def e_addrfield(self, instr: ins.AddrField) -> list:
        base = self.t(instr.base)
        return [self.nil_check(instr, base, "NIL dereference"),
                "{} = FieldLoc({}, {!r})".format(self.dest(instr), base, instr.field)]

    def e_addrelem(self, instr: ins.AddrElem) -> list:
        code: list = []
        base = self.operand(instr, instr.base, "r_", code, attribute=True)
        index = self.t(instr.index)
        return code + [
            self.nil_check(instr, base, "NIL array"),
            "{}.check_index({})".format(base, index),
            "{} = ElemLoc({}, {})".format(self.dest(instr), base, index)]

    # -- allocation

    def e_newobject(self, instr: ins.NewObject) -> list:
        otype = instr.object_type
        return ["{} = ObjectRef({}, alloc({}), {})".format(
            self.dest(instr), self.const(otype), ObjectRef.size_of(otype),
            self.const(ObjectRef.layout(otype)))]

    def e_newrecord(self, instr: ins.NewRecord) -> list:
        rtype = instr.ref_type
        return ["{} = RecordRef({}, alloc({}), {})".format(
            self.dest(instr), self.const(rtype), RecordRef.size_of(rtype),
            self.const(RecordRef.layout(rtype)))]

    def e_newfixedarray(self, instr: ins.NewFixedArray) -> list:
        target = instr.ref_type.target
        assert isinstance(target, ty.ArrayType) and target.length is not None
        return ["{} = ArrayRef({}, {}, alloc({}))".format(
            self.dest(instr), self.const(target.element), target.length,
            ArrayRef.size_of(target.element, target.length))]

    def e_newopenarray(self, instr: ins.NewOpenArray) -> list:
        target = instr.ref_type.target
        assert isinstance(target, ty.ArrayType) and target.is_open
        element = self.const(target.element)
        return ["n_ = {}".format(self.t(instr.size)),
                "if not isinstance(n_, int) or n_ < 0: "
                "raise M3RuntimeError('bad open array size {!r}'.format(n_))",
                "r_ = ArrayRef({0}, n_, alloc(ArrayRef.size_of({0}, n_)))".format(element),
                "{} = DopeRef(r_, alloc({}))".format(self.dest(instr), DopeRef.SIZE)]

    # -- calls

    def _call(self, instr: ins.Instr, callee: str, args: List[str], overhead: int) -> list:
        code = []
        if self.machine is not None:
            code.append("mach.cycles += {}".format(overhead))
        call = "procs[{}]([{}])".format(callee, ", ".join(args))
        code.append(call if instr.dest is None
                    else "{} = {}".format(self.dest(instr), call))
        return code

    def e_call(self, instr: ins.Call) -> list:
        return self._call(instr, repr(instr.proc_name),
                          [self.t(a) for a in instr.args],
                          MachineModel.CALL_OVERHEAD)

    def e_callmethod(self, instr: ins.CallMethod) -> list:
        method = repr(instr.method_name)
        return ["r_ = {}".format(self.t(instr.receiver)),
                self.nil_check(instr, "r_", "method call on NIL"),
                "m_ = r_.otype.method_impl({})".format(method),
                "if m_ is None: raise M3RuntimeError('method {{}} unimplemented "
                "for {{}}'.format({}, r_.otype.name))".format(method),
                ] + self._call(instr, "m_", ["r_"] + [self.t(a) for a in instr.args],
                               MachineModel.CALL_OVERHEAD
                               + MachineModel.METHOD_DISPATCH_OVERHEAD)

    def e_builtin(self, instr: ins.Builtin) -> list:
        args = [self.t(a) for a in instr.args]
        if instr.name == "ASSERT":
            code = ["if not {}: raise M3RuntimeError({!r})".format(
                args[0], "assertion failed at {}".format(instr.loc))]
            if instr.dest is not None:
                code.append("{} = None".format(self.dest(instr)))
            return code
        if instr.name not in _BUILTINS:  # pragma: no cover
            return ["raise M3RuntimeError({!r})".format(
                "unknown builtin {}".format(instr.name))]
        value = _BUILTINS[instr.name].format(*args)
        if instr.dest is None:
            return [value]
        return ["{} = {}".format(self.dest(instr), value)]

    def e_typetest(self, instr: ins.TypeTest) -> list:
        target = self.const(instr.target_type)
        return ["x_ = {}".format(self.t(instr.src)),
                # NIL is a member of every object type
                "{0} = True if x_ is None else ((x_.otype is {1} or is_subtype("
                "x_.otype, {1})) if isinstance(x_, ObjectRef) else False)".format(
                    self.dest(instr), target)]

    def e_narrow(self, instr: ins.NarrowChk) -> list:
        return ["x_ = {}".format(self.t(instr.src)),
                "if x_ is not None and (not isinstance(x_, ObjectRef) or (x_.otype "
                "is not {0} and not is_subtype(x_.otype, {0}))): "
                "raise M3RuntimeError({1!r})".format(
                    self.const(instr.target_type),
                    "NARROW to {} fails at {}".format(
                        instr.target_type.name, instr.loc)),
                "{} = x_".format(self.dest(instr))]


_EMITTERS = {
    ins.ConstInstr: _ProcCompiler.e_const,
    ins.Move: _ProcCompiler.e_move,
    ins.LoadVar: _ProcCompiler.e_loadvar,
    ins.StoreVar: _ProcCompiler.e_storevar,
    ins.BinOp: _ProcCompiler.e_binop,
    ins.UnOp: _ProcCompiler.e_unop,
    ins.LoadField: _ProcCompiler.e_loadfield,
    ins.StoreField: _ProcCompiler.e_storefield,
    ins.LoadElem: _ProcCompiler.e_loadelem,
    ins.StoreElem: _ProcCompiler.e_storeelem,
    ins.LoadDopeData: _ProcCompiler.e_loaddope_data,
    ins.LoadDopeCount: _ProcCompiler.e_loaddope_count,
    ins.LoadInd: _ProcCompiler.e_loadind,
    ins.StoreInd: _ProcCompiler.e_storeind,
    ins.AddrVar: _ProcCompiler.e_addrvar,
    ins.AddrField: _ProcCompiler.e_addrfield,
    ins.AddrElem: _ProcCompiler.e_addrelem,
    ins.NewObject: _ProcCompiler.e_newobject,
    ins.NewRecord: _ProcCompiler.e_newrecord,
    ins.NewFixedArray: _ProcCompiler.e_newfixedarray,
    ins.NewOpenArray: _ProcCompiler.e_newopenarray,
    ins.Call: _ProcCompiler.e_call,
    ins.CallMethod: _ProcCompiler.e_callmethod,
    ins.Builtin: _ProcCompiler.e_builtin,
    ins.TypeTest: _ProcCompiler.e_typetest,
    ins.NarrowChk: _ProcCompiler.e_narrow,
}
