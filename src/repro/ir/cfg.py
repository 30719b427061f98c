"""Basic blocks, per-procedure CFGs and the whole-program IR container."""

import itertools
from typing import Dict, Iterator, List, Optional, Set

from repro.ir import instructions as ins
from repro.lang.symtab import Symbol
from repro.lang.typecheck import CheckedModule, CheckedProc, MAIN_PROC


class BasicBlock:
    """A straight-line instruction sequence ending in one terminator."""

    _labels = itertools.count()

    def __init__(self, name: Optional[str] = None):
        self.name = name or "B{}".format(next(BasicBlock._labels))
        self.instrs: List[ins.Instr] = []
        self.terminator: Optional[ins.Instr] = None

    def append(self, instr: ins.Instr) -> ins.Instr:
        assert self.terminator is None, "appending to a terminated block"
        assert not instr.is_terminator
        self.instrs.append(instr)
        return instr

    def terminate(self, instr: ins.Instr) -> None:
        assert self.terminator is None, "block already terminated"
        assert instr.is_terminator
        self.terminator = instr

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def successors(self) -> List["BasicBlock"]:
        if self.terminator is None:
            return []
        return list(self.terminator.successors)  # type: ignore[attr-defined]

    def all_instrs(self) -> Iterator[ins.Instr]:
        """Body instructions followed by the terminator."""
        yield from self.instrs
        if self.terminator is not None:
            yield self.terminator

    def __repr__(self) -> str:
        return "<BasicBlock {} ({} instrs)>".format(self.name, len(self.instrs))


class ProcIR:
    """The lowered body of one procedure."""

    def __init__(self, name: str, checked: CheckedProc, entry: BasicBlock):
        self.name = name
        self.checked = checked
        self.entry = entry
        self.n_temps = 0
        # Shadow locals invented by optimizations (RLE caches); they are
        # register-class symbols and never count as memory.
        self.shadow_symbols: List[Symbol] = []
        # WITH handles: binding symbol -> ('var', sym) | ('handle', sym) |
        # ('heap', ap), describing the location the handle aliases.  Used
        # by mod-ref and RLE to resolve writes through the handle.
        self.handle_targets: Dict[Symbol, tuple] = {}

    def new_temp(self) -> ins.Temp:
        temp = ins.Temp(self.n_temps)
        self.n_temps += 1
        return temp

    def blocks(self) -> List[BasicBlock]:
        """All reachable blocks in reverse-postorder from the entry."""
        # Explicit-stack DFS: a CFG may be deeper than Python's
        # recursion limit (one block per sequential IF).
        order: List[BasicBlock] = []
        seen: Set[int] = {id(self.entry)}
        stack = [(self.entry, iter(self.entry.successors()))]
        while stack:
            block, succs = stack[-1]
            for succ in succs:
                if id(succ) not in seen:
                    seen.add(id(succ))
                    stack.append((succ, iter(succ.successors())))
                    break
            else:
                stack.pop()
                order.append(block)
        order.reverse()
        return order

    def predecessors(self) -> Dict[BasicBlock, List[BasicBlock]]:
        preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in self.blocks()}
        for block in preds:
            for succ in block.successors():
                preds[succ].append(block)
        return preds

    def all_instrs(self) -> Iterator[ins.Instr]:
        for block in self.blocks():
            yield from block.all_instrs()

    def heap_loads(self) -> List[ins.Instr]:
        return [i for i in self.all_instrs() if i.is_heap_load]

    def heap_stores(self) -> List[ins.Instr]:
        return [i for i in self.all_instrs() if i.is_heap_store]

    def __repr__(self) -> str:
        return "<ProcIR {} ({} blocks)>".format(self.name, len(self.blocks()))


class ProgramIR:
    """The lowered whole program: all procedures plus front-end results.

    The module body is the procedure named :data:`repro.lang.typecheck.MAIN_PROC`.
    """

    def __init__(self, checked: CheckedModule):
        self.checked = checked
        self.procs: Dict[str, ProcIR] = {}
        self.proc_order: List[str] = []

    def add_proc(self, proc: ProcIR) -> None:
        self.procs[proc.name] = proc
        self.proc_order.append(proc.name)

    @property
    def main(self) -> ProcIR:
        return self.procs[MAIN_PROC]

    def user_procs(self) -> List[ProcIR]:
        return [self.procs[name] for name in self.proc_order]

    def all_instrs(self) -> Iterator[ins.Instr]:
        for proc in self.user_procs():
            yield from proc.all_instrs()

    def __repr__(self) -> str:
        return "<ProgramIR {} ({} procs)>".format(
            self.checked.name, len(self.procs)
        )
