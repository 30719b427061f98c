"""Load/store trace recording — the ATOM substitute.

The paper instrumented every load in the executable with ATOM, recording
address and value, to find *dynamically redundant* loads.  Our tracer
receives the same events from the interpreter.  It does not retain the
full trace (which would be huge); instead it maintains exactly the state
the redundancy definition needs:

    "A redundant load is when two consecutive loads of the same address
     load the same value in the same procedure activation."

For each activation we keep ``address -> (value, last loading instr,
store clock then)``; a global per-address store clock lets the classifier
distinguish "no store intervened" (a spurious alias kill) from "a store
wrote the same value back".
"""

from typing import Callable, Dict, Optional, Tuple

from repro.ir import instructions as ins


class LoadStoreTracer:
    """Observes heap loads/stores; feeds the limit study.

    ``on_redundant`` (if given) is called for every dynamically redundant
    load occurrence with ``(instr, prev_instr, store_intervened)``.
    """

    def __init__(
        self,
        on_redundant: Optional[
            Callable[[ins.Instr, ins.Instr, bool], None]
        ] = None,
    ):
        # activation -> address -> (value, last loading instr, store
        # clock of the address observed at that load)
        self._last_load: Dict[int, Dict[int, Tuple[object, ins.Instr, int]]] = {}
        # address -> monotonically increasing store clock
        self._store_clock: Dict[int, int] = {}
        # the activation of the previous load and its table: loads come
        # in runs from one activation
        self._activation: Optional[int] = None
        self._loads: Dict[int, Tuple[object, ins.Instr, int]] = {}
        self._clock = 0
        self.on_redundant = on_redundant

        self.total_loads = 0
        self.redundant_loads = 0
        # per-instruction dynamic counts
        self.loads_by_instr: Dict[int, int] = {}
        self.redundant_by_instr: Dict[int, int] = {}

    # -- interpreter hook API -------------------------------------------

    def on_load(self, instr: ins.Instr, addr: int, value: object, activation: int) -> None:
        self.total_loads += 1
        uid = instr.uid
        by_instr = self.loads_by_instr
        by_instr[uid] = by_instr.get(uid, 0) + 1
        if activation == self._activation:
            loads = self._loads
        else:
            loads = self._last_load.get(activation)
            if loads is None:
                loads = self._last_load[activation] = {}
            self._activation = activation
            self._loads = loads
        clock = self._store_clock.get(addr, 0)
        previous = loads.get(addr)
        loads[addr] = (value, instr, clock)
        if previous is not None and (
                previous[0] is value or _same_value(previous[0], value)):
            self.redundant_loads += 1
            self.redundant_by_instr[uid] = self.redundant_by_instr.get(uid, 0) + 1
            if self.on_redundant is not None:
                self.on_redundant(instr, previous[1], clock > previous[2])

    def on_store(self, instr: ins.Instr, addr: int, value: object, activation: int) -> None:
        self._clock += 1
        self._store_clock[addr] = self._clock

    # -- results -----------------------------------------------------------

    @property
    def redundant_fraction(self) -> float:
        """Redundant loads as a fraction of all traced heap loads."""
        return self.redundant_loads / self.total_loads if self.total_loads else 0.0


def _same_value(a: object, b: object) -> bool:
    """ATOM compared register bits; we compare values exactly.

    References compare by identity, scalars by equality; ``True == 1``
    style cross-type coincidences are rejected by the type check.
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, (int, bool, str)) or a is None:
        return a == b
    return a is b
