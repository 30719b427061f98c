"""Warm analysis sessions over the fact cache.

The :class:`SessionManager` is what makes ``repro serve`` fast: it keeps
one :class:`ModuleSession` per *content hash* of served source, so

* a repeated query never recompiles — answers come straight from the
  session's :class:`~repro.analysis.facts.FactBundle` (Table 5 counts
  and bulk matrices are part of the bundle, so a warm ``alias`` query is
  a dictionary lookup);
* a **miss** first consults the on-disk :class:`~repro.serve.factcache.
  FactStore` — a daemon restart, or a corpus of modules larger than the
  in-memory session cap, still answers without compiling;
* an **edit** re-keys only its own module: the new hash misses, the old
  partition stays valid for anyone still serving the old text, and the
  manager diffs per-procedure IR hashes (taken at lower time) to report
  invalidation at procedure granularity
  (``serve.invalidate.procs_changed`` / ``.procs_reused``).

Counters tests assert on (shared series, :mod:`repro.obs.metrics`):

``serve.session.hit`` / ``.miss`` / ``.evict`` — in-memory session LRU;
``serve.session.compile`` — full cold compiles performed;
``serve.facts.rebuild`` — fact partitions (re)built from source, the
satellite-test signal that *only the edited module's* facts rebuild;
``serve.facts.config_hit`` / ``.config_build`` — per-(analysis, world)
answers served from the bundle vs computed;
``serve.invalidate.modules`` / ``.procs_changed`` / ``.procs_reused`` —
edit accounting for named units;
``serve.differential.checks`` — differential-mode agreements.
"""

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro import compile_program
from repro.analysis import ANALYSIS_NAMES
from repro.analysis.alias_pairs import AliasPairCounter
from repro.analysis.bulk import build_matrix
from repro.analysis.facts import (
    ConfigFacts,
    FactBundle,
    collect_world_facts,
    diff_proc_hashes,
    new_bundle,
    proc_ir_hashes,
    source_hash,
)
from repro.obs import core as obs
from repro.obs import metrics
from repro.qa import chaos
from repro.serve.factcache import FactStore

#: Default cap on warm in-memory sessions (each holds a compiled
#: program plus its bundle; the fact store backstops evictions).
DEFAULT_MAX_SESSIONS = 64

#: Analyses served by ``tables`` (the paper's three levels).
SERVED_ANALYSES = ANALYSIS_NAMES


def _counter(name: str):
    return metrics.registry().counter("serve." + name)


class DifferentialMismatch(AssertionError):
    """A served answer disagreed with a cold engine (differential mode)."""


class ModuleSession:
    """One warm module: compiled artifacts plus its fact partition."""

    def __init__(self, bundle: FactBundle, source: str,
                 program=None, base=None):
        self.bundle = bundle
        self.source = source
        self._program = program           # repro.Program, lazily compiled
        self._base = base                 # PipelineResult of program.base()
        self._contexts: Dict[bool, object] = {}

    @property
    def module_hash(self) -> str:
        return self.bundle.module_hash

    @property
    def name(self) -> str:
        return self.bundle.module_name

    def ensure_program(self):
        """The compiled :class:`repro.Program`, compiling on first need.

        A session restored purely from the fact store has no program
        until a query actually requires one (a new configuration, a
        ``limit`` study, or a differential check).
        """
        if self._program is None:
            with obs.span("serve.session.compile", module=self.name):
                chaos.fire("session.compile", module=self.name)
                _counter("session.compile").inc()
                self._program = compile_program(self.source, unit=self.name)
                self._base = self._program.base()
        return self._program

    def base_program(self):
        self.ensure_program()
        return self._base.program

    def context(self, open_world: bool):
        program = self.ensure_program()
        if open_world not in self._contexts:
            self._contexts[open_world] = program.pipeline.context(open_world)
        return self._contexts[open_world]


class SessionManager:
    """Content-hashed session LRU + fact store + differential pinning."""

    def __init__(self, store: Optional[FactStore] = None,
                 max_sessions: int = DEFAULT_MAX_SESSIONS,
                 differential: bool = False):
        self.store = store
        self.max_sessions = max_sessions
        self.differential = differential
        #: True while the fact store is failing I/O: answers keep coming
        #: from cold compute, persistence is skipped, and the flag (plus
        #: the ``serve.degraded`` gauge) clears on the next store success.
        self.degraded = False
        self._lock = threading.RLock()
        self._sessions: "OrderedDict[str, ModuleSession]" = OrderedDict()
        # Last hash + procedure hashes served under each unit name, for
        # edit accounting even after the old session is evicted.
        self._last_by_name: Dict[str, Tuple[str, Dict[str, str]]] = {}

    # -- session lookup -------------------------------------------------

    def lookup(self, source: str, name: Optional[str] = None) -> ModuleSession:
        """The warm session for *source*, building/restoring on miss."""
        key = source_hash(source)
        with self._lock:
            session = self._sessions.get(key)
            if session is not None:
                _counter("session.hit").inc()
                obs.trace_note("cache", "hit")
                self._sessions.move_to_end(key)
                return session
            _counter("session.miss").inc()
            session = self._restore(key, source)
            if session is not None:
                obs.trace_note("cache", "restore")
            else:
                session = self._build(key, source)
                obs.trace_note("cache", "build")
            self._account_invalidation(session, name)
            self._sessions[key] = session
            while len(self._sessions) > self.max_sessions:
                self._sessions.popitem(last=False)
                _counter("session.evict").inc()
            metrics.registry().gauge("serve.session.warm").set(
                len(self._sessions))
            return session

    def _set_degraded(self, degraded: bool) -> None:
        self.degraded = degraded
        metrics.registry().gauge("serve.degraded").set(int(degraded))

    def _restore(self, key: str, source: str) -> Optional[ModuleSession]:
        if self.store is None:
            return None
        try:
            bundle = self.store.load(key)
        except OSError:
            # Fact store unavailable: serve cold instead of failing the
            # request.  A load miss is indistinguishable from this for
            # correctness — only latency and the degraded flag differ.
            _counter("factcache.io_error").inc()
            self._set_degraded(True)
            return None
        if bundle is None:
            return None
        return ModuleSession(bundle, source)

    def _build(self, key: str, source: str) -> ModuleSession:
        with obs.span("serve.facts.rebuild", key=key[:12]):
            _counter("facts.rebuild").inc()
            chaos.fire("session.compile", module=key[:12])
            program = compile_program(source, unit="<serve>")
            _counter("session.compile").inc()
            base = program.base()
            bundle = new_bundle(
                program.name, key, proc_ir_hashes(base.program))
        session = ModuleSession(bundle, source, program=program, base=base)
        self._persist(bundle)
        return session

    def _account_invalidation(self, session: ModuleSession,
                              name: Optional[str]) -> None:
        """Procedure-granular edit accounting for a named unit."""
        unit = name or session.name
        previous = self._last_by_name.get(unit)
        if previous is not None and previous[0] != session.module_hash:
            changed, unchanged = diff_proc_hashes(
                previous[1], session.bundle.proc_hashes)
            _counter("invalidate.modules").inc()
            _counter("invalidate.procs_changed").inc(len(changed))
            _counter("invalidate.procs_reused").inc(len(unchanged))
        self._last_by_name[unit] = (
            session.module_hash, dict(session.bundle.proc_hashes))

    def _persist(self, bundle: FactBundle) -> None:
        if self.store is None:
            return
        try:
            self.store.store(bundle)
        except OSError:
            # The answer is already computed; losing persistence only
            # costs a future recompute.  Flag degraded and keep serving.
            _counter("factcache.io_error").inc()
            self._set_degraded(True)
        else:
            if self.degraded:
                self._set_degraded(False)

    # -- served answers -------------------------------------------------

    def alias_counts(self, session: ModuleSession, analysis: str,
                     open_world: bool) -> Tuple[int, int, int]:
        """``(references, local_pairs, global_pairs)`` for one config.

        Warm path: straight out of the bundle.  Cold path: build the
        analysis + bulk matrix once, fold it into the bundle, persist.
        """
        facts = session.bundle.config(analysis, open_world)
        if facts is not None:
            _counter("facts.config_hit").inc()
        else:
            with obs.span("serve.facts.config_build", analysis=analysis,
                          open_world=open_world, module=session.name):
                _counter("facts.config_build").inc()
                program = session.ensure_program()
                alias = program.analysis(analysis, open_world=open_world)
                matrix = build_matrix(session.base_program(), alias)
                counts = matrix.count_pairs()
                facts = ConfigFacts(
                    analysis=analysis,
                    open_world=open_world,
                    matrix=matrix,
                    references=counts.references,
                    local_pairs=counts.local_pairs,
                    global_pairs=counts.global_pairs,
                )
            session.bundle.add_config(facts)
            self._persist(session.bundle)
        if self.differential:
            self._differential_check(session, analysis, open_world,
                                     facts.counts())
        return facts.counts()

    def tables(self, session: ModuleSession,
               open_world: bool) -> List[dict]:
        """Table 5 rows for all served analyses under one world."""
        return [
            {
                "analysis": name,
                "open_world": open_world,
                "references": counts[0],
                "local_pairs": counts[1],
                "global_pairs": counts[2],
            }
            for name in SERVED_ANALYSES
            for counts in [self.alias_counts(session, name, open_world)]
        ]

    def facts_summary(self, session: ModuleSession,
                      open_world: bool) -> dict:
        """Flattened world facts (built once per world, then cached)."""
        world = session.bundle.worlds.get(open_world)
        if world is None:
            with obs.span("serve.facts.world_build", module=session.name,
                          open_world=open_world):
                world = collect_world_facts(session.context(open_world))
            session.bundle.worlds[open_world] = world
            self._persist(session.bundle)
        else:
            _counter("facts.config_hit").inc()
        return world.summary()

    def limit(self, session: ModuleSession,
              analysis: Optional[str]) -> dict:
        """Figure 9's limit study (always computed; it runs the program)."""
        program = session.ensure_program()
        before = program.limit_study(program.base())
        optimized = program.pipeline.build(
            analysis=analysis or "SMFieldTypeRefs")
        after = program.limit_study(optimized)
        return {
            "heap_loads": before.total_heap_loads,
            "redundant_original": before.redundant_loads,
            "redundant_after_rle": after.redundant_loads,
        }

    # -- differential pinning -------------------------------------------

    def _differential_check(self, session: ModuleSession, analysis: str,
                            open_world: bool,
                            served: Tuple[int, int, int]) -> None:
        """Pin one served answer against the cold reference engine.

        The served matrix *is* the fast engine's, so the reference loop
        is the only independent check."""
        program = session.ensure_program()
        alias = program.analysis(analysis, open_world=open_world)
        report = AliasPairCounter(
            session.base_program(), alias, engine="reference").count()
        if report.counts() != served:
            raise DifferentialMismatch(
                "served {} ({}, open_world={}) = {} but reference engine = {}"
                .format(session.name, analysis, open_world, served,
                        report.counts()))
        _counter("differential.checks").inc()

    # -- introspection --------------------------------------------------

    def stats(self) -> dict:
        registry = metrics.registry()

        def val(name: str) -> int:
            return int(registry.counter(name).value)

        with self._lock:
            return {
                "sessions": len(self._sessions),
                "max_sessions": self.max_sessions,
                "differential": self.differential,
                "degraded": self.degraded,
                "store_partitions": len(self.store) if self.store else 0,
                "store_bytes": self.store.total_bytes() if self.store else 0,
                "counters": {
                    name: val(name)
                    for name in (
                        "serve.session.hit", "serve.session.miss",
                        "serve.session.evict", "serve.session.compile",
                        "serve.facts.rebuild", "serve.facts.config_hit",
                        "serve.facts.config_build",
                        "serve.invalidate.modules",
                        "serve.invalidate.procs_changed",
                        "serve.invalidate.procs_reused",
                        "serve.differential.checks",
                        "serve.factcache.hit", "serve.factcache.miss",
                        "serve.factcache.store", "serve.factcache.evict",
                        "serve.factcache.io_error",
                        "serve.deadline.expired",
                        "serve.request.rejected",
                    )
                },
            }
