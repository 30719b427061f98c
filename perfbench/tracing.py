"""The benchmark's own span recorder and the wrappers that feed it.

Spans are kept in memory and written out once, when a run ends.  Each
span is ``[name, parent, start, end, attrs]`` with ``parent`` the index
of the enclosing span (or -1) and times from ``time.perf_counter``.  A
layer's self time is its span's duration minus the time covered by its
child spans, so nested calls (``compile_program`` around the parser,
``Program.optimize`` around lowering and RLE) are never counted twice.

:func:`install` patches the public entry points of each layer where
they are looked up at call time.  ``repro.opt.pipeline`` imports
``lower_module`` and ``ModRefAnalysis`` by name, and
``repro.serve.session`` imports ``compile_program`` and
``build_matrix`` by name, so those are patched in the importing module;
class methods are patched on the class.  Per-query hot paths such as
``may_alias`` are deliberately left alone: a span per query would cost
more than the query.
"""

import json
import threading
import time
from contextlib import contextmanager


class Recorder:
    """In-memory span recorder.  Thread-safe: the serve daemon answers
    each connection on its own thread, so the open-span stack is
    per-thread and appends take a lock."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Name of the innermost open span on this thread, or None."""
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    @contextmanager
    def span(self, name, **attrs):
        """Record one span; yields the attrs dict so the body can add
        counts measured inside the call."""
        stack = self._stack()
        record = [name, stack[-1] if stack else -1, time.perf_counter(),
                  None, attrs]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield attrs
        finally:
            record[3] = time.perf_counter()
            stack.pop()

    def dump(self, path):
        with open(path, "w") as f:
            json.dump(self.spans, f)


def load_spans(path):
    with open(path) as f:
        return json.load(f)


def self_times(spans):
    """Self time in seconds of every span, by index."""
    own = [end - start for _name, _parent, start, end, _attrs in spans]
    for name, parent, start, end, _attrs in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _instr_count(program):
    return sum(1 for _ in program.all_instrs())


def install(recorder):
    """Wrap every layer entry point to record into *recorder*.

    Returns a function that restores the originals.
    """
    import repro
    from repro.analysis import alias_pairs, openworld
    from repro.opt import pipeline, rle
    from repro.runtime import interp, limit
    from repro.serve import daemon, factcache, session

    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    parse_module = repro.parse_module

    def traced_parse(source, *args, **kwargs):
        with recorder.span("lang.parse", bytes=len(source)):
            return parse_module(source, *args, **kwargs)

    patch(repro, "parse_module", traced_parse)

    check_module = repro.check_module

    def traced_check(*args, **kwargs):
        with recorder.span("lang.check"):
            return check_module(*args, **kwargs)

    patch(repro, "check_module", traced_check)

    lower_module = pipeline.lower_module

    def traced_lower(*args, **kwargs):
        with recorder.span("ir.lower") as attrs:
            program = lower_module(*args, **kwargs)
        attrs["instrs"] = _instr_count(program)
        return program

    patch(pipeline, "lower_module", traced_lower)

    ModRef = pipeline.ModRefAnalysis

    class TracedModRef(ModRef):
        def __init__(self, *args, **kwargs):
            with recorder.span("opt.modref"):
                super().__init__(*args, **kwargs)

    patch(pipeline, "ModRefAnalysis", TracedModRef)

    context_init = openworld.AnalysisContext.__init__

    def traced_context_init(self, *args, **kwargs):
        with recorder.span("analysis.facts"):
            context_init(self, *args, **kwargs)

    patch(openworld.AnalysisContext, "__init__", traced_context_init)

    context_build = openworld.AnalysisContext.build

    def traced_build(self, name):
        with recorder.span("analysis.build"):
            return context_build(self, name)

    patch(openworld.AnalysisContext, "build", traced_build)

    # Table 5 counting: the counter's constructor collects the heap
    # references, so it belongs to the same span family as count().
    counter_init = alias_pairs.AliasPairCounter.__init__
    counter_count = alias_pairs.AliasPairCounter.count

    def traced_counter_init(self, *args, **kwargs):
        with recorder.span("analysis.table5"):
            counter_init(self, *args, **kwargs)

    def traced_count(self):
        with recorder.span("analysis.table5"):
            return counter_count(self)

    patch(alias_pairs.AliasPairCounter, "__init__", traced_counter_init)
    patch(alias_pairs.AliasPairCounter, "count", traced_count)

    build_matrix = session.build_matrix

    def traced_build_matrix(*args, **kwargs):
        with recorder.span("analysis.bulk_build"):
            return build_matrix(*args, **kwargs)

    patch(session, "build_matrix", traced_build_matrix)

    rle_run = rle.RedundantLoadElimination.run

    def traced_rle_run(self):
        # The local_only instances are the GCC-style back end every
        # configuration (base included) ends with.
        if self.local_only:
            with recorder.span("opt.backend_cse"):
                return rle_run(self)
        before = self.analysis.cache_stats()
        with recorder.span("opt.rle") as attrs:
            stats = rle_run(self)
        after = self.analysis.cache_stats()
        attrs["queries"] = (after["hits"] + after["misses"]
                            - before["hits"] - before["misses"])
        attrs["eliminated"] = stats.eliminated_loads
        return stats

    patch(rle.RedundantLoadElimination, "run", traced_rle_run)

    interp_run = interp.Interpreter.run

    def traced_interp_run(self):
        # The limit study replays the program through its own
        # interpreter; that replay is limit-study time.
        if recorder.current() == "runtime.limit":
            return interp_run(self)
        with recorder.span("runtime.interp") as attrs:
            stats = interp_run(self)
        attrs["instructions"] = stats.instructions
        return stats

    patch(interp.Interpreter, "run", traced_interp_run)

    limit_run = limit.LimitStudy.run

    def traced_limit_run(self):
        with recorder.span("runtime.limit") as attrs:
            report = limit_run(self)
        attrs["heap_loads"] = report.total_heap_loads
        return report

    patch(limit.LimitStudy, "run", traced_limit_run)

    lookup = session.SessionManager.lookup

    def traced_lookup(self, *args, **kwargs):
        with recorder.span("serve.lookup"):
            return lookup(self, *args, **kwargs)

    patch(session.SessionManager, "lookup", traced_lookup)

    compile_program = session.compile_program

    def traced_compile(*args, **kwargs):
        with recorder.span("serve.compile"):
            return compile_program(*args, **kwargs)

    patch(session, "compile_program", traced_compile)

    store_load = factcache.FactStore.load
    store_store = factcache.FactStore.store

    def traced_load(self, key):
        with recorder.span("serve.factstore_load"):
            return store_load(self, key)

    def traced_store(self, bundle):
        with recorder.span("serve.factstore_store"):
            return store_store(self, bundle)

    patch(factcache.FactStore, "load", traced_load)
    patch(factcache.FactStore, "store", traced_store)

    handle_request = daemon.Daemon.handle_request

    def traced_handle(self, request):
        with recorder.span("serve.handle", id=request.id):
            return handle_request(self, request)

    patch(daemon.Daemon, "handle_request", traced_handle)

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
