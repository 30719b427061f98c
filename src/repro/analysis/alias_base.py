"""Common interface of the three alias analyses.

The paper's three analyses share one query shape: *may these two access
paths refer to the same location?*  They differ in the **type oracle**
used at the leaves:

* TypeDecl uses declared-type compatibility (subtype-set intersection);
* SMTypeRefs uses the pruned ``TypeRefsTable`` of selective merging;
* FieldTypeDecl / SMFieldTypeRefs wrap either oracle in the structural
  case analysis of Table 2.

All analyses are *flow-insensitive* and query-cached (the static metric
asks O(e²) pair queries; caching makes that tractable, as the paper notes
in Section 2.5).  Access paths are interned with dense integer uids
(:mod:`repro.ir.access_path`), so the cache keys on an unordered
``(uid, uid)`` pair — no tree hashing on the query path — and
:meth:`AliasAnalysis.may_alias_canonical` lets bulk clients that already
hold canonical paths skip re-canonicalisation entirely.

Query and cache statistics are :mod:`repro.obs` counters: each instance
owns child counters of the ``alias.cache.hits`` / ``alias.cache.misses``
series (labelled by analysis name), registered in the process registry.
``cache_stats()``/``cache_clear()`` are thin shims over those counters,
so the per-instance view and the global metrics export read the same
numbers.  The hot path mutates ``Counter.value`` directly — alias
queries are single-threaded by construction and a per-query lock would
cost more than the query.
"""

from typing import Dict, Tuple

from repro.ir.access_path import AccessPath, strip_index
from repro.obs import metrics
from repro.qa import guards


class TypeOracle:
    """Decides type-level compatibility of two APs (the TypeDecl role)."""

    name = "<oracle>"

    def types_compatible(self, p: AccessPath, q: AccessPath) -> bool:
        raise NotImplementedError


class AliasAnalysis:
    """May-alias over access paths, with memoisation.

    Subclasses implement :meth:`_may_alias`; callers use
    :meth:`may_alias`, which canonicalises subscript indices (alias
    analyses ignore them — Table 2 case 6) and caches symmetric pairs.
    """

    name = "<analysis>"

    def __init__(self, name: str = None) -> None:
        if name is not None:
            self.name = name
        self._cache: Dict[Tuple[int, int], bool] = {}
        registry = metrics.registry()
        self._hits = registry.new_counter("alias.cache.hits", analysis=self.name)
        self._misses = registry.new_counter("alias.cache.misses", analysis=self.name)

    def may_alias(self, p: AccessPath, q: AccessPath) -> bool:
        return self.may_alias_canonical(strip_index(p), strip_index(q))

    def may_alias_canonical(self, cp: AccessPath, cq: AccessPath) -> bool:
        """:meth:`may_alias` for paths already canonicalised by
        :func:`~repro.ir.access_path.strip_index`.

        The pair loops of the static metric canonicalise once while
        collecting references; this entry point lets them skip the
        (memoised, but not free) strip on each of the O(e²) queries.
        """
        key = (cp.uid, cq.uid) if cp.uid <= cq.uid else (cq.uid, cp.uid)
        cached = self._cache.get(key)
        if cached is not None:
            self._hits.value += 1
            return cached
        misses = self._misses.value + 1
        self._misses.value = misses
        # Guard hook on the miss (slow) path only: cache hits stay a
        # dict probe, and a guarded run that hangs inside the analyses
        # is necessarily generating fresh queries.
        if (misses & 4095) == 0:
            guards.check_active()
        result = self._may_alias(cp, cq)
        self._cache[key] = result
        return result

    def _may_alias(self, p: AccessPath, q: AccessPath) -> bool:
        raise NotImplementedError

    # -- cache introspection -------------------------------------------
    #
    # Thin shims over the obs counters (kept for API compatibility with
    # PR 1 callers; the counters are the source of truth).

    def cache_clear(self) -> None:
        """Drop all memoised answers and reset the hit/miss counters."""
        self._cache.clear()
        self._hits.reset()
        self._misses.reset()

    def cache_stats(self) -> Dict[str, int]:
        """``{'hits', 'misses', 'size'}`` of the query cache."""
        return {
            "hits": self._hits.value,
            "misses": self._misses.value,
            "size": len(self._cache),
        }

    def __repr__(self) -> str:
        return "<{}>".format(self.name)
