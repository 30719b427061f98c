"""Sharded corpus pipeline: ``repro corpus gen / verify / run / bench``.

``repro fuzz`` exercises the oracles one seeded program at a time; the
corpus pipeline scales the same deterministic generator to 10³–10⁵
MiniM3 programs materialised on disk and drives batch work over them:

* :func:`generate_corpus` renders programs for seeds ``seed ..
  seed+count-1`` (size/shape dials come from :class:`CorpusSpec`, a
  superset of :class:`~repro.qa.generator.GenConfig`) and writes them in
  **content-hashed shards**: each shard file name embeds the SHA-256 of
  its program payload and the ``shards.jsonl`` sidecar (one info line
  per shard, streamed as shards complete) pins every shard's hash, so
  corruption or hand-editing is detected before any batch consumes it
  (:func:`verify_corpus`).  ``manifest.json`` holds only the spec and
  totals; consumers stream :func:`iter_shards` so the shard list never
  has to fit in memory (>100k-program corpora stay flat).
* :func:`run_corpus` is the sharded driver: shard infos stream off disk
  and fan out lazily over a ``multiprocessing`` pool (``jobs=1`` stays
  in-process and exactly deterministic), each shard runs inside its own
  **fault bulkhead** —
  one broken shard or program is reported without sinking the batch —
  and per-shard results merge deterministically by shard index.  Worker
  registries are snapshotted and folded back into the parent's
  :mod:`repro.obs.metrics` registry, so ``aliaspairs.*`` / cache
  counters aggregate across processes, and every shard contributes to
  the ``corpus.shard.programs`` / ``corpus.shard.pairs`` /
  ``corpus.shard.seconds`` counter family.
* :func:`bench_corpus` times the Table 5 count over the corpus two
  ways — one-shot ``AliasPairCounter.count()``, which builds its class
  matrix on every count, and re-counts of class matrices built once —
  reporting per-phase seconds (``corpus.table5.fast``,
  ``corpus.bulk.build``, ``corpus.table5.bulk``,
  ``corpus.table5.bulk_shared`` for the mmap-arena count, optionally
  fanned over forked workers that share one mapping) that the CLI folds
  into ``BENCH_history.jsonl`` so ``repro bench gate`` guards the hot
  path.

Every program entry in a shard carries its generating seed *and* its
rendered source hash; because generation is deterministic, workers can
cross-check the stored source against a regeneration of the seed, which
the ``--oracles`` mode uses before trusting a program.
"""

import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import core as obs
from repro.obs import metrics
from repro.qa import chaos
from repro.qa.generator import GenConfig, generate_program
from repro.qa.guards import guarded

__all__ = [
    "CorpusSpec",
    "CorpusManifest",
    "CorpusHeader",
    "ShardInfo",
    "ShardOutcome",
    "CorpusRunReport",
    "generate_corpus",
    "load_manifest",
    "load_manifest_header",
    "iter_shards",
    "load_shard",
    "verify_corpus",
    "run_corpus",
    "bench_corpus",
]

#: Bumped whenever the manifest/shard layout changes.
#: v2: the shard list moved out of ``manifest.json`` into a
#: ``shards.jsonl`` sidecar (one ShardInfo per line) so consumers can
#: stream shard metadata instead of materialising the whole list —
#: ``manifest.json`` keeps only the spec and the totals.  v1 corpora
#: (inline shard list) still load.
CORPUS_SCHEMA_VERSION = 2

MANIFEST_NAME = "manifest.json"

#: v2 sidecar holding one shard-info JSON object per line.
SHARDS_NAME = "shards.jsonl"

#: Default per-program wall-clock bulkhead, seconds.
PER_PROGRAM_SECONDS = 10.0


# ----------------------------------------------------------------------
# Spec and manifest


@dataclass(frozen=True)
class CorpusSpec:
    """Seeded recipe for one corpus: how many programs, what shapes.

    The shape dials mirror :class:`~repro.qa.generator.GenConfig`; the
    pipeline dials (``seed``, ``count``, ``shard_size``) are its own.
    A spec fully determines the corpus bytes — same spec, same shards,
    same hashes.
    """

    seed: int = 0
    count: int = 1000
    shard_size: int = 100
    max_object_types: int = 4
    max_ref_vars: int = 4
    max_int_vars: int = 3
    max_procs: int = 3
    max_stmts: int = 22
    max_depth: int = 2
    allow_methods: bool = True
    allow_nil: bool = True

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("corpus count must be >= 1")
        if self.shard_size < 1:
            raise ValueError("corpus shard_size must be >= 1")

    def gen_config(self) -> GenConfig:
        return GenConfig(
            max_object_types=self.max_object_types,
            max_ref_vars=self.max_ref_vars,
            max_int_vars=self.max_int_vars,
            max_procs=self.max_procs,
            max_stmts=self.max_stmts,
            max_depth=self.max_depth,
            allow_methods=self.allow_methods,
            allow_nil=self.allow_nil,
        )

    def n_shards(self) -> int:
        return (self.count + self.shard_size - 1) // self.shard_size

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "CorpusSpec":
        known = {f: obj[f] for f in cls.__dataclass_fields__ if f in obj}
        return cls(**known)


@dataclass(frozen=True)
class ShardInfo:
    """One shard as the manifest records it."""

    index: int
    file: str
    programs: int
    sha256: str

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CorpusManifest:
    """A fully materialised manifest (spec plus every shard info).

    Batch drivers that must scale to >100k-program corpora should not
    build one of these — they stream :func:`iter_shards` against a
    :class:`CorpusHeader` instead.  This object remains the convenient
    form for generation results, verification and tests.
    """

    spec: CorpusSpec
    shards: Tuple[ShardInfo, ...]

    @property
    def n_programs(self) -> int:
        return sum(s.programs for s in self.shards)

    def to_json(self) -> dict:
        """The v2 ``manifest.json`` payload (shard list lives in the
        ``shards.jsonl`` sidecar, not here)."""
        return {
            "schema": CORPUS_SCHEMA_VERSION,
            "kind": "corpus_manifest",
            "spec": self.spec.to_json(),
            "programs": self.n_programs,
            "n_shards": len(self.shards),
            "shards_file": SHARDS_NAME,
        }


@dataclass(frozen=True)
class CorpusHeader:
    """The constant-size part of a corpus: what streaming consumers load.

    ``shards_file`` is ``None`` for a v1 corpus, whose shard list is
    inline in ``manifest.json`` (:func:`iter_shards` handles both).
    """

    schema: int
    spec: CorpusSpec
    programs: int
    n_shards: int
    shards_file: Optional[str]
    inline_shards: Optional[Tuple[ShardInfo, ...]] = None


def _payload_hash(programs: List[dict]) -> str:
    blob = json.dumps(programs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ----------------------------------------------------------------------
# Generation


def generate_corpus(
    spec: CorpusSpec,
    out_dir: Path,
    progress: Optional[Callable[[int, int], None]] = None,
) -> CorpusManifest:
    """Render the corpus *spec* describes into ``out_dir``.

    Writes one ``shard-NNNN-<hash12>.json`` per :attr:`CorpusSpec.
    shard_size` programs plus ``manifest.json``; returns the manifest.
    ``progress`` (if given) is called with ``(shards_done, n_shards)``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = spec.gen_config()
    shards: List[ShardInfo] = []
    n_shards = spec.n_shards()
    with obs.span("corpus.gen", count=spec.count, shards=n_shards), \
            open(out_dir / SHARDS_NAME, "w") as shards_file:
        for shard_index in range(n_shards):
            lo = shard_index * spec.shard_size
            hi = min(lo + spec.shard_size, spec.count)
            programs: List[dict] = []
            for i in range(lo, hi):
                seed = spec.seed + i
                generated = generate_program(seed, config)
                source = generated.render()
                programs.append({
                    "seed": seed,
                    "name": generated.name,
                    "sha256": hashlib.sha256(source.encode()).hexdigest(),
                    "source": source,
                })
            digest = _payload_hash(programs)
            file_name = "shard-{:04d}-{}.json".format(shard_index, digest[:12])
            shard_obj = {
                "schema": CORPUS_SCHEMA_VERSION,
                "kind": "corpus_shard",
                "index": shard_index,
                "sha256": digest,
                "programs": programs,
            }
            (out_dir / file_name).write_text(
                json.dumps(shard_obj, sort_keys=True) + "\n")
            info = ShardInfo(
                index=shard_index, file=file_name,
                programs=len(programs), sha256=digest,
            )
            # One line per shard, written as it completes: the sidecar
            # is itself a stream, so generation memory stays flat too
            # (`shards` is only accumulated for the return value).
            shards_file.write(json.dumps(info.to_json(), sort_keys=True) + "\n")
            shards.append(info)
            if progress is not None:
                progress(shard_index + 1, n_shards)
    manifest = CorpusManifest(spec=spec, shards=tuple(shards))
    (out_dir / MANIFEST_NAME).write_text(
        json.dumps(manifest.to_json(), indent=2, sort_keys=True) + "\n")
    metrics.registry().new_counter("corpus.gen.programs").inc(spec.count)
    return manifest


# ----------------------------------------------------------------------
# Loading and verification


def load_manifest_header(corpus_dir: Path) -> CorpusHeader:
    """The constant-size manifest header — never the shard list.

    Accepts v1 (inline shard list, carried along for
    :func:`iter_shards`) and v2 (``shards.jsonl`` sidecar) corpora.
    """
    path = Path(corpus_dir) / MANIFEST_NAME
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ValueError("{}: not JSON: {}".format(path, err))
    if not isinstance(obj, dict) or obj.get("kind") != "corpus_manifest":
        raise ValueError("{}: not a corpus manifest".format(path))
    schema = obj.get("schema")
    if schema not in (1, CORPUS_SCHEMA_VERSION):
        raise ValueError("{}: unknown schema version {!r}".format(
            path, schema))
    spec = CorpusSpec.from_json(obj["spec"])
    inline = None
    shards_file = None
    if schema == 1:
        inline = tuple(
            ShardInfo(index=s["index"], file=s["file"],
                      programs=s["programs"], sha256=s["sha256"])
            for s in obj["shards"]
        )
        n_shards = len(inline)
        programs = sum(s.programs for s in inline)
    else:
        shards_file = obj.get("shards_file", SHARDS_NAME)
        n_shards = int(obj["n_shards"])
        programs = int(obj["programs"])
    return CorpusHeader(
        schema=schema, spec=spec, programs=programs, n_shards=n_shards,
        shards_file=shards_file, inline_shards=inline,
    )


def iter_shards(corpus_dir: Path,
                header: Optional[CorpusHeader] = None):
    """Yield :class:`ShardInfo` one at a time, in index order.

    v2 corpora stream ``shards.jsonl`` line by line — memory stays
    constant no matter how many shards the corpus has; v1 corpora yield
    from the manifest's inline list.  Index density is checked as the
    stream advances, and the final count must match the header.
    """
    corpus_dir = Path(corpus_dir)
    if header is None:
        header = load_manifest_header(corpus_dir)
    if header.inline_shards is not None:
        expected = 0
        for info in header.inline_shards:
            if info.index != expected:
                raise ValueError("{}: shard indices are not dense".format(
                    corpus_dir / MANIFEST_NAME))
            expected += 1
            yield info
    else:
        sidecar = corpus_dir / header.shards_file
        expected = 0
        with open(sidecar) as f:
            for line in f:
                if not line.strip():
                    continue
                obj = json.loads(line)
                info = ShardInfo(index=obj["index"], file=obj["file"],
                                 programs=obj["programs"],
                                 sha256=obj["sha256"])
                if info.index != expected:
                    raise ValueError(
                        "{}: shard indices are not dense".format(sidecar))
                expected += 1
                yield info
        if expected != header.n_shards:
            raise ValueError(
                "{}: {} shard lines but manifest says {}".format(
                    sidecar, expected, header.n_shards))


def load_manifest(corpus_dir: Path) -> CorpusManifest:
    """Parse and validate a corpus, materialising the full shard list.

    Convenience for verification, benchmarks and tests; the streaming
    pair (:func:`load_manifest_header` + :func:`iter_shards`) is what
    batch drivers use.
    """
    header = load_manifest_header(corpus_dir)
    shards = tuple(iter_shards(corpus_dir, header))
    return CorpusManifest(spec=header.spec, shards=shards)


def load_shard(corpus_dir: Path, info: ShardInfo,
               verify: bool = True) -> List[dict]:
    """The program entries of one shard, hash-checked against the
    manifest unless ``verify=False``."""
    path = Path(corpus_dir) / info.file
    obj = json.loads(path.read_text())
    programs = obj.get("programs")
    if not isinstance(programs, list):
        raise ValueError("{}: malformed shard (no programs)".format(path))
    if verify:
        digest = _payload_hash(programs)
        if digest != info.sha256 or digest != obj.get("sha256"):
            raise ValueError(
                "{}: content hash mismatch (manifest {}, got {})".format(
                    path, info.sha256[:12], digest[:12]))
    return programs


def verify_corpus(corpus_dir: Path) -> CorpusManifest:
    """Hash-check every shard against the manifest; returns it when ok.

    Shard infos stream, so verification holds one shard in memory at a
    time (the returned manifest still carries the full info list —
    infos are four small fields per shard, not shard payloads).
    """
    header = load_manifest_header(corpus_dir)
    shards: List[ShardInfo] = []
    for info in iter_shards(corpus_dir, header):
        load_shard(corpus_dir, info, verify=True)
        shards.append(info)
    return CorpusManifest(spec=header.spec, shards=tuple(shards))


# ----------------------------------------------------------------------
# Sharded run driver


@dataclass
class _RunOptions:
    """Everything a shard worker needs (must stay picklable)."""

    corpus_dir: str
    analyses: Tuple[str, ...]
    engine: str
    oracles: bool
    per_program_seconds: Optional[float]
    max_steps: int
    in_process: bool  # jobs=1: keep parent registry/recorder untouched
    spec: Optional[dict] = None  # generator dials, for the oracle mode


@dataclass
class ShardOutcome:
    """Result of one shard's bulkhead (always produced, even on crash)."""

    index: int
    file: str
    programs: int = 0
    compiled: int = 0
    oracle_checked: int = 0
    references: int = 0
    local_pairs: int = 0
    global_pairs: int = 0
    seconds: float = 0.0
    failures: List[dict] = field(default_factory=list)
    counters: Optional[List[dict]] = None  # worker registry snapshot

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "file": self.file,
            "programs": self.programs,
            "compiled": self.compiled,
            "oracle_checked": self.oracle_checked,
            "references": self.references,
            "local_pairs": self.local_pairs,
            "global_pairs": self.global_pairs,
            "seconds": round(self.seconds, 3),
            "failures": self.failures,
        }


@dataclass
class CorpusRunReport:
    """Deterministic merge of every shard outcome, by shard index."""

    corpus_dir: str
    engine: str
    jobs: int
    analyses: Tuple[str, ...]
    shards: List[ShardOutcome] = field(default_factory=list)
    #: Shards the watchdog gave up on after bounded retries — reported,
    #: never silently dropped.  Entries: index/file/attempts/reason.
    quarantined: List[dict] = field(default_factory=list)
    duration: float = 0.0

    @property
    def programs(self) -> int:
        return sum(s.programs for s in self.shards)

    @property
    def compiled(self) -> int:
        return sum(s.compiled for s in self.shards)

    @property
    def references(self) -> int:
        return sum(s.references for s in self.shards)

    @property
    def local_pairs(self) -> int:
        return sum(s.local_pairs for s in self.shards)

    @property
    def global_pairs(self) -> int:
        return sum(s.global_pairs for s in self.shards)

    @property
    def failures(self) -> List[dict]:
        out: List[dict] = []
        for shard in self.shards:
            out.extend(shard.failures)
        return out

    @property
    def ok(self) -> bool:
        return not self.failures and not self.quarantined

    def throughput(self) -> float:
        """Programs per second of wall clock (the ledger's headline)."""
        if self.duration <= 0:
            return 0.0
        return self.programs / self.duration

    def to_json(self) -> dict:
        return {
            "corpus_dir": self.corpus_dir,
            "engine": self.engine,
            "jobs": self.jobs,
            "analyses": list(self.analyses),
            "programs": self.programs,
            "compiled": self.compiled,
            "references": self.references,
            "local_pairs": self.local_pairs,
            "global_pairs": self.global_pairs,
            "ok": self.ok,
            "failures": self.failures,
            "quarantined": self.quarantined,
            "duration_seconds": round(self.duration, 3),
            "programs_per_second": round(self.throughput(), 2),
            "shards": [s.to_json() for s in self.shards],
        }


def _count_program(entry: dict, options: _RunOptions,
                   outcome: ShardOutcome) -> None:
    """Table 5 (and optionally the oracle battery) for one program."""
    from repro import compile_program
    from repro.analysis.alias_pairs import AliasPairCounter

    program = compile_program(entry["source"], entry["name"])
    outcome.compiled += 1
    ir = program.pipeline.base().program
    for analysis_name in options.analyses:
        analysis = program.analysis(analysis_name)
        report = AliasPairCounter(ir, analysis, engine=options.engine).count()
        outcome.references += report.references
        outcome.local_pairs += report.local_pairs
        outcome.global_pairs += report.global_pairs
    if options.oracles:
        from repro.qa.oracles import check_program

        # Determinism doubles as integrity: the recorded seed must
        # regenerate the stored bytes before the oracles vouch for it.
        if options.spec is not None:
            config = CorpusSpec.from_json(options.spec).gen_config()
            regenerated = generate_program(entry["seed"], config).render()
            digest = hashlib.sha256(regenerated.encode()).hexdigest()
            if digest != entry["sha256"]:
                raise ValueError(
                    "seed {} does not regenerate the stored program {}"
                    .format(entry["seed"], entry["name"]))
        oracle = check_program(entry["source"], name=entry["name"],
                               seed=entry["seed"], max_steps=options.max_steps)
        outcome.oracle_checked += 1
        if not oracle.ok:
            first = oracle.violations[0]
            outcome.failures.append({
                "seed": entry["seed"],
                "name": entry["name"],
                "phase": first.phase,
                "error": first.kind,
                "message": first.message,
            })


def _process_shard(task: Tuple) -> ShardOutcome:
    """Worker entry point: one shard inside its bulkhead.

    Runs in a pool process for ``jobs>1`` (where the inherited registry
    is reset so the returned snapshot is exactly this shard's counters)
    or inline for ``jobs=1`` (where counters land in the parent registry
    directly and no snapshot is shipped).  The task tuple optionally
    carries the watchdog's retry ``attempt`` so chaos rules can target
    "first attempt only" (transient) vs "every attempt" (poison).

    A forked worker also checks ``REPRO_TRACEPARENT``: when the driver
    exported a *sampled* trace context, the shard runs inside its own
    collecting trace scope parented under the driver's span, and the
    worker flushes a ``corpus-worker`` record to the trace store named
    by ``REPRO_TRACE_STORE`` — this is what lets ``repro trace show``
    reconstruct client → daemon → forked-worker as one tree
    (DESIGN.md §6k).  Pool workers re-mint their process token after
    the fork, so records from different workers never collide.
    """
    from repro.obs import sampler as tracing

    in_process = task[1].in_process
    if not in_process:
        obs.reset_inherited_trace_state()
    ctx = None if in_process else tracing.context_from_env()
    if ctx is None or not ctx.sampled:
        return _process_shard_inner(task)
    scope = obs.trace_scope(ctx.trace_id, collect=True,
                            remote_parent=(ctx.proc, ctx.span_id))
    with scope:
        with obs.span("corpus.shard.worker", shard=task[0]["index"],
                      attempt=task[2] if len(task) > 2 else 0):
            outcome = _process_shard_inner(task)
    store_dir = os.environ.get(tracing.TRACE_STORE_ENV)
    if store_dir:
        from repro.obs.tracestore import TraceStore, make_record

        # append() never raises; a torn or failing store must not cost
        # the shard its outcome.
        TraceStore(store_dir).append(make_record(
            scope, origin="corpus-worker", op="corpus.shard",
            ms=outcome.seconds * 1000.0,
            ok=not outcome.failures, unit=outcome.file))
    return outcome


def _process_shard_inner(task: Tuple) -> ShardOutcome:
    if len(task) == 2:
        info_obj, options = task
        attempt = 0
    else:
        info_obj, options, attempt = task
    outcome = ShardOutcome(index=info_obj["index"], file=info_obj["file"])
    started = time.perf_counter()
    if not options.in_process:
        metrics.registry().reset()
    # Forked workers inherit the armed chaos plan.  The kill point is
    # gated off the in-process path — os._exit there would take the
    # driver down, which is the one thing chaos must never do.
    chaos.fire("corpus.shard_hang", shard=info_obj["index"], attempt=attempt)
    if not options.in_process:
        chaos.fire("corpus.worker_kill", shard=info_obj["index"],
                   attempt=attempt)
    try:
        info = ShardInfo(**info_obj)
        programs = load_shard(Path(options.corpus_dir), info, verify=True)
        for entry in programs:
            outcome.programs += 1
            try:
                with guarded(options.per_program_seconds,
                             "corpus program {}".format(entry["name"])):
                    _count_program(entry, options, outcome)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:  # per-program bulkhead
                outcome.failures.append({
                    "seed": entry.get("seed"),
                    "name": entry.get("name"),
                    "phase": "program",
                    "error": type(exc).__name__,
                    "message": str(exc),
                })
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:  # per-shard bulkhead
        outcome.failures.append({
            "seed": None,
            "name": info_obj["file"],
            "phase": "shard",
            "error": type(exc).__name__,
            "message": str(exc),
        })
    outcome.seconds = time.perf_counter() - started
    if not options.in_process:
        outcome.counters = metrics.registry().snapshot()
    return outcome


def _merge_worker_counters(snapshot: List[dict]) -> None:
    """Fold one worker registry snapshot into the parent registry.

    Counters accumulate into the shared child for the same series;
    gauges adopt the worker's last value; histograms are summarised by
    their event count under a ``.events`` counter (bucket-level merge is
    not worth carrying across the pipe).
    """
    registry = metrics.registry()
    for entry in snapshot:
        labels = entry["labels"]
        if entry["kind"] == "counter":
            if entry["value"]:
                registry.counter(entry["name"], **labels).inc(entry["value"])
        elif entry["kind"] == "gauge":
            registry.gauge(entry["name"], **labels).set(entry["value"])
        elif entry["kind"] == "histogram" and entry.get("count"):
            registry.counter(entry["name"] + ".events", **labels).inc(
                entry["count"])


def default_jobs() -> int:
    return os.cpu_count() or 1


#: Watchdog poll interval, seconds.
_POOL_POLL_SECONDS = 0.02


def _run_sharded_pool(
    tasks,
    jobs: int,
    shard_timeout_seconds: Optional[float],
    max_shard_retries: int,
) -> Tuple[List[ShardOutcome], List[dict]]:
    """Fan shards over a pool with a hung/dead-worker watchdog.

    ``imap_unordered`` cannot survive a worker death: a killed worker's
    task simply never produces a result and the iterator blocks
    forever.  This scheduler submits via ``apply_async`` in a bounded
    window (``jobs * 2`` in flight, preserving the streaming-laziness
    of the task generator) and polls each pending handle itself, so
    *hang* and *death* collapse into one observable — the handle is not
    ready within ``shard_timeout_seconds``.  Timed-out shards are
    resubmitted up to ``max_shard_retries`` times (a transient kill
    heals; a late straggler result from the abandoned attempt is
    dropped, never double-counted), then **quarantined**: recorded with
    their attempt count and reported in the run JSON rather than
    silently missing.  ``Pool.__exit__`` terminates the pool, which
    also reaps workers still stuck in a hung shard.
    """
    registry = metrics.registry()
    outcomes: List[ShardOutcome] = []
    quarantined: List[dict] = []
    window = max(jobs * 2, 2)
    pending: List[dict] = []
    tasks_iter = iter(tasks)
    exhausted = False
    with multiprocessing.Pool(processes=jobs) as pool:

        def submit(info_obj: dict, options: _RunOptions,
                   attempt: int) -> None:
            pending.append({
                "handle": pool.apply_async(
                    _process_shard, ((info_obj, options, attempt),)),
                "info": info_obj,
                "options": options,
                "attempt": attempt,
                "started": time.monotonic(),
            })

        while pending or not exhausted:
            while not exhausted and len(pending) < window:
                try:
                    info_obj, options, attempt = next(tasks_iter)
                except StopIteration:
                    exhausted = True
                    break
                submit(info_obj, options, attempt)
            if not pending:
                continue
            progressed = False
            now = time.monotonic()
            for entry in list(pending):
                if entry["handle"].ready():
                    pending.remove(entry)
                    progressed = True
                    outcomes.append(entry["handle"].get())
                elif (shard_timeout_seconds is not None
                      and now - entry["started"] > shard_timeout_seconds):
                    pending.remove(entry)
                    progressed = True
                    if entry["attempt"] < max_shard_retries:
                        registry.counter("corpus.shard.retries").inc()
                        submit(entry["info"], entry["options"],
                               entry["attempt"] + 1)
                    else:
                        registry.counter("corpus.shard.quarantined").inc()
                        quarantined.append({
                            "index": entry["info"]["index"],
                            "file": entry["info"]["file"],
                            "attempts": entry["attempt"] + 1,
                            "reason": "shard exceeded {}s timeout on every "
                                      "attempt (hung or killed worker)"
                                      .format(shard_timeout_seconds),
                        })
            if not progressed:
                time.sleep(_POOL_POLL_SECONDS)
    return outcomes, quarantined


def run_corpus(
    corpus_dir: Path,
    jobs: Optional[int] = None,
    analyses: Optional[Sequence[str]] = None,
    engine: str = "fast",
    oracles: bool = False,
    per_program_seconds: Optional[float] = PER_PROGRAM_SECONDS,
    max_steps: int = 400_000,
    max_shards: Optional[int] = None,
    shard_timeout_seconds: Optional[float] = None,
    max_shard_retries: int = 1,
    progress: Optional[Callable[[ShardOutcome], None]] = None,
) -> CorpusRunReport:
    """Drive Table 5 counting (and optionally the oracle battery) over
    every shard of a corpus, ``jobs`` shards at a time.

    ``shard_timeout_seconds`` arms the hung/dead-worker watchdog
    (``jobs > 1`` only): shards whose worker hangs or dies retry up to
    ``max_shard_retries`` times and are then quarantined into
    ``report.quarantined``."""
    from repro.analysis.openworld import ANALYSIS_NAMES

    from itertools import islice

    corpus_dir = Path(corpus_dir)
    header = load_manifest_header(corpus_dir)
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    analyses = tuple(analyses) if analyses else tuple(ANALYSIS_NAMES)
    n_shards = header.n_shards
    if max_shards is not None:
        n_shards = min(n_shards, max_shards)
    options = _RunOptions(
        corpus_dir=str(corpus_dir),
        analyses=analyses,
        engine=engine,
        oracles=oracles,
        per_program_seconds=per_program_seconds,
        max_steps=max_steps,
        in_process=(jobs == 1),
        spec=header.spec.to_json(),
    )
    # Shard infos stream off disk one line at a time; the task iterator
    # is consumed lazily by the scheduler's submission window, so the
    # driver's footprint stays constant even for >100k-program corpora.
    tasks = ((info.to_json(), options, 0)
             for info in islice(iter_shards(corpus_dir, header), n_shards))
    report = CorpusRunReport(
        corpus_dir=str(corpus_dir), engine=engine, jobs=jobs,
        analyses=analyses)
    started = time.monotonic()
    with obs.span("corpus.run", shards=n_shards, jobs=jobs, engine=engine):
        if jobs == 1:
            outcomes = [_process_shard(task) for task in tasks]
        else:
            # fork keeps the workers cheap; the registry reset inside
            # _process_shard makes the inherited state irrelevant.
            outcomes, report.quarantined = _run_sharded_pool(
                tasks, jobs, shard_timeout_seconds, max_shard_retries)
        outcomes.sort(key=lambda o: o.index)  # deterministic merge order
        report.quarantined.sort(key=lambda q: q["index"])
        registry = metrics.registry()
        for outcome in outcomes:
            if outcome.counters is not None:
                _merge_worker_counters(outcome.counters)
                outcome.counters = None
            registry.new_counter("corpus.shard.programs").inc(outcome.programs)
            registry.new_counter("corpus.shard.pairs").inc(
                outcome.local_pairs + outcome.global_pairs)
            registry.new_counter("corpus.shard.seconds").inc(outcome.seconds)
            with obs.span("corpus.shard", index=outcome.index,
                          programs=outcome.programs):
                pass  # marker span: shard boundaries in the trace timeline
            report.shards.append(outcome)
            if progress is not None:
                progress(outcome)
    report.duration = time.monotonic() - started
    registry.new_counter("corpus.run.shards").inc(len(report.shards))
    return report


# ----------------------------------------------------------------------
# Engine benchmark over a corpus


#: Fork-inherited arena for :func:`bench_corpus` worker processes; set
#: in the parent immediately before the pool forks.
_SHARED_ARENA = None


def _count_arena_range(bounds: Tuple[int, int]) -> List[Tuple[int, int, int]]:
    """Pool worker: count matrices ``[lo, hi)`` from the shared arena.

    The arena mmap is inherited from the parent over ``fork``, so every
    worker reads the same physical pages — no per-worker pickled copy.
    """
    lo, hi = bounds
    return [_SHARED_ARENA.matrix(i).count_pairs().counts()
            for i in range(lo, hi)]


def bench_corpus(
    corpus_dir: Path,
    analyses: Optional[Sequence[str]] = None,
    repeats: int = 1,
    max_shards: Optional[int] = None,
    jobs: int = 1,
) -> Dict[str, float]:
    """Per-phase seconds of the Table 5 count over a corpus.

    Compiles every program once, then times four phases ``repeats``
    times over the same inputs:

    * ``corpus.table5.fast``  — one-shot ``AliasPairCounter.count()``,
      which builds its class matrix and counts it on every call;
    * ``corpus.bulk.build``   — building each program's class matrices
      (paid once; matrices are reusable and picklable);
    * ``corpus.table5.bulk``  — re-counting from the prebuilt matrices
      with pure kernels (the reuse hot path);
    * ``corpus.table5.bulk_shared`` — re-counting from one read-only
      mmap **arena** of the same matrices (lazy big-int views, zero
      per-matrix copies); with ``jobs > 1`` the count fans out over a
      forked pool whose workers inherit the mapping, sharing one set of
      physical pages instead of pickling matrices per worker.

    Counts are asserted equal between the one-shot, reused and arena
    counts on every program.
    """
    from repro import compile_program
    from repro.analysis.alias_pairs import AliasPairCounter
    from repro.analysis.bulk import BulkAliasMatrix
    from repro.analysis.openworld import ANALYSIS_NAMES

    corpus_dir = Path(corpus_dir)
    manifest = load_manifest(corpus_dir)
    analyses = tuple(analyses) if analyses else tuple(ANALYSIS_NAMES)
    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    shard_infos = list(manifest.shards)
    if max_shards is not None:
        shard_infos = shard_infos[:max_shards]
    # One-time setup outside every timed phase: compile, build analyses,
    # pre-collect the canonical reference maps.
    counters: List[AliasPairCounter] = []
    with obs.span("corpus.bench.setup"):
        for info in shard_infos:
            for entry in load_shard(corpus_dir, info, verify=True):
                program = compile_program(entry["source"], entry["name"])
                ir = program.pipeline.base().program
                for analysis_name in analyses:
                    counters.append(AliasPairCounter(
                        ir, program.analysis(analysis_name), engine="fast"))

    phases = {"corpus.table5.fast": 0.0, "corpus.bulk.build": 0.0,
              "corpus.table5.bulk": 0.0}
    fast_counts: List[Tuple[int, int, int]] = []
    for _ in range(repeats):
        with obs.span("corpus.table5.fast", programs=len(counters)):
            # Span recording pauses inside: each one-shot count's own
            # aliaspairs.count / bulk.* spans would fold into the ledger
            # series of those names, which the build and reuse phases
            # below (and the committed baseline) measure without them.
            recording = obs.enabled()
            obs.disable()
            try:
                started = time.perf_counter()
                fast_counts = [c.count().counts() for c in counters]
                phases["corpus.table5.fast"] += time.perf_counter() - started
            finally:
                if recording:
                    obs.enable()

    with obs.span("corpus.bulk.build", programs=len(counters)):
        started = time.perf_counter()
        matrices = [
            BulkAliasMatrix.from_references(c.references, c.analysis)
            for c in counters
        ]
        phases["corpus.bulk.build"] += time.perf_counter() - started

    bulk_counts: List[Tuple[int, int, int]] = []
    for _ in range(repeats):
        with obs.span("corpus.table5.bulk", programs=len(matrices)):
            started = time.perf_counter()
            bulk_counts = [m.count_pairs().counts() for m in matrices]
            phases["corpus.table5.bulk"] += time.perf_counter() - started

    for i, (fast, bulk) in enumerate(zip(fast_counts, bulk_counts)):
        if fast != bulk:
            raise AssertionError(
                "corpus bench: reused matrix disagrees on program {} "
                "({}): one-shot={} reused={}".format(
                    i, counters[i].analysis.name, fast, bulk))

    shared_counts = _bench_shared_arena(matrices, phases, repeats, jobs)
    for i, (bulk, shared) in enumerate(zip(bulk_counts, shared_counts)):
        if bulk != shared:
            raise AssertionError(
                "corpus bench: arena disagrees on matrix {} ({}): "
                "bulk={} shared={}".format(
                    i, counters[i].analysis.name, bulk, shared))

    phases["corpus.bench.programs"] = float(len(counters))
    return phases


def _bench_shared_arena(matrices, phases: Dict[str, float], repeats: int,
                        jobs: int) -> List[Tuple[int, int, int]]:
    """Time ``corpus.table5.bulk_shared`` and return the arena counts."""
    import tempfile

    from repro.analysis.bulkarena import open_arena, write_arena

    global _SHARED_ARENA
    shared_counts: List[Tuple[int, int, int]] = []
    with tempfile.TemporaryDirectory(prefix="repro-arena-") as tmp:
        arena_path = Path(tmp) / "matrices.arena"
        with obs.span("corpus.bulk.arena_write", matrices=len(matrices)):
            started = time.perf_counter()
            write_arena(arena_path, matrices)
            phases["corpus.bulk.arena_write"] = time.perf_counter() - started
        phases["corpus.bulk.arena_bytes"] = float(
            arena_path.stat().st_size)
        with open_arena(arena_path) as arena:
            n = len(arena)
            chunk = max(1, (n + max(jobs, 1) - 1) // max(jobs, 1))
            bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
            phases["corpus.table5.bulk_shared"] = 0.0
            for _ in range(repeats):
                with obs.span("corpus.table5.bulk_shared", matrices=n,
                              jobs=jobs):
                    started = time.perf_counter()
                    if jobs <= 1 or n == 0:
                        shared_counts = [arena.matrix(i).count_pairs().counts()
                                         for i in range(n)]
                    else:
                        # The pool must fork *after* the arena is open so
                        # children inherit the mapping.
                        _SHARED_ARENA = arena
                        try:
                            with multiprocessing.Pool(processes=jobs) as pool:
                                shared_counts = [
                                    c for part in pool.map(
                                        _count_arena_range, bounds)
                                    for c in part
                                ]
                        finally:
                            _SHARED_ARENA = None
                    phases["corpus.table5.bulk_shared"] += (
                        time.perf_counter() - started)
    return shared_counts
