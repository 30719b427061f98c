"""serve-edit: the ``repro serve`` daemon under an edit-heavy stream.

The daemon runs as users run it, in a child process
(``python -m repro serve --no-stdio --http 0 --cache-dir DIR
--max-sessions N``); the benchmark parses its ``PORT`` line and drives
it closed-loop with one caller.  Every request is a ``tables`` request
with ``worlds: "both"`` (Table 5 rows for the three analyses in both
worlds) over one of the 10 paper modules, in one of three kinds that
use the daemon's cache layer three ways:

* **edit** - a never-seen version of a module, with one integer literal
  changed inside one procedure body: a cold compile, 6 bulk-matrix
  builds and fact-store writes;
* **read** - the current version of a module whose session is warm;
* **revisit** - an earlier version already evicted from the session LRU
  (``N`` is smaller than the number of versions revisited), which the
  daemon restores from its fact store.

The stream runs in rounds.  A round visits each module once, in seeded
order; a visit is one edit followed by a seeded shuffle of
``READS_PER_VISIT`` reads and ``REVISITS_PER_VISIT`` revisits.  The
rounds are cut into segments, each sent to a freshly started daemon, so
the daemon's set-up is timed several times across the run.  The
benchmark mirrors the daemon's session LRU to pick reads that are warm
and revisits that are evicted.  Every served row is checked against the
``reference`` counting engine, run on that exact source version once
the timed stream is over.

The load generator sends each request as a single write on a fresh
connection, as ``urllib`` does.  A headers-then-body send over a reused
``http.client`` connection stalls on Nagle's algorithm plus delayed ACK
(tens of ms per request), which would measure the kernel, not the
daemon.
"""

import json
import os
import random
import re
import shutil
import socket
import subprocess
import sys
import time
from collections import OrderedDict

from common import HERE, ROOT, SETUP_REPEATS, SRC, WORK, import_repro

MAX_SESSIONS = 8
#: The traffic mix is an assumption, not a measurement: the repository
#: records no real ``repro serve`` traffic.  It models an editor
#: integration that re-queries the open modules far more often than the
#: user saves an edit, and now and then returns to an older version
#: (undo, switching branches).  The ratio is chosen so that the
#: generic per-request metrics each fall on one kind: with reads the
#: fastest kind, revisits next and edits slowest, reads are the fastest
#: 75% of requests (program_ms.p50 sits in their middle) and revisits
#: the next 20% (program_ms.p90 sits three quarters into them, so the
#: slowest few percent of reads move it within the revisits rather than
#: past them).  The run prints the kinds found around both ranks, so a
#: change that reorders the kinds shows.
READS_PER_VISIT = 15
REVISITS_PER_VISIT = 4
#: Rounds per segment never drop below this, so edit_ms.p90 rests on at
#: least 150 edits (15 beyond it) over the run's segments.
MIN_ROUNDS = 3
#: Seconds one round takes at the committed code; sizes the stream.
ROUND_S = 0.9

CONNECT_TIMEOUT = 60.0
DAEMON_START_TIMEOUT = 60.0
DAEMON_STOP_TIMEOUT = 60.0

_MASKED = re.compile(r"""\(\*|"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*'""")
_PROC = re.compile(r"\bPROCEDURE\s+(\w+)")
_BEGIN = re.compile(r"\bBEGIN\b")
_INT = re.compile(r"(?<![\w.])\d+(?![\w.])")


def rounds_for(seconds):
    """Rounds per segment for a ``--seconds`` budget.  The stream is
    fixed in advance, sized so that its segments together last about
    *seconds* at the committed code."""
    return max(MIN_ROUNDS, round(seconds / ROUND_S / SETUP_REPEATS))


# -- edits ---------------------------------------------------------------


def _mask(text):
    """*text* with comments (nested), strings and char literals blanked."""
    out = list(text)
    pos = 0
    while True:
        match = _MASKED.search(text, pos)
        if match is None:
            return "".join(out)
        start = match.start()
        if match.group() == "(*":
            depth, end = 1, start + 2
            while depth and end < len(text):
                two = text[end:end + 2]
                if two == "(*":
                    depth, end = depth + 1, end + 2
                elif two == "*)":
                    depth, end = depth - 1, end + 2
                else:
                    end += 1
        else:
            end = match.end()
        for i in range(start, end):
            if out[i] != "\n":
                out[i] = " "
        pos = end


def literal_sites(text):
    """``(start, end)`` of every integer literal inside a procedure body."""
    masked = _mask(text)
    sites = []
    for proc in _PROC.finditer(masked):
        end = re.compile(r"\bEND\s+{}\s*;".format(proc.group(1))).search(
            masked, proc.end())
        begin = _BEGIN.search(masked, proc.end())
        if end is None or begin is None or begin.start() > end.start():
            continue
        for lit in _INT.finditer(masked, begin.end(), end.start()):
            sites.append(lit.span())
    return sites


def edit_source(text, rng):
    """*text* with one procedure-body integer literal changed."""
    start, end = rng.choice(literal_sites(text))
    value = int(text[start:end]) + rng.randint(1, 999)
    return text[:start] + str(value) + text[end:]


# -- the request stream --------------------------------------------------


class Stream:
    """The seeded request list plus the source text of every version.

    The stream is cut into ``segments``, each sent to its own freshly
    started daemon, so that the daemon's set-up can be timed between
    segments.  Every segment starts from the paper modules as committed
    (which the set-up warms) and runs ``rounds`` rounds; a revisit only
    picks a version of its own segment, the only ones its daemon's fact
    store holds.

    ``segments`` is a list of request lists, each request a
    ``[kind, module, version]``; ``versions`` maps a version id to its
    text.  Versions ``0..9`` are the paper modules as committed; every
    later id is an edit, and no edited text occurs twice.
    """

    def __init__(self, sources, seed, rounds, segments):
        rng = random.Random(seed)
        self.modules = sorted(sources)
        self.versions = [sources[m] for m in self.modules]
        self.module_of = list(self.modules)
        self.segments = []
        seen = set(self.versions)
        for _ in range(segments):
            requests = []
            self.segments.append(requests)
            current = {m: i for i, m in enumerate(self.modules)}
            own = list(range(len(self.modules)))
            lru = OrderedDict()

            def touch(version):
                lru.pop(version, None)
                lru[version] = True
                while len(lru) > MAX_SESSIONS:
                    lru.popitem(last=False)

            def add(kind, version):
                touch(version)
                requests.append([kind, self.module_of[version], version])

            for version in own:
                touch(version)
            for _ in range(rounds):
                order = list(self.modules)
                rng.shuffle(order)
                for module in order:
                    text = self.versions[current[module]]
                    new = edit_source(text, rng)
                    while new in seen:
                        new = edit_source(text, rng)
                    seen.add(new)
                    self.versions.append(new)
                    self.module_of.append(module)
                    current[module] = len(self.versions) - 1
                    own.append(current[module])
                    add("edit", current[module])
                    kinds = (["read"] * READS_PER_VISIT
                             + ["revisit"] * REVISITS_PER_VISIT)
                    rng.shuffle(kinds)
                    for kind in kinds:
                        if kind == "read":
                            warm = [v for v in current.values() if v in lru]
                            add("read", rng.choice(sorted(warm)))
                        else:
                            cold = [v for v in own if v not in lru]
                            add("revisit", rng.choice(cold))

    @property
    def requests(self):
        """Every request of every segment, in order."""
        return [r for requests in self.segments for r in requests]

    def digest_view(self):
        return {"segments": self.segments, "versions": self.versions}


def reference_rows(repro, text, name):
    """The served row list for *text*, from the reference engine."""
    program = repro.compile_program(text, name)
    base = program.base().program
    rows = []
    for open_world in (False, True):
        for analysis in repro.ANALYSIS_NAMES:
            report = repro.AliasPairCounter(
                base, program.analysis(analysis, open_world=open_world),
                engine="reference").count()
            rows.append({
                "analysis": analysis,
                "open_world": open_world,
                "references": report.references,
                "local_pairs": report.local_pairs,
                "global_pairs": report.global_pairs,
            })
    return rows


# -- the daemon and its client -------------------------------------------


def post(port, payload):
    """One request: a single write on a fresh connection, read to EOF."""
    body = json.dumps(payload).encode("utf-8")
    head = ("POST /v1/query HTTP/1.1\r\nHost: 127.0.0.1:{}\r\n"
            "Content-Type: application/json\r\nContent-Length: {}\r\n"
            "Connection: close\r\n\r\n").format(port, len(body))
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=CONNECT_TIMEOUT) as sock:
        sock.sendall(head.encode("ascii") + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    header, _, content = raw.partition(b"\r\n\r\n")
    status = header.split(b" ", 2)[1:2]
    if status != [b"200"]:
        raise IOError("daemon answered {!r}".format(header[:40]))
    return json.loads(content)


class Daemon:
    """One ``repro serve`` child.  ``spans_path`` set means the child is
    started through the benchmark's launcher, which installs the span
    wrappers and writes the spans there when the daemon exits."""

    def __init__(self, cache_dir, spans_path=None):
        if spans_path is None:
            head = [sys.executable, "-m", "repro"]
        else:
            head = [sys.executable, os.path.join(HERE, "launcher.py"),
                    spans_path]
        argv = head + ["-q", "serve", "--no-stdio", "--http", "0",
                       "--cache-dir", cache_dir,
                       "--max-sessions", str(MAX_SESSIONS)]
        env = dict(os.environ, PYTHONPATH=SRC)
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE,
                                     stdin=subprocess.DEVNULL)
        self.port = None
        deadline = time.monotonic() + DAEMON_START_TIMEOUT
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline().decode()
            if line.startswith("PORT "):
                self.port = int(line.split()[1])
                return
            if not line:
                break
        self.kill()
        raise RuntimeError("daemon did not print its PORT line")

    def query(self, payload):
        return post(self.port, payload)

    def stop(self):
        """The ``shutdown`` op, then wait for the child to exit.

        The daemon can exit while its answer to ``shutdown`` is still
        being written (its drain waits for requests being handled, not
        for answers being sent), so a cut-off answer is not an error;
        the exit code is.
        """
        try:
            try:
                self.query({"op": "shutdown"})
            except (OSError, ValueError):
                pass
            self.proc.wait(timeout=DAEMON_STOP_TIMEOUT)
        finally:
            self.kill()
        return self.proc.returncode

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def tables_request(stream, kind, version, seq):
    return {"op": "tables", "id": "{}:{}".format(kind, seq),
            "name": stream.module_of[version],
            "source": stream.versions[version], "worlds": "both"}


class ServeEdit:
    """The stream and its daemons.  Each segment of the stream goes to a
    daemon of its own: :meth:`start` (the timed set-up), then
    :meth:`run_stream`, then :meth:`stop`."""

    name = "serve-edit"

    def __init__(self, seed, seconds):
        self.seed = seed
        self.segments = SETUP_REPEATS
        #: Rounds per segment.
        self.rounds = rounds_for(seconds)
        self.daemon = None
        #: ``(version, rows or None)`` of every answer not yet checked.
        self.served = []
        self._reference = {}
        self._stores = 0

    def setup(self):
        """Generate the stream."""
        import_repro()
        from repro.bench import registry

        sources = {n: registry.load_source(n)
                   for n in registry.benchmark_names()}
        self.stream = Stream(sources, self.seed, self.rounds, self.segments)

    def start(self, spans_path=None):
        """Start a daemon on a fresh fact store and warm the 10 modules."""
        self._stores += 1
        cache_dir = os.path.join(WORK, "factstore-{}".format(self._stores))
        shutil.rmtree(cache_dir, ignore_errors=True)
        self.daemon = Daemon(cache_dir, spans_path)
        for version in range(len(self.stream.modules)):
            self._send(tables_request(self.stream, "warm", version, version),
                       version)

    def stop(self):
        """Shut the daemon down; a nonzero exit is an error."""
        daemon, self.daemon = self.daemon, None
        code = daemon.stop()
        if code != 0:
            raise RuntimeError("daemon exited with code {}".format(code))

    def kill(self):
        if self.daemon is not None:
            self.daemon.kill()
            self.daemon = None

    def plan_for_digest(self):
        return self.stream.digest_view()

    def stats(self):
        return self.daemon.query({"op": "stats"})["result"]["counters"]

    def _send(self, payload, version):
        try:
            response = self.daemon.query(payload)
        except (OSError, ValueError):
            response = {}
        rows = response["result"]["rows"] if response.get("ok") else None
        self.served.append((version, rows))

    def check(self):
        """Compare every answer served so far with the reference engine
        on that exact source version; returns the number wrong.

        The reference rows are computed after the timed stream rather
        than before it, so that set-up stays what a daemon user pays.
        """
        repro = import_repro()
        failed = 0
        for version, rows in self.served:
            if version not in self._reference:
                self._reference[version] = reference_rows(
                    repro, self.stream.versions[version],
                    self.stream.module_of[version])
            failed += rows != self._reference[version]
        self.served = []
        return failed

    def run_stream(self, segment, between=None):
        """Send one segment's requests to the running daemon; returns
        per-request ``(kind, start, seconds)`` and the round wall times.
        *between* runs after each request; its time is left out of the
        round times.  Answers are kept for :meth:`check`."""
        samples = []
        round_times = []
        requests = self.stream.segments[segment]
        per_round = len(requests) // self.rounds
        start = time.perf_counter()
        for seq, (kind, _module, version) in enumerate(requests):
            payload = tables_request(self.stream, kind, version, seq)
            sent = time.perf_counter()
            self._send(payload, version)
            samples.append((kind, sent, time.perf_counter() - sent))
            if between is not None:
                paused = time.perf_counter()
                between()
                start += time.perf_counter() - paused
            if (seq + 1) % per_round == 0:
                now = time.perf_counter()
                round_times.append(now - start)
                start = now
        return samples, round_times
