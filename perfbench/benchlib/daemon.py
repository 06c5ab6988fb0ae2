"""Workloads ``daemon-read`` and ``daemon-write`` against ``repro serve``.

Both drive a real daemon subprocess (``--workers 1``) from one client
in a closed loop: the next request goes out when the previous response
has been read.  The daemon answers ``Connection: close``, so each
request opens a new localhost connection.  Client, daemon and its pool
worker all run on one CPU (:func:`benchlib.common.one_cpu`): a request
is handed from one to the next, so they never compute at once, and
spread over two vCPUs their request latency swung twofold within and
between runs.

``daemon-read`` (in-memory store): set-up boots the daemon, uploads a
working set of file versions -- each file and five keystroke-sized
variants of it, one per common mutation kind (see
:func:`benchlib.inputs.variants`), so every pair of versions is one or
two small edits apart -- and has
the worker touch every tree once; the timed loop is fingerprint-addressed
``/diff`` between every pair of versions of a file, with one ``/lint``
(of a returned script) after every fourth diff.
Lints are the fastest fifth of requests, so p50 and p90 both fall among
the diffs, away from the boundary between the two kinds.
``setup_s`` is the median of :data:`READ_SETUPS` full set-ups, each on
a new daemon; the last daemon serves the timed loop.

``daemon-write`` (``--data-dir``) runs in rounds.  A round boots a
daemon on a fresh data dir and uploads the base files (one ``setup_s``
sample), then sends one fixed sequence of requests, the same in every
round, each adding a tree the store has never seen -- ``/trees``
uploads of a new version, ``/apply`` of a script to a stored base, and
``/apply-batch`` of the scripts of three concurrent editors against one
base, in the repeating pattern upload, apply, upload, apply, batch.
Versions are keystroke-sized edits of a base.  A batch's base is the
tree the apply just before it produced, so the pool worker always
meets it for the first time and re-parses it from the shipped source,
as it does for a live document.  Every request's inputs are prepared
before the first round.  Rounds repeat until ``--seconds`` of request
time (at least :data:`MIN_ROUNDS`), so the store, and with it the
daemon's memory and heap, never holds more than one round's trees
however fast the host is; ``peak_rss_mb`` and ``setup_s`` are medians
over rounds, latencies are pooled.  After each round, before its daemon
stops, the client asks it for a ``/diff`` from each upload's base to the
uploaded tree, the upload oracle's evidence that the store holds what
was sent.  ``edits_per_op`` counts each applied script as one op.

``/metrics`` is scraped before and after every timed loop, peak RSS of
the daemon and its workers is read from ``/proc``, and the daemon's
stderr is captured: a daemon that exits or logs a traceback fails the
remaining ops of its loop.

With ``--trace 1`` the run measures half of ``--seconds`` on plain
daemons and half on ones started through :mod:`benchlib.traced_serve`.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from . import common, inputs, layers, oracle
from .tracer import layer_self_ms

#: Full ``daemon-read`` set-ups per run (``setup_s`` is their median);
#: the last one's daemon serves the timed loop.
READ_SETUPS = 3
#: Fewest ``daemon-write`` rounds per run, however long they take.
MIN_ROUNDS = 2


# ---------------------------------------------------------------------------
# the daemon process


class DaemonError(RuntimeError):
    pass


class Daemon:
    """One ``repro serve`` subprocess and a client for it."""

    def __init__(
        self,
        workdir: Path,
        tag: str,
        data_dir: Optional[Path] = None,
        traced: bool = False,
    ) -> None:
        self.log_path = workdir / f"{tag}.log"
        self.spans_path = workdir / f"{tag}.spans.json" if traced else None
        serve = ["--port", "0", "--workers", "1"]
        if data_dir is not None:
            serve += ["--data-dir", str(data_dir)]
        env = common.child_env()
        if traced:
            here = str(Path(__file__).resolve().parents[1])
            env["PYTHONPATH"] = here + os.pathsep + env["PYTHONPATH"]
            cmd = [sys.executable, "-m", "benchlib.traced_serve", str(self.spans_path), "--", *serve]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *serve]
        self._log = open(self.log_path, "wb")
        self._log_seen = 0
        self.workers: list[int] = []
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
            env=env,
            cwd=str(workdir),
            start_new_session=True,
        )
        self.port = self._await_port(t0 + 60)

    def _await_port(self, deadline: float) -> int:
        marker = b"listening on http://"
        while time.perf_counter() < deadline:
            text = self.log_path.read_bytes()
            at = text.find(marker)
            if at >= 0 and b"\n" in text[at:]:
                line = text[at + len(marker):].split(b"\n", 1)[0]
                return int(line.split(b" ", 1)[0].rsplit(b":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise DaemonError(f"daemon did not start; log:\n{self.log_path.read_text(errors='replace')}")

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> tuple[int, bytes, float]:
        """One request on a new connection: ``(status, body, latency_s)``;
        status 0 when the daemon could not be reached."""
        t = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
            status = resp.status
        except (OSError, http.client.HTTPException):
            status, data = 0, b""
        finally:
            conn.close()
        return status, data, time.perf_counter() - t

    def post(self, path: str, obj: dict) -> tuple[int, Any, float]:
        status, data, lat = self.request("POST", path, json.dumps(obj).encode("utf8"))
        return status, _decode(data), lat

    def metrics(self) -> dict[str, float]:
        """Unlabelled samples of ``/metrics`` (Prometheus text)."""
        status, data, _ = self.request("GET", "/metrics")
        out: dict[str, float] = {}
        if status != 200:
            return out
        for line in data.decode("utf8", "replace").splitlines():
            if not line or line.startswith("#") or "{" in line:
                continue
            name, _, value = line.rpartition(" ")
            try:
                out[name] = float(value)
            except ValueError:
                continue
        return out

    def healthy(self) -> bool:
        """Still running, and nothing new in its log looks like a crash."""
        if self.proc.poll() is not None:
            return False
        self._log.flush()
        with open(self.log_path, "rb") as fh:
            fh.seek(self._log_seen)
            fresh = fh.read()
        self._log_seen += len(fresh)
        return b"Traceback" not in fresh

    def rss_mb(self) -> float:
        watch = common.RssWatch(self.proc.pid)
        watch.poll()
        self.workers = [p for p in watch.peaks if p != self.proc.pid]
        return watch.total_mb()

    def stop(self) -> None:
        """Drain the daemon and wait until it and its workers are gone."""
        if not self.workers:
            self.workers = common.children(self.proc.pid)
        if self.proc.poll() is None:
            if hasattr(self, "port"):
                self.request("POST", "/shutdown", b"{}")
            else:  # never came up: nothing to drain
                os.killpg(self.proc.pid, signal.SIGKILL)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait(timeout=30)
        deadline = time.time() + 15
        for pid in self.workers:
            while Path(f"/proc/{pid}").exists() and time.time() < deadline:
                time.sleep(0.02)
            if Path(f"/proc/{pid}").exists():
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self._log.close()

    def spans(self) -> list:
        if self.spans_path is None or not self.spans_path.exists():
            return []
        return json.loads(self.spans_path.read_text())["spans"]


def _decode(data: bytes) -> Any:
    try:
        return json.loads(data) if data else None
    except ValueError:
        return None


def _delta(before: dict[str, float], after: dict[str, float], name: str) -> float:
    key = name.replace(".", "_") + "_total"
    return after.get(key, 0.0) - before.get(key, 0.0)


# ---------------------------------------------------------------------------
# shared measurement plumbing


class Loop:
    """Op records of one timed loop on one daemon.

    Responses are kept as raw bytes while the loop runs and decoded
    afterwards, so the client's heap (and its collector pauses) stay
    small while requests are being timed.  The daemon's health is
    checked every 16 requests; when a check fails, every request since
    the last good check is failed and the loop stops.
    """

    def __init__(self, daemon: Daemon) -> None:
        self.daemon = daemon
        self.records: list[dict] = []  # kind, status, raw/doc, latency, + op inputs
        self.healthy_upto = 0
        self.broken_at: Optional[int] = None
        self.window = (0.0, 0.0)
        self.metrics_before: dict[str, float] = {}
        self.metrics_after: dict[str, float] = {}
        self.rss_mb = 0.0
        self.busy = 0.0  # summed request latency (s)

    def send(self, kind: str, path: str, body: dict, **info) -> None:
        status, raw, lat = self.daemon.request("POST", path, json.dumps(body).encode("utf8"))
        self.records.append({"kind": kind, "status": status, "raw": raw, "latency": lat, **info})
        self.busy += lat
        if status == 0 or len(self.records) % 16 == 0:
            self.check()

    def check(self) -> None:
        if self.daemon.healthy():
            self.healthy_upto = len(self.records)
        else:
            self.broken_at = self.healthy_upto

    def failed(self, index: int) -> bool:
        """Did the daemon break before request ``index`` was known good?"""
        return self.broken_at is not None and index >= self.broken_at

    def latencies(self) -> list[float]:
        return [r["latency"] for r in self.records]


def _measure(daemon: Daemon, next_op, done) -> Loop:
    """Run ``next_op(loop)`` in a closed loop until ``done(loop)``."""
    loop = Loop(daemon)
    loop.metrics_before = daemon.metrics()
    gc.collect()
    gc.freeze()  # the client's own set-up objects: out of its collector's way
    start = time.perf_counter()
    try:
        while not done(loop) and len(loop.records) < 100_000:
            next_op(loop)
            if loop.broken_at is not None:
                break
    finally:
        gc.unfreeze()
    loop.window = (start, time.perf_counter())
    for rec in loop.records:
        rec["doc"] = _decode(rec.pop("raw"))
    loop.metrics_after = daemon.metrics()
    loop.rss_mb = daemon.rss_mb()
    if loop.broken_at is None:
        loop.check()
    return loop


def _layer_metrics(traced: list[tuple[Loop, list]], plain_rate: float) -> dict:
    """Per-layer metrics of traced loops, each with its daemon's spans."""
    self_ms: dict[str, float] = {}
    client_ms = parses = hits = store_parses = 0.0
    n = 0
    for loop, spans in traced:
        lo, hi = loop.window
        ops = {s[4] for s in spans if s[0] == "server.handle" and lo <= s[1] <= hi}
        for name, ms in layer_self_ms(spans, ops).items():
            self_ms[name] = self_ms.get(name, 0.0) + ms
        top_ms = sum((s[2] - s[1]) * 1000.0 for s in spans if s[4] in ops and s[3] < 0)
        loop_ms = common.to_ms(sum(loop.latencies()))
        self_ms["server.http"] = self_ms.get("server.http", 0.0) + max(0.0, loop_ms - top_ms)
        client_ms += loop_ms
        n += len(loop.records)
        before, after = loop.metrics_before, loop.metrics_after
        parses += _delta(before, after, "repro.server.worker.parses")
        hits += _delta(before, after, "repro.server.worker.tree_hits")
        store_parses += _delta(before, after, "repro.server.store.parses")
    n = max(1, n)
    print(
        "daemon: pool workers are not wrapped; core.diff and robustness.patch there "
        "are the diff_ms/apply_ms they report, the rest of their time (parse on a "
        "cache miss, alias check, validation, serialization, transfer) is server.pool",
        file=sys.stderr,
    )
    return layers.per_layer_metrics(
        self_ms,
        n,
        client_ms,
        plain_rate,
        _rate([loop for loop, _ in traced]),
        {
            "server.worker_parse_ratio": parses / (parses + hits) if parses + hits else 0.0,
            "server.store_parses_per_op": store_parses / n,
        },
    )


def _report_counters(name: str, loops: list[Loop]) -> None:
    """Per-kind latency and the daemon's own counters, on stderr."""
    lats = [lat for loop in loops for lat in loop.latencies()]
    kinds: dict[str, list[float]] = {}
    for loop in loops:
        for rec in loop.records:
            kinds.setdefault(rec["kind"], []).append(common.to_ms(rec["latency"]))
    print(
        f"{name}: p50 {common.to_ms(common.percentile(lats, 50)):.1f} ms, "
        f"p90 {common.to_ms(common.percentile(lats, 90)):.1f} ms; per kind: "
        + ", ".join(
            f"{k} n={len(v)} p10/p50/p90 {common.percentile(v, 10):.1f}/"
            f"{common.percentile(v, 50):.1f}/{common.percentile(v, 90):.1f} ms"
            for k, v in sorted(kinds.items())
        ),
        file=sys.stderr,
    )
    prefixes = tuple(
        f"repro_server_{p}"
        for p in ("store", "worker", "batch_apply", "request_errors", "pool")
    )
    counters: dict[str, float] = {}
    for loop in loops:
        before, after = loop.metrics_before, loop.metrics_after
        for k in after:
            if k.startswith(prefixes) and after[k] != before.get(k, 0.0):
                counters[k] = counters.get(k, 0.0) + after[k] - before.get(k, 0.0)
    print(
        f"{name}: /metrics deltas over {len(loops)} timed loop(s): "
        f"{json.dumps(dict(sorted(counters.items())))}",
        file=sys.stderr,
    )


def _run_phases(
    seconds: float, trace: bool, setup, next_op
) -> tuple[list[float], Loop, list[tuple[Loop, list]]]:
    """``daemon-read``'s set-ups and timed loops: ``(setup_s samples,
    plain loop, [(traced loop, spans)])``."""

    def measure(daemon: Daemon, budget: float) -> Loop:
        try:
            return _measure(daemon, next_op, lambda loop: loop.busy >= budget)
        finally:
            daemon.stop()

    setup_s: list[float] = []
    if not trace:
        for k in range(READ_SETUPS):
            daemon, took = setup(f"setup{k}", traced=False)
            setup_s.append(took)
            if k < READ_SETUPS - 1:
                daemon.stop()
        return setup_s, measure(daemon, seconds), []
    plain = measure(setup("plain", traced=False)[0], seconds / 2)
    daemon, _ = setup("traced", traced=True)
    traced = measure(daemon, seconds / 2)
    return setup_s, plain, [(traced, daemon.spans())]


def _run_rounds(
    budget: float, traced: bool, setup, next_op, ops: int, verify
) -> list[tuple[float, Loop, list]]:
    """``daemon-write``'s rounds: ``[(setup_s, loop, spans)]``, until
    ``budget`` seconds of request time and at least :data:`MIN_ROUNDS`.

    ``verify(daemon, loop)`` runs after each round's loop on the daemon
    that served it, before that daemon stops."""
    rounds: list[tuple[float, Loop, list]] = []
    busy = 0.0
    while busy < budget or len(rounds) < MIN_ROUNDS:
        daemon, took = setup(f"{'traced' if traced else 'round'}{len(rounds)}", traced=traced)
        try:
            loop = _measure(daemon, next_op, lambda loop: len(loop.records) >= ops)
            verify(daemon, loop)
        finally:
            daemon.stop()
        rounds.append((took, loop, daemon.spans()))
        busy += loop.busy
    return rounds


def _rate(loops: list[Loop]) -> float:
    lat = [lat for loop in loops for lat in loop.latencies()]
    return len(lat) / sum(lat) if lat else 0.0


# ---------------------------------------------------------------------------
# daemon-read


@dataclass(frozen=True)
class ReadSizes:
    files: int = 8
    band: inputs.Band = inputs.SMALL


#: One ``/lint`` after every this many ``/diff`` requests.
DIFFS_PER_LINT = 4


def run_read(seed: int, seconds: float, trace: bool, sizes: ReadSizes = ReadSizes(), tamper: bool = False) -> dict:
    """One run; ``tamper`` alters one ``/diff`` and one ``/lint`` response
    before the oracle sees them, and the reference script of the pair
    of another ``/diff`` (the oracle self-test)."""
    files = inputs.banded_files(seed, sizes.files, sizes.band)
    chains = {
        path: [src] + inputs.variants(seed * 7919 + n, src)
        for n, (path, src) in enumerate(files.items())
    }
    trees = [(path, v, src) for path, chain in chains.items() for v, src in enumerate(chain)]
    pairs = [
        (path, i, j)
        for path, chain in chains.items()
        for i in range(len(chain))
        for j in range(i + 1, len(chain))
    ]
    random.Random(seed).shuffle(pairs)
    # diffs of successive versions: the worker parses every tree once
    warm = [(path, i, i + 1) for path, chain in chains.items() for i in range(len(chain) - 1)]

    with common.WorkDir("daemon-read") as wd, common.one_cpu():
        state: dict[str, Any] = {}

        def setup(tag: str, traced: bool):
            t0 = time.perf_counter()
            daemon = Daemon(wd.path, tag, traced=traced)
            try:
                fps = {}
                for path, v, src in trees:
                    status, doc, _ = daemon.post("/trees", {"source": src, "filename": path})
                    if status != 200:
                        raise DaemonError(f"upload failed: {status} {doc}")
                    fps[(path, v)] = doc["fingerprint"]
                for path, i, j in warm:
                    status, doc, _ = daemon.post(
                        "/diff", {"before": fps[(path, i)], "after": fps[(path, j)]}
                    )
                    if status != 200:
                        raise DaemonError(f"warm-up diff failed: {status} {doc}")
            except BaseException:
                daemon.stop()
                raise
            state["fps"] = fps
            state["k"] = 0
            return daemon, time.perf_counter() - t0

        def next_op(loop: Loop) -> None:
            k = state["k"]
            state["k"] = k + 1
            fps = state["fps"]
            last = loop.records[-1] if loop.records else None
            if k % (DIFFS_PER_LINT + 1) == DIFFS_PER_LINT and last and last["status"] == 200:
                script = json.loads(last["raw"])["script_json"]
                loop.send("lint", "/lint", {"script": script}, sent=script)
                return
            pair = pairs[(k - k // (DIFFS_PER_LINT + 1)) % len(pairs)]
            path, i, j = pair
            loop.send("diff", "/diff", {"before": fps[(path, i)], "after": fps[(path, j)]}, pair=pair)

        setup_s, plain, traced = _run_phases(seconds, trace, setup, next_op)

        # -- oracle (outside the timed phase) ----------------------------
        srcdir = wd.sub("src")
        files = {}
        for f, (path, v, src) in enumerate(trees):
            files[(path, v)] = srcdir / f"t{f:03d}.py"
            files[(path, v)].write_text(src, encoding="utf8")
        # the reference must itself turn the before version into the
        # after one; a pair whose reference does not fails every diff of it
        bad_ref = plain.records[0]["pair"] if tamper else None  # record 0 is a diff
        expected: dict[tuple, Optional[str]] = {}
        for path, i, j in pairs:
            ref = oracle.cli_diff_json(str(files[(path, i)]), str(files[(path, j)]))
            if (path, i, j) == bad_ref:
                ref = oracle.drop_last_edit_json(ref) + "\n"
            ok = oracle.json_script_reproduces(chains[path][i], ref, chains[path][j])
            expected[(path, i, j)] = ref if ok else None

    loops = [plain] + [loop for loop, _ in traced]
    if tamper:
        _tamper_read(plain, bad_ref)
    attempted = failed = 0
    edits: list[int] = []
    for loop in loops:
        for n, rec in enumerate(loop.records):
            attempted += 1
            ok = not loop.failed(n) and _check_read(rec, expected)
            if ok and rec["kind"] == "diff":
                edits.append(rec["doc"]["edits"])
            failed += not ok
    nodes = common.mean(
        rec["doc"]["src_nodes"] + rec["doc"]["dst_nodes"]
        for rec in plain.records
        if rec["kind"] == "diff" and rec.get("doc")
    )
    print(
        f"daemon-read: seed {seed}: {len(trees)} trees, {len(pairs)} pairs, "
        f"{nodes:.0f} nodes/diff, {len(plain.records)} requests "
        f"({sum(r['kind'] == 'lint' for r in plain.records)} lint)",
        file=sys.stderr,
    )
    _report_counters("daemon-read", [plain])
    return _result(setup_s, [plain], plain.rss_mb, traced, edits, attempted, failed)


def _check_read(rec: dict, expected: dict) -> bool:
    doc = rec.get("doc")
    if rec["status"] != 200 or not isinstance(doc, dict):
        return False
    if rec["kind"] == "diff":
        ref = expected[rec["pair"]]
        return ref is not None and doc.get("script_json", "") + "\n" == ref
    from repro.adapters.pyast import python_grammar
    from repro.analysis import lint_script, render_json
    from repro.core.serialize import script_from_json

    report = lint_script(script_from_json(rec["sent"]), python_grammar().grammar.sigs)
    return doc == json.loads(render_json(report))


def _tamper_read(loop: Loop, skip_pair: tuple) -> None:
    """Corrupt one diff response (of a pair other than ``skip_pair``)
    and one lint response (oracle self-test)."""
    for kind in ("diff", "lint"):
        for rec in loop.records:
            if rec["kind"] == kind and isinstance(rec.get("doc"), dict) and rec.get("pair") != skip_pair:
                if kind == "diff":
                    rec["doc"]["script_json"] += " "
                else:
                    rec["doc"]["clean"] = not rec["doc"].get("clean")
                break


def _result(
    setup_s: list[float],
    plain: list[Loop],
    rss_mb: float,
    traced: list[tuple[Loop, list]],
    edits: list[int],
    attempted: int,
    failed: int,
) -> dict:
    """The result line: per-layer metrics when there are traced loops,
    else the end-to-end ones over the pooled requests of ``plain``."""
    if traced:
        metrics = _layer_metrics(traced, _rate(plain))
    else:
        lat = [lat for loop in plain for lat in loop.latencies()]
        metrics = {
            "setup_s": common.metric(common.median(setup_s), "s"),
            "p50_ms": common.metric(common.to_ms(common.percentile(lat, 50)), "ms"),
            "p90_ms": common.metric(common.to_ms(common.percentile(lat, 90)), "ms"),
            "ops_per_s": common.metric(_rate(plain), "1/s"),
            "peak_rss_mb": common.metric(rss_mb, "MB"),
            "edits_per_op": common.metric(common.geometric_mean(edits), "edits"),
        }
    return common.result_line(attempted, failed, metrics)


# ---------------------------------------------------------------------------
# daemon-write


@dataclass(frozen=True)
class WriteSizes:
    bases: int = 48
    #: Requests per round: 32 distinct batches, since where a few slow
    #: ones (a collector pass in the daemon) fall decides the p90.
    ops: int = 160
    band: inputs.Band = inputs.TINY


#: Concurrent editors whose scripts one ``/apply-batch`` carries.
EDITORS = 3


#: The repeating request pattern (40% uploads, 40% applies, 20% batches):
#: p50 falls inside the applies and p90 in the middle of the batches.
PATTERN = ("upload", "apply", "upload", "apply", "batch")


def write_ops(seed: int, bases: list[tuple[str, str]], count: int) -> list[dict]:
    """The fixed request sequence of a ``daemon-write`` round.

    Request ``j`` is ``PATTERN[j % 5]`` on base ``j % len(bases)``, with
    content from :func:`benchlib.inputs.kind_mutants`: keystroke-sized
    edits whose kinds cycle through :data:`benchlib.inputs.VARIANT_KINDS`,
    separately for uploads and for scripts, every version distinct from
    every other and from the bases.  Scripts are computed here, in the
    program's canonical URI numbering of their base, so a round sends
    without computing.  A batch's base is the result of the apply that
    :data:`PATTERN` puts before it; its fingerprint is only known from
    that apply's response.
    """
    from repro.adapters.pyast import parse_python
    from repro.core import URIGen, diff
    from repro.core.serialize import script_to_json

    def script_for(base_src: str, target: str) -> str:
        src = parse_python(base_src).with_canonical_uris()
        script, _ = diff(src, parse_python(target), urigen=URIGen(start=src.size + 1))
        return script_to_json(script)

    seen = {oracle.source_dump(src) for _, src in bases}
    made = {"upload": 0, "script": 0}
    ops: list[dict] = []
    for j in range(count):
        kind = PATTERN[j % len(PATTERN)]
        b = j % len(bases)
        path, base_src = bases[b]
        op: dict[str, Any] = {"kind": kind, "base": b}
        if kind == "batch":
            base_src = ops[-1]["content"]
            op["base"] = None  # the fingerprint the preceding apply returns
        n = EDITORS if kind == "batch" else 1
        cycle = "upload" if kind == "upload" else "script"
        kinds = [inputs.VARIANT_KINDS[(made[cycle] + e) % len(inputs.VARIANT_KINDS)] for e in range(n)]
        made[cycle] += n
        contents = inputs.kind_mutants(seed * 1_000_003 + j, base_src, kinds, seen)
        if kind == "upload":
            op.update(content=contents[0], filename=path, base_src=base_src)
        elif kind == "apply":
            op.update(content=contents[0], scripts=[script_for(base_src, contents[0])])
        else:
            op.update(base_src=base_src, scripts=[script_for(base_src, c) for c in contents])
        ops.append(op)
    return ops


def run_write(seed: int, seconds: float, trace: bool, sizes: WriteSizes = WriteSizes(), tamper: bool = False) -> dict:
    """One run; ``tamper`` alters one response of each kind, and the
    stored-tree evidence of a second upload, before the oracle sees them
    (the oracle self-test)."""
    bases = list(inputs.banded_files(seed, sizes.bases, sizes.band).items())
    ops = write_ops(seed, bases, sizes.ops)

    with common.WorkDir("daemon-write") as wd, common.one_cpu():
        fps: list[str] = []

        def setup(tag: str, traced: bool):
            t0 = time.perf_counter()
            daemon = Daemon(wd.path, tag, data_dir=wd.path / f"{tag}-data", traced=traced)
            try:
                fps.clear()
                for path, src in bases:
                    status, doc, _ = daemon.post("/trees", {"source": src, "filename": path})
                    if status != 200:
                        raise DaemonError(f"base upload failed: {status} {doc}")
                    fps.append(doc["fingerprint"])
            except BaseException:
                daemon.stop()
                raise
            return daemon, time.perf_counter() - t0

        def next_op(loop: Loop) -> None:
            j = len(loop.records)
            op = ops[j]
            if op["base"] is not None:
                fp = fps[op["base"]]
            else:
                last = loop.records[-1]
                fp = json.loads(last["raw"])["fingerprint"] if last["status"] == 200 else ""
            if op["kind"] == "upload":
                loop.send("upload", "/trees", {"source": op["content"], "filename": op["filename"]}, op=j, base_fp=fp)
            elif op["kind"] == "apply":
                loop.send("apply", "/apply", {"tree": fp, "script": op["scripts"][0]}, op=j)
            else:
                loop.send("batch", "/apply-batch", {"tree": fp, "scripts": op["scripts"]}, op=j)

        def verify(daemon: Daemon, loop: Loop) -> None:
            """The upload oracle's evidence: the stored tree of each upload,
            as a ``/diff`` from its base.  A broken daemon gives none, so
            its uploads fail."""
            if loop.broken_at is not None:
                return
            for rec in loop.records:
                if rec["kind"] == "upload" and rec["status"] == 200 and isinstance(rec["doc"], dict):
                    status, doc, _ = daemon.post(
                        "/diff", {"before": rec["base_fp"], "after": rec["doc"].get("fingerprint")}
                    )
                    ok = status == 200 and isinstance(doc, dict)
                    rec["stored"] = doc.get("script_json") if ok else None

        plain = _run_rounds(seconds / 2 if trace else seconds, False, setup, next_op, sizes.ops, verify)
        traced = _run_rounds(seconds / 2, True, setup, next_op, sizes.ops, verify) if trace else []

    # -- oracle (outside the timed phase) --------------------------------
    plain_loops = [loop for _, loop, _ in plain]
    if tamper:
        _tamper_write(plain_loops[0])
    check = WriteOracle(ops)
    attempted = failed = 0
    edits: list[int] = []
    for loop in plain_loops + [loop for _, loop, _ in traced]:
        for n, rec in enumerate(loop.records):
            attempted += 1
            ok = not loop.failed(n) and check(rec)
            if ok and rec["kind"] == "apply":
                edits.append(_script_len(ops[rec["op"]]["scripts"][0]))
            elif ok and rec["kind"] == "batch":  # each applied script on its own
                edits.extend(s["edits"] for s in rec["doc"]["scripts"] if s.get("status") == "applied")
            failed += not ok
    kinds = {k: sum(op["kind"] == k for op in ops) for k in PATTERN}
    print(
        f"daemon-write: seed {seed}: {len(bases)} bases of "
        f"{common.mean(check.nodes(src) for _, src in bases):.0f} nodes; "
        f"{len(plain)} rounds of {len(ops)} requests {kinds}",
        file=sys.stderr,
    )
    _report_counters("daemon-write", plain_loops)
    return _result(
        [took for took, _, _ in plain],
        plain_loops,
        common.median(loop.rss_mb for loop in plain_loops),
        [(loop, spans) for _, loop, spans in traced],
        edits,
        attempted,
        failed,
    )


def _script_len(script_json: str) -> int:
    from repro.core.serialize import script_from_json

    return len(script_from_json(script_json))


class WriteOracle:
    """Checks ``daemon-write`` responses against references computed
    once per request of the round (every round sends the same ones)."""

    def __init__(self, ops: list[dict]) -> None:
        self.ops = ops
        self._nodes: dict[str, int] = {}
        self._folds: dict[int, tuple[str, list[bool]]] = {}

    def nodes(self, source: str) -> int:
        from repro.adapters.pyast import parse_python

        if source not in self._nodes:
            self._nodes[source] = parse_python(source).size
        return self._nodes[source]

    def __call__(self, rec: dict) -> bool:
        doc = rec.get("doc")
        if rec["status"] != 200 or not isinstance(doc, dict):
            return False
        if doc.get("cached") is not False:
            return False  # every write must add a tree the store did not have
        op = self.ops[rec["op"]]
        if rec["kind"] == "upload":
            return doc.get("nodes") == self.nodes(op["content"]) and oracle.json_script_reproduces(
                op["base_src"], rec.get("stored"), op["content"]
            )
        if rec["kind"] == "apply":
            return oracle.same_tree(doc.get("source"), op["content"])
        if rec["op"] not in self._folds:
            self._folds[rec["op"]] = oracle.sequential_fold(op["base_src"], op["scripts"])
        source, verdicts = self._folds[rec["op"]]
        got = [s.get("status") == "applied" for s in doc.get("scripts", [])]
        return got == verdicts and oracle.same_tree(doc.get("source"), source)


def _tamper_write(loop: Loop) -> None:
    """Corrupt one response of each kind, and the stored tree of a second
    upload (oracle self-test)."""
    uploads = [r for r in loop.records if r["kind"] == "upload" and isinstance(r.get("doc"), dict)]
    uploads[0]["doc"]["nodes"] += 1
    uploads[1]["stored"] = oracle.drop_last_edit_json(uploads[1]["stored"])
    for kind in ("apply", "batch"):
        for rec in loop.records:
            if rec["kind"] == kind and isinstance(rec.get("doc"), dict):
                rec["doc"]["source"] += "\ntampered = True\n"
                break
