"""Command line interface: structural diffing of Python files.

Usage::

    python -m repro diff before.py after.py            # print the script
    python -m repro diff before.py after.py --json     # machine-readable
    python -m repro diff before.py after.py --stats    # sizes & timing
    python -m repro diff before.py after.py --metrics  # instrument the run
    python -m repro stats before.py after.py           # pass-by-pass report
    python -m repro apply before.py script.json        # patch and unparse
    python -m repro apply before.py script.json --atomic --verify
    python -m repro lint script.json                   # static analysis, no tree
    python -m repro lint script.json --format sarif --out lint.sarif
    python -m repro lint script.json --fix             # minimize in place
    python -m repro race a.json b.json c.json          # interference + schedule
    python -m repro race a.json b.json --format sarif --out race.sarif
    python -m repro verify file.py                     # tree integrity check
    python -m repro verify file.py --script script.json
    python -m repro compare before.py after.py         # all tools side by side
    python -m repro batch old/ new/ --workers 4 --out results.jsonl
    python -m repro batch old/ new/ --fallback-replace # degrade, don't fail
    python -m repro diff before.py after.py --trace trace.json
    python -m repro batch old/ new/ --trace trace.json --sample 1/8
    python -m repro trace trace.json                   # causal timeline view
    python -m repro serve --port 8337 --workers 2      # diff-as-a-service daemon
    python -m repro serve --stdio                      # JSONL-over-stdio front end
    python -m repro diff before.py after.py --server http://127.0.0.1:8337

``--metrics`` enables the observability layer around the diff and dumps
the registry to stderr (``--metrics=json`` / ``--metrics=prom`` select
the format); the ``stats`` subcommand replays a file pair several times
and prints the per-pass timing and counter report (``--out`` writes the
snapshot JSON, which CI uploads as a build artifact).

``--trace PATH`` records the run as a causal span tree and exports it —
by default in the Chrome trace-event format (load it at
https://ui.perfetto.dev), or OTLP-shaped JSON with ``--trace-format
otlp``.  For ``batch``, spans from the driver and every pool worker land
in one trace (each worker's spans come back with its task result and
join the driver's trace buffer), and ``--sample 1/N`` head-samples the
per-pair subtrees.  ``repro trace`` renders any exported trace back as
a text timeline or converts between formats.

The CLI exercises the same public API the examples use; it exists so the
tool is usable on real files without writing a driver script.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro import observability as obs
from repro.adapters import ast_node_count, parse_python, tnode_to_gumtree, unparse_python
from repro.core import EditTypeError, PatchError, diff, tnode_to_mtree
from repro.core.serialize import SerializationError, script_from_json, script_to_json


class CLIError(Exception):
    """A user-facing input problem (unreadable or unparseable file).

    Rendered by :func:`main` as a one-line ``repro: <file>: <error>``
    diagnostic on stderr with exit status 2 — never a traceback.
    """

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf8") as fh:
            return fh.read()
    except OSError as exc:
        raise CLIError(path, exc.strerror or str(exc)) from None
    except UnicodeDecodeError as exc:
        raise CLIError(path, f"not valid UTF-8 ({exc.reason})") from None


def _parse_text(text: str, path: str):
    try:
        return parse_python(text, path)
    except SyntaxError as exc:
        detail = exc.msg or "invalid syntax"
        where = f" (line {exc.lineno})" if exc.lineno else ""
        raise CLIError(path, f"{detail}{where}") from None
    except ValueError as exc:  # e.g. source containing null bytes
        raise CLIError(path, str(exc)) from None


def _parse_file(path: str):
    return _parse_text(_read(path), path)


def _emit_metrics(snap: dict, mode: str, stream) -> None:
    """Render a registry snapshot in the requested format."""
    if mode == "json":
        print(json.dumps(snap, indent=2, sort_keys=True), file=stream)
    elif mode == "prom":
        print(obs.prometheus_text(snap), end="", file=stream)
    else:
        print(obs.render_report(snap), file=stream)


def _cmd_diff_via_server(args: argparse.Namespace) -> int:
    """Client mode: route the diff through a running daemon.

    Sources are uploaded once (content-addressed: a re-upload is a
    cache hit) and the diff is requested by fingerprint; the printed
    script is byte-identical to the local code path.
    """
    from repro.server import ClientError, ServerClient

    if args.explain or args.metrics or args.trace:
        raise CLIError(
            "--server", "client mode supports --json and --stats only"
        )
    before_text = _read(args.before)
    after_text = _read(args.after)
    client = ServerClient(args.server)
    try:
        before = client.put_tree(before_text, args.before)
        after = client.put_tree(after_text, args.after)
        if args.json:
            raw = client.diff_raw(before["fingerprint"], after["fingerprint"])
            sys.stdout.write(raw.decode("utf8"))
            result = None
        else:
            result = client.diff(before["fingerprint"], after["fingerprint"])
            script = script_from_json(result["script_json"])
            for edit in script:
                print(edit)
    except ClientError as exc:
        raise CLIError(args.server, exc.message) from None
    if args.stats and result is not None:
        nodes = result["src_nodes"] + result["dst_nodes"]
        print(
            f"-- {result['edits']} edits, {nodes} nodes; "
            f"server diff {result['diff_ms']:.1f} ms "
            f"(cached: before={str(result['cached']['before']).lower()}, "
            f"after={str(result['cached']['after']).lower()})",
            file=sys.stderr,
        )
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    if args.server:
        return _cmd_diff_via_server(args)
    # canonical URIs (pre-order positions) make the script meaningful to a
    # separate `apply` process that re-parses the before-file
    t0 = time.perf_counter()
    src = _parse_file(args.before).with_canonical_uris()
    dst = _parse_file(args.after)
    parse_ms = (time.perf_counter() - t0) * 1000
    from repro.core import URIGen

    if args.metrics:
        obs.enable()
    if args.trace:
        obs.reset_tracing()
        try:
            obs.enable_tracing(sample=args.sample)
        except ValueError as exc:
            raise CLIError("--sample", str(exc)) from None
    from repro.core import DiffOptions, validate_script

    try:
        t0 = time.perf_counter()
        # validation runs (and is timed) separately below
        script, _ = diff(
            src,
            dst,
            DiffOptions(typecheck="none"),
            urigen=URIGen(start=src.size + 1),
        )
        diff_ms = (time.perf_counter() - t0) * 1000
    finally:
        if args.metrics and not args.trace:
            obs.disable()
    t0 = time.perf_counter()
    validate_script(script, src.sigs, args.typecheck)
    typecheck_ms = (time.perf_counter() - t0) * 1000
    if args.trace:
        obs.disable_tracing()
        obs.disable()
        spans = obs.take_spans()
        obs.write_trace(args.trace, spans, args.trace_format)
        print(
            f"repro: trace: {len(spans)} span(s) -> {args.trace}",
            file=sys.stderr,
        )
    if args.json:
        print(script_to_json(script, indent=2))
    elif args.explain:
        from repro.adapters.explain import explain

        print(explain(src, script))
    else:
        for edit in script:
            print(edit)
    if args.stats:
        nodes = ast_node_count(src) + ast_node_count(dst)
        # the rate covers the diff alone; parse and typecheck are reported
        # separately (and a trivial input may round the timer to zero)
        rate = f"{nodes / diff_ms:.0f}" if diff_ms > 0 else "inf"
        print(
            f"-- {len(script)} edits, {nodes} nodes; "
            f"parse {parse_ms:.1f} ms, diff {diff_ms:.1f} ms "
            f"({rate} nodes/ms), "
            f"validate[{args.typecheck}] {typecheck_ms:.1f} ms",
            file=sys.stderr,
        )
    if args.metrics:
        _emit_metrics(obs.snapshot(), args.metrics, sys.stderr)
        obs.reset()
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Replay a file pair under full instrumentation and report per-pass
    metrics (the explanatory counterpart of ``diff --stats``)."""
    from repro.core import URIGen, apply_script

    before_text = _read(args.before)
    after_text = _read(args.after)
    obs.reset()
    obs.enable()
    try:
        script = None
        src = None
        for _ in range(max(1, args.rounds)):
            # reparse per round: each replay rebuilds its trees, so the
            # span histograms aggregate over identical, independent runs
            src = _parse_text(before_text, args.before).with_canonical_uris()
            dst = _parse_text(after_text, args.after)
            script, _ = diff(src, dst, urigen=URIGen(start=src.size + 1))
        # drive the patch path too, so edit-kind counters are populated
        apply_script(src, script)
        snap = obs.snapshot()
    finally:
        obs.disable()
        obs.reset()
    if args.out:
        with open(args.out, "w", encoding="utf8") as fh:
            json.dump(snap, fh, indent=2, sort_keys=True)
            fh.write("\n")
    mode = "json" if args.json else "prom" if args.prom else "text"
    if mode == "text":
        title = (
            f"{args.before} -> {args.after}: "
            f"{max(1, args.rounds)} instrumented replay(s)"
        )
        print(obs.render_report(snap, title))
    else:
        _emit_metrics(snap, mode, sys.stdout)
    return 0


def cmd_apply(args: argparse.Namespace) -> int:
    from repro.core import PatchError

    src = _parse_file(args.before).with_canonical_uris()
    try:
        script = script_from_json(_read(args.script))
    except SerializationError as exc:
        raise CLIError(args.script, str(exc)) from None
    mtree = tnode_to_mtree(src)
    try:
        if args.atomic or args.verify:
            mtree.patch(script, atomic=True, sigs=src.sigs, verify=args.verify)
        else:
            mtree.patch(script)
    except PatchError as exc:
        print(f"repro: apply: {exc}", file=sys.stderr)
        return 1
    # rebuild a TNode from the patched MTree to unparse it
    from repro.adapters.pyast import python_grammar

    g = python_grammar()
    rebuilt = g.grammar.parse_tuple(mtree.to_tuple())
    try:
        print(unparse_python(rebuilt))
    except RecursionError as exc:
        raise CLIError(args.before, f"patched tree too deeply nested: {exc}") from None
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Statically analyze a truechange JSON script — no tree in hand.

    Runs the truelint analyzer (linear typing against Σ, Definition 3.1
    boundary conditions, redundancy lints) and renders the report as
    compiler-style text, JSON, or SARIF.  ``--fix`` additionally applies
    the semantics-preserving rewrites and writes the minimized script
    back to the input file.

    Exit status: 0 for a well-typed script (warnings allowed), 1 if any
    error-severity finding remains, 2 for unusable inputs.
    """
    from repro.analysis import lint_script, minimize, render_json, render_sarif, render_text

    if args.sigs == "python":
        from repro.adapters.pyast import python_grammar

        sigs = python_grammar().grammar.sigs
    else:
        sigs = _parse_file(args.sigs).sigs

    try:
        script = script_from_json(_read(args.script))
    except SerializationError as exc:
        raise CLIError(args.script, str(exc)) from None

    if args.fix:
        result = minimize(script)
        if result.changed:
            with open(args.script, "w", encoding="utf8") as fh:
                fh.write(script_to_json(result.script, indent=2))
                fh.write("\n")
            print(
                f"repro: lint: applied {len(result.applied)} fix(es) in "
                f"{result.rounds} round(s): {result.original_edits} -> "
                f"{result.minimized_edits} edits",
                file=sys.stderr,
            )
            script = result.script

    report = lint_script(script, sigs, uri=args.script)
    rendered = {
        "text": lambda: render_text(report),
        "json": lambda: render_json(report),
        "sarif": lambda: render_sarif([report]),
    }[args.format]()
    if args.out:
        with open(args.out, "w", encoding="utf8") as fh:
            fh.write(rendered)
            fh.write("\n")
    else:
        print(rendered)
    return 0 if report.ok else 1


def cmd_race(args: argparse.Namespace) -> int:
    """Statically analyze a set of truechange scripts for interference.

    Runs the truerace effect system over every script, builds the
    pairwise interference graph (stable ``TR0xx`` codes), and prints the
    conflict report plus the greedy-colored wave schedule.  By default
    the scripts are modeled as raw concurrent applications, where
    colliding fresh URIs are real conflicts; ``--assume-renamed`` asks
    the question under a renaming discipline instead (the contract the
    server's ``/apply-batch`` establishes before scheduling).

    Exit status: 0 if every pair is independent (the whole set is one
    wave), 1 if any interference was found, 2 for unusable inputs.
    """
    from repro.analysis.race import (
        RaceReport,
        render_race_json,
        render_race_sarif,
        render_race_text,
        schedule,
    )

    scripts = []
    for path in args.scripts:
        try:
            scripts.append(script_from_json(_read(path)))
        except SerializationError as exc:
            raise CLIError(path, str(exc)) from None
    sch = schedule(scripts, assume_renamed=args.assume_renamed)
    report = RaceReport(
        sch,
        labels=list(args.scripts),
        assume_renamed=args.assume_renamed,
        uri=args.uri,
    )
    rendered = {
        "text": lambda: render_race_text(report),
        "json": lambda: render_race_json(report),
        "sarif": lambda: render_race_sarif([report]),
    }[args.format]()
    if args.out:
        with open(args.out, "w", encoding="utf8") as fh:
            fh.write(rendered)
            fh.write("\n")
    else:
        print(rendered)
    return 0 if report.independent else 1


def cmd_verify(args: argparse.Namespace) -> int:
    """Check tree integrity, optionally after an atomic patch.

    Exit status: 0 if the tree verifies, 1 on violations or a rejected
    patch, 2 for unusable inputs.
    """
    from repro.core import PatchError
    from repro.robustness import check_tree

    src = _parse_file(args.file).with_canonical_uris()
    mtree = tnode_to_mtree(src)
    if args.script:
        try:
            script = script_from_json(_read(args.script))
        except SerializationError as exc:
            raise CLIError(args.script, str(exc)) from None
        try:
            mtree.patch(script, atomic=True, sigs=src.sigs)
        except PatchError as exc:
            print(f"repro: verify: patch rejected: {exc}", file=sys.stderr)
            return 1
    violations = check_tree(mtree, src.sigs, max_violations=args.max_violations)
    for violation in violations:
        print(violation)
    status = f"{len(violations)} violation(s)" if violations else "ok"
    print(
        f"repro: verify: {args.file}: {status} ({mtree.node_count()} nodes)",
        file=sys.stderr,
    )
    return 1 if violations else 0


def cmd_batch(args: argparse.Namespace) -> int:
    """Diff a whole corpus of file pairs in parallel, streaming JSONL rows.

    Exit status: 0 if at least one pair diffed (or the corpus was empty),
    1 if every pair failed, 2 for unusable inputs.
    """
    from repro.batch import BatchConfig, discover_pairs, read_pairs_file, run_batch

    for flag in ("workers", "retries", "timeout"):
        value = getattr(args, flag)
        if value < 0:
            raise CLIError(f"--{flag}", f"must be >= 0, got {value:g}")
    if args.pairs:
        try:
            pairs = read_pairs_file(args.pairs)
        except OSError as exc:
            raise CLIError(args.pairs, exc.strerror or str(exc)) from None
        except ValueError as exc:
            raise CLIError(args.pairs, str(exc)) from None
    else:
        if not args.after_dir:
            raise CLIError(args.before_dir, "missing AFTER_DIR (or use --pairs)")
        try:
            pairs, only_before, only_after = discover_pairs(
                args.before_dir, args.after_dir, args.glob
            )
        except NotADirectoryError as exc:
            raise CLIError(str(exc).split(": ", 1)[-1], "not a directory") from None
        if only_before or only_after:
            print(
                f"repro: batch: skipping {len(only_before)} before-only "
                f"and {len(only_after)} after-only file(s)",
                file=sys.stderr,
            )

    config = BatchConfig(
        workers=args.workers,
        timeout_s=args.timeout if args.timeout > 0 else None,
        retries=args.retries,
        fallback_replace=args.fallback_replace,
    )
    if args.metrics:
        obs.enable()
    if args.trace:
        obs.reset_tracing()
        try:
            obs.enable_tracing(sample=args.sample)
        except ValueError as exc:
            raise CLIError("--sample", str(exc)) from None

    out_fh = open(args.out, "w", encoding="utf8") if args.out else sys.stdout

    def emit(row: dict) -> None:
        out_fh.write(json.dumps(row, sort_keys=True) + "\n")
        out_fh.flush()

    try:
        summary = run_batch(pairs, config, emit=emit)
    finally:
        if args.out:
            out_fh.close()
        if args.trace:
            obs.disable_tracing()
        if args.metrics:
            _emit_metrics(obs.snapshot(), args.metrics, sys.stderr)
        if args.metrics or args.trace:
            obs.disable()
            obs.reset()
    if args.trace:
        spans = obs.take_spans()
        obs.write_trace(args.trace, spans, args.trace_format)
        pids = len({s.get("pid") for s in spans})
        dropped = f", {obs.TRACE.dropped} dropped" if obs.TRACE.dropped else ""
        print(
            f"repro: trace: {len(spans)} span(s) from {pids} process(es) "
            f"-> {args.trace}{dropped}",
            file=sys.stderr,
        )
        obs.reset_tracing()
    s = summary.as_dict()
    degraded = f"{s['degraded']} degraded, " if s["degraded"] else ""
    print(
        f"repro: batch: {s['ok']}/{s['pairs']} ok, {degraded}{s['failed']} failed "
        f"({', '.join(f'{k}={v}' for k, v in s['failures_by_kind'].items()) or 'none'}), "
        f"{s['retried']} retried; {s['workers']} worker(s), "
        f"{s['elapsed_s']:.2f}s, {s['pairs_per_sec']:.1f} pairs/s",
        file=sys.stderr,
    )
    if args.summary:
        with open(args.summary, "w", encoding="utf8") as fh:
            json.dump(s, fh, indent=2, sort_keys=True)
            fh.write("\n")
    produced = summary.ok + summary.degraded
    return 1 if summary.pairs > 0 and produced == 0 else 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Inspect or convert an exported trace file.

    Reads any format this tool writes (Chrome trace-event JSON, OTLP
    JSON) as well as raw span lists and span JSONL, and renders a causal
    text timeline on stdout — or, with ``--out``, re-exports the spans
    in the requested format.

    Exit status: 0 on success, 1 for a readable file with no spans,
    2 for unusable inputs.
    """
    try:
        spans = obs.read_spans(args.file)
    except OSError as exc:
        raise CLIError(args.file, exc.strerror or str(exc)) from None
    except ValueError as exc:
        raise CLIError(args.file, str(exc)) from None
    if args.out:
        obs.write_trace(args.out, spans, args.format)
        print(
            f"repro: trace: {len(spans)} span(s) -> {args.out} ({args.format})",
            file=sys.stderr,
        )
    else:
        print(obs.render_timeline(spans))
    return 0 if spans else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the diff-as-a-service daemon (HTTP or JSONL-over-stdio).

    The daemon parses each uploaded source once into the
    content-addressed tree store and serves fingerprint-addressed
    ``diff``/``apply``/``lint``/``verify``/``merge`` requests against
    the cached trees.  Metrics are always on (``/metrics`` is part of
    the product); each request is recorded as its own causal trace,
    drainable at ``/trace``.  SIGINT/SIGTERM (or ``POST /shutdown``)
    stop the listener and drain in-flight requests before exiting.
    """
    import asyncio

    from repro.server import ReproService, TreeStore, run_http_daemon, run_stdio_daemon

    if args.workers < 0:
        raise CLIError("--workers", f"must be >= 0, got {args.workers}")
    obs.reset_tracing()
    obs.enable()
    try:
        obs.enable_tracing(sample=args.sample)
        collector = obs.TelemetryCollector(trace=True, sample=args.sample)
    except ValueError as exc:
        raise CLIError("--sample", str(exc)) from None
    if args.data_dir:
        from repro.server.durable import DataDirFormatError, DataDirLocked, DurableTreeStore

        try:
            store = DurableTreeStore(args.data_dir, max_trees=args.store_max)
        except (DataDirLocked, DataDirFormatError) as exc:
            raise CLIError(args.data_dir, str(exc)) from None
        except OSError as exc:
            raise CLIError(args.data_dir, f"cannot open data dir: {exc}") from None
        r = store.recovery
        print(
            f"repro: serve: recovered {r.snapshots_loaded} tree(s) and "
            f"{r.applies_replayed} journaled apply(s) from {args.data_dir}"
            + (f" ({len(r.problems)} damaged record(s) skipped)" if r.problems else ""),
            file=sys.stderr,
            flush=True,
        )
    else:
        store = TreeStore(max_trees=args.store_max)
    gc_pauses = obs.GCPauses()
    service = ReproService(
        store,
        workers=args.workers,
        collector=collector,
        op_timeout_s=args.request_timeout or None,
        gc_pauses=gc_pauses,
    )
    # one collector hook for the daemon's life: /metrics reports GC pauses
    gc_pauses.install()
    try:
        if args.stdio:
            asyncio.run(run_stdio_daemon(service))
        else:

            def ready(server) -> None:
                print(
                    f"repro: serve: listening on http://{server.host}:{server.port} "
                    f"({args.workers or 'no'} diff worker(s), "
                    f"store capacity {args.store_max})",
                    file=sys.stderr,
                    flush=True,
                )

            asyncio.run(
                run_http_daemon(
                    service,
                    args.host,
                    args.port,
                    ready,
                    max_inflight=args.max_inflight,
                    request_timeout_s=args.request_timeout or None,
                    header_timeout_s=args.header_timeout,
                )
            )
    except KeyboardInterrupt:
        pass  # drain already handled by the signal path where available
    finally:
        gc_pauses.uninstall()
        obs.disable_tracing()
        obs.disable()
        obs.reset()
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.baselines.gumtree import ChawatheScriptGenerator, match
    from repro.baselines.hdiff import hdiff, patch_size

    src = _parse_file(args.before)
    dst = _parse_file(args.after)
    nodes = ast_node_count(src) + ast_node_count(dst)

    t0 = time.perf_counter()
    script, _ = diff(src, dst)
    td_ms = (time.perf_counter() - t0) * 1000

    g1, g2 = tnode_to_gumtree(src), tnode_to_gumtree(dst)
    t0 = time.perf_counter()
    ops = ChawatheScriptGenerator(g1, g2, match(g1, g2)).generate()
    gt_ms = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    patch = hdiff(src, dst)
    hd_ms = (time.perf_counter() - t0) * 1000

    print(f"{'tool':<10} {'patch size':>10} {'time ms':>9} {'nodes/ms':>9}")
    for name, size, ms in (
        ("truediff", len(script), td_ms),
        ("gumtree", len(ops), gt_ms),
        ("hdiff", patch_size(patch), hd_ms),
    ):
        print(f"{name:<10} {size:>10} {ms:>9.1f} {nodes / ms:>9.0f}")
    return 0


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a causal span trace of the run and write it to PATH",
    )
    parser.add_argument(
        "--trace-format",
        default="chrome",
        choices=["chrome", "otlp", "timeline"],
        help="trace export format (default chrome; view at ui.perfetto.dev)",
    )
    parser.add_argument(
        "--sample",
        default=None,
        metavar="1/N",
        help="head-sampling rate for trace subtrees (default: OBS_SAMPLE "
        "from the environment, else record everything)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="truediff structural diffing for Python files"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_diff = sub.add_parser("diff", help="diff two Python files")
    p_diff.add_argument("before")
    p_diff.add_argument("after")
    p_diff.add_argument("--json", action="store_true", help="emit truechange JSON")
    p_diff.add_argument(
        "--explain", action="store_true", help="print a human-readable change summary"
    )
    p_diff.add_argument("--stats", action="store_true", help="print size/timing to stderr")
    p_diff.add_argument(
        "--typecheck",
        choices=["static", "dynamic", "none"],
        default="static",
        help="how to validate the emitted script: 'static' pre-flights it "
        "against the closed linear state (default), 'dynamic' replays the "
        "full truechange type system, 'none' skips validation",
    )
    p_diff.add_argument(
        "--metrics",
        nargs="?",
        const="text",
        default=None,
        choices=["text", "json", "prom"],
        help="instrument the diff and dump metrics to stderr "
        "(optionally as json or Prometheus text)",
    )
    _add_trace_args(p_diff)
    p_diff.add_argument(
        "--server",
        default=None,
        metavar="URL",
        help="route the diff through a running `repro serve` daemon "
        "(uploads the sources, diffs by fingerprint)",
    )
    p_diff.set_defaults(func=cmd_diff)

    p_stats = sub.add_parser(
        "stats", help="replay a file pair under instrumentation, report per-pass metrics"
    )
    p_stats.add_argument("before")
    p_stats.add_argument("after")
    p_stats.add_argument(
        "--rounds", type=int, default=3, help="instrumented replays (default 3)"
    )
    fmt = p_stats.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="print the snapshot as JSON")
    fmt.add_argument(
        "--prom", action="store_true", help="print the snapshot in Prometheus text format"
    )
    p_stats.add_argument(
        "--out", default=None, metavar="PATH", help="also write the snapshot JSON to PATH"
    )
    p_stats.set_defaults(func=cmd_stats)

    p_apply = sub.add_parser("apply", help="apply a truechange JSON script")
    p_apply.add_argument("before")
    p_apply.add_argument("script")
    p_apply.add_argument(
        "--atomic",
        action="store_true",
        help="pre-flight typecheck the script and roll back on any failure",
    )
    p_apply.add_argument(
        "--verify",
        action="store_true",
        help="verify tree integrity after patching (implies --atomic)",
    )
    p_apply.set_defaults(func=cmd_apply)

    p_lint = sub.add_parser(
        "lint", help="statically analyze a truechange JSON script (no tree needed)"
    )
    p_lint.add_argument("script", help="truechange JSON script to analyze")
    p_lint.add_argument(
        "--sigs",
        default="python",
        metavar="PYTHON|FILE",
        help="signatures to check against: 'python' (default) for the "
        "built-in Python grammar, or a Python source file to derive them from",
    )
    p_lint.add_argument(
        "--format",
        default="text",
        choices=["text", "json", "sarif"],
        help="report format (default text)",
    )
    p_lint.add_argument(
        "--fix",
        action="store_true",
        help="apply the semantics-preserving rewrites and write the "
        "minimized script back to the input file",
    )
    p_lint.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_race = sub.add_parser(
        "race",
        help="statically analyze truechange scripts for interference "
        "(conflict report + wave schedule)",
    )
    p_race.add_argument(
        "scripts", nargs="+", metavar="SCRIPT",
        help="truechange JSON scripts, in batch order",
    )
    p_race.add_argument(
        "--format",
        default="text",
        choices=["text", "json", "sarif"],
        help="report format (default text)",
    )
    p_race.add_argument(
        "--assume-renamed",
        action="store_true",
        help="suppress the fresh-URI rules (TR005/TR006): analyze under "
        "a renaming discipline, as the merge driver and /apply-batch do",
    )
    p_race.add_argument(
        "--uri",
        default="<scripts>",
        metavar="LABEL",
        help="artifact label used in the report (default '<scripts>')",
    )
    p_race.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    p_race.set_defaults(func=cmd_race)

    p_verify = sub.add_parser(
        "verify", help="check the structural integrity of a parsed tree"
    )
    p_verify.add_argument("file")
    p_verify.add_argument(
        "--script",
        default=None,
        metavar="PATH",
        help="atomically apply this truechange JSON script before verifying",
    )
    p_verify.add_argument(
        "--max-violations",
        type=int,
        default=100,
        metavar="N",
        help="stop reporting after N violations (default 100)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_batch = sub.add_parser(
        "batch", help="diff a corpus of file pairs in parallel, emitting JSONL rows"
    )
    p_batch.add_argument("before_dir", metavar="BEFORE_DIR")
    p_batch.add_argument("after_dir", metavar="AFTER_DIR", nargs="?", default=None)
    p_batch.add_argument(
        "--pairs",
        default=None,
        metavar="FILE",
        help="explicit pair list (before<TAB>after per line) instead of directories",
    )
    p_batch.add_argument(
        "--glob", default="*.py", help="filename pattern for directory discovery"
    )
    p_batch.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 = all CPUs)",
    )
    p_batch.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-pair wall-clock budget in seconds (0 disables)",
    )
    p_batch.add_argument(
        "--retries", type=int, default=1, help="re-submissions of timeout/crash failures"
    )
    p_batch.add_argument(
        "--fallback-replace",
        action="store_true",
        help="degrade internal diff errors to verified replace-root scripts "
        "instead of failure rows",
    )
    p_batch.add_argument(
        "--out", default=None, metavar="PATH", help="write JSONL rows to PATH (default stdout)"
    )
    p_batch.add_argument(
        "--summary", default=None, metavar="PATH", help="write the summary JSON to PATH"
    )
    p_batch.add_argument(
        "--metrics",
        nargs="?",
        const="text",
        default=None,
        choices=["text", "json", "prom"],
        help="instrument the run and dump batch counters to stderr",
    )
    _add_trace_args(p_batch)
    p_batch.set_defaults(func=cmd_batch)

    p_trace = sub.add_parser(
        "trace", help="render or convert an exported trace file"
    )
    p_trace.add_argument("file", help="trace file (chrome/OTLP/raw span list/span JSONL)")
    p_trace.add_argument(
        "--format",
        default="chrome",
        choices=["chrome", "otlp", "timeline"],
        help="output format for --out (default chrome)",
    )
    p_trace.add_argument(
        "--out", default=None, metavar="PATH",
        help="convert to PATH instead of printing the text timeline",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_serve = sub.add_parser(
        "serve", help="run the diff-as-a-service daemon over a content-addressed tree store"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    p_serve.add_argument(
        "--port", type=int, default=8337, help="TCP port (default 8337; 0 = ephemeral)"
    )
    p_serve.add_argument(
        "--stdio",
        action="store_true",
        help="serve JSONL requests over stdin/stdout instead of HTTP",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="diff worker processes (0 = compute inline in the daemon)",
    )
    p_serve.add_argument(
        "--store-max",
        type=int,
        default=1024,
        metavar="N",
        help="maximum cached trees before LRU eviction (default 1024)",
    )
    p_serve.add_argument(
        "--sample",
        default=None,
        metavar="1/N",
        help="head-sampling rate for per-request traces (default: OBS_SAMPLE "
        "from the environment, else record everything)",
    )
    p_serve.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="durable store directory: snapshots + write-ahead journal; "
        "the daemon recovers its trees from DIR on startup",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=0,
        metavar="N",
        help="shed POST operations beyond N concurrently executing "
        "(503 + Retry-After; default 0 = unbounded)",
    )
    p_serve.add_argument(
        "--request-timeout",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="per-operation deadline; a wedged diff worker is killed and "
        "the request answered 503 (default 0 = no deadline)",
    )
    p_serve.add_argument(
        "--header-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long a client may take to send its request head, and "
        "how long its body may stall without progress, before a 408 "
        "(default 30)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_cmp = sub.add_parser("compare", help="compare all diff tools on a file pair")
    p_cmp.add_argument("before")
    p_cmp.add_argument("after")
    p_cmp.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    except (EditTypeError, PatchError) as exc:
        # the rendered message carries the stable TLxxx code and the
        # failing primitive edit index — the same span `repro lint`
        # reports (PatchError covers static pre-flight rejections)
        print(f"repro: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
