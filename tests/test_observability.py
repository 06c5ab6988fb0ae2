"""Tests for the observability layer: instruments, registry semantics,
exporters, and the instrumentation wired into diff, patch,
sessions, and the incremental engine."""

from __future__ import annotations

import json
import re
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import observability as obs
from repro.core import DiffSession, URIGen, apply_script, diff, tnode_to_mtree
from repro.core.diff import _dealias
from repro.incremental import IncrementalDriver, install_descendants
from repro.observability import (
    NOOP_SPAN,
    OBS,
    metrics,
    prometheus_text,
    render_report,
    span,
)

from .util import EXP


@pytest.fixture(autouse=True)
def _clean_registry():
    """Every test starts and ends disabled with a zeroed registry and an
    empty trace buffer (earlier test modules may leave spans in it)."""
    obs.disable_tracing()
    obs.reset_tracing()
    obs.disable()
    obs.reset()
    yield
    obs.disable_tracing()
    obs.reset_tracing()
    obs.disable()
    obs.reset()


def _small_pair():
    e = EXP
    src = e.Add(e.Sub(e.Var("a"), e.Var("b")), e.Mul(e.Var("c"), e.Var("d")))
    dst = e.Add(e.Var("d"), e.Mul(e.Var("c"), e.Sub(e.Var("a"), e.Var("b"))))
    return src, dst


# -- instruments -------------------------------------------------------------


class TestInstruments:
    def test_counter_increments(self):
        c = metrics().counter("t.counter")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_is_get_or_create(self):
        assert metrics().counter("t.same") is metrics().counter("t.same")

    def test_gauge_last_write_wins(self):
        g = metrics().gauge("t.gauge")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_summary(self):
        h = metrics().histogram("t.hist")
        for v in [1.0, 2.0, 3.0, 4.0, 100.0]:
            h.observe(v)
        s = h.summary()
        assert s["count"] == 5
        assert s["total"] == 110.0
        assert s["max"] == 100.0
        assert s["p50"] == 3.0
        assert 0 < s["p95"] <= 100.0

    def test_histogram_empty_summary(self):
        s = metrics().histogram("t.empty").summary()
        assert s == {"count": 0, "total": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}

    def test_histogram_ring_buffer_keeps_exact_count(self):
        h = metrics().histogram("t.ring")
        n = h.MAX_SAMPLES + 100
        for i in range(n):
            h.observe(1.0)
        assert h.count == n
        assert h.total == float(n)
        assert len(h._samples) == h.MAX_SAMPLES

    def test_counter_thread_safety(self):
        c = metrics().counter("t.threads")
        workers, per_worker = 8, 5000

        def work():
            for _ in range(per_worker):
                c.inc()

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda _: work(), range(workers)))
        assert c.value == workers * per_worker

    def test_histogram_thread_safety(self):
        h = metrics().histogram("t.hthreads")
        workers, per_worker = 4, 2000

        def work():
            for _ in range(per_worker):
                h.observe(1.0)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda _: work(), range(workers)))
        assert h.count == workers * per_worker
        assert h.total == float(workers * per_worker)


# -- registry semantics ------------------------------------------------------


class TestRegistrySemantics:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert not OBS.enabled

    def test_enable_disable_flag(self):
        obs.enable()
        assert obs.enabled()
        obs.disable()
        assert not obs.enabled()

    def test_span_is_shared_noop_when_disabled(self):
        assert span("t.any") is NOOP_SPAN
        assert span("t.other") is NOOP_SPAN

    def test_noop_span_records_nothing(self):
        with span("t.silent"):
            pass
        assert "t.silent.ms" not in obs.snapshot()["histograms"]

    def test_enabled_span_feeds_histogram(self):
        obs.enable()
        with span("t.timed"):
            pass
        s = obs.snapshot()["histograms"]["t.timed.ms"]
        assert s["count"] == 1
        assert s["max"] >= 0.0

    def test_reset_zeroes_without_invalidating(self):
        c = metrics().counter("t.reset")
        c.inc(7)
        h = metrics().histogram("t.reset.h")
        h.observe(1.0)
        obs.reset()
        assert c.value == 0
        assert h.count == 0
        c.inc()  # the same object keeps working after reset
        assert c.value == 1

    def test_disable_keeps_values(self):
        obs.enable()
        metrics().counter("t.keep").inc(3)
        obs.disable()
        assert obs.snapshot()["counters"]["t.keep"] == 3

    def test_snapshot_shape_and_key_order(self):
        metrics().counter("t.b").inc()
        metrics().counter("t.a").inc()
        snap = obs.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        names = [n for n in snap["counters"] if n.startswith("t.")]
        assert names == sorted(names)


# -- diff / patch / session instrumentation ----------------------------------


class TestDiffInstrumentation:
    def test_disabled_diff_publishes_nothing(self):
        # earlier tests (or CLI runs in the same process) may have
        # *registered* repro.diff.* instruments; disabled diffs must not
        # bump any of them
        src, dst = _small_pair()
        diff(src, dst)
        snap = obs.snapshot()
        assert all(
            v == 0
            for n, v in snap["counters"].items()
            if n.startswith("repro.diff.")
        )
        assert all(
            s["count"] == 0
            for n, s in snap["histograms"].items()
            if n.startswith("repro.diff.")
        )

    def test_diff_counters_and_spans(self):
        src, dst = _small_pair()
        obs.enable()
        script, _ = diff(src, dst)
        obs.disable()
        snap = obs.snapshot()
        c = snap["counters"]
        assert c["repro.diff.count"] == 1
        assert c["repro.diff.nodes"] == src.size + dst.size
        assert c["repro.diff.shares_created"] > 0
        assert c["repro.diff.preemptive_pairs"] >= 0
        # the running example reuses both operand subtrees exactly
        assert c["repro.diff.exact_acquisitions"] == 2
        for pass_name in ("assign_shares", "assign_subtrees", "compute_edits"):
            s = snap["histograms"][f"repro.diff.{pass_name}.ms"]
            assert s["count"] == 1

    def test_diff_edit_counters_match_buffer(self):
        e = EXP
        src = e.Num(1)
        dst = e.Add(e.Num(1), e.Mul(e.Num(2), e.Num(3)))
        obs.enable()
        diff(src, dst)
        obs.disable()
        c = obs.snapshot()["counters"]
        # fresh structure must be loaded; the reused Num(1) is detached
        assert c["repro.diff.edits.load"] > 0
        assert c["repro.diff.edits.attach"] > 0
        assert obs.snapshot()["histograms"]["repro.diff.reuse_rate"]["count"] == 1

    def test_patch_edit_kind_counters_sum_to_script(self):
        src, dst = _small_pair()
        script, _ = diff(src, _dealias(dst))
        obs.enable()
        mt = tnode_to_mtree(src)
        mt.patch(script)
        obs.disable()
        snap = obs.snapshot()
        c = snap["counters"]
        assert c["repro.patch.scripts"] == 1
        kinds = {n: v for n, v in c.items() if n.startswith("repro.patch.edits.")}
        assert sum(kinds.values()) == sum(1 for _ in script.primitives())
        assert snap["histograms"]["repro.patch.apply.ms"]["count"] == 1

    def test_session_counters(self):
        e = EXP
        tree = e.Add(e.Num(1), e.Num(2))
        session = DiffSession(tree, urigen=URIGen(10**8))
        obs.enable()
        rounds = DiffSession.REBUILD_EVERY + 2
        for i in range(rounds):
            session.diff(e.Add(e.Num(i), e.Num(i + 1)))
        obs.disable()
        c = obs.snapshot()["counters"]
        assert c["repro.session.diffs"] == rounds
        assert c["repro.session.generation_bumps"] == rounds
        assert c["repro.session.fresh_nodes"] > 0
        # fresh targets each round: the id cache never fires...
        assert c["repro.session.id_cache_misses"] == rounds
        assert "repro.session.id_cache_hits" not in c
        # ...and past REBUILD_EVERY rounds one exact rebuild happened
        assert c["repro.session.id_cache_rebuilds"] >= 1
        assert c["repro.session.id_cache_rolls"] >= DiffSession.REBUILD_EVERY

    def test_session_id_cache_hit_on_aliased_target(self):
        e = EXP
        tree = e.Add(e.Num(1), e.Num(2))
        session = DiffSession(tree, urigen=URIGen(10**8))
        obs.enable()
        # the session's own tree shares every node with itself: a cache hit
        session.diff(session.tree)
        obs.disable()
        c = obs.snapshot()["counters"]
        assert c["repro.session.id_cache_hits"] == 1
        assert c["repro.diff.dealias_rebuilds"] == 1

    def test_session_never_flattens(self):
        # a session diffs each fresh target as TNode objects: no per-target
        # TreeArena is built, counted, or cached on the target's root
        e = EXP
        session = DiffSession(e.Add(e.Num(1), e.Num(2)), urigen=URIGen(10**8))
        targets = [e.Add(e.Num(i), e.Mul(e.Num(i), e.Num(2))) for i in range(4)]
        obs.enable()
        for t in targets:
            session.diff(t)
        obs.disable()
        c = obs.snapshot()["counters"]
        assert c["repro.session.diffs"] == len(targets)
        assert "repro.arena.flattens" not in c
        assert all(getattr(t, "_arena", None) is None for t in targets)
        with pytest.raises(TypeError):
            DiffSession(e.Num(1), engine="flat")


class TestIncrementalInstrumentation:
    def test_driver_and_engine_metrics(self):
        e = EXP
        v0 = e.Add(e.Num(1), e.Num(2))
        v1 = e.Add(e.Num(1), e.Mul(e.Num(2), e.Num(3)))
        driver = IncrementalDriver(v0, installers=[install_descendants])
        obs.enable()
        report = driver.update(v1)
        obs.disable()
        snap = obs.snapshot()
        c = snap["counters"]
        assert c["repro.incremental.updates"] == 1
        assert c["repro.incremental.script_edits"] == report.edits
        assert c["repro.incremental.fact_inserts"] == report.fact_inserts
        assert c["repro.incremental.fact_deletes"] == report.fact_deletes
        assert c["repro.incremental.deltas"] == 1
        assert c["repro.incremental.base_inserted"] > 0
        assert snap["histograms"]["repro.incremental.diff_ms"]["count"] == 1
        assert snap["histograms"]["repro.incremental.maintain_ms"]["count"] == 1
        assert snap["histograms"]["repro.incremental.apply_delta.ms"]["count"] == 1
        assert snap["histograms"]["repro.incremental.delta_size"]["count"] >= 1
        assert driver.check_consistency()

    def test_evaluate_spans_per_stratum(self):
        e = EXP
        driver = IncrementalDriver(
            e.Add(e.Num(1), e.Num(2)), installers=[install_descendants]
        )
        obs.enable()
        driver.engine.evaluate()
        obs.disable()
        hists = obs.snapshot()["histograms"]
        assert "repro.incremental.evaluate.ms" in hists
        assert any(
            re.fullmatch(r"repro\.incremental\.stratum\.\d+\.ms", n) for n in hists
        )


# -- exporters -------------------------------------------------------------


class TestSinks:
    """Where span events and snapshots land now that the pluggable
    sinks are gone: the trace buffer and the ``repro stats --out`` file."""

    def test_in_memory_sink_receives_span_events(self):
        obs.enable()
        obs.enable_tracing()
        try:
            with span("t.evt"):
                pass
            (rec,) = obs.take_spans()
        finally:
            obs.disable_tracing()
            obs.reset_tracing()
        assert rec["name"] == "t.evt"
        assert rec["dur_ms"] >= 0.0
        assert rec["start"] > 1_000_000_000  # wall-clock seconds, not perf_counter
        assert rec["status"] == "ok"
        # the same closed span also fed its histogram: one event, two views
        assert obs.snapshot()["histograms"]["t.evt.ms"]["count"] == 1

    def test_json_file_sink_export(self, tmp_path, capsys):
        from repro.__main__ import main

        before, after = tmp_path / "before.py", tmp_path / "after.py"
        before.write_text("def f(x):\n    return x + 1\n")
        after.write_text("def f(x, y=0):\n    return x + y\n")
        path = tmp_path / "snap.json"
        argv = ["stats", str(before), str(after), "--rounds", "2"]
        assert main(argv + ["--json", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc == json.loads(capsys.readouterr().out)
        assert list(doc) == ["counters", "gauges", "histograms"]
        assert doc["counters"]["repro.diff.count"] == 2


class TestExporters:
    def test_prometheus_counters_and_types(self):
        metrics().counter("repro.diff.count").inc(3)
        text = prometheus_text(obs.snapshot())
        assert "# TYPE repro_diff_count_total counter" in text
        assert "repro_diff_count_total 3" in text

    def test_prometheus_histogram_summary_shape(self):
        h = metrics().histogram("repro.diff.assign_shares.ms")
        h.observe(1.0)
        h.observe(3.0)
        text = prometheus_text(obs.snapshot())
        pname = "repro_diff_assign_shares_ms"
        assert f"# TYPE {pname} summary" in text
        assert f'{pname}{{quantile="0.5"}}' in text
        assert f'{pname}{{quantile="0.95"}}' in text
        assert f"{pname}_sum 4.0" in text
        assert f"{pname}_count 2" in text
        assert f"{pname}_max 3.0" in text

    def test_prometheus_name_mangling(self):
        metrics().gauge("weird-name.x").set(1)
        assert "weird_name_x 1.0" in prometheus_text(obs.snapshot())

    def test_prometheus_output_parses_line_by_line(self):
        metrics().counter("t.c").inc()
        metrics().gauge("t.g").set(2.5)
        metrics().histogram("t.h").observe(1.0)
        for line in prometheus_text(obs.snapshot()).strip().splitlines():
            assert line.startswith("# TYPE ") or re.fullmatch(
                r"[a-zA-Z0-9_:]+(\{[^}]*\})? \S+", line
            )

    def test_render_report_sections(self):
        metrics().counter("t.c").inc(5)
        metrics().histogram("t.h").observe(2.0)
        report = render_report(obs.snapshot(), title="hello")
        assert report.startswith("hello")
        assert "spans / histograms:" in report
        assert "counters:" in report
        assert "t.c" in report and "5" in report

    def test_render_report_empty(self):
        assert "(no metrics recorded)" in render_report(
            {"counters": {}, "gauges": {}, "histograms": {}}
        )


# -- end-to-end: concurrent instrumented diffs -------------------------------


def test_concurrent_instrumented_diffs_aggregate_correctly():
    """Counter totals under concurrent diffs equal the sequential sum."""
    e = EXP
    pairs = [
        (e.Add(e.Num(i), e.Num(i + 1)), e.Sub(e.Num(i + 1), e.Num(i)))
        for i in range(16)
    ]
    obs.enable()
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(lambda p: diff(p[0], p[1], urigen=URIGen(10**9)), pairs))
    finally:
        obs.disable()
    c = obs.snapshot()["counters"]
    assert c["repro.diff.count"] == len(pairs)
    assert c["repro.diff.nodes"] == sum(a.size + b.size for a, b in pairs)
