"""Tests for causal tracing: trace contexts, head sampling, span
records, timeline exporters, and the hardened sink formats."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import observability as obs
from repro.observability import span
from repro.observability.tracing import TRACE, TraceContext, _CTX


@pytest.fixture(autouse=True)
def _clean_tracing():
    """Every test starts and ends with tracing off and empty buffers."""
    obs.disable_tracing()
    obs.reset_tracing()
    obs.disable()
    obs.reset()
    yield
    obs.disable_tracing()
    obs.reset_tracing()
    obs.disable()
    obs.reset()


# -- sampling specs -------------------------------------------------------


class TestParseSample:
    def test_int(self):
        assert obs.parse_sample(8) == 8

    def test_string_int(self):
        assert obs.parse_sample("8") == 8

    def test_one_over_n(self):
        assert obs.parse_sample("1/8") == 8

    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("OBS_SAMPLE", raising=False)
        assert obs.parse_sample(None) == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("OBS_SAMPLE", "1/4")
        assert obs.parse_sample(None) == 4

    def test_rejects_non_unit_numerator(self):
        with pytest.raises(ValueError):
            obs.parse_sample("2/8")

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            obs.parse_sample(0)

    @pytest.mark.parametrize(
        "spec",
        [
            "1/0",
            "0",
            "-3",
            "1/-2",
            "abc",
            "1/abc",
            "2/8",
            "1/",
            "0.5",
            "1/2/3",
            0,
            -1,
            1.5,
            True,
            [8],
        ],
    )
    def test_malformed_specs_are_rejected(self, spec):
        with pytest.raises(ValueError):
            obs.parse_sample(spec)

    def test_error_names_the_offending_value(self):
        with pytest.raises(ValueError) as exc:
            obs.parse_sample("1/0")
        msg = str(exc.value)
        assert "'1/0'" in msg
        assert "expected a positive integer N or '1/N'" in msg
        assert "\n" not in msg  # one-line CLI diagnostic

    def test_env_sourced_error_names_obs_sample(self, monkeypatch):
        monkeypatch.setenv("OBS_SAMPLE", "garbage")
        with pytest.raises(ValueError) as exc:
            obs.parse_sample(None)
        msg = str(exc.value)
        assert "OBS_SAMPLE" in msg and "'garbage'" in msg

    def test_explicit_spec_does_not_blame_the_env(self, monkeypatch):
        monkeypatch.setenv("OBS_SAMPLE", "1/4")
        with pytest.raises(ValueError) as exc:
            obs.parse_sample("bogus")
        assert "OBS_SAMPLE" not in str(exc.value)

    def test_whitespace_tolerated_in_valid_specs(self):
        assert obs.parse_sample(" 1/8 ") == 8
        assert obs.parse_sample("1 / 8") == 8

    def test_cli_serve_rejects_bad_sample_with_exit_2(self, capsys):
        from repro.__main__ import main

        assert main(["serve", "--stdio", "--sample", "1/0"]) == 2
        err = capsys.readouterr().err
        assert "repro:" in err and "invalid sampling spec" in err

    def test_cli_batch_trace_rejects_env_garbage_with_exit_2(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("OBS_SAMPLE", "1/zero")
        from repro.__main__ import main

        fixtures = Path(__file__).parent / "fixtures" / "batch"
        rc = main(
            [
                "batch",
                str(fixtures / "before"),
                str(fixtures / "after"),
                "--workers",
                "1",
                "--out",
                str(tmp_path / "rows.jsonl"),
                "--trace",
                str(tmp_path / "trace.json"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "OBS_SAMPLE" in err and "'1/zero'" in err


# -- span records and causality -------------------------------------------


class TestSpanRecords:
    def test_disabled_tracing_records_nothing(self):
        obs.enable()
        with span("t.notrace"):
            pass
        assert obs.span_count() == 0

    def test_record_fields(self):
        obs.enable_tracing()
        with span("t.one", {"k": 1}) as sp:
            sp.set_attr("n", 2)
        (rec,) = obs.take_spans()
        assert rec["name"] == "t.one"
        assert len(rec["trace_id"]) == 32
        assert len(rec["span_id"]) == 16
        assert rec["parent_id"] is None
        assert rec["start"] > 1_000_000_000  # wall-clock epoch seconds
        assert rec["dur_ms"] >= 0.0
        assert rec["status"] == "ok"
        assert rec["attrs"] == {"k": 1, "n": 2}

    def test_nesting_builds_parent_links(self):
        obs.enable_tracing()
        with span("t.outer"):
            with span("t.mid"):
                with span("t.leaf"):
                    pass
        by_name = {r["name"]: r for r in obs.take_spans()}
        assert len({r["trace_id"] for r in by_name.values()}) == 1
        assert by_name["t.leaf"]["parent_id"] == by_name["t.mid"]["span_id"]
        assert by_name["t.mid"]["parent_id"] == by_name["t.outer"]["span_id"]
        assert by_name["t.outer"]["parent_id"] is None

    def test_siblings_share_parent_not_ids(self):
        obs.enable_tracing()
        with span("t.root"):
            with span("t.a"):
                pass
            with span("t.b"):
                pass
        by_name = {r["name"]: r for r in obs.take_spans()}
        assert by_name["t.a"]["parent_id"] == by_name["t.root"]["span_id"]
        assert by_name["t.b"]["parent_id"] == by_name["t.root"]["span_id"]
        assert by_name["t.a"]["span_id"] != by_name["t.b"]["span_id"]

    def test_sequential_roots_get_distinct_traces(self):
        obs.enable_tracing()
        with span("t.first"):
            pass
        with span("t.second"):
            pass
        ids = {r["trace_id"] for r in obs.take_spans()}
        assert len(ids) == 2

    def test_exception_marks_status_and_counter(self):
        obs.enable_tracing()
        with pytest.raises(ValueError):
            with span("t.boom"):
                raise ValueError("no")
        (rec,) = obs.take_spans()
        assert rec["status"] == "error"
        assert rec["error_type"] == "ValueError"
        assert obs.REGISTRY.counter("t.boom.errors").value == 1

    def test_explicit_status(self):
        obs.enable_tracing()
        with span("t.soft") as sp:
            sp.set_status("error", "timeout")
        (rec,) = obs.take_spans()
        assert rec["status"] == "error"
        assert rec["error_type"] == "timeout"

    def test_context_cleared_after_root_closes(self):
        obs.enable_tracing()
        with span("t.root"):
            assert _CTX.get() is not None
        assert _CTX.get() is None

    def test_buffer_cap_counts_drops(self):
        obs.enable_tracing(max_spans=2)
        for i in range(4):
            with span(f"t.{i}"):
                pass
        assert obs.span_count() == 2
        assert TRACE.dropped == 2


class TestHeadSampling:
    def test_every_nth_root_sampled(self):
        obs.enable_tracing(sample=3)
        for i in range(9):
            with span(f"t.{i}"):
                pass
        names = {r["name"] for r in obs.take_spans()}
        assert names == {"t.0", "t.3", "t.6"}  # first head always sampled

    def test_unsampled_subtree_records_nothing(self):
        obs.enable_tracing(sample=2)
        for i in range(2):
            with span(f"t.root{i}"):
                with span("t.kid"):
                    pass
        recs = obs.take_spans()
        assert {r["name"] for r in recs} == {"t.root0", "t.kid"}
        # the sampled root's child is linked; the unsampled root's is gone
        assert len(recs) == 2

    def test_metrics_observe_even_when_unsampled(self):
        obs.enable_tracing(sample=100)
        for i in range(5):
            with span("t.everymetric"):
                pass
        assert obs.REGISTRY.histogram("t.everymetric.ms").count == 5
        assert obs.span_count() == 1  # only the first head

    def test_resample_point_keeps_trace_id(self):
        obs.enable_tracing(sample=1)
        ctx = TraceContext("deadbeef" * 4, "feedface00000000", True)
        with obs.remote_context(ctx.as_dict(), resample=True):
            with span("t.pair"):
                pass
        (rec,) = obs.take_spans()
        assert rec["trace_id"] == "deadbeef" * 4
        assert rec["parent_id"] == "feedface00000000"

    def test_resample_point_samples_per_child(self):
        obs.enable_tracing(sample=2)
        ctx = TraceContext("deadbeef" * 4, "feedface00000000", True)
        with obs.remote_context(ctx.as_dict(), resample=True):
            for i in range(4):
                with span(f"t.pair{i}"):
                    pass
        names = {r["name"] for r in obs.take_spans()}
        assert names == {"t.pair0", "t.pair2"}


class TestRemoteContext:
    def test_none_context_is_noop(self):
        obs.enable_tracing()
        with obs.remote_context(None):
            with span("t.local"):
                pass
        (rec,) = obs.take_spans()
        assert rec["parent_id"] is None

    def test_round_trips_through_dict(self):
        ctx = TraceContext("ab" * 16, "cd" * 8, True, resample=True)
        again = TraceContext.from_dict(ctx.as_dict())
        assert again.trace_id == ctx.trace_id
        assert again.span_id == ctx.span_id
        assert again.sampled and again.resample

    def test_current_context_inside_span(self):
        obs.enable_tracing()
        with span("t.here"):
            ctx = obs.current_context()
            assert ctx is not None
            assert ctx["sampled"] is True
        assert obs.current_context() is None


# -- exporters ------------------------------------------------------------


def _sample_spans():
    obs.enable_tracing()
    with span("t.root", {"k": "v"}):
        with span("t.kid"):
            pass
    with pytest.raises(RuntimeError):
        with span("t.bad"):
            raise RuntimeError("x")
    spans = obs.take_spans()
    obs.disable_tracing()
    return spans


class TestChromeTrace:
    def test_complete_events_with_metadata(self):
        spans = _sample_spans()
        doc = obs.chrome_trace(spans, driver_pid=spans[0]["pid"])
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 3
        assert meta and meta[0]["args"]["name"] == "repro-driver"
        for e in xs:
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert e["pid"] == e["tid"]
        assert json.loads(json.dumps(doc)) == doc  # JSON-serializable

    def test_args_carry_ids_and_attrs(self):
        spans = _sample_spans()
        doc = obs.chrome_trace(spans)
        root = next(
            e for e in doc["traceEvents"] if e.get("name") == "t.root"
        )
        assert root["args"]["span_id"]
        assert root["args"]["k"] == "v"
        bad = next(e for e in doc["traceEvents"] if e.get("name") == "t.bad")
        assert bad["args"]["status"] == "error"
        assert bad["args"]["error_type"] == "RuntimeError"

    def test_round_trip_via_read_spans(self, tmp_path):
        spans = _sample_spans()
        path = tmp_path / "trace.json"
        obs.write_trace(str(path), spans, "chrome")
        again = obs.read_spans(str(path))
        assert {r["name"] for r in again} == {r["name"] for r in spans}
        by_name = {r["name"]: r for r in again}
        orig = {r["name"]: r for r in spans}
        assert by_name["t.kid"]["parent_id"] == orig["t.kid"]["parent_id"]
        assert by_name["t.bad"]["error_type"] == "RuntimeError"


class TestOtlp:
    def test_shape_and_round_trip(self, tmp_path):
        spans = _sample_spans()
        path = tmp_path / "trace.otlp.json"
        obs.write_trace(str(path), spans, "otlp")
        doc = json.loads(path.read_text())
        assert "resourceSpans" in doc
        sp = doc["resourceSpans"][0]["scopeSpans"][0]["spans"][0]
        assert int(sp["endTimeUnixNano"]) >= int(sp["startTimeUnixNano"])
        again = obs.read_spans(str(path))
        by_name = {r["name"]: r for r in again}
        assert by_name["t.bad"]["status"] == "error"
        assert by_name["t.root"]["attrs"]["k"] == "v"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            obs.write_trace(str(tmp_path / "x"), [], "protobuf")


class TestTimeline:
    def test_renders_tree_and_counts(self):
        spans = _sample_spans()
        text = obs.render_timeline(spans)
        assert "t.root" in text and "t.kid" in text
        assert "!RuntimeError" in text
        assert "3 span(s), 2 trace(s), 1 process(es)" in text

    def test_empty(self):
        assert obs.render_timeline([]) == "(no spans)"


class TestReadSpansFormats:
    def test_raw_list(self, tmp_path):
        spans = _sample_spans()
        path = tmp_path / "raw.json"
        path.write_text(json.dumps(spans))
        assert len(obs.read_spans(str(path))) == 3

    def test_jsonl_of_records(self, tmp_path):
        spans = _sample_spans()
        path = tmp_path / "spans.jsonl"
        with open(path, "w", encoding="utf8") as fh:
            for rec in spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write("{truncated")  # writer died mid-line
        assert obs.read_spans(str(path)) == spans

    def test_unrecognized_raises(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a trace\n")
        with pytest.raises(ValueError):
            obs.read_spans(str(path))


# -- satellite: prometheus hardening --------------------------------------


class TestPrometheusHardening:
    def test_metric_names_sanitized(self):
        snap = {
            "counters": {"repro.diff-rate/v2": 3, "0weird": 1},
            "gauges": {},
            "histograms": {},
        }
        text = obs.prometheus_text(snap)
        assert "repro_diff_rate_v2_total 3" in text
        assert "_0weird_total 1" in text

    def test_label_values_escaped(self):
        snap = {"counters": {"c": 1}, "gauges": {}, "histograms": {}}
        text = obs.prometheus_text(
            snap, labels={"path": 'a"b\\c\nd', "worker": 7}
        )
        line = next(l for l in text.splitlines() if l.startswith("c_total"))
        assert '\\"' in line  # quote escaped
        assert "\\\\" in line  # backslash escaped
        assert "\\n" in line and "\n" not in line[:-1]  # newline escaped
        assert 'worker="7"' in line

    def test_labels_on_summary_lines(self):
        snap = {
            "counters": {},
            "gauges": {},
            "histograms": {
                "h.ms": {"count": 2, "total": 3.0, "p50": 1.0, "p95": 2.0, "max": 2.0}
            },
        }
        text = obs.prometheus_text(snap, labels={"worker": 1})
        assert 'h_ms{worker="1",quantile="0.5"} 1.0' in text
        assert 'h_ms_count{worker="1"} 2' in text

    def test_label_names_sanitized(self):
        snap = {"counters": {"c": 1}, "gauges": {}, "histograms": {}}
        text = obs.prometheus_text(snap, labels={"bad-name": "x"})
        assert 'bad_name="x"' in text


# -- registry merge (cross-process primitive) ------------------------------


class TestRegistryMerge:
    def test_counters_add_and_histograms_merge(self):
        obs.enable()
        obs.REGISTRY.counter("c").inc(2)
        obs.REGISTRY.histogram("h").observe(1.0)
        snap = {
            "counters": {"c": 3, "new": 1},
            "gauges": {"g": 7.0},
            "histograms": {
                "h": {"count": 2, "total": 9.0, "p50": 4.0, "p95": 5.0,
                      "max": 5.0, "samples": [4.0, 5.0]},
            },
        }
        obs.merge(snap)
        merged = obs.snapshot()
        assert merged["counters"]["c"] == 5
        assert merged["counters"]["new"] == 1
        assert merged["gauges"]["g"] == 7.0
        h = merged["histograms"]["h"]
        assert h["count"] == 3
        assert h["total"] == 10.0
        assert h["max"] == 5.0

    def test_merge_without_samples_keeps_exact_aggregates(self):
        obs.enable()
        obs.merge(
            {"histograms": {"h": {"count": 4, "total": 8.0, "max": 3.0}}}
        )
        h = obs.snapshot()["histograms"]["h"]
        assert h["count"] == 4 and h["total"] == 8.0 and h["max"] == 3.0

    def test_snapshot_with_samples_round_trips(self):
        obs.enable()
        obs.REGISTRY.histogram("h").observe(2.5)
        snap = obs.snapshot(samples=True)
        assert snap["histograms"]["h"]["samples"] == [2.5]
