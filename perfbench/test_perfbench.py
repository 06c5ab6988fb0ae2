"""Self-tests of the benchmark (not part of the program's test suite).

Run from the checkout root:

    python3 -m pytest -q perfbench/test_perfbench.py

Covers the percentile, unit and CPU-pinning helpers, the seeded edit
generator, span self-time accounting, each correctness oracle against a
corrupted script or a tampered response, and a tiny smoke run of all
four workloads (seconds, not minutes).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from benchlib import common, corpus_batch, daemon, inputs, layers, oracle, session_replay  # noqa: E402
from benchlib.tracer import Tracer, layer_self_ms, self_times  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- helpers -----------------------------------------------------------------


def test_percentile_matches_statistics_inclusive():
    data = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
    q1, q2, q3 = statistics.quantiles(data, n=4, method="inclusive")
    assert common.percentile(data, 25) == pytest.approx(q1)
    assert common.percentile(data, 50) == pytest.approx(q2)
    assert common.percentile(data, 75) == pytest.approx(q3)
    assert common.percentile(data, 0) == 1.0
    assert common.percentile(data, 100) == 9.0
    assert common.percentile([4.0], 90) == 4.0
    assert common.percentile([0.0, 10.0], 90) == pytest.approx(9.0)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        common.percentile([], 50)
    with pytest.raises(ValueError):
        common.percentile([1.0], 101)


def test_units_and_metric_records():
    assert common.to_ms(0.25) == 250.0
    assert common.metric(1.5, "ms") == {"value": 1.5, "unit": "ms"}
    for bad in (True, float("nan"), float("inf"), "1"):
        with pytest.raises((TypeError, ValueError)):
            common.metric(bad, "ms")


def test_geometric_mean_keeps_every_value_and_damps_the_tail():
    assert common.geometric_mean([3, 3, 3]) == pytest.approx(3.0)
    assert common.geometric_mean([0, 0]) == 0.0
    assert common.geometric_mean([0, 3]) == pytest.approx(1.0)  # (1 * 4) ** 0.5 - 1
    base = common.geometric_mean([10] * 9 + [100])
    assert common.geometric_mean([10] * 9 + [200]) > base  # the tail still counts
    assert base < common.mean([10] * 9 + [100])
    with pytest.raises(ValueError):
        common.geometric_mean([])


def test_result_line_counts_failures():
    ok = common.result_line(10, 0, {})
    assert ok == {"correct": True, "attempted": 10, "failed": 0, "metrics": {}}
    bad = common.result_line(10, 2, {})
    assert bad["correct"] is False and bad["failed"] == 2
    assert common.result_line(0, 0, {})["attempted"] == 1


def test_self_time_subtracts_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 3.0, 6.0, 0, 1],  # overlaps a: union 1..6 = 5
        ["c", 2.0, 3.0, 1, 1],
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])
    assert layer_self_ms(spans, [1])["root"] == pytest.approx(5000.0)
    assert layer_self_ms(spans, [2]) == {}


def test_tracer_wraps_and_restores():
    class Box:
        def work(self, x):
            return x * 2

    tr = Tracer()
    tr.wrap(Box, "work", "core.diff")
    tr.op = 7
    assert Box().work(3) == 6
    tr.restore()
    assert Box().work(4) == 8
    assert [(s[0], s[4]) for s in tr.spans] == [("core.diff", 7)]


def test_layer_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == layers.PER_LAYER


def test_one_cpu_pins_children_and_restores():
    allowed = os.sched_getaffinity(0)
    with common.one_cpu():
        assert os.sched_getaffinity(0) == {max(allowed)}
        child = subprocess.run(
            [sys.executable, "-c", "import os; print(sorted(os.sched_getaffinity(0)))"],
            capture_output=True, text=True, check=True,
        )
        assert json.loads(child.stdout) == [max(allowed)]
    assert os.sched_getaffinity(0) == allowed


def test_kind_mutants_follow_the_kinds_and_never_repeat():
    source = "def f(a, b):\n    x = 1\n    y = a + b\n    return x * y\n"
    seen = {oracle.source_dump(source)}
    first = inputs.kind_mutants(5, source, ["change_constant", "rename"], seen)
    again = inputs.kind_mutants(5, source, ["change_constant", "rename"], seen)
    versions = [oracle.source_dump(v) for v in first + again]
    assert len(set(versions)) == 4 and len(seen) == 5
    assert "x = 1" not in first[0] and "def f(a, b)" in first[0]  # the constant changed
    assert inputs.kind_mutants(5, source, ["change_constant"], set()) == first[:1]  # seeded


# -- oracles -----------------------------------------------------------------

BEFORE = "def f(x):\n    return x + 1\n\ndef g(y):\n    return y * 2\n"
AFTER = "def f(x):\n    return x + 9\n\ndef g(y, z):\n    return y * z\n"


def _script(before: str, after: str):
    from repro.adapters.pyast import parse_python
    from repro.core import URIGen, diff

    src = parse_python(before).with_canonical_uris()
    script, _ = diff(src, parse_python(after), urigen=URIGen(start=src.size + 1))
    return script


def test_script_oracle_catches_corrupted_script():
    script = _script(BEFORE, AFTER)
    assert oracle.script_reproduces(BEFORE, script, AFTER)
    assert not oracle.script_reproduces(BEFORE, session_replay.drop_last_edit(script), AFTER)
    assert not oracle.script_reproduces(BEFORE, script, BEFORE)


def test_serialized_script_oracle_catches_corrupted_script():
    from repro.core.serialize import script_to_json

    text = script_to_json(_script(BEFORE, AFTER))
    assert oracle.json_script_reproduces(BEFORE, text, AFTER)
    assert not oracle.json_script_reproduces(BEFORE, oracle.drop_last_edit_json(text), AFTER)
    assert not oracle.json_script_reproduces(BEFORE, "{not json", AFTER)
    assert not oracle.json_script_reproduces(BEFORE, None, AFTER)


def test_session_oracle_fails_rest_of_session_after_a_mismatch():
    mid = BEFORE.replace("x + 1", "x + 5")
    ref = oracle.SessionOracle(BEFORE)
    assert ref.step(_script(BEFORE, mid), mid)
    ref = oracle.SessionOracle(BEFORE)
    assert not ref.step(session_replay.drop_last_edit(_script(BEFORE, mid)), mid)
    assert not ref.step(_script(mid, AFTER), AFTER)


def test_sequential_fold_and_same_tree():
    from repro.core.serialize import script_to_json

    one = BEFORE.replace("x + 1", "x + 9")
    drop_g = BEFORE.split("\n\ndef g")[0] + "\n"
    edit_g = BEFORE.replace("y * 2", "y * 7")  # touches nodes drop_g removed
    scripts = [script_to_json(_script(BEFORE, v)) for v in (one, drop_g, edit_g)]
    source, verdicts = oracle.sequential_fold(BEFORE, scripts)
    assert verdicts == [True, True, False]
    assert oracle.same_tree(source, drop_g.replace("x + 1", "x + 9"))
    assert not oracle.same_tree(source + "\nz = 1\n", source)
    assert not oracle.same_tree(None, source)


# -- smoke runs of every workload, each with one tampered op ---------------

TINY_SECONDS = 0.5


def _assert_result(result: dict, trace: bool, failed: int, exact: bool = True) -> None:
    section = "per_layer" if trace else "end_to_end"
    names = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert result["attempted"] > result["failed"]
    if exact:
        assert result["failed"] == failed
    else:
        assert result["failed"] >= failed
    assert result["correct"] is (failed == 0)


def test_session_replay_smoke_and_oracle():
    sizes = session_replay.Sizes(files=2, changes=4, band=inputs.TINY)
    _assert_result(session_replay.run(3, TINY_SECONDS, False, sizes, tamper=True), False, 1)
    _assert_result(session_replay.run(3, TINY_SECONDS, True, sizes), True, 0)


def test_corpus_batch_smoke_and_oracle():
    sizes = corpus_batch.Sizes(files=2, pairs=4, band=inputs.TINY, spawns=1)
    _assert_result(corpus_batch.run(3, TINY_SECONDS, False, sizes, tamper=True), False, 1)
    _assert_result(corpus_batch.run(3, TINY_SECONDS, True, sizes), True, 0)


def test_daemon_read_smoke_and_oracle():
    sizes = daemon.ReadSizes(files=2, band=inputs.TINY)
    # one tampered /diff, one tampered /lint, and every /diff of the pair
    # whose reference was corrupted: how many of those the loop sent
    # depends on timing
    result = daemon.run_read(3, TINY_SECONDS, False, sizes, tamper=True)
    _assert_result(result, False, 3, exact=False)


def test_daemon_write_smoke_and_oracle():
    sizes = daemon.WriteSizes(bases=2, ops=10, band=inputs.TINY)
    _assert_result(daemon.run_write(3, TINY_SECONDS, False, sizes, tamper=True), False, 4)


def test_daemon_traced_smoke():
    sizes = daemon.WriteSizes(bases=2, ops=10, band=inputs.TINY)
    result = daemon.run_write(4, 2 * TINY_SECONDS, True, sizes)
    _assert_result(result, True, 0)
    assert result["metrics"]["adapters.rebuild_ms"]["value"] > 0
    assert result["metrics"]["server.http_ms"]["value"] > 0


def test_refuses_to_run_without_program_sources():
    """A checkout holding only the benchmark must fail without a result."""
    with common.WorkDir("bare") as wd:
        bench = wd.sub("perfbench")
        (bench / "run.py").write_text((HERE / "run.py").read_text())
        proc = subprocess.run(
            [sys.executable, str(bench / "run.py"), "--workload", "session-replay",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=60, cwd=wd.path,
        )
    assert proc.returncode != 0
    assert proc.stdout == ""
