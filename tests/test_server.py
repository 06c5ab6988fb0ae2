"""Tests for the diff daemon (``repro.server``): the content-addressed
tree store, the transport-independent service, the HTTP and stdio front
ends, the CLI client mode, and — above all — the differential contract
that a server diff is byte-identical to one-shot ``repro diff --json``.
"""

from __future__ import annotations

import asyncio
import io
import json
import threading

import pytest

from repro import observability as obs
from repro.__main__ import main
from repro.observability import TelemetryCollector
from repro.server import (
    ClientError,
    ReproHTTPServer,
    ReproService,
    ReproStdioServer,
    ServerClient,
    ServiceError,
    StoreError,
    TreeStore,
    UnknownFingerprint,
    diff_trees,
    fingerprint_tree,
)

BEFORE = "def f(x):\n    return x + 1\n"
AFTER = "def f(x, y=0):\n    return x + y\n"
# same canonical tree as BEFORE (a trailing blank line is not an AST)
BEFORE_REFORMATTED = "def f(x):\n    return x + 1\n\n"


@pytest.fixture
def files(tmp_path):
    before = tmp_path / "before.py"
    after = tmp_path / "after.py"
    before.write_text(BEFORE)
    after.write_text(AFTER)
    return before, after


def cli_diff_json(capsys, before, after) -> str:
    """The one-shot CLI's stdout for a pair — the byte-identity oracle."""
    assert main(["diff", str(before), str(after), "--json"]) == 0
    return capsys.readouterr().out


# -- content-addressed store ----------------------------------------------


class TestStoreKey:
    """The store key is the hash-scheme name plus the root's Step-1
    hashes; these pin that it tells exactly the trees apart that the
    full MTree-state digest tells apart."""

    def key(self, source: str) -> str:
        return TreeStore().put_source(source)[0].fingerprint

    def test_key_is_scheme_and_root_hashes(self):
        from repro.core import get_hash_scheme

        entry, _ = TreeStore().put_source(BEFORE)
        root = entry.tree
        assert entry.fingerprint == (
            f"{get_hash_scheme()}-{(root.structure_hash + root.literal_hash).hex()}"
        )

    def test_key_names_the_hash_scheme(self):
        from repro.core import hash_scheme

        with hash_scheme("sha256"):
            key = self.key(BEFORE)
        assert key.startswith("sha256-") and key != self.key(BEFORE)

    @pytest.mark.parametrize(
        "left, right",
        [
            ("x = 1\n", "x = True\n"),
            ("x = 1\n", "x = 1.0\n"),
            ("x = 0.0\n", "x = -0.0\n"),
            ("x = 'a'\n", "x = b'a'\n"),
            ("x = 0\n", "x = False\n"),
        ],
    )
    def test_conflatable_literals_get_distinct_keys(self, left, right):
        assert self.key(left) != self.key(right)

    def test_keys_agree_with_the_full_state_digest(self):
        from repro.corpus import seeded_cases
        from repro.core import tnode_to_mtree
        from repro.robustness import tree_fingerprint

        trees = []
        for before, afters in seeded_cases(20260806, 12, "small"):
            for source in (before, *afters, before + "\n"):
                trees.append(TreeStore().put_source(source)[0].tree)
        keys = [fingerprint_tree(t) for t in trees]
        digests = [tree_fingerprint(tnode_to_mtree(t)) for t in trees]
        for i in range(len(trees)):
            for j in range(len(trees)):
                assert (keys[i] == keys[j]) == (digests[i] == digests[j])
        assert len(set(keys)) < len(keys)  # the re-spaced copies collide

    def test_canonicalization_copies_the_hashes(self):
        from repro.adapters.pyast import parse_python, python_grammar

        tree = parse_python(AFTER)
        canon = tree.with_canonical_uris()
        # the hashing constructor, run again over every node
        rehashed = python_grammar().grammar.parse_tuple(tree.to_tuple())
        for a, b, c in zip(
            tree.iter_subtree(), canon.iter_subtree(), rehashed.iter_subtree()
        ):
            for field in ("structure_hash", "literal_hash", "height", "size"):
                assert getattr(a, field) == getattr(b, field) == getattr(c, field)
        assert [n.uri for n in canon.iter_subtree()] == list(range(1, tree.size + 1))


class TestTreeStore:
    def test_put_get_roundtrip(self):
        store = TreeStore()
        entry, cached = store.put_source(BEFORE, "a.py")
        assert not cached
        assert entry.nodes == entry.tree.size > 0
        assert store.get(entry.fingerprint) is entry
        assert entry.fingerprint in store
        assert len(store) == 1

    def test_fingerprint_is_stable_and_content_addressed(self):
        store = TreeStore()
        entry, _ = store.put_source(BEFORE, "a.py")
        # same source again: a dup, not a second entry
        again, cached = store.put_source(BEFORE, "b.py")
        assert cached and again is entry
        # a reformatted source with the same canonical tree shares the entry
        reform, cached = store.put_source(BEFORE_REFORMATTED, "c.py")
        assert cached and reform is entry
        spaced = "def f( x ):\n    # a comment\n    return (x + 1)\n"
        reform, cached = store.put_source(spaced, "d.py")
        assert cached and reform is entry
        assert len(store) == 1
        assert entry.fingerprint == fingerprint_tree(entry.tree)

    def test_unknown_fingerprint_raises(self):
        store = TreeStore()
        with pytest.raises(UnknownFingerprint):
            store.get("0" * 64)

    def test_unparseable_source_raises_store_error(self):
        store = TreeStore()
        with pytest.raises(StoreError) as exc:
            store.put_source("def broken(:\n", "bad.py")
        assert "bad.py" in str(exc.value)
        assert len(store) == 0

    def test_too_deep_source_is_a_bad_request(self, monkeypatch):
        # CPython 3.12+ refuses a very deep module in ast.parse with
        # RecursionError; that is the client's input, not a daemon fault
        import repro.adapters.pyast as pyast

        def too_deep(source, filename="<string>"):
            raise RecursionError("maximum recursion depth exceeded during compilation")

        monkeypatch.setattr(pyast, "parse_python", too_deep)
        with pytest.raises(StoreError, match="deep.py: too deeply nested"):
            TreeStore().put_source("x = 1\n", "deep.py")
        service = ReproService()
        try:
            with pytest.raises(ServiceError) as exc:
                service.handle("put_tree", {"source": "x = 1\n", "filename": "deep.py"})
            assert exc.value.code == "bad_request" and exc.value.status == 400
        finally:
            service.close()

    def test_lru_eviction_is_bounded_and_ordered(self):
        store = TreeStore(max_trees=2)
        a, _ = store.put_source("a = 1\n")
        b, _ = store.put_source("b = 2\n")
        store.get(a.fingerprint)  # touch a: b becomes the LRU victim
        c, _ = store.put_source("c = 3\n")
        assert len(store) == 2
        assert a.fingerprint in store and c.fingerprint in store
        assert b.fingerprint not in store

    def test_apply_inserts_under_new_fingerprint(self):
        from repro.core.serialize import script_from_json

        store = TreeStore()
        src, _ = store.put_source(BEFORE, "a.py")
        dst, _ = store.put_source(AFTER, "a.py")
        script = script_from_json(
            diff_trees(src.tree, dst.tree)["script_json"]
        )
        entry, was_cached, source = store.apply(src.fingerprint, script)
        # content addressing closes the loop: patching before with the
        # diff yields exactly the after entry
        assert entry.fingerprint == dst.fingerprint
        assert was_cached  # dst was already stored
        assert "y=0" in source or "y = 0" in source

    def test_apply_is_atomic_on_rejected_script(self):
        from repro.core import PatchError
        from repro.core.serialize import script_from_json

        store = TreeStore()
        src, _ = store.put_source(BEFORE, "a.py")
        other = TreeStore()
        a, _ = other.put_source("x = 1\n")
        b, _ = other.put_source("x = 2\n")
        # a script minted against unrelated trees: its URIs don't exist
        # in src, so the patch must be rejected...
        alien = script_from_json(diff_trees(a.tree, b.tree)["script_json"])
        fps = set(e["fingerprint"] for e in store.list())
        with pytest.raises(PatchError):
            store.apply(src.fingerprint, alien)
        # ...and the store is untouched: same entries, same fingerprints
        assert set(e["fingerprint"] for e in store.list()) == fps
        assert store.get(src.fingerprint) is src


# -- transport-independent service ----------------------------------------


class TestReproService:
    def test_diff_matches_cli_byte_for_byte(self, files, capsys):
        before, after = files
        cli_out = cli_diff_json(capsys, before, after)
        service = ReproService()
        result = service.handle(
            "diff",
            {
                "before": {"source": BEFORE, "filename": str(before)},
                "after": {"source": AFTER, "filename": str(after)},
            },
        )
        assert result["script_json"] + "\n" == cli_out
        assert result["edits"] == len(result["script"]["edits"])

    def test_diff_by_fingerprint_and_cached_flags(self):
        service = ReproService()
        fp_b = service.handle("put_tree", {"source": BEFORE})["fingerprint"]
        fp_a = service.handle("put_tree", {"source": AFTER})["fingerprint"]
        result = service.handle("diff", {"before": fp_b, "after": fp_a})
        assert result["before"] == fp_b and result["after"] == fp_a
        assert result["cached"] == {"before": True, "after": True}

    def test_put_tree_dedups(self):
        service = ReproService()
        first = service.handle("put_tree", {"source": BEFORE})
        again = service.handle("put_tree", {"source": BEFORE_REFORMATTED})
        assert not first["cached"] and again["cached"]
        assert first["fingerprint"] == again["fingerprint"]
        trees = service.handle("list_trees", {})["trees"]
        assert [t["fingerprint"] for t in trees] == [first["fingerprint"]]

    def test_apply_round_trips_to_after_fingerprint(self):
        service = ReproService()
        fp_b = service.handle("put_tree", {"source": BEFORE})["fingerprint"]
        fp_a = service.handle("put_tree", {"source": AFTER})["fingerprint"]
        script = service.handle("diff", {"before": fp_b, "after": fp_a})[
            "script_json"
        ]
        applied = service.handle("apply", {"tree": fp_b, "script": script})
        assert applied["fingerprint"] == fp_a

    def test_errors_carry_stable_codes(self):
        service = ReproService()
        with pytest.raises(ServiceError) as exc:
            service.handle("nonsense", {})
        assert exc.value.code == "bad_request" and exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            service.handle("diff", {"before": "f" * 64, "after": "f" * 64})
        assert exc.value.code == "not_found" and exc.value.status == 404
        with pytest.raises(ServiceError) as exc:
            service.handle(
                "put_tree", {"source": "def broken(:\n", "filename": "x.py"}
            )
        assert exc.value.code == "bad_request"

    def test_rejected_patch_is_conflict_and_store_unchanged(self):
        service = ReproService()
        fp = service.handle("put_tree", {"source": BEFORE})["fingerprint"]
        alien = diff_trees(
            service.store.put_source("x = 1\n")[0].tree,
            service.store.put_source("x = 2\n")[0].tree,
        )["script_json"]
        stored = len(service.store)
        with pytest.raises(ServiceError) as exc:
            service.handle("apply", {"tree": fp, "script": alien})
        assert exc.value.code == "conflict" and exc.value.status == 409
        assert len(service.store) == stored

    def test_merge_and_verify_and_health(self):
        service = ReproService()
        fp_b = service.handle("put_tree", {"source": BEFORE})["fingerprint"]
        fp_a = service.handle("put_tree", {"source": AFTER})["fingerprint"]
        script = service.handle("diff", {"before": fp_b, "after": fp_a})[
            "script_json"
        ]
        empty = service.handle("diff", {"before": fp_b, "after": fp_b})[
            "script_json"
        ]
        merged = service.handle("merge", {"left": script, "right": empty})
        assert merged["ok"] and merged["conflicts"] == []
        assert merged["edits"] >= 1
        # two copies of the same change do collide: a structured conflict
        collided = service.handle("merge", {"left": script, "right": script})
        assert not collided["ok"] and collided["conflicts"]
        verified = service.handle("verify", {"tree": fp_b})
        assert verified["ok"] and verified["violations"] == []
        health = service.handle("health", {})
        assert health["status"] == "ok" and health["trees"] == 2

    def test_pool_diff_matches_inline(self):
        """A pool-backed daemon returns the same bytes the inline path
        computes — the cross-process half of the differential contract."""
        inline = ReproService()
        expected = inline.handle(
            "diff",
            {"before": {"source": BEFORE}, "after": {"source": AFTER}},
        )["script_json"]
        pooled = ReproService(workers=1, collector=TelemetryCollector())
        try:
            result = pooled.handle(
                "diff",
                {"before": {"source": BEFORE}, "after": {"source": AFTER}},
            )
            assert result["script_json"] == expected
        finally:
            pooled.close()


MODULE = (
    "def f(x):\n    return x + 1\n\n"
    "def g(y):\n    return y * 2\n\n"
    "def h(z):\n    return z - 3\n"
)


class TestApplyBatch:
    """The truerace-scheduled ``apply_batch`` operation."""

    def _scripts(self, service, fp, variants):
        return [
            service.handle(
                "diff", {"before": fp, "after": {"source": v}}
            )["script"]
            for v in variants
        ]

    def test_independent_scripts_compose_to_combined_source(self):
        service = ReproService()
        fp = service.handle("put_tree", {"source": MODULE})["fingerprint"]
        edits = [("x + 1", "x + 100"), ("y * 2", "y * 200"), ("z - 3", "z - 300")]
        scripts = self._scripts(
            service, fp, [MODULE.replace(old, new) for old, new in edits]
        )
        out = service.handle(
            "apply_batch", {"tree": fp, "scripts": scripts, "oracle": True}
        )
        assert out["mode"] == "sequential"  # no pool configured
        assert out["schedule"]["waves"] == [[0, 1, 2]]
        assert out["applied"] == 3 and out["rejected"] == 0
        assert out["oracle"]["ok"]
        combined = MODULE
        for old, new in edits:
            combined = combined.replace(old, new)
        want = service.handle("put_tree", {"source": combined})
        assert out["fingerprint"] == want["fingerprint"]
        assert want["cached"]  # the batch committed it first

    def test_single_script_batch_matches_apply(self):
        service = ReproService()
        fp = service.handle("put_tree", {"source": MODULE})["fingerprint"]
        (script,) = self._scripts(
            service, fp, [MODULE.replace("x + 1", "x + 9")]
        )
        batch = service.handle(
            "apply_batch", {"tree": fp, "scripts": [script], "commit": False}
        )
        solo = service.handle(
            "apply", {"tree": fp, "script": script, "commit": False}
        )
        assert batch["fingerprint"] == solo["fingerprint"]
        assert batch["source"] == solo["source"]

    def test_interfering_scripts_serialize_deterministically(self):
        service = ReproService()
        fp = service.handle("put_tree", {"source": MODULE})["fingerprint"]
        (script,) = self._scripts(
            service, fp, [MODULE.replace("x + 1", "x + 9")]
        )
        out = service.handle(
            "apply_batch",
            {"tree": fp, "scripts": [script, script], "oracle": True},
        )
        assert out["schedule"]["waves"] == [[0], [1]]
        assert out["schedule"]["conflicts"]
        # determinism: same batch, same verdicts and fingerprint
        again = service.handle(
            "apply_batch",
            {"tree": fp, "scripts": [script, script], "oracle": True},
        )
        assert [s["status"] for s in again["scripts"]] == [
            s["status"] for s in out["scripts"]
        ]
        assert again["fingerprint"] == out["fingerprint"]

    def test_colliding_fresh_uris_are_renamed_and_both_land(self):
        """Two adds diffed independently draw the same fresh URIs; raw
        concatenation would URI-conflict, the batch renames and applies
        both (the satellite's nested-insert collision shape, end to end)."""
        service = ReproService()
        fp = service.handle("put_tree", {"source": MODULE})["fingerprint"]
        scripts = self._scripts(
            service,
            fp,
            [
                MODULE + "\ndef added_a(q):\n    return q + 7\n",
                MODULE.replace(
                    "def f(x):\n    return x + 1\n",
                    "def f(x):\n    return x + 1 + (2 * 3)\n",
                ),
            ],
        )
        out = service.handle(
            "apply_batch", {"tree": fp, "scripts": scripts, "oracle": True}
        )
        assert out["renamed_loads"] > 0
        assert out["applied"] == 2
        assert out["oracle"]["ok"]

    def test_rejected_script_does_not_poison_the_batch(self):
        service = ReproService()
        fp = service.handle("put_tree", {"source": MODULE})["fingerprint"]
        (good,) = self._scripts(
            service, fp, [MODULE.replace("x + 1", "x + 9")]
        )
        alien = diff_trees(
            service.store.put_source("class Q:\n    pass\n")[0].tree,
            service.store.put_source("class Q:\n    q = 1\n")[0].tree,
        )["script_json"]
        out = service.handle(
            "apply_batch",
            {"tree": fp, "scripts": [good, alien], "oracle": True},
        )
        statuses = [s["status"] for s in out["scripts"]]
        assert statuses == ["applied", "rejected"]
        assert "error" in out["scripts"][1]
        solo = service.handle(
            "apply_batch", {"tree": fp, "scripts": [good], "commit": False}
        )
        assert out["fingerprint"] == solo["fingerprint"]

    def test_error_statuses(self):
        service = ReproService()
        fp = service.handle("put_tree", {"source": MODULE})["fingerprint"]
        (script,) = self._scripts(
            service, fp, [MODULE.replace("x + 1", "x + 9")]
        )
        with pytest.raises(ServiceError) as exc:
            service.handle("apply_batch", {"tree": "f" * 64, "scripts": [script]})
        assert exc.value.code == "not_found"
        with pytest.raises(ServiceError) as exc:
            service.handle("apply_batch", {"tree": fp, "scripts": []})
        assert exc.value.code == "bad_request"
        with pytest.raises(ServiceError) as exc:
            service.handle("apply_batch", {"tree": fp, "scripts": "nope"})
        assert exc.value.code == "bad_request"
        with pytest.raises(ServiceError) as exc:
            service.handle(
                "apply_batch", {"tree": fp, "scripts": [{"bogus": True}]}
            )
        assert exc.value.code == "bad_request"

    def test_parallel_path_matches_sequential_fold(self):
        """The differential contract with a real pool: the parallel wave
        execution produces byte-identical fingerprints to the sequential
        fold (asserted in-request by ``oracle=True``) and the batch runs
        in parallel mode."""
        service = ReproService(workers=2, collector=TelemetryCollector())
        try:
            fp = service.handle("put_tree", {"source": MODULE})["fingerprint"]
            scripts = self._scripts(
                service,
                fp,
                [
                    MODULE.replace("x + 1", "x + 100"),
                    MODULE.replace("y * 2", "y * 200"),
                    MODULE.replace("z - 3", "z - 300"),
                ],
            )
            out = service.handle(
                "apply_batch", {"tree": fp, "scripts": scripts, "oracle": True}
            )
            assert out["mode"] == "parallel"
            assert out["oracle"]["ok"]
            assert out["applied"] == 3
            seq = service.handle(
                "apply_batch",
                {
                    "tree": fp,
                    "scripts": scripts,
                    "parallel": False,
                    "commit": False,
                },
            )
            assert seq["mode"] == "sequential"
            assert seq["fingerprint"] == out["fingerprint"]
        finally:
            service.close()


# -- deep inputs and collector pauses --------------------------------------

#: the 20,000-term module: a left-nested BinOp chain 20k levels deep
DEEP_MODULE = """
import ast, sys
from repro.server import ReproService, ServiceError
terms = ["1"] * 20_000
source = "x = " + "+".join(terms) + "\\n"
variant = "x = " + "+".join(terms[:-1] + ["2"]) + "\\n"
service = ReproService(workers=0)
try:
    try:
        ast.parse(source)
    except RecursionError:
        # CPython 3.12+ refuses the module: the daemon must say 400
        try:
            service.handle("put_tree", {"source": source})
        except ServiceError as exc:
            print("put rejected", exc.code)
        sys.exit(0)
    fp = service.handle("put_tree", {"source": source})["fingerprint"]
    diff = service.handle("diff", {"before": fp, "after": {"source": variant}})
    stored = sorted(t["fingerprint"] for t in service.store.list())
    try:
        out = service.handle("apply", {"tree": fp, "script": diff["script_json"]})
    except ServiceError as exc:
        # CPython 3.10 spends C stack on every Python call, so ast.unparse
        # cannot take the result: a structured refusal, store unchanged,
        # daemon still serving
        assert sorted(t["fingerprint"] for t in service.store.list()) == stored
        assert service.handle("put_tree", {"source": "y = 2\\n"})["nodes"] > 0
        print("apply rejected", exc.code)
        sys.exit(0)
    print("applied", out["fingerprint"] == diff["after"])
finally:
    service.close()
"""


def test_deep_module_applies_without_crashing():
    # a subprocess, so a C-stack overflow fails this test instead of
    # killing the test run
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-c", DEEP_MODULE],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
    out = proc.stdout.split()
    if sys.version_info < (3, 11):
        assert out == ["apply", "rejected", "bad_request"]
    elif sys.version_info < (3, 12):
        assert out == ["applied", "True"]
    else:
        assert out in (["put", "rejected", "bad_request"], ["applied", "True"])


def test_gc_pauses_reach_metrics():
    import gc

    from repro.observability import GCPauses

    from repro.server.smoke import metric_value

    pauses = GCPauses()
    pauses.install()
    service = ReproService(gc_pauses=pauses)
    obs.enable()
    try:
        before = service.metrics_text()
        gc.collect()
        after = service.metrics_text()
    finally:
        pauses.uninstall()
        service.close()
        obs.disable()
        obs.reset()
    assert pauses._on_gc not in gc.callbacks
    for name in ("repro_gc_collections_gen2", "repro_gc_pause_total_ms"):
        assert metric_value(after, name) > metric_value(before, name), name
    # an automatic collection before the first scrape may have been longer
    longest = metric_value(after, "repro_gc_pause_max_ms")
    assert 0 < longest <= metric_value(after, "repro_gc_pause_total_ms")
    assert longest >= metric_value(before, "repro_gc_pause_max_ms")


# -- HTTP front end --------------------------------------------------------


@pytest.fixture(scope="module")
def daemon():
    """An in-process HTTP daemon on an ephemeral port, obs enabled."""
    obs.reset()
    obs.reset_tracing()
    obs.enable()
    obs.enable_tracing()
    service = ReproService(
        TreeStore(max_trees=64), workers=0, collector=TelemetryCollector(trace=True)
    )
    box: dict = {}
    ready = threading.Event()

    def run() -> None:
        async def go() -> None:
            server = ReproHTTPServer(service, "127.0.0.1", 0)
            await server.start()
            box["port"] = server.port
            ready.set()
            await server.serve_until_shutdown()

        asyncio.run(go())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(30), "daemon never came up"
    client = ServerClient(f"http://127.0.0.1:{box['port']}")
    yield client, service
    try:
        client.shutdown()
    except ClientError:
        pass
    thread.join(30)
    obs.disable_tracing()
    obs.reset_tracing()
    obs.disable()
    obs.reset()


class TestHTTPDaemon:
    def test_diff_raw_is_byte_identical_to_cli(self, daemon, files, capsys):
        client, _ = daemon
        before, after = files
        cli_out = cli_diff_json(capsys, before, after)
        fp_b = client.put_tree(BEFORE, str(before))["fingerprint"]
        fp_a = client.put_tree(AFTER, str(after))["fingerprint"]
        raw = client.diff_raw(fp_b, fp_a)
        assert raw.decode("utf8") == cli_out

    def test_structured_diff_and_health(self, daemon):
        client, _ = daemon
        fp_b = client.put_tree(BEFORE)["fingerprint"]
        fp_a = client.put_tree(AFTER)["fingerprint"]
        result = client.diff(fp_b, fp_a)
        assert result["edits"] >= 1
        assert json.dumps(result["script"])  # JSON-clean
        health = client.health()
        assert health["status"] == "ok" and health["trees"] >= 2

    def test_apply_batch_over_http(self, daemon):
        client, _ = daemon
        fp = client.put_tree(MODULE, "m.py")["fingerprint"]
        scripts = [
            client.diff(fp, {"source": MODULE.replace("x + 1", "x + 42")})["script"],
            client.diff(fp, {"source": MODULE.replace("y * 2", "y * 42")})["script"],
        ]
        out = client.apply_batch(fp, scripts, oracle=True)
        assert out["applied"] == 2 and out["rejected"] == 0
        assert out["schedule"]["waves"] == [[0, 1]]
        assert out["oracle"]["ok"]
        with pytest.raises(ClientError) as exc:
            client.apply_batch("e" * 64, scripts)
        assert exc.value.status == 404

    def test_error_statuses(self, daemon):
        client, _ = daemon
        with pytest.raises(ClientError) as exc:
            client.diff("e" * 64, "e" * 64)
        assert exc.value.status == 404 and exc.value.code == "not_found"
        with pytest.raises(ClientError) as exc:
            client.put_tree("def broken(:\n", "bad.py")
        assert exc.value.status == 400 and exc.value.code == "bad_request"

    def test_metrics_exposition_is_scrapeable(self, daemon):
        client, _ = daemon
        client.health()  # at least one counted request
        text = client.metrics()
        assert "repro_server_requests_total" in text
        assert "repro_server_store_trees" in text
        # the store gauge is authoritative at scrape time
        for line in text.splitlines():
            if line.startswith("repro_server_store_trees "):
                _, service = daemon
                assert float(line.split()[1]) == len(service.store)
                break
        else:
            pytest.fail("store gauge missing from exposition")

    def test_trace_has_one_trace_per_request(self, daemon):
        client, _ = daemon
        obs.reset_tracing()  # drain from an empty buffer
        client.health()
        client.health()
        doc = client.trace()
        events = [
            e
            for e in doc.get("traceEvents", [])
            if e.get("ph") == "X" and e.get("name") == "repro.server.request"
        ]
        assert len(events) >= 2

    def test_bad_trace_format_keeps_the_spans(self, daemon):
        client, _ = daemon
        obs.reset_tracing()  # drain from an empty buffer
        client.health()
        with pytest.raises(ClientError) as exc:
            client.trace("bogus")
        assert exc.value.status == 400
        doc = client.trace("chrome")
        events = [
            e
            for e in doc["traceEvents"]
            if e.get("ph") == "X" and e.get("name") == "repro.server.request"
        ]
        assert len(events) == 1

    def test_concurrent_diffs_are_identical(self, daemon):
        client, _ = daemon
        fp_b = client.put_tree(BEFORE)["fingerprint"]
        fp_a = client.put_tree(AFTER)["fingerprint"]
        expected = client.diff_raw(fp_b, fp_a)
        n = 32
        results: list = [None] * n

        def one(i: int) -> None:
            try:
                results[i] = client.diff_raw(fp_b, fp_a)
            except Exception as exc:  # noqa: BLE001 - asserted below
                results[i] = exc

        threads = [threading.Thread(target=one, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert all(r == expected for r in results)

    def test_repeat_requests_do_not_reparse(self, daemon):
        client, _ = daemon
        fp_b = client.put_tree(BEFORE)["fingerprint"]
        fp_a = client.put_tree(AFTER)["fingerprint"]

        def parses() -> float:
            for line in client.metrics().splitlines():
                if line.startswith("repro_server_store_parses_total "):
                    return float(line.split()[1])
            return 0.0

        baseline = parses()
        client.diff_raw(fp_b, fp_a)
        client.diff_raw(fp_b, fp_a)
        assert parses() == baseline


def test_graceful_shutdown_drains() -> None:
    service = ReproService()
    box: dict = {}
    ready = threading.Event()

    def run() -> None:
        async def go() -> None:
            server = ReproHTTPServer(service, "127.0.0.1", 0)
            await server.start()
            box["port"] = server.port
            ready.set()
            await server.serve_until_shutdown()

        asyncio.run(go())

    thread = threading.Thread(target=run)
    thread.start()
    assert ready.wait(30)
    client = ServerClient(f"http://127.0.0.1:{box['port']}")
    assert client.put_tree(BEFORE)["fingerprint"]
    client.shutdown()
    thread.join(30)
    assert not thread.is_alive()
    # the listener is gone: new requests are refused, not hung
    with pytest.raises(ClientError):
        ServerClient(client.base_url, timeout_s=5).health()


# -- stdio front end -------------------------------------------------------


class TestStdioDaemon:
    def run_session(self, lines: list[dict]) -> list[dict]:
        stdin = io.StringIO("".join(json.dumps(line) + "\n" for line in lines))
        stdout = io.StringIO()
        asyncio.run(ReproStdioServer(ReproService(), stdin, stdout).run())
        return [json.loads(line) for line in stdout.getvalue().splitlines()]

    def test_protocol_round_trip(self):
        responses = self.run_session(
            [
                {"id": 1, "op": "put_tree", "source": BEFORE},
                {"id": 2, "op": "put_tree", "source": AFTER},
                {"id": 3, "op": "health"},
            ]
        )
        by_id = {r["id"]: r for r in responses}
        assert by_id[1]["ok"] and by_id[2]["ok"]
        assert by_id[1]["result"]["fingerprint"] != by_id[2]["result"]["fingerprint"]
        assert by_id[3]["result"]["trees"] == 2

    def test_errors_are_in_band(self):
        responses = self.run_session(
            [
                {"id": 7, "op": "diff", "before": "a" * 64, "after": "a" * 64},
                {"id": 8, "op": "wat"},
            ]
        )
        by_id = {r["id"]: r for r in responses}
        assert not by_id[7]["ok"] and by_id[7]["error"]["code"] == "not_found"
        assert not by_id[8]["ok"] and by_id[8]["error"]["code"] == "bad_request"

    def test_malformed_line_does_not_kill_session(self):
        stdin = io.StringIO(
            "this is not json\n"
            + json.dumps({"id": 1, "op": "health"})
            + "\n"
        )
        stdout = io.StringIO()
        asyncio.run(ReproStdioServer(ReproService(), stdin, stdout).run())
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert any(r["id"] is None and not r["ok"] for r in responses)
        assert any(r["id"] == 1 and r["ok"] for r in responses)

    def test_shutdown_request_ends_session(self):
        responses = self.run_session([{"id": 1, "op": "shutdown"}])
        assert responses == [
            {"id": 1, "ok": True, "result": {"draining": True}}
        ]


# -- CLI client mode -------------------------------------------------------


class TestClientMode:
    def test_server_diff_json_matches_local(self, daemon, files, capsys):
        client, _ = daemon
        before, after = files
        local = cli_diff_json(capsys, before, after)
        assert (
            main(
                ["diff", str(before), str(after), "--json", "--server", client.base_url]
            )
            == 0
        )
        assert capsys.readouterr().out == local

    def test_server_diff_prints_edits(self, daemon, files, capsys):
        client, _ = daemon
        before, after = files
        assert main(["diff", str(before), str(after)]) == 0
        local = capsys.readouterr().out
        assert (
            main(["diff", str(before), str(after), "--server", client.base_url])
            == 0
        )
        assert capsys.readouterr().out == local

    def test_server_diff_stats_reports_cache(self, daemon, files, capsys):
        client, _ = daemon
        before, after = files
        assert (
            main(
                ["diff", str(before), str(after), "--stats", "--server", client.base_url]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "server diff" in err and "cached" in err

    def test_client_mode_rejects_local_only_flags(self, daemon, files, capsys):
        client, _ = daemon
        before, after = files
        rc = main(
            ["diff", str(before), str(after), "--explain", "--server", client.base_url]
        )
        assert rc == 2
        assert "client mode" in capsys.readouterr().err

    def test_unreachable_server_is_a_cli_error(self, files, capsys):
        before, after = files
        rc = main(
            ["diff", str(before), str(after), "--server", "http://127.0.0.1:9"]
        )
        assert rc == 2
        assert "repro:" in capsys.readouterr().err


# -- transport robustness --------------------------------------------------


def _raw_http(base_url: str, request: bytes, timeout: float = 10.0) -> bytes:
    """One raw request/response exchange against a live daemon."""
    import socket
    from urllib.parse import urlsplit

    parts = urlsplit(base_url)
    with socket.create_connection(
        (parts.hostname, parts.port), timeout=timeout
    ) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestHTTPRobustness:
    def test_oversized_body_is_413_with_standard_envelope(self, daemon):
        """A declared body over MAX_BODY is refused up front — status 413
        and the same ``{"error": {"code", "message"}}`` envelope every
        other error uses, without reading the body."""
        client, _ = daemon
        claimed = 65 * 1024 * 1024  # one MiB over the cap
        response = _raw_http(
            client.base_url,
            (
                f"POST /diff HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {claimed}\r\n\r\n"
            ).encode("latin-1"),
        )
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 ")
        envelope = json.loads(body.decode("utf8"))
        assert envelope["error"]["code"] == "payload_too_large"
        assert str(claimed) in envelope["error"]["message"]
        # the daemon is unharmed
        assert client.health()["status"] == "ok"

    def test_oversized_head_is_413(self, daemon):
        client, _ = daemon
        padding = "X-Pad: " + "a" * (70 * 1024)
        response = _raw_http(
            client.base_url,
            f"GET /healthz HTTP/1.1\r\nHost: x\r\n{padding}\r\n\r\n".encode("latin-1"),
        )
        assert response.startswith(b"HTTP/1.1 413 ")
        assert b'"payload_too_large"' in response

    def test_slow_but_progressing_body_is_not_shed(self):
        """Regression: the whole body read shared the head's fixed
        timeout window, so a large upload on a slow link got a 408 even
        while making progress.  The body deadline is now an *idle*
        bound: each chunk resets the clock.  Send a body over several
        windows' worth of wall clock with every inter-chunk gap under
        the window, and a stalled request to prove the bound still bites."""
        import socket
        import time

        service = ReproService()
        box: dict = {}
        ready = threading.Event()

        def run() -> None:
            async def go() -> None:
                server = ReproHTTPServer(
                    service, "127.0.0.1", 0, header_timeout_s=0.5
                )
                await server.start()
                box["port"] = server.port
                ready.set()
                await server.serve_until_shutdown()

            asyncio.run(go())

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(30)
        client = ServerClient(f"http://127.0.0.1:{box['port']}")
        try:
            body = json.dumps({"source": BEFORE, "filename": "a.py"}).encode("utf8")
            head = (
                f"POST /trees HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1")
            with socket.create_connection(
                ("127.0.0.1", box["port"]), timeout=10
            ) as sock:
                sock.sendall(head)
                # 6 chunks x 0.3s idle = 1.8s of body > the 0.5s window,
                # but no single gap exceeds it
                step = max(1, len(body) // 6)
                for off in range(0, len(body), step):
                    sock.sendall(body[off : off + step])
                    time.sleep(0.3)
                response = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    response += chunk
            assert response.startswith(b"HTTP/1.1 200 "), response[:200]

            # a body that truly stalls still gets the 408
            with socket.create_connection(
                ("127.0.0.1", box["port"]), timeout=10
            ) as sock:
                sock.sendall(head + body[: len(body) // 2])  # ...and stall
                stalled = sock.recv(65536)
            assert stalled.startswith(b"HTTP/1.1 408 "), stalled[:200]
            assert b'"timeout"' in stalled
        finally:
            try:
                client.shutdown()
            except ClientError:
                pass
            thread.join(30)


def _synthetic_pair(n_functions: int = 40) -> tuple[str, str]:
    """A moderately large before/after pair so pooled diffs take real
    work (a worker kill has something to land on)."""
    before = "".join(
        f"def fn_{i}(x):\n    y = x + {i}\n    return y * {i + 1}\n\n"
        for i in range(n_functions)
    )
    after = before.replace("def fn_7(", "def fn_7_renamed(").replace(
        "return y * 3\n", "return y * 3 + 1\n"
    )
    return before, after


def test_broken_pool_under_concurrent_requests_never_hangs_or_mixes():
    """Kill the pool's worker processes while >= 8 concurrent diffs are
    in flight: every request must come back either with the correct
    bytes *for its own pair* or as a structured unavailable error —
    never a hang, never another request's answer."""
    import os
    import signal

    big_b, big_a = _synthetic_pair()
    pairs = [
        (BEFORE, AFTER),
        (big_b, big_a),
        ("a = 1\n", "a = 2\n"),
        (big_a, big_b),
    ]
    inline = ReproService()
    expected = [
        inline.handle(
            "diff", {"before": {"source": b}, "after": {"source": a}}
        )["script_json"]
        for b, a in pairs
    ]
    inline.close()

    service = ReproService(workers=2, collector=TelemetryCollector())
    try:
        n = 12
        results: list = [None] * n

        def one(i: int) -> None:
            b, a = pairs[i % len(pairs)]
            try:
                results[i] = service.handle(
                    "diff", {"before": {"source": b}, "after": {"source": a}}
                )["script_json"]
            except ServiceError as exc:
                results[i] = exc

        threads = [threading.Thread(target=one, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        # kill every live worker out from under the in-flight requests
        for proc in list(
            getattr(service.pool._executor, "_processes", {}).values()
        ):
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except OSError:
                pass
        for t in threads:
            t.join(120)
        assert not any(t.is_alive() for t in threads), "requests hung"
        ok = unavailable = 0
        for i, r in enumerate(results):
            if isinstance(r, str):
                assert r == expected[i % len(pairs)], f"request {i} got mixed-up bytes"
                ok += 1
            else:
                assert isinstance(r, ServiceError)
                assert r.status == 503 and r.code == "unavailable"
                unavailable += 1
        assert ok + unavailable == n
        # the rebuilt pool serves correct answers again
        after_kill = service.handle(
            "diff", {"before": {"source": BEFORE}, "after": {"source": AFTER}}
        )["script_json"]
        assert after_kill == expected[0]
    finally:
        service.close()


# -- client retry semantics -------------------------------------------------


@pytest.fixture
def scripted_server():
    """A tiny HTTP server answering from a scripted list of
    ``(status, body, retry_after)`` tuples, recording every request."""
    import http.server
    import random

    script: list = []
    seen: list = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def _serve(self) -> None:
            length = int(self.headers.get("Content-Length") or 0)
            if length:
                self.rfile.read(length)
            seen.append((self.command, self.path))
            status, body, retry_after = (
                script.pop(0) if script else (200, b"{}", None)
            )
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if retry_after is not None:
                self.send_header("Retry-After", str(retry_after))
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        do_GET = do_POST = _serve

        def log_message(self, *args) -> None:  # keep pytest output clean
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def client(**kwargs) -> ServerClient:
        kwargs.setdefault("backoff_base_s", 0.001)
        kwargs.setdefault("rng", random.Random(0))
        return ServerClient(f"http://127.0.0.1:{server.server_port}", **kwargs)

    yield client, script, seen
    server.shutdown()
    server.server_close()
    thread.join(10)


UNAVAILABLE = (
    503,
    b'{"error": {"code": "unavailable", "message": "try later"}}',
    "0.001",
)


class TestClientRetries:
    def test_idempotent_request_retries_through_503(self, scripted_server):
        client, script, seen = scripted_server
        script += [UNAVAILABLE, UNAVAILABLE, (200, b'{"status": "ok"}', None)]
        out = client(retries=3).health()
        assert out == {"status": "ok"}
        assert len(seen) == 3  # two retried 503s, then success

    def test_retries_exhausted_raise_the_last_error(self, scripted_server):
        client, script, seen = scripted_server
        script += [UNAVAILABLE] * 3
        with pytest.raises(ClientError) as exc:
            client(retries=2).health()
        assert exc.value.status == 503 and exc.value.code == "unavailable"
        assert len(seen) == 3  # initial attempt + 2 retries

    def test_apply_is_never_retried(self, scripted_server):
        """Apply mutates the store: a 503 might have landed after the
        commit, so re-sending it is not safe. One request, period."""
        client, script, seen = scripted_server
        script += [UNAVAILABLE, (200, b'{"fingerprint": "x"}', None)]
        with pytest.raises(ClientError) as exc:
            client(retries=3).apply("f" * 64, "[]")
        assert exc.value.status == 503
        assert seen == [("POST", "/apply")]

    def test_non_retryable_status_fails_fast(self, scripted_server):
        client, script, seen = scripted_server
        script += [
            (404, b'{"error": {"code": "not_found", "message": "no"}}', None)
        ]
        with pytest.raises(ClientError) as exc:
            client(retries=3).health()
        assert exc.value.status == 404
        assert len(seen) == 1

    def test_connection_refused_is_status_zero(self):
        client = ServerClient(
            "http://127.0.0.1:9", retries=1, backoff_base_s=0.001, timeout_s=2
        )
        with pytest.raises(ClientError) as exc:
            client.health()
        assert exc.value.status == 0

    def test_backoff_is_capped_and_jittered(self):
        import random

        client = ServerClient(
            "http://127.0.0.1:9",
            backoff_base_s=0.1,
            backoff_max_s=0.4,
            rng=random.Random(7),
        )
        delays = [client._delay(attempt, None) for attempt in range(6)]
        # jitter keeps every delay within (0.5, 1.0] x the capped base
        assert all(d <= 0.4 for d in delays)
        assert all(d > 0.04 for d in delays)
        # Retry-After floors the delay but is itself capped
        assert client._delay(0, 30.0) <= 0.4


# -- stdio broken-pipe tolerance --------------------------------------------


class _FlakyStdout:
    """A stdout whose reader closed after the first response."""

    def __init__(self, fail_times: int = 1) -> None:
        self.fail_times = fail_times
        self.lines: list[str] = []

    def write(self, text: str) -> None:
        if self.fail_times > 0:
            self.fail_times -= 1
            raise BrokenPipeError(32, "Broken pipe")
        self.lines.append(text)

    def flush(self) -> None:
        pass


def test_stdio_broken_pipe_does_not_kill_the_session(capsys):
    stdin = io.StringIO(
        json.dumps({"id": 1, "op": "health"})
        + "\n"
        + json.dumps({"id": 2, "op": "health"})
        + "\n"
    )
    stdout = _FlakyStdout(fail_times=1)
    server = ReproStdioServer(ReproService(), stdin, stdout)
    asyncio.run(server.run())
    # one response was dropped and counted; the session kept serving
    assert server.broken_pipes == 1
    delivered = [json.loads(line) for line in stdout.lines]
    assert len(delivered) == 1 and delivered[0]["ok"]
    assert "dropped response" in capsys.readouterr().err
