"""Tests for the one campaign runner (``python -m repro.campaign``): its
exit and report conventions, the lint and smoke suites at their CI seeds,
gates that still fail through the runner, and the chaos suite's daemon
cleanup.  The fault and race suites run in ``test_robustness_faults.py``
and ``test_race.py``; chaos runs whole only in CI."""

from __future__ import annotations

import json
import os
import sys
import types
from pathlib import Path

import pytest

from repro import campaign
from repro.core import EditScript


def _report(out, suite):
    lines = (out / f"{suite}.jsonl").read_text("utf8").splitlines()
    return [json.loads(line) for line in lines]


@pytest.fixture
def fake_suite(monkeypatch):
    """Register a suite named ``fake`` whose checks are the given rows
    (an exception instance is raised in its place)."""

    def install(*rows):
        def checks(seed, workdir):
            for row in rows:
                if isinstance(row, Exception):
                    raise row
                yield dict(row)

        module = types.ModuleType("fake_suite")
        module.checks = checks
        monkeypatch.setitem(sys.modules, "fake_suite", module)
        monkeypatch.setitem(campaign.SUITES, "fake", "fake_suite")

    return install


class TestRunner:
    def test_unknown_suite_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            campaign.main(["nope", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_held_checks_exit_zero(self, fake_suite, tmp_path):
        fake_suite({"check": "a", "problems": [], "n": 1})
        assert campaign.main(["fake", "--seed", "7", "--out", str(tmp_path)]) == 0
        row, last = _report(tmp_path, "fake")
        assert row == {"check": "a", "problems": [], "n": 1}
        assert last["summary"]["seed"] == 7 and last["summary"]["ok"] is True
        assert not (tmp_path / "fake.sarif").exists()

    def test_problem_row_exits_one(self, fake_suite, tmp_path, capsys):
        fake_suite(
            {"check": "a", "problems": []},
            {"check": "b", "case": 3, "problems": ["broke"]},
        )
        assert campaign.main(["fake", "--out", str(tmp_path)]) == 1
        *_, last = _report(tmp_path, "fake")
        assert last["summary"]["failed"] == 1 and last["summary"]["ok"] is False
        assert "b case 3: broke" in capsys.readouterr().err

    def test_raising_check_becomes_problem_row(self, fake_suite, tmp_path):
        fake_suite({"check": "a", "problems": []}, ValueError("boom"), {"check": "c"})
        assert campaign.main(["fake", "--out", str(tmp_path)]) == 1
        first, crashed, last = _report(tmp_path, "fake")
        assert crashed["check"] == "crashed"
        assert crashed["problems"] == ["ValueError: boom"]
        assert "raise row" in crashed["traceback"]
        assert last["summary"]["checks"] == 2

    def test_suite_without_checks_fails(self, fake_suite, tmp_path):
        fake_suite()
        assert campaign.main(["fake", "--out", str(tmp_path)]) == 1


class TestLintSuite:
    def test_ci_seed_holds_every_gate(self, tmp_path):
        assert campaign.main(["lint", "--seed", "20260806", "--out", str(tmp_path)]) == 0
        rows = _report(tmp_path, "lint")
        coverage = next(r for r in rows if r.get("check") == "coverage")
        assert all(coverage["flagged"].values())
        assert sum(r.get("check") == "valid" for r in rows) == 8
        log = json.loads((tmp_path / "lint.sarif").read_text("utf8"))
        assert log["version"] == "2.1.0" and log["runs"][0]["results"]

    def test_blind_linter_fails_through_the_runner(self, tmp_path, monkeypatch):
        from repro.analysis import campaign as lint_suite

        real = lint_suite.lint_script
        monkeypatch.setattr(
            lint_suite, "lint_script",
            lambda script, sigs, uri: real(EditScript([]), sigs, uri=uri),
        )
        monkeypatch.setattr(lint_suite, "CASES", 1)
        assert campaign.main(["lint", "--seed", "20260806", "--out", str(tmp_path)]) == 1
        coverage = next(
            r for r in _report(tmp_path, "lint") if r.get("check") == "coverage"
        )
        assert len(coverage["problems"]) == 6


class TestRaceSuite:
    def test_blind_analysis_is_convicted_by_the_oracle(self, tmp_path, monkeypatch):
        """Calling every raw pair independent must produce false
        independents: the differential oracle still fails the run."""
        from repro.analysis.race import campaign as race_suite

        real = race_suite.schedule

        def blind(scripts, **kwargs):
            sch = real(scripts, **kwargs)
            if not kwargs.get("assume_renamed"):
                sch.conflicts = []
            return sch

        monkeypatch.setattr(race_suite, "schedule", blind)
        monkeypatch.setattr(race_suite, "CASES", 2)
        assert campaign.main(["race", "--seed", "20260808", "--out", str(tmp_path)]) == 1
        rows = _report(tmp_path, "race")
        assert any(
            r["check"] == "independence" and r["problems"] for r in rows[:-1]
        )


class TestSmokeSuite:
    def test_all_gates_pass_on_both_stores(self, tmp_path, monkeypatch):
        monkeypatch.chdir(Path(__file__).resolve().parents[1])  # as CI runs it
        assert campaign.main(["smoke", "--out", str(tmp_path)]) == 0
        rows = _report(tmp_path, "smoke")[:-1]
        assert [(r["store"], r["check"]) for r in rows] == [
            (store, gate)
            for store in ("memory", "durable")
            for gate in (
                "byte_identity", "parse_once", "concurrency",
                "observability", "apply_batch", "shutdown",
            )
        ]


class TestChaosCleanup:
    @pytest.mark.parametrize("scenario", ["kill9_mid_apply", "torn_tail", "flip_byte"])
    def test_failed_request_leaves_no_daemon_alive(self, scenario, tmp_path, monkeypatch):
        """A request failing in a scenario's first phase must not leak
        the daemon (or its pool workers) that phase started."""
        from repro.server import chaos, smoke
        from repro.server.client import ClientError, ServerClient

        started = []
        real_init = smoke.Daemon.__init__

        def recording_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            started.append(self)

        def refuse(self, *args, **kwargs):
            raise ClientError(503, "injected", "unavailable")

        monkeypatch.setattr(smoke.Daemon, "__init__", recording_init)
        monkeypatch.setattr(ServerClient, "put_tree", refuse)
        with pytest.raises(ClientError):
            chaos.SCENARIOS[scenario](20260808, tmp_path)
        assert started
        try:
            for daemon in started:
                assert daemon.proc.poll() is not None
                with pytest.raises(ProcessLookupError):
                    os.killpg(daemon.proc.pid, 0)
        finally:
            for daemon in started:  # a failing run must not leak either
                daemon.sigkill()
