"""The simcheck front end: SARIF document shape, baseline pruning and
the ``all`` gate over the pass registry."""

from __future__ import annotations

import json

from .test_simcheck_flow import HAZARD_SIM, SRC_REPRO, run_cli, write_pkg


class TestSarif:
    def _check_doc(self, text, tool):
        doc = json.loads(text)
        assert doc["version"] == "2.1.0"
        assert "sarif" in doc["$schema"]
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == f"simcheck-{tool}"
        for res in run["results"]:
            assert res["ruleId"]
            assert res["locations"][0]["physicalLocation"]["region"][
                "startLine"] >= 1
            assert "simcheck/v1" in res["partialFingerprints"]
        return run["results"]

    def test_lint_sarif(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import random\n"
            "def roll():\n"
            "    return random.random()\n"
        )
        res = run_cli("lint", str(bad), "--format", "sarif")
        self._check_doc(res.stdout, "lint")


class TestPruneBaseline:
    def test_prunes_stale_keeps_live(self, tmp_path):
        pkg = write_pkg(tmp_path, HAZARD_SIM)
        bl = tmp_path / "bl.json"
        wrote = run_cli(
            "flow", str(pkg), "--baseline", str(bl), "--write-baseline"
        )
        assert wrote.returncode == 0, wrote.stderr
        data = json.loads(bl.read_text())
        live = [e["fingerprint"] for e in data["findings"]]
        assert live
        data["findings"].append({
            "fingerprint": "FLOW001|gone.py|no.such.finding",
            "rule": "FLOW001",
            "example": "gone.py:1",
            "justification": "stale entry that must be pruned",
        })
        bl.write_text(json.dumps(data))

        pruned = run_cli(
            "flow", str(pkg), "--baseline", str(bl), "--prune-baseline"
        )
        assert pruned.returncode == 0, pruned.stdout + pruned.stderr
        after = json.loads(bl.read_text())
        kept = [e["fingerprint"] for e in after["findings"]]
        assert kept == live


class TestCLI:
    def test_all_combined_gate(self, tmp_path):
        reports = tmp_path / "reports"
        res = run_cli("all", str(SRC_REPRO), "--reports-dir", str(reports))
        assert res.returncode == 0, res.stdout + res.stderr
        assert "CLEAN" in res.stderr
        assert sorted(p.name for p in reports.iterdir()) == [
            "purity-report.json", "simcheck.sarif",
        ]
        sarif = json.loads((reports / "simcheck.sarif").read_text())
        names = [r["tool"]["driver"]["name"] for r in sarif["runs"]]
        assert names == ["simcheck-lint", "simcheck-flow", "simcheck-purity"]
