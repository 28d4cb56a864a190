"""The simcheck front end: SARIF document shape, baseline pruning,
malformed baselines and the ``all`` gate over the pass registry."""

from __future__ import annotations

import json

import pytest

from repro.simcheck.cli import main

from .test_simcheck_flow import (
    MIX_FINGERPRINT,
    SRC_REPRO,
    UNIT_MIX,
    run_cli,
    write_pkg,
)


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
        pkg = write_pkg(tmp_path, UNIT_MIX)
        bl = tmp_path / "bl.json"
        wrote = run_cli(
            "flow", str(pkg), "--baseline", str(bl), "--write-baseline"
        )
        assert wrote.returncode == 0, wrote.stderr
        data = json.loads(bl.read_text())
        live = [e["fingerprint"] for e in data["findings"]]
        assert live == [MIX_FINGERPRINT]
        data["findings"].append({
            "fingerprint": "UNIT001|gone.py|nothing|adds Joules to Tokens",
            "rule": "UNIT001",
            "example": "gone.py:1",
            "justification": "stale entry that must be pruned",
        })
        bl.write_text(json.dumps(data))

        pruned = run_cli(
            "flow", str(pkg), "--baseline", str(bl), "--prune-baseline"
        )
        assert pruned.returncode == 0, pruned.stdout + pruned.stderr
        assert "gone.py" in pruned.stdout
        after = json.loads(bl.read_text())
        kept = [e["fingerprint"] for e in after["findings"]]
        assert kept == live


class TestMalformedBaseline:
    """A broken baseline is a usage error (exit 2) naming the file and
    the entry, never a traceback — on every pass."""

    @pytest.mark.parametrize("findings, needle", [
        ([{"rule": "UNIT001", "justification": "no fingerprint"}],
         "findings[0]"),
        ([{"fingerprint": "UNIT001|a.py|f|x", "justification": "ok"},
          "not an object"], "findings[1]"),
        ({"fingerprint": "UNIT001|a.py|f|x"}, "'findings' must be a list"),
    ], ids=["no-fingerprint", "non-object", "findings-not-list"])
    @pytest.mark.parametrize("tool", ["lint", "flow", "purity"])
    def test_exits_2_naming_file_and_entry(
            self, tmp_path, capsys, tool, findings, needle):
        pkg = write_pkg(tmp_path, UNIT_MIX)
        bl = tmp_path / "broken-baseline.json"
        bl.write_text(json.dumps({"version": 1, "findings": findings}))
        assert main([tool, str(pkg), "--baseline", str(bl)]) == 2
        err = capsys.readouterr().err
        assert str(bl) in err and needle in err, err


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
