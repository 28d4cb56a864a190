"""simcheck flow: unit propagation, baseline round-trip, and the CLI
gate over the real tree."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.simcheck.flow import (
    analyze_package,
    apply_baseline,
    load_baseline,
    write_baseline,
)

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
SRC_REPRO = SRC / "repro"


def write_pkg(root: Path, files: dict) -> Path:
    """Materialise a fixture package under ``root / 'pkg'``."""
    pkg = root / "pkg"
    for rel, source in files.items():
        path = pkg / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    for sub in {p.parent for p in pkg.rglob("*.py")} | {pkg}:
        init = sub / "__init__.py"
        if not init.exists():
            init.write_text("")
    return pkg


def run_cli(*argv, cwd=REPO):
    return subprocess.run(
        [sys.executable, "-m", "repro.simcheck", *argv],
        capture_output=True, text=True, cwd=cwd,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )


# --------------------------------------------------------------------------- #
# fixtures                                                                    #
# --------------------------------------------------------------------------- #

UNIT_MIX = {
    "units.py": (
        "Tokens = float\n"
        "Joules = float\n"
        "Watts = float\n"
        "Cycles = float\n"
        "Hertz = float\n"
    ),
    "acct.py": (
        "from .units import Joules, Tokens\n"
        "def charge(tokens: Tokens, energy: Joules) -> Tokens:\n"
        "    return tokens + energy\n"
    ),
}

#: The one finding UNIT_MIX yields.
MIX_FINGERPRINT = "UNIT001|acct.py|charge|adds Joules to Tokens"

UNIT_CLEAN = {
    "units.py": UNIT_MIX["units.py"],
    "acct.py": (
        "from .units import Joules, Tokens\n"
        "def exchange(energy: Joules) -> Tokens:\n"
        "    return energy * 0.5\n"
        "def charge(tokens: Tokens, energy: Joules) -> Tokens:\n"
        "    return tokens + exchange(energy)\n"
    ),
}


# --------------------------------------------------------------------------- #
# unit propagation                                                            #
# --------------------------------------------------------------------------- #


class TestUnits:
    def test_seeded_mix_detected(self, tmp_path):
        pkg = write_pkg(tmp_path, UNIT_MIX)
        findings, _ = analyze_package(pkg)
        unit = [f for f in findings if f.rule_id == "UNIT001"]
        assert unit, [f.render() for f in findings]
        assert "Joules" in unit[0].message and "Tokens" in unit[0].message
        assert unit[0].path.endswith("acct.py")

    def test_fingerprint_is_line_independent(self, tmp_path):
        pkg = write_pkg(tmp_path, UNIT_MIX)
        (before,) = analyze_package(pkg)[0]
        # Shift every line in acct.py down; identity must not change.
        mod = pkg / "acct.py"
        mod.write_text("# moved\n# moved\n" + mod.read_text())
        (after,) = analyze_package(pkg)[0]
        assert after.line == before.line + 2
        assert after.identity() == before.identity() == MIX_FINGERPRINT

    def test_explicit_exchange_is_clean(self, tmp_path):
        pkg = write_pkg(tmp_path, UNIT_CLEAN)
        findings, _ = analyze_package(pkg)
        assert findings == [], [f.render() for f in findings]

    def test_inline_disable_suppresses(self, tmp_path):
        files = dict(UNIT_MIX)
        files["acct.py"] = files["acct.py"].replace(
            "return tokens + energy",
            "return tokens + energy  # simcheck: disable=UNIT001 - test",
        )
        pkg = write_pkg(tmp_path, files)
        findings, _ = analyze_package(pkg)
        assert findings == [], [f.render() for f in findings]

    def test_return_annotation_mismatch(self, tmp_path):
        files = dict(UNIT_MIX)
        files["acct.py"] = (
            "from .units import Joules, Watts\n"
            "def leakage(temp_scale: float, base: Joules) -> Watts:\n"
            "    return base * temp_scale\n"
            "def bad(base: Joules) -> Watts:\n"
            "    return base\n"
        )
        pkg = write_pkg(tmp_path, files)
        findings, _ = analyze_package(pkg)
        # Mult launders the unit (a declared exchange); the bare return
        # of Joules from a Watts-annotated function does not.
        assert [f.rule_id for f in findings] == ["UNIT004"]
        assert "bad" in findings[0].message


# --------------------------------------------------------------------------- #
# baseline round-trip                                                         #
# --------------------------------------------------------------------------- #


class TestBaseline:
    def test_write_then_suppress_round_trip(self, tmp_path):
        pkg = write_pkg(tmp_path, UNIT_MIX)
        findings, _ = analyze_package(pkg)
        assert [f.identity() for f in findings] == [MIX_FINGERPRINT]
        path = tmp_path / "baseline.json"
        count = write_baseline(path, findings, {})
        assert count == 1

        baseline = load_baseline(path)
        new, suppressed, stale = apply_baseline(findings, baseline)
        assert new == [] and stale == []
        assert suppressed == findings

    def test_new_violation_still_fails(self, tmp_path):
        pkg = write_pkg(tmp_path, UNIT_MIX)
        findings, _ = analyze_package(pkg)
        path = tmp_path / "baseline.json"
        write_baseline(path, findings, {})
        # Introduce a *new* mix: raw cycles subtracted from tokens.
        mod = pkg / "acct.py"
        mod.write_text(
            mod.read_text().replace("import Joules", "import Cycles, Joules")
            + "def refund(tokens: Tokens, cycles: Cycles) -> Tokens:\n"
              "    return tokens - cycles\n"
        )
        findings2, _ = analyze_package(pkg)
        new, suppressed, stale = apply_baseline(findings2, load_baseline(path))
        assert [f.identity() for f in new] == [
            "UNIT001|acct.py|refund|subtracts Cycles to Tokens"
        ]
        assert [f.identity() for f in suppressed] == [MIX_FINGERPRINT]
        assert stale == []

    def test_stale_entries_reported(self, tmp_path):
        pkg = write_pkg(tmp_path, UNIT_MIX)
        findings, _ = analyze_package(pkg)
        path = tmp_path / "baseline.json"
        write_baseline(path, findings, {})
        # Fix the mix (convert through an exchange function); the
        # baselined fingerprint becomes stale.
        (pkg / "acct.py").write_text(UNIT_CLEAN["acct.py"])
        findings2, _ = analyze_package(pkg)
        new, suppressed, stale = apply_baseline(
            findings2, load_baseline(path)
        )
        assert new == [] and suppressed == []
        assert stale == [MIX_FINGERPRINT]

    def test_justifications_survive_rewrite(self, tmp_path):
        pkg = write_pkg(tmp_path, UNIT_MIX)
        findings, _ = analyze_package(pkg)
        path = tmp_path / "baseline.json"
        write_baseline(path, findings, {})
        old = load_baseline(path)
        assert list(old) == [MIX_FINGERPRINT]
        old[MIX_FINGERPRINT] = "documented exchange rate of 1"
        write_baseline(path, findings, old)
        assert load_baseline(path)[MIX_FINGERPRINT] == \
            "documented exchange rate of 1"

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError):
            load_baseline(path)


# --------------------------------------------------------------------------- #
# CLI                                                                         #
# --------------------------------------------------------------------------- #


class TestCLI:
    def test_flow_json_format(self, tmp_path):
        pkg = write_pkg(tmp_path, UNIT_MIX)
        proc = run_cli("flow", str(pkg), "--format", "json")
        assert proc.returncode == 1, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["tool"] == "flow"
        assert doc["count"] == len(doc["findings"]) == 1
        (f,) = doc["findings"]
        assert set(f) == {
            "path", "line", "col", "rule", "message", "fingerprint"
        }
        assert f["rule"] == "UNIT001"
        assert f["fingerprint"] == MIX_FINGERPRINT

    def test_flow_baseline_gate(self, tmp_path):
        pkg = write_pkg(tmp_path, UNIT_MIX)
        path = tmp_path / "baseline.json"
        proc = run_cli(
            "flow", str(pkg), "--baseline", str(path), "--write-baseline"
        )
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("flow", str(pkg), "--baseline", str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "suppressed" in proc.stderr

    def test_lint_json_format(self, tmp_path):
        bad = tmp_path / "core" / "mod.py"
        bad.parent.mkdir()
        bad.write_text(
            "import random\n"
            "def step(now):\n"
            "    return random.random()\n"
        )
        proc = run_cli("lint", str(bad), "--format", "json")
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["tool"] == "lint"
        assert doc["count"] >= 1
        assert all("fingerprint" in f for f in doc["findings"])


# --------------------------------------------------------------------------- #
# the real tree                                                               #
# --------------------------------------------------------------------------- #


class TestRealTree:
    def test_src_repro_is_clean_against_baseline(self):
        """The tree needs no flow baseline: zero findings, none accepted."""
        findings, notes = analyze_package(SRC_REPRO)
        assert findings == [], [f.render() for f in findings]
        assert any("indexed" in n for n in notes), notes
        proc = run_cli("flow", str(SRC_REPRO))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout == ""

    def test_baseline_entries_are_justified(self):
        """Every default baseline the ``all`` gate loads is justified."""
        from repro.simcheck.cli import PASSES

        for p in PASSES.values():
            path = REPO / p.baseline
            for fp, why in load_baseline(path).items():
                assert why and "TODO" not in why, (p.name, fp)

    def test_units_module_is_zero_cost(self):
        from repro.units import Cycles, Joules, Tokens, Watts

        assert Tokens is float and Joules is float
        assert Watts is float and Cycles is float
