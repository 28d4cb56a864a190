"""simcheck purity pass: KEY/PURE rule fixtures, the KEY001 canary,
inline disables, the real-tree gate, CLI formats and the shared
baseline plumbing (including the lint subcommand's new flags)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.simcheck.purity import analyze_purity

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
SRC_REPRO = SRC / "repro"
PURITY_BASELINE = REPO / ".simcheck-purity-baseline.json"


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


def fingerprints(analysis):
    return {f.identity() for f in analysis.findings}


def rules(analysis):
    return {f.rule_id for f in analysis.findings}


# --------------------------------------------------------------------------- #
# fixtures                                                                    #
# --------------------------------------------------------------------------- #

CONFIG = (
    "from dataclasses import dataclass, field\n"
    "@dataclass(frozen=True)\n"
    "class PowerConfig:\n"
    "    budget: float = 1.0\n"
    "@dataclass(frozen=True)\n"
    "class SimConfig:\n"
    "    cores: int = 2\n"
    "    freq: float = 2.0\n"
    "    power: PowerConfig = field(default_factory=PowerConfig)\n"
)

ENGINE = (
    "from dataclasses import dataclass, field\n"
    "from typing import Dict\n"
    "@dataclass\n"
    "class Result:\n"
    "    cycles: int = 0\n"
    "    stats: Dict[str, float] = field(default_factory=dict)\n"
    "class Simulator:\n"
    "    def __init__(self, cfg):\n"
    "        self.cfg = cfg\n"
    "        self.cycles = 0\n"
    "    def run(self, max_cycles, seed):\n"
    "        self.cycles = max_cycles\n"
    "        return Result(cycles=self.cycles, stats={})\n"
)

RUNNER_HEAD = (
    "import hashlib\n"
    "from typing import NamedTuple, Optional\n"
    "from .config import SimConfig\n"
    "from .engine import Result, Simulator\n"
    "class Recipe(NamedTuple):\n"
    "    benchmark: str\n"
    "    cores: int\n"
    "    policy: str\n"
    "CACHE_VERSION = 3\n"
    "def _resolved_config(recipe):\n"
    "    return SimConfig(cores=recipe.cores)\n"
    "def config_digest(cfg):\n"
    "    return hashlib.sha256(repr(cfg).encode()).hexdigest()[:16]\n"
    "def _simulate(recipe, max_cycles, seed) -> Result:\n"
    "    cfg = _resolved_config(recipe)\n"
    "    sim = Simulator(cfg)\n"
    "    return sim.run(max_cycles, seed)\n"
    "def _worker(spec):\n"
    "    recipe, max_cycles, seed = spec\n"
    "    return _simulate(recipe, max_cycles, seed)\n"
)

GOOD_KEY = (
    "def _cache_key(recipe, max_cycles, seed):\n"
    "    return (CACHE_VERSION, recipe.benchmark, recipe.cores,\n"
    "            recipe.policy, max_cycles, seed,\n"
    "            config_digest(_resolved_config(recipe)))\n"
)

# The canary: recipe.policy and the config digest are deliberately
# missing from the key, so freq/power drift and policy changes alias.
CANARY_KEY = (
    "def _cache_key(recipe, max_cycles, seed):\n"
    "    return (CACHE_VERSION, recipe.benchmark, recipe.cores,\n"
    "            max_cycles, seed)\n"
)


def sound_pkg(tmp_path, runner_extra="", engine=ENGINE, key=GOOD_KEY):
    return write_pkg(tmp_path, {
        "config.py": CONFIG,
        "engine.py": engine,
        "runner.py": RUNNER_HEAD + key + runner_extra,
    })


# --------------------------------------------------------------------------- #
# discovery + KEY001                                                          #
# --------------------------------------------------------------------------- #


class TestDiscovery:
    def test_sound_fixture_is_clean(self, tmp_path):
        analysis = analyze_purity(sound_pkg(tmp_path))
        assert analysis.model is not None
        assert analysis.findings == []

    def test_model_identifies_the_cast(self, tmp_path):
        analysis = analyze_purity(sound_pkg(tmp_path))
        cache = analysis.report["cache"]
        assert cache["key_fn"] == "_cache_key"
        assert cache["recipe_class"] == "Recipe"
        assert cache["config_class"] == "SimConfig"
        assert cache["result_class"] == "Result"
        assert cache["workers"] == ["_worker", "_simulate"]

    def test_no_cache_module_reports_nothing_to_analyze(self, tmp_path):
        pkg = write_pkg(tmp_path, {"util.py": "def helper():\n    return 1\n"})
        analysis = analyze_purity(pkg)
        assert analysis.model is None
        assert any("no cache-key builder" in n for n in analysis.notes)


class TestKey001:
    def test_canary_missing_recipe_field_is_flagged(self, tmp_path):
        analysis = analyze_purity(sound_pkg(tmp_path, key=CANARY_KEY))
        assert "KEY001|recipe:policy" in fingerprints(analysis)

    def test_canary_missing_config_digest_is_flagged(self, tmp_path):
        analysis = analyze_purity(sound_pkg(tmp_path, key=CANARY_KEY))
        fps = fingerprints(analysis)
        # cores is covered via SimConfig(cores=recipe.cores); freq and
        # power.budget have no path into the key.
        assert "KEY001|config:freq" in fps
        assert "KEY001|config:power" in fps
        assert "KEY001|config:cores" not in fps

    def test_simulate_param_missing_from_key(self, tmp_path):
        key = (
            "def _cache_key(recipe, max_cycles):\n"
            "    return (CACHE_VERSION, recipe.benchmark, recipe.cores,\n"
            "            recipe.policy, max_cycles,\n"
            "            config_digest(_resolved_config(recipe)))\n"
        )
        analysis = analyze_purity(sound_pkg(tmp_path, key=key))
        assert "KEY001|param:seed" in fingerprints(analysis)

    def test_key_param_accepted_but_unused(self, tmp_path):
        key = (
            "def _cache_key(recipe, max_cycles, seed):\n"
            "    return (CACHE_VERSION, recipe.benchmark, recipe.cores,\n"
            "            recipe.policy, max_cycles,\n"
            "            config_digest(_resolved_config(recipe)))\n"
        )
        analysis = analyze_purity(sound_pkg(tmp_path, key=key))
        assert "KEY001|param:seed" in fingerprints(analysis)

    def test_whole_recipe_spread_covers_all_fields(self, tmp_path):
        key = (
            "def _cache_key(recipe, max_cycles, seed):\n"
            "    return (CACHE_VERSION, *recipe, max_cycles, seed,\n"
            "            config_digest(_resolved_config(recipe)))\n"
        )
        analysis = analyze_purity(sound_pkg(tmp_path, key=key))
        assert not {f for f in fingerprints(analysis)
                    if f.startswith("KEY001|recipe:")}


class TestKey002:
    def test_frozenset_component_is_flagged(self, tmp_path):
        key = (
            "def _cache_key(recipe, max_cycles, seed):\n"
            "    return (CACHE_VERSION, frozenset([recipe.benchmark,\n"
            "            recipe.policy]), recipe.cores, max_cycles, seed,\n"
            "            config_digest(_resolved_config(recipe)))\n"
        )
        analysis = analyze_purity(sound_pkg(tmp_path, key=key))
        assert "KEY002" in rules(analysis)

    def test_hash_component_is_flagged(self, tmp_path):
        key = (
            "def _cache_key(recipe, max_cycles, seed):\n"
            "    return (CACHE_VERSION, hash(recipe), max_cycles, seed,\n"
            "            config_digest(_resolved_config(recipe)))\n"
        )
        analysis = analyze_purity(sound_pkg(tmp_path, key=key))
        fps = fingerprints(analysis)
        assert "KEY002|_cache_key|hash" in fps

    def test_dataclass_repr_is_stable_no_finding(self, tmp_path):
        # A raw dataclass in the key tuple is repr()'d by the entry
        # hash; dataclass reprs are canonical, so no KEY002.
        key = (
            "def _cache_key(recipe, max_cycles, seed):\n"
            "    return (CACHE_VERSION, *recipe, max_cycles, seed,\n"
            "            _resolved_config(recipe))\n"
        )
        analysis = analyze_purity(sound_pkg(tmp_path, key=key))
        assert "KEY002" not in rules(analysis)


# --------------------------------------------------------------------------- #
# PURE001/PURE002 (worker reachability)                                       #
# --------------------------------------------------------------------------- #


class TestPure001:
    def test_global_container_mutation_in_engine(self, tmp_path):
        engine = ENGINE.replace(
            "        self.cycles = max_cycles\n",
            "        self.cycles = max_cycles\n"
            "        _SEEN.append(max_cycles)\n",
        ) + "_SEEN = []\n"
        analysis = analyze_purity(sound_pkg(tmp_path, engine=engine))
        fps = fingerprints(analysis)
        assert "PURE001|mutate:engine._SEEN|Simulator.run" in fps

    def test_global_rebind_is_flagged(self, tmp_path):
        extra = (
            "_LAST = None\n"
            "def _remember(result):\n"
            "    global _LAST\n"
            "    _LAST = result\n"
        )
        # Reached only when called from a worker-reachable function.
        runner = RUNNER_HEAD.replace(
            "    return _simulate(recipe, max_cycles, seed)\n",
            "    out = _simulate(recipe, max_cycles, seed)\n"
            "    _remember(out)\n"
            "    return out\n",
        )
        pkg = write_pkg(tmp_path, {
            "config.py": CONFIG,
            "engine.py": ENGINE,
            "runner.py": runner + GOOD_KEY + extra,
        })
        analysis = analyze_purity(pkg)
        assert "PURE001|rebind:runner._LAST|runner._remember" in \
            fingerprints(analysis)

    def test_unreachable_mutation_is_not_flagged(self, tmp_path):
        # The same mutation in a function nothing worker-reachable calls.
        extra = (
            "_SEEN = []\n"
            "def report_cli():\n"
            "    _SEEN.append(1)\n"
        )
        analysis = analyze_purity(sound_pkg(tmp_path, runner_extra=extra))
        assert "PURE001" not in rules(analysis)


class TestPure002:
    def test_env_read_through_constructor_and_method(self, tmp_path):
        # os.environ.get inside Simulator.run: only reachable because
        # the walker follows the Simulator(cfg) constructor.
        engine = ENGINE.replace(
            "        self.cycles = max_cycles\n",
            "        import os\n"
            "        if os.environ.get('PKG_DEBUG'):\n"
            "            max_cycles = 1\n"
            "        self.cycles = max_cycles\n",
        )
        analysis = analyze_purity(sound_pkg(tmp_path, engine=engine))
        assert "PURE002|env:PKG_DEBUG|Simulator.run" in fingerprints(analysis)

    def test_wall_clock_read_is_flagged(self, tmp_path):
        engine = ENGINE.replace(
            "        self.cycles = max_cycles\n",
            "        import time\n"
            "        self.started = time.time()\n"
            "        self.cycles = max_cycles\n",
        )
        analysis = analyze_purity(sound_pkg(tmp_path, engine=engine))
        assert "PURE002|clock:time.time|Simulator.run" in \
            fingerprints(analysis)

    def test_unseeded_random_is_flagged(self, tmp_path):
        engine = ENGINE.replace(
            "        self.cycles = max_cycles\n",
            "        import random\n"
            "        self.jitter = random.random()\n"
            "        self.cycles = max_cycles\n",
        )
        analysis = analyze_purity(sound_pkg(tmp_path, engine=engine))
        assert "PURE002|random:random.random|Simulator.run" in \
            fingerprints(analysis)

    def test_inline_disable_suppresses(self, tmp_path):
        engine = ENGINE.replace(
            "        self.cycles = max_cycles\n",
            "        import time\n"
            "        self.started = time.time()"
            "  # simcheck: disable=PURE002\n"
            "        self.cycles = max_cycles\n",
        )
        analysis = analyze_purity(sound_pkg(tmp_path, engine=engine))
        assert "PURE002" not in rules(analysis)


class TestMutatedGlobalRead:
    def test_read_of_runtime_mutated_global_is_key001(self, tmp_path):
        # _TUNING is mutated by (unreachable) CLI code and read on the
        # worker path: its value is worker-history state outside the key.
        extra = (
            "_TUNING = {}\n"
            "def set_tuning(k, v):\n"
            "    _TUNING[k] = v\n"
        )
        engine = ENGINE.replace(
            "        self.cycles = max_cycles\n",
            "        from .runner import _TUNING\n"
            "        self.cycles = max_cycles + len(_TUNING)\n",
        )
        runner = RUNNER_HEAD.replace(
            "    return _simulate(recipe, max_cycles, seed)\n",
            "    scale = _TUNING.get('scale', 1)\n"
            "    return _simulate(recipe, max_cycles * scale, seed)\n",
        )
        pkg = write_pkg(tmp_path, {
            "config.py": CONFIG,
            "engine.py": engine,
            "runner.py": runner + GOOD_KEY + extra,
        })
        analysis = analyze_purity(pkg)
        assert "KEY001|global:runner._TUNING|runner._worker" in \
            fingerprints(analysis)


# --------------------------------------------------------------------------- #
# PURE003 (payload stability)                                                 #
# --------------------------------------------------------------------------- #


class TestPure003:
    def test_set_field_in_result_is_flagged(self, tmp_path):
        engine = ENGINE.replace(
            "    stats: Dict[str, float] = field(default_factory=dict)\n",
            "    stats: Dict[str, float] = field(default_factory=dict)\n"
            "    visited: set = field(default_factory=set)\n",
        )
        analysis = analyze_purity(sound_pkg(tmp_path, engine=engine))
        assert "PURE003|Result.visited" in fingerprints(analysis)

    def test_nested_frozenset_in_typing_container(self, tmp_path):
        engine = ENGINE.replace(
            "from typing import Dict\n",
            "from typing import Dict, FrozenSet\n",
        ).replace(
            "    stats: Dict[str, float] = field(default_factory=dict)\n",
            "    stats: Dict[str, float] = field(default_factory=dict)\n"
            "    tags: Dict[str, FrozenSet[int]] = "
            "field(default_factory=dict)\n",
        )
        analysis = analyze_purity(sound_pkg(tmp_path, engine=engine))
        assert "PURE003|Result.tags" in fingerprints(analysis)

    def test_dict_and_list_fields_are_fine(self, tmp_path):
        analysis = analyze_purity(sound_pkg(tmp_path))
        assert "PURE003" not in rules(analysis)


# --------------------------------------------------------------------------- #
# the real tree                                                               #
# --------------------------------------------------------------------------- #


class TestRealTree:
    def test_runner_cache_is_discovered(self):
        analysis = analyze_purity(SRC_REPRO)
        cache = analysis.report["cache"]
        assert cache["module"] == "analysis/runner.py"
        assert cache["recipe_class"] == "Recipe"
        assert cache["config_class"] == "CMPConfig"
        assert cache["result_class"] == "SimResult"

    def test_key_covers_every_input(self):
        cov = analyze_purity(SRC_REPRO).report["key_coverage"]
        assert cov["recipe"]["missing"] == []
        assert cov["params"]["missing"] == []
        assert cov["config"]["missing"] == []
        assert cov["config"]["digest"] is True

    def test_every_finding_is_baselined_with_justification(self):
        analysis = analyze_purity(SRC_REPRO)
        baseline = json.loads(PURITY_BASELINE.read_text())
        justified = {
            e["fingerprint"]: e["justification"]
            for e in baseline["findings"]
        }
        for finding in analysis.findings:
            assert finding.identity() in justified, (
                f"unbaselined purity finding: {finding.render()}"
            )
        for fp, justification in justified.items():
            assert justification and "TODO" not in justification, (
                f"baseline entry {fp} lacks a real justification"
            )

    def test_no_stale_baseline_entries(self):
        analysis = analyze_purity(SRC_REPRO)
        fired = fingerprints(analysis)
        baseline = json.loads(PURITY_BASELINE.read_text())
        for entry in baseline["findings"]:
            assert entry["fingerprint"] in fired, (
                f"stale baseline entry: {entry['fingerprint']}"
            )

    def test_worker_walk_reaches_the_cycle_loop(self):
        """The walk from the workers follows ``CMPSimulator.run`` into
        ``FastEngine.run`` and on into what the loop steps and calls, so
        the PURE rules cover the code that computes results."""
        from repro.simcheck.flow.effects import EffectAnalyzer
        from repro.simcheck.flow.model import PackageIndex
        from repro.simcheck.purity import find_cache_model
        from repro.simcheck.purity.workers import _WorkerGraphBuilder

        index = PackageIndex.build(SRC_REPRO)
        model, _ = find_cache_model(index)
        builder = _WorkerGraphBuilder(index, EffectAnalyzer(index))
        builder.build([(model.module, fn) for fn in model.worker_fns])
        reached = set(builder.functions)
        assert {
            "FastEngine.run", "Core.step", "Core.idle_cycle",
            "EnergyModel.cycle_power", "ThermalModel._step",
            "PTBController.end_cycle", "SpinGatingPTBController.end_cycle",
            "LocalBudgetController.end_cycle", "SyncDomain.spinning_cores",
            "SanitizerSuite.on_cycle", "TelemetrySession.sample_cycle",
            "CMPSimulator._finish",
        } <= reached

    def test_no_unjustified_key001_on_real_tree(self):
        """Key-coverage gaps must be fixed, or consciously baselined.

        A KEY001 on the real tree either gets closed (like PR 6's
        config-digest fix) or carries a written justification proving
        the flagged state cannot affect results (like the runner's
        in-process lock registry, which is synchronization-only: which
        Lock object comes back decides who *waits*, never what any
        simulation computes)."""
        analysis = analyze_purity(SRC_REPRO)
        baseline = json.loads(PURITY_BASELINE.read_text())
        justified = {e["fingerprint"] for e in baseline["findings"]}
        unjustified = [
            f for f in analysis.findings
            if f.rule_id == "KEY001" and f.identity() not in justified
        ]
        assert not unjustified, [f.render() for f in unjustified]


# --------------------------------------------------------------------------- #
# CLI                                                                         #
# --------------------------------------------------------------------------- #


class TestCli:
    def test_gate_passes_with_baseline(self):
        proc = run_cli(
            "purity", "src/repro",
            "--baseline", ".simcheck-purity-baseline.json",
        )
        assert proc.returncode == 0, proc.stderr

    def test_gate_fails_without_baseline(self):
        proc = run_cli("purity", "src/repro")
        assert proc.returncode == 1
        assert "PURE002" in proc.stdout

    def test_json_format(self, tmp_path):
        pkg = sound_pkg(tmp_path, key=CANARY_KEY)
        proc = run_cli("purity", str(pkg), cwd=tmp_path)
        assert proc.returncode == 1
        proc = run_cli("purity", str(pkg), "--format", "json", cwd=tmp_path)
        doc = json.loads(proc.stdout)
        assert doc["tool"] == "purity"
        assert any(f["rule"] == "KEY001" for f in doc["findings"])

    def test_sarif_format(self, tmp_path):
        pkg = sound_pkg(tmp_path, key=CANARY_KEY)
        proc = run_cli("purity", str(pkg), "--format", "sarif", cwd=tmp_path)
        doc = json.loads(proc.stdout)
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "simcheck-purity"
        assert run["results"]

    def test_table_format_renders_coverage(self, tmp_path):
        pkg = sound_pkg(tmp_path)
        proc = run_cli("purity", str(pkg), "--format", "table", cwd=tmp_path)
        assert proc.returncode == 0
        assert "key coverage" in proc.stdout
        assert "worker purity" in proc.stdout

    def test_report_file(self, tmp_path):
        pkg = sound_pkg(tmp_path)
        out = tmp_path / "purity-report.json"
        proc = run_cli(
            "purity", str(pkg), "--report", str(out), cwd=tmp_path
        )
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["key_coverage"]["config"]["digest"] is True

    def test_write_then_gate_then_prune(self, tmp_path):
        pkg = sound_pkg(tmp_path, key=CANARY_KEY)
        baseline = tmp_path / "baseline.json"
        proc = run_cli(
            "purity", str(pkg), "--baseline", str(baseline),
            "--write-baseline", cwd=tmp_path,
        )
        assert proc.returncode == 0
        assert baseline.exists()
        proc = run_cli(
            "purity", str(pkg), "--baseline", str(baseline), cwd=tmp_path
        )
        assert proc.returncode == 0  # everything baselined
        # Fix the key: baselined KEY001 entries go stale, prune removes.
        (pkg / "runner.py").write_text(RUNNER_HEAD + GOOD_KEY)
        proc = run_cli(
            "purity", str(pkg), "--baseline", str(baseline),
            "--prune-baseline", cwd=tmp_path,
        )
        assert proc.returncode == 0
        assert json.loads(baseline.read_text())["findings"] == []

    def test_nothing_to_analyze_exits_2(self, tmp_path):
        pkg = write_pkg(tmp_path, {"util.py": "def f():\n    return 1\n"})
        proc = run_cli("purity", str(pkg), cwd=tmp_path)
        assert proc.returncode == 2
        assert "nothing to analyze" in proc.stderr


class TestLintBaselineFlags:
    """Satellite: lint gained the shared baseline surface."""

    SRC_BAD = "import time\n\ndef f():\n    return time.time()\n"

    def test_lint_write_and_gate(self, tmp_path):
        mod = tmp_path / "core" / "mod.py"
        mod.parent.mkdir()
        mod.write_text(self.SRC_BAD)
        baseline = tmp_path / "lint-baseline.json"
        proc = run_cli("lint", str(tmp_path), cwd=tmp_path)
        assert proc.returncode == 1
        proc = run_cli(
            "lint", str(tmp_path), "--baseline", str(baseline),
            "--write-baseline", cwd=tmp_path,
        )
        assert proc.returncode == 0
        proc = run_cli(
            "lint", str(tmp_path), "--baseline", str(baseline), cwd=tmp_path
        )
        assert proc.returncode == 0

    def test_lint_prune_baseline(self, tmp_path):
        mod = tmp_path / "core" / "mod.py"
        mod.parent.mkdir()
        mod.write_text(self.SRC_BAD)
        baseline = tmp_path / "lint-baseline.json"
        run_cli(
            "lint", str(tmp_path), "--baseline", str(baseline),
            "--write-baseline", cwd=tmp_path,
        )
        mod.write_text("def f():\n    return 0\n")
        proc = run_cli(
            "lint", str(tmp_path), "--baseline", str(baseline),
            "--prune-baseline", cwd=tmp_path,
        )
        assert proc.returncode == 0
        assert json.loads(baseline.read_text())["findings"] == []

    def test_prune_requires_baseline_flag(self):
        proc = run_cli("lint", "src/repro", "--prune-baseline")
        assert proc.returncode == 2
        assert "--baseline" in proc.stderr
