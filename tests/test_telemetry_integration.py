"""Telemetry integration: probes, exporters, and the observation-only
contract against real simulations.

The load-bearing guarantees:

* telemetry is pure observation — a telemetry-on run's ``SimResult``
  pickles byte-identically to a telemetry-off run of the same recipe;
* the event-bus aggregates close the loop — granted-token sums equal
  the PTB balancer's own delivery counter, and the per-phase AoPB
  breakdown sums to exactly the run's reported AoPB;
* the exported trace is loadable — it passes the Chrome ``trace_event``
  schema validator the CI gate uses.
"""

import json
import pickle

import pytest

from repro.analysis.runner import ExperimentRunner, Recipe
from repro.config import CMPConfig
from repro.sim.cmp import CMPSimulator
from repro.telemetry import (
    EventKind,
    TelemetrySession,
    build_chrome_trace,
    load_power_timeline,
    peak_power,
    telemetry_enabled,
    validate_chrome_trace,
    write_metrics_csv,
    write_metrics_json,
    write_power_timeline,
)
from repro.telemetry.cli import main as telemetry_main
from repro.telemetry.cli import pick_recipe, run_traced
from repro.telemetry.summary import phase_breakdown_table, summarize
from repro.workloads import build_program

from .conftest import make_program


@pytest.fixture(scope="module")
def traced():
    """One shared fig9-style PTB run with telemetry on."""
    recipe = pick_recipe("fig9")
    sim, result = run_traced(
        recipe.benchmark, recipe.cores, technique=recipe.technique,
        policy=recipe.policy, budget_fraction=recipe.budget_fraction,
        scale="tiny", max_cycles=120_000,
    )
    assert result.completed
    return sim, result


class TestEnableKnob:
    def test_default_off(self):
        cfg = CMPConfig(num_cores=2)
        assert not telemetry_enabled(cfg)
        sim = CMPSimulator(cfg, make_program(2, work=200, barriers=1))
        assert sim.telemetry is None

    def test_with_telemetry(self):
        cfg = CMPConfig(num_cores=2).with_telemetry()
        assert cfg.telemetry
        assert telemetry_enabled(cfg)
        sim = CMPSimulator(cfg, make_program(2, work=200, barriers=1))
        assert isinstance(sim.telemetry, TelemetrySession)

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        assert telemetry_enabled(CMPConfig(num_cores=2))
        monkeypatch.setenv("REPRO_TELEMETRY", "off")
        assert not telemetry_enabled(CMPConfig(num_cores=2))


class TestObservationOnly:
    def test_results_byte_identical(self):
        """Telemetry must never perturb the simulation it watches."""
        prog = build_program("ocean", 2, scale="tiny")
        runs = {}
        for on in (False, True):
            cfg = CMPConfig(num_cores=2, telemetry=on)
            sim = CMPSimulator(cfg, prog, technique="ptb",
                               budget_fraction=0.5, ptb_policy="toall")
            runs[on] = sim.run(100_000)
        assert pickle.dumps(runs[False]) == pickle.dumps(runs[True])


class TestControlPlaneEvents:
    """The actuator banks report to the session: a run at a quarter of
    peak power changes DVFS modes and engages throttles."""

    def test_low_budget_2level_emits_dvfs_and_throttle_events(self):
        prog = make_program(2, work=600, lock_ops=1)
        runs = {}
        for on in (False, True):
            cfg = CMPConfig(num_cores=2, telemetry=on)
            sim = CMPSimulator(cfg, prog, technique="2level",
                               budget_fraction=0.25)
            runs[on] = sim.run(40_000)
        assert pickle.dumps(runs[False]) == pickle.dumps(runs[True])
        session = sim.telemetry
        counts = session.bus.counts
        transitions = sim.controller.dvfs.transitions
        assert counts[EventKind.DVFS_MODE] == sum(transitions) > 0
        assert counts[EventKind.THROTTLE] > 0
        m = session.metrics.to_dict()
        assert m["dvfs.transitions"] == {
            f"core{i}": float(t) for i, t in enumerate(transitions)
        }
        assert sum(m["throttle.cycles"].values()) == runs[True].throttled_cycles
        first = next(session.bus.events(EventKind.DVFS_MODE))
        assert first.detail == f"0->{int(first.value)}"


class TestAggregateInvariants:
    def test_grant_sum_matches_balancer(self, traced):
        sim, _ = traced
        session = sim.telemetry
        balancer = sim.controller.balancer
        assert session.tokens_granted == balancer.granted_total
        assert session.bus.value_sums[EventKind.TOKEN_GRANT] == float(
            balancer.granted_total)
        assert sum(session.granted_by_phase) == session.tokens_granted

    def test_aopb_phases_sum_to_total(self, traced):
        sim, result = traced
        session = sim.telemetry
        # Bitwise equality: the session accrues the same additions in
        # the same order as the simulator's own AoPB accumulator.
        assert session.aopb_total == result.aopb_energy
        assert sum(session.aopb_by_phase) == pytest.approx(
            session.aopb_total)

    def test_counters_populated(self, traced):
        sim, result = traced
        m = sim.telemetry.metrics.to_dict()
        assert m["run.cycles"]["all"] == float(result.cycles)
        assert m["noc.messages"]["all"] > 0
        assert "coherence.latency" in m


class TestTraceExport:
    def test_trace_passes_schema(self, traced):
        sim, _ = traced
        trace = build_chrome_trace(sim.telemetry)
        assert validate_chrome_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"]}
        assert "token.grant" in names
        assert "total power (W)" in names

    def test_per_core_and_balancer_tracks(self, traced):
        sim, _ = traced
        trace = build_chrome_trace(sim.telemetry)
        threads = {e["tid"]: e["args"]["name"]
                   for e in trace["traceEvents"]
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        n = sim.telemetry.num_cores
        assert set(threads) == set(range(n + 1))
        assert threads[n] == "PTB balancer"

    def test_validator_flags_bad_traces(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": 3}) != []
        bad_ph = {"traceEvents": [
            {"name": "x", "ph": "Z", "pid": 0, "tid": 0, "ts": 0}]}
        assert any("unknown ph" in p for p in
                   validate_chrome_trace(bad_ph))
        dangling = {"traceEvents": [
            {"name": "x", "ph": "B", "pid": 0, "tid": 0, "ts": 0}]}
        assert any("unbalanced" in p for p in
                   validate_chrome_trace(dangling))
        orphan_end = {"traceEvents": [
            {"name": "x", "ph": "E", "pid": 0, "tid": 0, "ts": 1}]}
        assert any("without matching B" in p for p in
                   validate_chrome_trace(orphan_end))

    def test_metrics_and_timeline_files(self, traced, tmp_path):
        sim, _ = traced
        session = sim.telemetry
        doc = write_metrics_json(session, str(tmp_path / "m.json"))
        assert doc["tokens_granted"] == session.tokens_granted
        assert json.loads((tmp_path / "m.json").read_text()) == doc
        write_metrics_csv(session.metrics, str(tmp_path / "m.csv"))
        header = (tmp_path / "m.csv").read_text().splitlines()[0]
        assert header == "name,core,type,field,value"
        rows = write_power_timeline(session, str(tmp_path / "p.ndjson"))
        loaded = load_power_timeline(str(tmp_path / "p.ndjson"))
        assert len(loaded) == rows == len(session.timeline)
        assert peak_power(loaded) > 0

    def test_summary_renders(self, traced):
        sim, result = traced
        text = summarize(sim.telemetry, result)
        assert "AoPB" in text
        assert "busy" in phase_breakdown_table(sim.telemetry)


class TestTruncation:
    def test_truncated_flag_and_event(self):
        cfg = CMPConfig(num_cores=2).with_telemetry()
        prog = make_program(2, work=100_000, barriers=1)
        sim = CMPSimulator(cfg, prog)
        with pytest.warns(RuntimeWarning, match="truncated at max_cycles"):
            r = sim.run(400)
        assert r.truncated
        session = sim.telemetry
        assert session.truncated
        assert session.bus.counts[EventKind.TRUNCATED] == 1
        assert any(e["name"] == "TRUNCATED"
                   for e in build_chrome_trace(session)["traceEvents"])

    def test_old_pickles_backfill_truncated(self, tmp_path):
        """Cache entries from before the field deserialize cleanly."""
        r = ExperimentRunner(cache_dir=tmp_path, scale="tiny",
                             max_cycles=30_000).run("swaptions", 2)
        state = dict(r.__dict__)
        state.pop("truncated")
        stale = pickle.loads(pickle.dumps(r))
        stale.__dict__.clear()
        stale.__setstate__(state)
        assert stale.truncated == (not r.completed)

    def test_truncated_of_reports_memoised_runs(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path, scale="tiny",
                                  max_cycles=600)
        recipe = Recipe("ocean", 2)
        with pytest.warns(RuntimeWarning, match="truncated"):
            runner.run_many([recipe])
        assert runner.truncated_of([recipe]) == [recipe]
        # Memo-only: asking doesn't simulate or touch the stats.
        stats = dict(runner.stats)
        runner.truncated_of([recipe, Recipe("fft", 2)])
        assert runner.stats == stats


class TestCLI:
    def test_run_and_validate(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        rc = telemetry_main([
            "run", "--figure", "fig9", "--scale", "tiny",
            "--max-cycles", "120000", "--out", str(out),
            "--metrics", str(metrics), "--quiet",
        ])
        assert rc == 0
        assert validate_chrome_trace(json.loads(out.read_text())) == []
        assert json.loads(metrics.read_text())["tokens_granted"] > 0
        assert telemetry_main(["validate", str(out)]) == 0
        capsys.readouterr()

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"traceEvents\": [{\"ph\": \"Z\"}]}")
        assert telemetry_main(["validate", str(bad)]) == 1
        capsys.readouterr()
