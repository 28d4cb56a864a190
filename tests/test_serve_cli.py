"""The ``python -m repro.serve`` front end.

The smoke verb doubles as the CI gate, so its exit-code contract is
load-bearing: 0 only when coalescing, cache and byte-identity checks
all hold.  The bench verb must leave a provenance-stamped entry in the
same shape family as ``BENCH_runner.json``.
"""

import json

import pytest

from repro.serve.backends import make_backend
from repro.serve.cli import _parse_addr, build_parser, main


class TestParser:
    def test_verb_required(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.backend == "process" and args.port == 0

    def test_unknown_backend_names_the_available_ones(self):
        with pytest.raises(ValueError, match="'process', 'thread'"):
            make_backend("remote", 1)

    def test_submit_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit"])

    def test_parse_addr_forms(self):
        assert _parse_addr("/tmp/x.sock") == "/tmp/x.sock"
        assert _parse_addr("./rel/serve.sock") == "./rel/serve.sock"
        assert _parse_addr("localhost:9001") == ("localhost", 9001)

    def test_bad_recipe_json_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="bad --recipe"):
            main(["submit", "--connect", str(tmp_path / "s.sock"),
                  "--recipe", "{nope"])

    def test_nothing_to_submit_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="nothing to submit"):
            main(["submit", "--connect", str(tmp_path / "s.sock")])


class TestSmoke:
    def test_smoke_passes_and_writes_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        rc = main(["smoke", "--cache-dir", str(tmp_path / "cache"),
                   "--trace", str(trace)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "SMOKE PASS" in out
        assert len(list((tmp_path / "cache").glob("run_*.pkl"))) == 1
        assert trace.is_file()
        from repro.telemetry.export import validate_chrome_trace
        validate_chrome_trace(json.loads(trace.read_text()))


class TestBench:
    def test_bench_emits_provenance_stamped_entry(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_serve.json"
        rc = main(["bench", "--clients", "2", "--recipes", "2",
                   "--bench-out", str(out_path)])
        assert rc == 0
        doc = json.loads(out_path.read_text())
        (entry,) = doc["entries"]
        assert entry["kind"] == "serve"
        assert entry["schema_version"] >= 2
        assert isinstance(entry["git_sha"], str)
        assert entry["clients"] == 2 and entry["recipes_per_client"] == 2
        # 2 clients x 2 recipes = 4 cold submissions, 2 distinct jobs:
        # the rest were coalesced or cache-served, never re-simulated.
        assert entry["simulated_jobs"] == 2
        assert entry["coalesced_jobs"] + entry["cache_hits"] >= 2
        assert entry["cold"]["wall_seconds"] > 0
        assert entry["warm"]["wall_seconds"] >= 0
        # Readable by the shared loader (same normalisation family).
        from repro.analysis.cli import load_bench
        records = load_bench(out_path)
        assert records and records[0]["git_sha"] == entry["git_sha"]
