"""Tests for the report-generation CLI."""

import pytest

from repro.analysis import cli as cli_mod
from repro.analysis.cli import RENDERERS, main


class TestCLI:
    def test_all_figures_registered(self):
        expected = {"table1", "table2", "sec4d"} | {
            f"fig{i}" for i in range(2, 15)
        }
        assert set(RENDERERS) == expected

    def test_writes_static_figures(self, tmp_path, capsys):
        rc = main(["table1", "table2", "fig5", "fig7", "fig8",
                   "--out", str(tmp_path)])
        assert rc == 0
        for name in ("table1", "table2", "fig5", "fig7", "fig8"):
            f = tmp_path / f"{name}.txt"
            assert f.exists()
            assert f.read_text().strip()

    def test_stdout_mode(self, capsys):
        rc = main(["fig7", "--stdout"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fig99", "--out", str(tmp_path)])

    def test_table1_contents(self, tmp_path):
        main(["table1", "--out", str(tmp_path)])
        text = (tmp_path / "table1.txt").read_text()
        assert "MOESI" in text and "3000 MHz" in text

    def test_static_render_writes_no_bench_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["fig7", "--out", str(tmp_path / "r")])
        assert not (tmp_path / "BENCH_runner.json").exists()

    def test_bad_jobs_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fig7", "--jobs", "0", "--out", str(tmp_path)])


class TestParallelCLI:
    """--jobs N and --jobs 1 produce byte-identical reports from a cold
    cache, and the runner's stats show one simulation per recipe."""

    @pytest.fixture(autouse=True)
    def small_world(self, tmp_path, monkeypatch):
        # Two benchmarks, tiny scale, private cache: seconds not minutes.
        from repro.analysis import experiments as ex

        monkeypatch.setattr(ex, "benchmark_names",
                            lambda: ["swaptions", "blackscholes"])
        monkeypatch.setattr(ex, "CORE_COUNTS", (2,))
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        monkeypatch.chdir(tmp_path)
        # Keep every runner the CLI builds, to read its stats.
        self.runners = []
        runners = self.runners

        class Recording(cli_mod.ExperimentRunner):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runners.append(self)

        monkeypatch.setattr(cli_mod, "ExperimentRunner", Recording)
        self.tmp = tmp_path

    def _render(self, jobs, tag):
        out = self.tmp / f"out_{tag}"
        rc = main(["fig3", "--scale", "tiny", "--jobs", str(jobs),
                   "--out", str(out)])
        assert rc == 0
        return (out / "fig3.txt").read_bytes()

    def test_jobs_determinism_and_bench_entries(self, monkeypatch):
        a = self._render(2, "j2")
        # Fresh cache for the serial run: a true cold re-render.
        monkeypatch.setenv("REPRO_CACHE", str(self.tmp / "cache1"))
        b = self._render(1, "j1")
        assert a == b  # byte-identical across worker counts
        assert [r.jobs for r in self.runners] == [2, 1]
        for r in self.runners:
            # Cold render: everything simulated once, then the figure
            # function's own plan pass re-finds it all warm in memory.
            assert r.stats["simulated"] > 0
            assert r.stats["planned"] >= r.stats["simulated"]
            assert r.stats["mem_hits"] >= r.stats["simulated"]
        # A cold render leaves no timing file behind.
        assert not list(self.tmp.glob("BENCH_*.json"))
