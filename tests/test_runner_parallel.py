"""The parallel experiment runner: plan/fan-out/gather + cache safety.

Covers the three-stage machine (plan dedupes against memory and disk,
cold recipes fan out over worker processes, gather is deterministic)
and the concurrency/crash protocol of the disk cache: atomic publish,
per-entry advisory locking, corrupt-entry quarantine.
"""

import os
import pickle
import warnings

import pytest

from repro.analysis.runner import (
    ExperimentRunner,
    Recipe,
    _entry_lock,
    _load_entry,
    _store_entry,
    default_jobs,
)

TINY = dict(scale="tiny", max_cycles=30_000)


class TestPlan:
    def test_dedupes_duplicates(self, tmp_path):
        r = ExperimentRunner(cache_dir=tmp_path, **TINY)
        cold = r.plan([Recipe("swaptions", 2)] * 5 + [Recipe("ocean", 2)])
        assert cold == [Recipe("swaptions", 2), Recipe("ocean", 2)]
        assert r.stats["planned"] == 2

    def test_dedupes_against_memory(self, tmp_path):
        r = ExperimentRunner(cache_dir=tmp_path, **TINY)
        r.run("swaptions", 2)
        cold = r.plan([Recipe("swaptions", 2), Recipe("swaptions", 2, "dvfs")])
        assert cold == [Recipe("swaptions", 2, "dvfs")]
        assert r.stats["mem_hits"] == 1

    def test_dedupes_against_disk(self, tmp_path):
        r1 = ExperimentRunner(cache_dir=tmp_path, **TINY)
        r1.run("swaptions", 2)
        r2 = ExperimentRunner(cache_dir=tmp_path, **TINY)
        cold = r2.plan([Recipe("swaptions", 2)])
        assert cold == []
        assert r2.stats["disk_hits"] == 1
        # The disk hit is now a free in-memory run.
        assert r2.run("swaptions", 2).cycles == r1.run("swaptions", 2).cycles

    def test_lookup_counts_memo_hits(self, tmp_path):
        r = ExperimentRunner(cache_dir=tmp_path, **TINY)
        r.run("swaptions", 2)
        before = dict(r.stats)
        assert r.lookup(Recipe("swaptions", 2)) is not None
        assert r.stats == {**before, "mem_hits": before["mem_hits"] + 1}
        # A miss still changes no stat.
        assert r.lookup(Recipe("ocean", 2)) is None
        assert r.stats == {**before, "mem_hits": before["mem_hits"] + 1}

    def test_no_cache_everything_cold(self, tmp_path):
        r1 = ExperimentRunner(cache_dir=tmp_path, **TINY)
        r1.run("swaptions", 2)
        r2 = ExperimentRunner(cache_dir=tmp_path, use_cache=False, **TINY)
        assert r2.plan([Recipe("swaptions", 2)]) == [Recipe("swaptions", 2)]


class TestRunMany:
    RECIPES = [
        Recipe("swaptions", 2),
        Recipe("swaptions", 2, "dvfs"),
        Recipe("swaptions", 2),  # duplicate of [0]
        Recipe("ocean", 2, "ptb", "toall"),
    ]

    def test_gather_order_matches_input(self, tmp_path):
        r = ExperimentRunner(cache_dir=tmp_path, **TINY)
        results = r.run_many(self.RECIPES)
        assert len(results) == len(self.RECIPES)
        assert results[0] is results[2]
        assert [x.technique for x in results] == ["none", "dvfs", "none",
                                                 "ptb"]

    def test_parallel_matches_serial(self, tmp_path):
        serial = ExperimentRunner(cache_dir=tmp_path / "s", **TINY)
        parallel = ExperimentRunner(cache_dir=tmp_path / "p", **TINY)
        a = serial.run_many(self.RECIPES, jobs=1)
        b = parallel.run_many(self.RECIPES, jobs=2)
        for x, y in zip(a, b):
            assert x.cycles == y.cycles
            assert x.total_energy == pytest.approx(y.total_energy)
            assert x.aopb_energy == pytest.approx(y.aopb_energy)

    def test_workers_populate_shared_disk_cache(self, tmp_path):
        r = ExperimentRunner(cache_dir=tmp_path, **TINY)
        r.run_many(self.RECIPES, jobs=2)
        assert len(list(tmp_path.glob("run_*.pkl"))) == 3  # deduped

    def test_warm_cache_runs_nothing(self, tmp_path):
        r = ExperimentRunner(cache_dir=tmp_path, **TINY)
        r.run_many(self.RECIPES)
        before = r.stats["simulated"]
        r.run_many(self.RECIPES, jobs=2)
        assert r.stats["simulated"] == before


class TestCacheSafety:
    def test_atomic_publish_leaves_no_temp_files(self, tmp_path):
        r = ExperimentRunner(cache_dir=tmp_path, **TINY)
        r.run("swaptions", 2)
        names = [p.name for p in tmp_path.iterdir()]
        assert not [n for n in names if ".tmp." in n]

    def test_corrupt_entry_quarantined_and_resimulated(self, tmp_path):
        r1 = ExperimentRunner(cache_dir=tmp_path, **TINY)
        good = r1.run("swaptions", 2)
        (entry,) = tmp_path.glob("run_*.pkl")
        entry.write_bytes(b"truncated-by-a-crash")
        r2 = ExperimentRunner(cache_dir=tmp_path, **TINY)
        again = r2.run("swaptions", 2)
        assert again.cycles == good.cycles
        # The bad bytes were kept for inspection, not silently unlinked.
        (quarantined,) = tmp_path.glob("run_*.pkl.corrupt")
        assert quarantined.read_bytes() == b"truncated-by-a-crash"

    def test_load_entry_missing_is_none(self, tmp_path):
        assert _load_entry(tmp_path / "absent.pkl") is None

    def test_store_then_load_roundtrip(self, tmp_path):
        path = tmp_path / "x.pkl"
        _store_entry(path, {"k": 1})
        assert _load_entry(path) == {"k": 1}

    def test_store_failure_cleans_temp(self, tmp_path):
        path = tmp_path / "y.pkl"
        with pytest.raises(Exception):
            _store_entry(path, lambda: None)  # lambdas don't pickle
        assert not path.exists()
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_entry_lock_creates_and_releases(self, tmp_path):
        path = tmp_path / "z.pkl"
        with _entry_lock(path):
            assert (tmp_path / "z.pkl.lock").exists()
        # Re-acquirable (released, not leaked).
        with _entry_lock(path):
            pass

    def test_entry_lock_excludes_second_process(self, tmp_path):
        fcntl = pytest.importorskip("fcntl")
        path = tmp_path / "w.pkl"
        with _entry_lock(path):
            with (tmp_path / "w.pkl.lock").open("a") as fh:
                with pytest.raises(OSError):
                    fcntl.flock(fh.fileno(),
                                fcntl.LOCK_EX | fcntl.LOCK_NB)


class TestCacheByteIdentity:
    """A hit must hand back exactly what the miss path computed.

    The purity pass (KEY001/PURE003) argues this statically; this is the
    dynamic regression: same recipe, fresh runner, byte-identical pickle
    and untouched cache entry."""

    def test_hit_pickles_identical_to_miss(self, tmp_path):
        r1 = ExperimentRunner(cache_dir=tmp_path, **TINY)
        miss = r1.run("swaptions", 2, "ptb", "toall")
        (entry,) = tmp_path.glob("run_*.pkl")
        entry_bytes = entry.read_bytes()

        r2 = ExperimentRunner(cache_dir=tmp_path, **TINY)
        hit = r2.run("swaptions", 2, "ptb", "toall")
        assert r2.stats["disk_hits"] == 1 and r2.stats["simulated"] == 0

        assert pickle.dumps(hit) == pickle.dumps(miss)
        assert entry.read_bytes() == entry_bytes  # hit never rewrites

    def test_key_layout_change_is_a_clean_miss(self, tmp_path):
        # Different recipe → different entry file, never an aliased hit.
        r = ExperimentRunner(cache_dir=tmp_path, **TINY)
        r.run("swaptions", 2)
        r.run("swaptions", 2, "ptb", "toall")
        assert len(list(tmp_path.glob("run_*.pkl"))) == 2


class TestConcurrentSubmit:
    """One runner, many threads: the serve layer's usage pattern.

    ``submit`` must be reentrant — concurrent submitters of the same
    recipe serialize on the per-entry lock (layered over an in-process
    keyed lock, since POSIX record locks never exclude within one
    process) and exactly one of them simulates."""

    def test_same_recipe_simulates_once(self, tmp_path, monkeypatch):
        import threading

        import repro.analysis.runner as runner_mod

        calls = []
        calls_lock = threading.Lock()
        real = runner_mod._simulate

        def spy(*a, **kw):
            with calls_lock:
                calls.append(a)
            return real(*a, **kw)

        monkeypatch.setattr(runner_mod, "_simulate", spy)
        r = ExperimentRunner(cache_dir=tmp_path, jobs=1, **TINY)
        recipe = Recipe("swaptions", 2, "ptb", "toall")
        results = [None] * 4
        barrier = threading.Barrier(4)

        def submit(i):
            barrier.wait()
            results[i] = r.submit(recipe)

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)

        assert len(calls) == 1
        assert len(list(tmp_path.glob("run_*.pkl"))) == 1
        first = pickle.dumps(results[0], protocol=4)
        assert all(pickle.dumps(x, protocol=4) == first for x in results)

    def test_distinct_recipes_run_concurrently_without_corruption(
            self, tmp_path):
        import threading

        r = ExperimentRunner(cache_dir=tmp_path, jobs=1, **TINY)
        recipes = [Recipe("swaptions", 2), Recipe("ocean", 2),
                   Recipe("swaptions", 2, "dvfs")]
        out = {}

        def submit(rec):
            out[rec] = r.submit(rec)

        threads = [threading.Thread(target=submit, args=(rec,))
                   for rec in recipes]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)

        assert len(out) == 3
        assert len(list(tmp_path.glob("run_*.pkl"))) == 3
        # Every entry loads back as exactly what the submitter got.
        for rec, res in out.items():
            again = ExperimentRunner(cache_dir=tmp_path, **TINY).submit(rec)
            assert pickle.dumps(again, protocol=4) == \
                pickle.dumps(res, protocol=4)

    def test_inflight_registry_empties(self, tmp_path):
        r = ExperimentRunner(cache_dir=tmp_path, jobs=1, **TINY)
        r.submit(Recipe("swaptions", 2))
        assert r.inflight() == []


class TestDefaults:
    def test_repro_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_jobs() == 6

    @pytest.mark.parametrize("bad", ["0", "-3", "many", "1.5"])
    def test_repro_jobs_invalid_raises_with_value(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_JOBS", bad)
        with pytest.raises(ValueError, match=f"REPRO_JOBS.*{bad}"):
            default_jobs()

    @pytest.mark.parametrize("bad", [0, -1, "many", 2.5])
    def test_runner_jobs_invalid_raises_with_value(self, tmp_path, bad):
        with pytest.raises(ValueError, match="jobs"):
            ExperimentRunner(cache_dir=tmp_path, jobs=bad, **TINY)

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == (os.cpu_count() or 1)

    def test_recipe_defaults(self):
        r = Recipe("ocean", 4)
        assert r.technique == "none" and r.policy is None
        assert r.relax == 0.0 and r.budget_fraction == 0.5
        # Recipes are picklable (they cross the process-pool boundary).
        assert pickle.loads(pickle.dumps(r)) == r


class TestTruncationWarnings:
    """Truncation warnings must survive the process-pool boundary.

    ``CMPSimulator._finish`` emits its ``RuntimeWarning`` inside the
    worker process, where the warnings machinery of the parent never
    sees it; the runner re-emits at gather time, once per recipe."""

    SHORT = dict(scale="tiny", max_cycles=400)  # guaranteed truncation
    RECIPES = [Recipe("swaptions", 2), Recipe("ocean", 2)]

    def test_pool_gather_reemits_truncation_warning(self, tmp_path):
        r = ExperimentRunner(cache_dir=tmp_path, **self.SHORT)
        with pytest.warns(RuntimeWarning, match="truncated") as caught:
            results = r.run_many(self.RECIPES, jobs=2)
        assert all(x.truncated for x in results)
        msgs = [str(w.message) for w in caught
                if "truncated" in str(w.message)]
        assert any("swaptions" in m for m in msgs)
        assert any("ocean" in m for m in msgs)

    def test_reemission_dedups_per_recipe(self, tmp_path):
        r = ExperimentRunner(cache_dir=tmp_path, **self.SHORT)
        with pytest.warns(RuntimeWarning, match="truncated"):
            results = r.run_many(self.RECIPES, jobs=2)
        # A later gather of the same truncated recipes stays silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r._warn_truncated(self.RECIPES, results)

    def test_inline_path_does_not_double_warn(self, tmp_path):
        r = ExperimentRunner(cache_dir=tmp_path, **self.SHORT)
        with pytest.warns(RuntimeWarning, match="truncated") as caught:
            r.run_many(self.RECIPES[:1], jobs=1)
        # jobs=1 runs in-process: exactly the simulator's own warning,
        # no gather-time duplicate.
        assert len([w for w in caught
                    if "truncated" in str(w.message)]) == 1


class TestEngineSelection:
    def test_engine_resolved_once_at_init(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "fast")
        r = ExperimentRunner(cache_dir=tmp_path, **TINY)
        assert r.engine == "fast"
        # Frozen at construction: later environment changes are ignored.
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert r.engine == "fast"

    def test_invalid_engine_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="engine"):
            ExperimentRunner(cache_dir=tmp_path, engine="warp", **TINY)

    def test_engines_cache_separately_but_agree(self, tmp_path):
        ref = ExperimentRunner(cache_dir=tmp_path, engine="reference", **TINY)
        fast = ExperimentRunner(cache_dir=tmp_path, engine="fast", **TINY)
        a = ref.run("swaptions", 2, "ptb", "toall")
        b = fast.run("swaptions", 2, "ptb", "toall")
        # Separate entries (an equivalence bug can never poison a
        # cross-engine comparison) that nevertheless hold the same bytes.
        assert len(list(tmp_path.glob("run_*.pkl"))) == 2
        assert pickle.dumps(a, protocol=4) == pickle.dumps(b, protocol=4)
