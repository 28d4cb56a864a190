"""Experiment runner with a persistent, concurrency-safe result cache.

Every figure of the paper aggregates dozens of simulation runs, and
several figures share runs (the base case of Figure 2 is the base case
of Figures 9-14).  The runner memoises :class:`SimResult` objects on
disk, keyed by the full run recipe, so regenerating all figures costs
each distinct simulation exactly once.

The runner is a three-stage machine:

1. **plan** — collect every :class:`Recipe` a figure set needs, dedupe
   them, and partition into warm (memory/disk cache hit) and cold.
2. **fan out** — simulate the cold recipes, either inline (``jobs=1``)
   or across a ``ProcessPoolExecutor`` (``--jobs N`` /  ``REPRO_JOBS``,
   default ``os.cpu_count()``).  Workers re-build the simulation from
   the recipe + seed, so results are identical however they are
   scheduled.
3. **gather** — collect ``SimResult`` objects back in recipe order, so
   serial and parallel renders are byte-identical.

The disk cache is safe under concurrency and crashes:

* writes go to a temp file in the cache directory and are published
  with ``os.replace`` (atomic on POSIX and Windows), so a reader never
  observes a half-written entry;
* each entry takes a per-entry advisory lock (``fcntl``) around the
  check-simulate-store critical section, so two *processes* racing on
  the same recipe simulate it once;
* an entry that fails to unpickle is quarantined (renamed to
  ``*.corrupt``) for inspection instead of being silently unlinked.

Set the environment variable ``REPRO_CACHE`` to relocate the cache,
``REPRO_SCALE`` (tiny/small/medium/large) to change the default
simulation scale, and ``REPRO_JOBS`` to change the default worker
count.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

try:  # POSIX advisory locking; degrade gracefully elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from ..config import CMPConfig
from ..sim.cmp import CMPSimulator
from ..sim.engine import resolve_engine
from ..sim.results import SimResult
from ..workloads import build_program

#: Bump when any model change invalidates previously cached results.
#: v8: PTBController charges donors for every in-flight pledge (the
#: full balancer pipe), changing every PTB ``SimResult``.
#: v9: the key carries a digest of the fully-resolved ``CMPConfig``
#: (see :func:`config_digest`), so a changed config default can never
#: silently alias an old entry again.  Results are unchanged; only the
#: key layout is.
#: v10: the end-of-run off-by-one fix in ``CMPSimulator.run`` shortens
#: every run by one idle tail cycle, changing every ``SimResult``; the
#: key also gains the resolved cycle engine (the engines are proven
#: byte-identical, but keeping the entries separate means a future
#: equivalence bug can never poison cross-engine comparisons).
CACHE_VERSION = 10

#: Budget fraction used throughout the paper's evaluation (Section IV).
DEFAULT_BUDGET_FRACTION = 0.5


class Recipe(NamedTuple):
    """One fully-specified simulation run (hashable, picklable)."""

    benchmark: str
    cores: int
    technique: str = "none"
    policy: Optional[str] = None
    relax: float = 0.0
    budget_fraction: Optional[float] = DEFAULT_BUDGET_FRACTION


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / ".repro_cache"


def default_scale() -> str:
    return os.environ.get("REPRO_SCALE", "small")


def validate_jobs(jobs: object, source: str = "jobs") -> int:
    """Check a worker count before it reaches ``ProcessPoolExecutor``.

    ``0``, negative, and non-integer values all raise ``ValueError``
    naming the offending value and where it came from (``--jobs``,
    ``REPRO_JOBS``...), instead of passing garbage through to the pool.
    """
    try:
        # Through str() so 2.5 (and "2.5") are rejected, not truncated.
        n = int(str(jobs))
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be an integer >= 1, got {jobs!r}"
        ) from None
    if n < 1:
        raise ValueError(f"{source} must be an integer >= 1, got {jobs!r}")
    return n


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` env var, else ``os.cpu_count()``."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        return validate_jobs(env, source="REPRO_JOBS")
    return os.cpu_count() or 1


# -- cache entry primitives (module-level: shared by workers) ---------------

#: In-process keyed locks, one per entry path.  The ``fcntl`` lock below
#: serializes *processes*; two threads of one process (the serve layer,
#: or any concurrent ``run_many`` callers) need an explicit in-process
#: lock as well — POSIX record locks do not exclude within a process,
#: and non-POSIX platforms have no file lock at all.  The registry is
#: bounded by the number of distinct entries one process ever touches.
_INPROC_LOCKS: Dict[str, threading.Lock] = {}
_INPROC_LOCKS_GUARD = threading.Lock()


def _inproc_lock(path: Path) -> threading.Lock:
    key = str(path)
    with _INPROC_LOCKS_GUARD:
        lock = _INPROC_LOCKS.get(key)
        if lock is None:
            lock = _INPROC_LOCKS[key] = threading.Lock()
        return lock


@contextlib.contextmanager
def _entry_lock(path: Path) -> Iterator[None]:
    """Advisory per-entry lock so two workers never simulate one recipe.

    Two layers: a keyed ``threading.Lock`` excludes callers within this
    process, then a file lock (``<entry>.lock``, ``fcntl``) excludes
    other processes.  Platforms without ``fcntl`` keep the in-process
    layer and fall back to lock-free cross-process operation, which is
    still crash-safe (atomic publish) just not duplicate-proof.
    """
    with _inproc_lock(path):
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        lock_path = path.with_name(path.name + ".lock")
        with lock_path.open("a") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def _load_entry(path: Path) -> Optional[SimResult]:
    """Read one cache entry; quarantine (never silently drop) corruption."""
    try:
        with path.open("rb") as fh:
            return pickle.load(fh)
    except FileNotFoundError:
        return None
    except Exception:
        # A truncated or stale-format entry is evidence of a bug or a
        # crash — keep it for inspection instead of unlinking.
        quarantine = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantine)
        except OSError:
            pass
        return None


def _store_entry(path: Path, result: SimResult) -> None:
    """Atomically publish one cache entry (write temp + ``os.replace``).

    A crash mid-write leaves only a ``*.tmp.<pid>`` file behind; the
    final path transitions from absent to complete in one step.
    """
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with tmp.open("wb") as fh:
            pickle.dump(result, fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _resolved_config(recipe: Recipe, engine: str) -> CMPConfig:
    """The fully-resolved configuration a recipe simulates under.

    Single source of truth shared by :func:`_simulate` (which runs it)
    and :func:`_cache_key` (which digests it): every config field —
    explicit or defaulted — that can reach a cached ``SimResult`` is
    captured by the same object the key is derived from.  ``engine`` is
    always the *resolved* engine name ("reference"/"fast"), never
    "auto": the runner resolves the environment once at construction so
    a worker's key can not depend on the worker's environment.
    """
    cfg = CMPConfig(num_cores=recipe.cores).with_engine(engine)
    if recipe.relax:
        cfg = cfg.with_ptb(relax_threshold=recipe.relax)
    return cfg


def config_digest(cfg: CMPConfig) -> str:
    """Stable short digest of a fully-resolved configuration.

    ``CMPConfig`` is a frozen dataclass tree of ints, floats, strings
    and tuples, so its ``repr`` is canonical and process-stable; the
    digest therefore changes whenever *any* nested field does —
    including defaults no ``Recipe`` field controls.
    """
    return hashlib.sha256(repr(cfg).encode()).hexdigest()[:16]


def _simulate(
    recipe: Recipe, scale, max_cycles: int, seed: int, engine: str
) -> SimResult:
    """Build and run one simulation from scratch (deterministic in seed)."""
    cfg = _resolved_config(recipe, engine)
    program = build_program(recipe.benchmark, recipe.cores, scale=scale,
                            seed=seed)
    sim = CMPSimulator(
        cfg, program, technique=recipe.technique,
        budget_fraction=recipe.budget_fraction, ptb_policy=recipe.policy,
        seed=seed,
    )
    return sim.run(max_cycles)


def _worker(
    spec: Tuple[Recipe, object, int, int, Optional[str], str]
) -> SimResult:
    """Process-pool entry point: load-or-simulate one recipe.

    ``spec`` is ``(recipe, scale, max_cycles, seed, cache_dir, engine)``
    — all picklable primitives, so the worker re-seeds and rebuilds the
    whole simulator in a fresh process.  With a cache directory the
    worker takes the entry lock, re-checks the disk (another process may
    have finished the recipe meanwhile), and publishes its result
    atomically.
    """
    recipe, scale, max_cycles, seed, cache_dir, engine = spec
    if cache_dir is None:
        return _simulate(recipe, scale, max_cycles, seed, engine)
    path = _entry_path(Path(cache_dir), _cache_key(recipe, scale,
                                                  max_cycles, seed, engine))
    result = _load_entry(path)
    if result is not None:
        return result
    with _entry_lock(path):
        result = _load_entry(path)
        if result is None:
            result = _simulate(recipe, scale, max_cycles, seed, engine)
            _store_entry(path, result)
    return result


def _cache_key(
    recipe: Recipe, scale, max_cycles: int, seed: int, engine: str
) -> tuple:
    return (
        CACHE_VERSION, recipe.benchmark, recipe.cores, recipe.technique,
        recipe.policy, recipe.relax, recipe.budget_fraction, str(scale),
        max_cycles, seed, engine,
        config_digest(_resolved_config(recipe, engine)),
    )


def _entry_path(cache_dir: Path, key: tuple) -> Path:
    digest = hashlib.sha256(repr(key).encode()).hexdigest()[:24]
    return cache_dir / f"run_{digest}.pkl"


class ExperimentRunner:
    """Runs (benchmark, cores, technique, policy, ...) recipes, cached."""

    def __init__(
        self,
        scale: Optional[str | float] = None,
        cache_dir: Optional[Path] = None,
        max_cycles: int = 400_000,
        seed: int = 2011,
        use_cache: bool = True,
        jobs: Optional[int] = None,
        engine: Optional[str] = None,
    ) -> None:
        self.scale = scale if scale is not None else default_scale()
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.max_cycles = max_cycles
        self.seed = seed
        self.use_cache = use_cache
        self.jobs = (validate_jobs(jobs, source="jobs")
                     if jobs is not None else default_jobs())
        # Resolve "auto"/None (and the REPRO_ENGINE environment variable)
        # exactly once, here: cache keys and worker specs only ever carry
        # the concrete engine name.
        self.engine = resolve_engine(engine)
        self._mem: Dict[tuple, SimResult] = {}
        #: Guards ``_mem``/``stats``/``_inflight`` against concurrent
        #: in-process callers (the serve layer runs one runner from many
        #: threads).  Never held across a simulation.
        self._lock = threading.Lock()
        #: Recipes currently simulating via :meth:`submit`, keyed by
        #: cache key — the in-flight registry the serve layer coalesces
        #: against and status endpoints report.
        self._inflight: Dict[tuple, Recipe] = {}
        #: Recipes whose truncation warning was already re-emitted at
        #: gather time (pool workers' warnings die with the worker).
        self._warned_truncated: set = set()
        #: Plan/fan-out statistics of this runner's lifetime, printed by
        #: the analysis CLI's summary line and reported by the serve
        #: layer's status reply.
        self.stats: Dict[str, int] = {
            "planned": 0, "mem_hits": 0, "disk_hits": 0, "simulated": 0,
        }
        if self.use_cache:
            self.cache_dir.mkdir(parents=True, exist_ok=True)

    # -- cache plumbing -----------------------------------------------------

    def _path(self, key: tuple) -> Path:
        return _entry_path(self.cache_dir, key)

    # -- plan / fan out / gather -------------------------------------------

    def plan(self, recipes: Iterable[Recipe]) -> List[Recipe]:
        """Stage 1: dedupe ``recipes`` against the memory and disk caches.

        Returns the *cold* recipes (first occurrence order preserved);
        disk hits are pulled into the in-memory memo as a side effect so
        a subsequent :meth:`run` is free.
        """
        cold: List[Recipe] = []
        seen: set = set()
        for recipe in recipes:
            recipe = Recipe(*recipe)
            key = _cache_key(recipe, self.scale, self.max_cycles, self.seed,
                             self.engine)
            if key in seen:
                continue
            seen.add(key)
            with self._lock:
                self.stats["planned"] += 1
                if key in self._mem:
                    self.stats["mem_hits"] += 1
                    continue
            if self.use_cache:
                hit = _load_entry(self._path(key))
                if hit is not None:
                    with self._lock:
                        self.stats["disk_hits"] += 1
                        self._mem[key] = hit
                    continue
            cold.append(recipe)
        return cold

    def run_many(
        self,
        recipes: Sequence[Recipe],
        jobs: Optional[int] = None,
    ) -> List[SimResult]:
        """Plan, fan out the cold recipes, and gather deterministically.

        Returns one :class:`SimResult` per input recipe, in input order
        (duplicates included), regardless of worker count — parallel and
        serial renders are byte-identical.
        """
        recipes = [Recipe(*r) for r in recipes]
        cold = self.plan(recipes)
        jobs = jobs if jobs is not None else self.jobs
        cache_dir = str(self.cache_dir) if self.use_cache else None
        if cold:
            with self._lock:
                self.stats["simulated"] += len(cold)
            specs = [
                (r, self.scale, self.max_cycles, self.seed, cache_dir,
                 self.engine)
                for r in cold
            ]
            if jobs > 1 and len(cold) > 1:
                with ProcessPoolExecutor(
                    max_workers=min(jobs, len(cold))
                ) as pool:
                    results = list(pool.map(_worker, specs))
                # ``CMPSimulator._finish`` warns about truncation inside
                # the worker process, where nobody is listening: re-emit
                # in the gathering process.  The inline path below needs
                # no help — its warnings already fire in-process.
                self._warn_truncated(cold, results)
            else:
                results = [_worker(spec) for spec in specs]
            for recipe, result in zip(cold, results):
                key = _cache_key(recipe, self.scale, self.max_cycles,
                                 self.seed, self.engine)
                with self._lock:
                    self._mem[key] = result
        return [
            self._mem[_cache_key(r, self.scale, self.max_cycles, self.seed,
                                 self.engine)]
            for r in recipes
        ]

    def _warn_truncated(self, recipes: Sequence[Recipe],
                        results: Sequence[SimResult]) -> None:
        """Re-emit pool workers' lost truncation warnings, once per recipe."""
        for recipe, result in zip(recipes, results):
            if not result.truncated or recipe in self._warned_truncated:
                continue
            self._warned_truncated.add(recipe)
            label = recipe.technique
            if recipe.policy:
                label += f"-{recipe.policy}"
            warnings.warn(
                f"{recipe.benchmark}/{label} @ {recipe.cores} cores "
                f"truncated at max_cycles={self.max_cycles} "
                f"(scale={self.scale}): its metrics are lower bounds",
                RuntimeWarning,
                stacklevel=3,
            )

    # -- single-recipe submission (the serve layer's entry point) -----------

    def key_of(self, recipe: Recipe) -> tuple:
        """The cache key ``recipe`` resolves to under this runner."""
        return _cache_key(Recipe(*recipe), self.scale, self.max_cycles,
                          self.seed, self.engine)

    def spec_for(self, recipe: Recipe) -> tuple:
        """The picklable worker spec for ``recipe`` (backend transport)."""
        cache_dir = str(self.cache_dir) if self.use_cache else None
        return (Recipe(*recipe), self.scale, self.max_cycles, self.seed,
                cache_dir, self.engine)

    def lookup(self, recipe: Recipe,
               key: Optional[tuple] = None) -> Optional[SimResult]:
        """Memory/disk probe only — never simulates.

        A memo hit is counted; a disk hit is pulled into the in-memory
        memo (and counted) so a later :meth:`submit` is free; a miss
        returns ``None`` without touching the stats, so probing is safe
        to do eagerly.  A caller that already holds ``key_of(recipe)``
        passes it as ``key`` to skip recomputing it.
        """
        if key is None:
            key = self.key_of(recipe)
        with self._lock:
            hit = self._mem.get(key)
            if hit is not None:
                self.stats["mem_hits"] += 1
        if hit is not None:
            return hit
        if self.use_cache:
            hit = _load_entry(self._path(key))
            if hit is not None:
                with self._lock:
                    self.stats["disk_hits"] += 1
                    self._mem[key] = hit
                return hit
        return None

    def submit(self, recipe: Recipe) -> SimResult:
        """Run one recipe, safely reentrant from concurrent threads.

        The thread-safe single-recipe path the serve layer dispatches
        through: planning and memoisation are lock-guarded, the recipe
        is registered in the in-flight registry while it simulates, and
        the per-entry lock (in-process + ``fcntl``) guarantees two
        concurrent submitters of one recipe cost one simulation (the
        loser of the race loads the winner's published entry).
        """
        recipe = Recipe(*recipe)
        key = self.key_of(recipe)
        with self._lock:
            hit = self._mem.get(key)
        if hit is not None:
            return hit
        if not self.plan([recipe]):
            with self._lock:
                return self._mem[key]
        with self._lock:
            self.stats["simulated"] += 1
            self._inflight[key] = recipe
        try:
            result = _worker(self.spec_for(recipe))
        finally:
            with self._lock:
                self._inflight.pop(key, None)
        self.remember(key, result)
        return result

    def remember(self, key: tuple, result: SimResult) -> None:
        """Enter ``result`` into the in-memory memo under cache ``key``."""
        with self._lock:
            self._mem[key] = result

    def inflight(self) -> List[Recipe]:
        """Recipes currently simulating via :meth:`submit` (snapshot)."""
        with self._lock:
            return list(self._inflight.values())

    # -- running ---------------------------------------------------------------

    def run(
        self,
        benchmark: str,
        cores: int,
        technique: str = "none",
        policy: Optional[str] = None,
        relax: float = 0.0,
        budget_fraction: Optional[float] = DEFAULT_BUDGET_FRACTION,
    ) -> SimResult:
        """Run one recipe (or fetch it from the cache)."""
        return self.submit(Recipe(benchmark, cores, technique, policy, relax,
                                  budget_fraction))

    def base(self, benchmark: str, cores: int) -> SimResult:
        """The uncontrolled run all normalizations divide by."""
        return self.run(benchmark, cores, technique="none")

    def truncated_of(self, recipes: Iterable[Recipe]) -> List[Recipe]:
        """Already-memoised recipes whose runs hit ``max_cycles``.

        Memo-only (no simulation, no stats side effects): intended for
        report footnotes after the figures' recipes have been run.
        """
        out: List[Recipe] = []
        seen: set = set()
        for recipe in recipes:
            recipe = Recipe(*recipe)
            key = _cache_key(recipe, self.scale, self.max_cycles, self.seed,
                             self.engine)
            if key in seen:
                continue
            seen.add(key)
            result = self._mem.get(key)
            if result is not None and result.truncated:
                out.append(recipe)
        return out

    # -- convenience sweeps -------------------------------------------------------

    def sweep(
        self,
        benchmarks: Iterable[str],
        cores: int,
        recipes: Iterable[Tuple[str, Optional[str]]],
        relax: float = 0.0,
    ) -> Dict[str, Dict[Tuple[str, Optional[str]], SimResult]]:
        """Run every (technique, policy) recipe for every benchmark."""
        benchmarks = list(benchmarks)
        pairs = list(recipes)
        self.run_many([
            Recipe(b, cores, technique, policy, relax)
            for b in benchmarks for technique, policy in pairs
        ])
        out: Dict[str, Dict[Tuple[str, Optional[str]], SimResult]] = {}
        for b in benchmarks:
            out[b] = {}
            for technique, policy in pairs:
                out[b][(technique, policy)] = self.run(
                    b, cores, technique, policy, relax=relax
                )
        return out
