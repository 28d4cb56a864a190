"""Pluggable execution backends for the job server.

A backend turns one picklable worker spec (from
:meth:`~repro.analysis.runner.ExperimentRunner.spec_for`) into a
:class:`concurrent.futures.Future` of a :class:`~repro.sim.results.
SimResult`.  The server never cares *where* the work runs — it awaits
the future, and the token balancer already bounds how many are in
flight — so backends stay small:

* :class:`ProcessPoolBackend` — the default: a
  ``ProcessPoolExecutor`` running :func:`repro.analysis.runner._worker`
  in child processes, exactly like a parallel ``run_many``.
* :class:`ThreadPoolBackend` — the same worker function on in-process
  threads.  The simulator releases no GIL, so this is for tests (spies
  and monkeypatches reach the worker) and cache-hit-heavy serving, not
  raw throughput.

All backends execute the *same* cache-aware worker, so wherever a job
runs it takes the per-entry lock, re-checks the disk, and publishes
atomically — the serve layer inherits the runner's crash/concurrency
story unchanged.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Tuple

from ..analysis.runner import _worker, validate_jobs

__all__ = [
    "BACKENDS",
    "Backend",
    "ProcessPoolBackend",
    "ThreadPoolBackend",
    "make_backend",
]

#: Backend names accepted by :func:`make_backend` and ``--backend``.
BACKENDS = ("process", "thread")


class Backend:
    """One way of executing worker specs; lifecycle: start -> submit* -> shutdown."""

    name = "abstract"

    def __init__(self, workers: int) -> None:
        self.workers = validate_jobs(workers, source="workers")

    def start(self) -> None:
        raise NotImplementedError

    def submit(self, spec: Tuple) -> "Future":
        raise NotImplementedError

    def shutdown(self, wait: bool = True) -> None:
        raise NotImplementedError


class _ExecutorBackend(Backend):
    """Shared plumbing for the two executor-based backends."""

    _executor_cls: type

    def __init__(self, workers: int) -> None:
        super().__init__(workers)
        self._pool = None

    def start(self) -> None:
        if self._pool is None:
            self._pool = self._executor_cls(max_workers=self.workers)

    def submit(self, spec: Tuple) -> "Future":
        if self._pool is None:
            raise RuntimeError(f"{self.name} backend not started")
        return self._pool.submit(_worker, spec)

    def shutdown(self, wait: bool = True) -> None:
        if self._pool is not None:
            # cancel_futures: anything not yet started stays unstarted —
            # the server has already resolved its waiters by now.
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None


class ProcessPoolBackend(_ExecutorBackend):
    """Child-process execution (the default; true parallelism)."""

    name = "process"
    _executor_cls = ProcessPoolExecutor


class ThreadPoolBackend(_ExecutorBackend):
    """In-process execution (tests, cache-dominated workloads)."""

    name = "thread"
    _executor_cls = ThreadPoolExecutor


def make_backend(name: str, workers: int) -> Backend:
    """Build a backend by CLI name (``process``/``thread``)."""
    if name == "process":
        return ProcessPoolBackend(workers)
    if name == "thread":
        return ThreadPoolBackend(workers)
    raise ValueError(
        f"unknown backend {name!r}; available: {list(BACKENDS)}"
    )
