"""Job lifecycle and the in-flight registry (coalescing core).

A *job* is one distinct simulation the server owes somebody: a recipe,
its cache key, and the set of waiters (client connections) that want
the result.  The registry indexes live jobs by cache key — the same
key PR 6's purity pass proved sound — so two clients submitting the
same recipe concurrently attach to **one** job: one simulation, many
waiters.  Waiters are refcounted; a job whose last waiter detaches
while it is still queued is cancelled outright, so abandoned work never
reaches a worker.

Everything here is plain data mutated only from the server's event
loop thread (no locks); the asyncio futures inside ``waiters`` are the
only loop-affine pieces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.runner import Recipe

__all__ = ["Job", "JobRegistry", "PENDING", "RUNNING", "DONE", "ERROR",
           "TIMEOUT", "CANCELLED", "TERMINAL"]

# Job states.  A job is *live* (indexed by key, coalescable) until it
# reaches a terminal state.
PENDING = "pending"        # queued, waiting for a free worker slot
RUNNING = "running"        # dispatched to a backend worker
DONE = "done"              # result available
ERROR = "error"            # the simulation raised
TIMEOUT = "timeout"        # exceeded its deadline
CANCELLED = "cancelled"    # last waiter left before dispatch

TERMINAL = (DONE, ERROR, TIMEOUT, CANCELLED)


class Job:
    """One distinct in-flight simulation and everyone waiting on it."""

    __slots__ = (
        "id", "key", "recipe", "state", "waiters", "worker",
        "created_us", "started_us", "finished_us",
        "payload", "error", "cached", "coalesced", "timeout",
    )

    def __init__(self, job_id: str, key: tuple, recipe: Recipe,
                 created_us: int, timeout: Optional[float]) -> None:
        self.id = job_id
        self.key = key
        self.recipe = recipe
        self.state = PENDING
        #: Refcounted interest: ``(conn_id, future)`` pairs.  The future
        #: resolves to this job when it reaches a terminal state.
        self.waiters: List[Tuple[int, object]] = []
        self.worker: Optional[int] = None
        self.created_us = created_us
        self.started_us: Optional[int] = None
        self.finished_us: Optional[int] = None
        #: Pickled ``SimResult`` bytes — shared by every waiter, so all
        #: clients receive byte-identical payloads by construction.
        self.payload: Optional[bytes] = None
        self.error: Optional[str] = None
        #: True when the result came from the cache without queueing.
        self.cached = False
        #: How many submissions attached after the first (refcount - 1
        #: at peak; monotonic, for stats).
        self.coalesced = 0
        self.timeout = timeout

    @property
    def live(self) -> bool:
        return self.state not in TERMINAL

    def elapsed_us(self) -> int:
        if self.finished_us is None or self.created_us is None:
            return 0
        return self.finished_us - self.created_us

    def label(self) -> str:
        r = self.recipe
        tech = r.technique + (f"/{r.policy}" if r.policy else "")
        return f"{r.benchmark} x{r.cores} {tech}"


class JobRegistry:
    """Live jobs by cache key (coalescing) and all jobs by id."""

    def __init__(self) -> None:
        self._by_key: Dict[tuple, Job] = {}
        self._by_id: Dict[str, Job] = {}
        self._seq = 0

    def get_live(self, key: tuple) -> Optional[Job]:
        return self._by_key.get(key)

    def get(self, job_id: str) -> Optional[Job]:
        return self._by_id.get(job_id)

    def create(self, key: tuple, recipe: Recipe, created_us: int,
               timeout: Optional[float]) -> Job:
        """Register a new live job for ``key`` (must not be live already)."""
        if key in self._by_key:
            raise ValueError(f"job for key already live: {key!r}")
        self._seq += 1
        job = Job(f"job-{self._seq}", key, recipe, created_us, timeout)
        self._by_key[key] = job
        self._by_id[job.id] = job
        return job

    def register(self, job_id: str, job: Job) -> None:
        """Index a job by id only (cache-hit jobs never live in by-key)."""
        self._by_id[job_id] = job

    def next_id(self) -> str:
        self._seq += 1
        return f"job-{self._seq}"

    def retire(self, job: Job) -> None:
        """Drop a job from the coalescing index (it reached a terminal
        state); it stays queryable by id until :meth:`forget`."""
        live = self._by_key.get(job.key)
        if live is job:
            del self._by_key[job.key]

    def forget(self, job: Job) -> None:
        """Release the job entirely (after its waiters were answered)."""
        self.retire(job)
        self._by_id.pop(job.id, None)

    @property
    def live_count(self) -> int:
        return len(self._by_key)

    def live_jobs(self) -> List[Job]:
        return list(self._by_key.values())

    def __len__(self) -> int:
        return len(self._by_id)
