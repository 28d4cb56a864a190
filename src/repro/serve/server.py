"""The asyncio job server: accept, validate, coalesce, dispatch, drain.

One :class:`JobServer` owns four pieces and wires them together on a
single event loop:

* an :class:`~repro.analysis.runner.ExperimentRunner` — plans recipes
  against the memory/disk cache and mints cache keys (the coalescing
  identity, sound per the purity pass);
* a :class:`~repro.serve.jobs.JobRegistry` — one live job per distinct
  key, refcounted waiters;
* a free list of worker slot ids, one per backend worker: dispatch
  takes the lowest free id, and the id returns to the list when the
  backend future of the job that held it completes;
* a pluggable :class:`~repro.serve.backends.Backend` that actually
  executes the cache-aware worker function.

Request flow for ``submit``: each recipe is validated at the door,
probed against the cache (instant reply, no queue slot), coalesced
onto a live job when one exists, or queued — unless the bounded queue
is full, in which case the recipe is **rejected explicitly** so
overload degrades into fast failures instead of memory growth.

Failure semantics: a disconnecting client detaches its waiters; a
still-queued job whose last waiter leaves is cancelled before it ever
takes a worker slot.  A *running* job that loses its waiters runs to
completion anyway — the result still warms the shared cache, so the
work is never wasted.  Timeouts resolve the waiters immediately, but
the slot is only freed when the backend future completes: a timed-out
simulation still occupies its thread or process, so at most
``workers`` jobs are ever inside the executor and a job's timeout
never runs while it waits there for a worker.

Everything the server does is observable on the shared telemetry bus
(JOB_* events, queue-depth gauge); ``trace_path`` renders it as a
Perfetto trace with one track per worker slot — the service-layer
twin of the chip trace.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import heapq
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..analysis.runner import ExperimentRunner
from . import protocol
from .backends import Backend, make_backend
from .jobs import (
    CANCELLED,
    DONE,
    ERROR,
    PENDING,
    RUNNING,
    TIMEOUT,
    Job,
    JobRegistry,
)
from .trace import ServeTelemetry, write_serve_trace

__all__ = ["ServeConfig", "JobServer", "ServerStopped", "ServerThread"]

#: Terminal jobs kept queryable by id before being forgotten.
FINISHED_KEEP = 1024

#: Pickle protocol for result payloads (matches the regression suite's
#: byte-identity hashing).
PICKLE_PROTOCOL = 4


@dataclass
class ServeConfig:
    """Everything one server instance needs, CLI-mappable one-to-one."""

    unix_path: Optional[str] = None     # unix socket (preferred for local)
    host: str = "127.0.0.1"             # TCP fallback when no unix_path
    port: int = 0                       # 0 = ephemeral
    backend: str = "process"
    workers: Optional[int] = None       # default: os.cpu_count()
    queue_limit: int = 64               # pending jobs before REJECTED
    job_timeout: Optional[float] = None  # seconds; None = unbounded
    scale: Optional[str] = None         # runner knobs, as in repro.analysis
    max_cycles: int = 400_000
    seed: int = 2011
    engine: Optional[str] = None
    cache_dir: Optional[str] = None
    use_cache: bool = True
    trace_path: Optional[str] = None    # Perfetto trace written at shutdown
    allow_remote_shutdown: bool = True  # honour the shutdown op


class _Conn:
    """Per-connection bookkeeping (event-loop thread only)."""

    __slots__ = ("id", "writer", "wlock", "waiting", "tasks")

    def __init__(self, conn_id: int, writer: asyncio.StreamWriter) -> None:
        self.id = conn_id
        self.writer = writer
        self.wlock = asyncio.Lock()
        #: Live interest: (job, waiter future) pairs.
        self.waiting: List[Tuple[Job, asyncio.Future]] = []
        #: Result-delivery tasks for this connection's submits
        #: (dict-as-ordered-set: deterministic iteration order).
        self.tasks: Dict[asyncio.Task, None] = {}


def _swallow(fut: asyncio.Future) -> None:
    """Consume a future's eventual exception so it is never 'unretrieved'."""
    def _eat(f: asyncio.Future) -> None:
        if not f.cancelled():
            f.exception()
    fut.add_done_callback(_eat)


class JobServer:
    """Simulation-as-a-service over one event loop.  See module docs."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        import os
        workers = (config.workers if config.workers is not None
                   else os.cpu_count() or 1)
        self.runner = ExperimentRunner(
            scale=config.scale, cache_dir=config.cache_dir,
            max_cycles=config.max_cycles, seed=config.seed,
            use_cache=config.use_cache, jobs=1, engine=config.engine,
        )
        self.backend: Backend = make_backend(config.backend, workers)
        #: Free worker slot ids, a min-heap: dispatch takes the lowest.
        self._free: List[int] = list(range(self.backend.workers))
        self.registry = JobRegistry()
        self.telemetry = ServeTelemetry(self.backend.workers)
        if config.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {config.queue_limit}"
            )
        self._queue: Deque[Job] = deque()
        self._finished: Deque[Job] = deque()
        self._conns: Dict[int, _Conn] = {}
        self._conn_seq = 0
        self._job_tasks: Dict[asyncio.Task, None] = {}
        self._paused = False
        self._draining = False
        self._stopped = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._dispatch_task: Optional[asyncio.Task] = None
        self._kick_event: Optional[asyncio.Event] = None
        self._closed: Optional[asyncio.Event] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket, start the backend and the dispatcher."""
        self._kick_event = asyncio.Event()
        self._closed = asyncio.Event()
        self.backend.start()
        if self.config.unix_path:
            self._server = await asyncio.start_unix_server(
                self._handle_conn, path=self.config.unix_path,
                limit=protocol.MAX_LINE_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_conn, self.config.host, self.config.port,
                limit=protocol.MAX_LINE_BYTES,
            )
        self._dispatch_task = asyncio.create_task(self._dispatcher())

    @property
    def address(self):
        """Bound address: the unix path, or a ``(host, port)`` tuple."""
        if self.config.unix_path:
            return self.config.unix_path
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[:2]

    async def wait_closed(self) -> None:
        assert self._closed is not None, "server not started"
        await self._closed.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the server; with ``drain`` finish all accepted work first."""
        if self._draining:
            await self.wait_closed()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            while self._queue or self._job_tasks:
                await asyncio.sleep(0.02)
        else:
            while self._queue:
                job = self._queue.popleft()
                job.error = "server stopped"
                self._finish_job(job, CANCELLED)
            for task in list(self._job_tasks):
                task.cancel()
            if self._job_tasks:
                await asyncio.gather(*self._job_tasks,
                                     return_exceptions=True)
        # Let in-flight result deliveries flush before closing sockets.
        pending = [t for c in self._conns.values() for t in c.tasks]
        if drain and pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for conn in list(self._conns.values()):
            for task in list(conn.tasks):
                task.cancel()
            conn.writer.close()
        self._stopped = True
        self._kick()
        if self._dispatch_task is not None:
            self._dispatch_task.cancel()
            await asyncio.gather(self._dispatch_task, return_exceptions=True)
        self.backend.shutdown(wait=drain)
        if self.config.trace_path:
            write_serve_trace(self.telemetry, self.config.trace_path)
        assert self._closed is not None
        self._closed.set()

    async def set_paused(self, paused: bool) -> None:
        """Hold/release dispatch (tests and deterministic CI smokes)."""
        self._paused = paused
        if not paused:
            self._kick()

    def _kick(self) -> None:
        if self._kick_event is not None:
            self._kick_event.set()

    # -- stats --------------------------------------------------------------

    @property
    def stats(self) -> Dict[str, int]:
        """Lifetime job counters (single source: the telemetry registry)."""
        names = ("jobs_submitted", "jobs_coalesced", "jobs_rejected",
                 "cache_hits", f"jobs_{DONE}", f"jobs_{ERROR}",
                 f"jobs_{TIMEOUT}", f"jobs_{CANCELLED}")
        return {
            name: int(self.telemetry.metrics.counter(name).value)
            for name in names
        }

    def status_doc(self) -> Dict:
        """The status reply body (also used by tests via ServerThread)."""
        return {
            "reply": "status",
            "protocol": protocol.PROTOCOL_VERSION,
            "backend": self.backend.name,
            "draining": self._draining,
            "paused": self._paused,
            "queue_depth": len(self._queue),
            "queue_limit": self.config.queue_limit,
            "running": len(self._job_tasks),
            "live_jobs": self.registry.live_count,
            "inflight": [
                protocol.recipe_to_wire(j.recipe)
                for j in self.registry.live_jobs()
            ],
            "slots": self.backend.workers,
            "busy_slots": sorted(
                set(range(self.backend.workers)) - set(self._free)
            ),
            "stats": self.stats,
            "runner": dict(self.runner.stats),
        }

    # -- connection handling ------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        self._conn_seq += 1
        conn = _Conn(self._conn_seq, writer)
        self._conns[conn.id] = conn
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    await self._send(conn, {
                        "reply": "error",
                        "error": f"line over {protocol.MAX_LINE_BYTES} bytes",
                    })
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    msg = protocol.decode_msg(line)
                except protocol.ProtocolError as exc:
                    await self._send(conn,
                                     {"reply": "error", "error": str(exc)})
                    continue
                op = msg.get("op")
                if op == "submit":
                    await self._op_submit(conn, msg)
                elif op == "status":
                    await self._send(conn, self.status_doc())
                elif op == "cancel":
                    await self._op_cancel(conn, msg)
                elif op == "shutdown":
                    if await self._op_shutdown(conn, msg):
                        break
                elif op == "ping":
                    await self._send(conn, {"reply": "pong"})
                else:
                    await self._send(conn, {
                        "reply": "error",
                        "error": f"unknown op {op!r}",
                    })
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._disconnect(conn)

    async def _send(self, conn: _Conn, msg: Dict) -> None:
        data = protocol.encode_msg(msg)
        try:
            async with conn.wlock:
                conn.writer.write(data)
                await conn.writer.drain()
        except (ConnectionError, RuntimeError):
            # The reader side will observe the drop and clean up.
            pass

    def _disconnect(self, conn: _Conn) -> None:
        """Waiter cleanup: the crux of not leaking coalesced jobs."""
        self._conns.pop(conn.id, None)
        for task in list(conn.tasks):
            task.cancel()
        for job, fut in conn.waiting:
            job.waiters = [(c, f) for (c, f) in job.waiters if f is not fut]
            if not fut.done():
                fut.cancel()
            if job.state == PENDING and not job.waiters:
                # Still queued and nobody cares any more: never give it
                # a worker slot.
                try:
                    self._queue.remove(job)
                except ValueError:
                    pass
                else:
                    job.error = "abandoned: every waiter disconnected"
                    self._finish_job(job, CANCELLED)
                    self.telemetry.set_queue_depth(len(self._queue))
        conn.waiting.clear()
        conn.writer.close()

    # -- ops ----------------------------------------------------------------

    async def _op_submit(self, conn: _Conn, msg: Dict) -> None:
        rid = protocol.request_id(msg)
        if self._draining:
            await self._send(conn, {"reply": "rejected", "id": rid,
                                    "reason": "server draining"})
            return
        raw = msg.get("recipes")
        if not isinstance(raw, list) or not raw:
            await self._send(conn, {
                "reply": "error", "id": rid,
                "error": "submit needs a non-empty recipes list",
            })
            return
        wait = bool(msg.get("wait", True))
        timeout = msg.get("timeout", self.config.job_timeout)
        if timeout is not None and (
                not isinstance(timeout, (int, float))
                or isinstance(timeout, bool) or timeout <= 0):
            await self._send(conn, {
                "reply": "error", "id": rid,
                "error": f"timeout must be a positive number, got {timeout!r}",
            })
            return

        loop = asyncio.get_running_loop()
        tel = self.telemetry
        jobs_field: List[Dict] = []
        rejected: List[Dict] = []
        pairs: List[Tuple[Job, asyncio.Future]] = []
        seen: Dict[str, asyncio.Future] = {}
        for obj in raw:
            try:
                recipe = protocol.recipe_from_wire(obj)
            except protocol.ProtocolError as exc:
                rejected.append({"recipe": obj, "reason": str(exc)})
                continue
            key = self.runner.key_of(recipe)
            cached = coalesced = False
            live = self.registry.get_live(key)
            if live is not None:
                # The soundness guarantee at work: identical key ->
                # identical result, so many submitters share one run.
                job = live
                job.coalesced += 1
                coalesced = True
                tel.job_coalesce(job.id, len(job.waiters) + 1)
            else:
                hit = self.runner.lookup(recipe, key)
                if hit is not None:
                    job = Job(self.registry.next_id(), key, recipe,
                              tel.now_us(), None)
                    job.payload = pickle.dumps(hit, PICKLE_PROTOCOL)
                    job.cached = cached = True
                    job.state = DONE
                    job.finished_us = tel.now_us()
                    self.registry.register(job.id, job)
                    self._remember_finished(job)
                    tel.cache_hit()
                elif len(self._queue) >= self.config.queue_limit:
                    tel.job_reject(len(self._queue))
                    rejected.append({
                        "recipe": protocol.recipe_to_wire(recipe),
                        "reason": f"queue full "
                                  f"(limit {self.config.queue_limit})",
                    })
                    continue
                else:
                    job = self.registry.create(key, recipe, tel.now_us(),
                                               timeout)
                    self._queue.append(job)
                    tel.job_submit(job.id, len(self._queue))
            jobs_field.append({
                "job": job.id,
                "recipe": protocol.recipe_to_wire(recipe),
                "cached": cached,
                "coalesced": coalesced,
            })
            if wait and job.id not in seen:
                fut: asyncio.Future = loop.create_future()
                if job.live:
                    job.waiters.append((conn.id, fut))
                    conn.waiting.append((job, fut))
                else:
                    fut.set_result(job)
                seen[job.id] = fut
                pairs.append((job, fut))
        self._kick()
        await self._send(conn, {
            "reply": "accepted", "id": rid, "jobs": jobs_field,
            "rejected": rejected, "queue_depth": len(self._queue),
        })
        if wait and pairs:
            task = asyncio.create_task(self._deliver(conn, rid, pairs))
            conn.tasks[task] = None
            task.add_done_callback(lambda t: conn.tasks.pop(t, None))
        elif wait:
            await self._send(conn, {"reply": "done", "id": rid})

    async def _deliver(self, conn: _Conn, rid: Optional[str],
                       pairs: List[Tuple[Job, asyncio.Future]]) -> None:
        """Stream one result per job as it completes, then ``done``."""
        pending: Dict[asyncio.Future, Job] = {fut: job for job, fut in pairs}
        while pending:
            done, _ = await asyncio.wait(
                pending.keys(), return_when=asyncio.FIRST_COMPLETED
            )
            for fut in done:
                job = pending.pop(fut)
                detached = fut.result() is None  # cancel op took us off
                status = CANCELLED if detached else job.state
                msg: Dict = {
                    "reply": "result", "id": rid, "job": job.id,
                    "status": status,
                    "cached": job.cached,
                    "coalesced": job.coalesced > 0,
                    "elapsed_ms": round(job.elapsed_us() / 1000.0, 3),
                }
                if status == DONE and job.payload is not None:
                    msg["result"] = protocol.encode_result(job.payload)
                elif job.error or detached:
                    msg["error"] = job.error or "cancelled by request"
                await self._send(conn, msg)
        await self._send(conn, {"reply": "done", "id": rid})

    async def _op_cancel(self, conn: _Conn, msg: Dict) -> None:
        jid = msg.get("job")
        job = self.registry.get(str(jid)) if jid is not None else None
        if job is None:
            await self._send(conn, {"reply": "cancel-ok", "job": jid,
                                    "state": "unknown"})
            return
        # Detach this connection's waiters (refcount decrement).
        mine = [(j, f) for (j, f) in conn.waiting if j is job]
        for _, fut in mine:
            job.waiters = [(c, f) for (c, f) in job.waiters if f is not fut]
            conn.waiting.remove((job, fut))
            if not fut.done():
                fut.set_result(None)  # "cancelled for you"
        if job.state == PENDING and not job.waiters:
            try:
                self._queue.remove(job)
            except ValueError:
                pass
            else:
                job.error = "cancelled by request"
                self._finish_job(job, CANCELLED)
                self.telemetry.set_queue_depth(len(self._queue))
        await self._send(conn, {"reply": "cancel-ok", "job": job.id,
                                "state": job.state,
                                "waiters": len(job.waiters)})

    async def _op_shutdown(self, conn: _Conn, msg: Dict) -> bool:
        if not self.config.allow_remote_shutdown:
            await self._send(conn, {"reply": "error",
                                    "error": "shutdown op disabled"})
            return False
        drain = bool(msg.get("drain", True))
        await self._send(conn, {"reply": "shutdown-ok", "drain": drain})
        asyncio.create_task(self.shutdown(drain=drain))
        return True

    # -- dispatch -----------------------------------------------------------

    async def _dispatcher(self) -> None:
        """Assign queued jobs to the lowest free worker slots."""
        assert self._kick_event is not None
        while True:
            await self._kick_event.wait()
            self._kick_event.clear()
            if self._stopped:
                return
            if self._paused:
                continue
            dispatched = False
            while self._queue and self._free:
                slot = heapq.heappop(self._free)
                job = self._queue.popleft()
                task = asyncio.create_task(self._run_job(job, slot))
                self._job_tasks[task] = None
                task.add_done_callback(
                    lambda t: self._job_tasks.pop(t, None))
                dispatched = True
            if dispatched:
                self.telemetry.set_queue_depth(len(self._queue))

    async def _run_job(self, job: Job, slot: int) -> None:
        tel = self.telemetry
        job.state = RUNNING
        job.worker = slot
        job.started_us = tel.now_us()
        loop = asyncio.get_running_loop()
        try:
            cfut = self.backend.submit(self.runner.spec_for(job.recipe))
        except Exception as exc:
            job.error = f"backend submit failed: {exc}"
            self._slot_freed(slot)
            self._finish_job(job, ERROR)
            return
        # Free the slot when the worker is *actually* idle — not when
        # the waiters are answered.  A timed-out simulation still
        # occupies its thread/process; freeing its slot early would hand
        # the next job to an executor with no idle worker, where it
        # would wait while its own timeout runs.
        def _on_backend_done(_f) -> None:
            try:
                loop.call_soon_threadsafe(self._slot_freed, slot)
            except RuntimeError:  # loop already closed (hard stop)
                pass
        cfut.add_done_callback(_on_backend_done)
        afut = asyncio.wrap_future(cfut, loop=loop)
        try:
            result = await asyncio.wait_for(asyncio.shield(afut),
                                            job.timeout)
        except asyncio.TimeoutError:
            cfut.cancel()
            _swallow(afut)
            job.error = f"timed out after {job.timeout:g}s"
            self._finish_job(job, TIMEOUT)
        except asyncio.CancelledError:
            cfut.cancel()
            _swallow(afut)
            job.error = "server stopped"
            self._finish_job(job, CANCELLED)
            raise
        except Exception as exc:
            job.error = f"{type(exc).__name__}: {exc}"
            self._finish_job(job, ERROR)
        else:
            job.payload = pickle.dumps(result, PICKLE_PROTOCOL)
            self._finish_job(job, DONE)

    def _slot_freed(self, slot: int) -> None:
        """The backend future of the job on ``slot`` completed."""
        heapq.heappush(self._free, slot)
        self._kick()

    def _finish_job(self, job: Job, state: str) -> None:
        """Terminal bookkeeping: retire, notify waiters, record, kick."""
        job.state = state
        if job.finished_us is None:
            job.finished_us = self.telemetry.now_us()
        self.registry.retire(job)
        self.telemetry.job_done(job.id, job.worker, state, job.label(),
                                job.started_us, job.elapsed_us())
        for _, fut in job.waiters:
            if not fut.done():
                fut.set_result(job)
        job.waiters = []
        self._remember_finished(job)
        self._kick()

    def _remember_finished(self, job: Job) -> None:
        self._finished.append(job)
        while len(self._finished) > FINISHED_KEEP:
            self.registry.forget(self._finished.popleft())


class ServerStopped(RuntimeError):
    """The server loop stopped before it ran a :meth:`ServerThread.call`."""


class ServerThread:
    """Run a :class:`JobServer` on a background thread's event loop.

    The bridge every synchronous caller uses (tests and the CLI smoke
    verb): ``start()`` blocks until the socket is bound,
    :meth:`call` runs a coroutine on the server's loop, ``stop()``
    drains and joins.  Usable as a context manager.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.server: Optional[JobServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error!r}"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            self.server = JobServer(self.config)
            await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self.server.wait_closed()

    @property
    def address(self):
        assert self.server is not None
        return self.server.address

    def call(self, coro, timeout: float = 60.0):
        """Run ``coro`` on the server loop; return its result.

        Raises :class:`ServerStopped` as soon as the server loop has
        stopped: a coroutine handed to a loop that has stopped never
        runs, so waiting out ``timeout`` would only hang the caller.
        """
        assert self._loop is not None
        try:
            fut = None if self._loop_done() else \
                asyncio.run_coroutine_threadsafe(coro, self._loop)
        except RuntimeError:  # the loop closed after the check
            fut = None
        deadline = time.monotonic() + timeout
        while fut is not None:
            left = deadline - time.monotonic()
            try:
                return fut.result(min(0.1, max(left, 0.0)))
            except concurrent.futures.CancelledError:
                break  # only the loop's own shutdown cancels the task
            except concurrent.futures.TimeoutError:
                if self._loop_done():
                    break
                if left <= 0.1:
                    raise
        coro.close()  # never ran or was cancelled: no "never awaited"
        raise ServerStopped("repro-serve server has stopped")

    def _loop_done(self) -> bool:
        """True once the server loop can no longer run anything."""
        return self._loop.is_closed() or not self._thread.is_alive()

    def pause_dispatch(self) -> None:
        assert self.server is not None
        self.call(self.server.set_paused(True))

    def resume_dispatch(self) -> None:
        assert self.server is not None
        self.call(self.server.set_paused(False))

    def status(self) -> Dict:
        assert self.server is not None
        async def _status() -> Dict:
            return self.server.status_doc()
        return self.call(_status())

    def stop(self, drain: bool = True) -> None:
        if self.server is not None and self._loop is not None:
            try:
                self.call(self.server.shutdown(drain=drain), timeout=120.0)
            except ServerStopped:
                pass  # a client's shutdown op stopped it already
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop(drain=exc[0] is None)
