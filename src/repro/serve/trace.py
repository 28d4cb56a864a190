"""Server telemetry: the chip's event bus, pointed at the service.

The server reuses :mod:`repro.telemetry` wholesale — the same
:class:`~repro.telemetry.events.EventBus` (JOB_* kinds, drop-counting
rings), the same :class:`~repro.telemetry.metrics.MetricsRegistry`
(queue-depth gauge, job counters) and the same Chrome ``trace_event``
JSON output — with two translations:

* time: ``Event.cycle`` carries **microseconds since server start**
  instead of cycles;
* space: ``Event.core`` carries the **worker slot** instead of the
  core (-1 = not yet dispatched / dispatcher-global).

So :func:`build_serve_trace` renders one track per worker slot where
the chip trace renders core tracks, a dispatcher track where the chip
has its PTB-balancer track, and a queue-depth counter where the chip
has power counters.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Tuple

from ..telemetry.events import EventBus, EventKind
from ..telemetry.metrics import MetricsRegistry

__all__ = ["ServeTelemetry", "build_serve_trace", "write_serve_trace"]

#: Cap on retained job slices / counter samples (drop-oldest past it,
#: mirroring the ring buffers' degrade-by-forgetting contract).
SAMPLE_CAP = 1 << 16


class ServeTelemetry:
    """One server's event bus, metrics, and trace raw material."""

    def __init__(self, num_workers: int) -> None:
        self.num_workers = num_workers
        self.bus = EventBus()
        self.metrics = MetricsRegistry()
        self._t0 = time.monotonic()
        #: Completed job slices: (worker, label, start_us, end_us, status).
        self.slices: List[Tuple[int, str, int, int, str]] = []
        #: (us, depth) queue-depth samples at change points.
        self.queue_samples: List[Tuple[int, int]] = []
        self.samples_dropped = 0

    def now_us(self) -> int:
        return int((time.monotonic() - self._t0) * 1e6)

    def _append(self, store: List, item) -> None:
        if len(store) >= SAMPLE_CAP:
            del store[0]
            self.samples_dropped += 1
        store.append(item)

    # -- job lifecycle ------------------------------------------------------

    def job_submit(self, job_id: str, queue_depth: int) -> None:
        self.bus.emit(self.now_us(), EventKind.JOB_SUBMIT, core=-1,
                      value=float(queue_depth), detail=job_id)
        self.metrics.counter("jobs_submitted").inc()
        self.set_queue_depth(queue_depth)

    def job_coalesce(self, job_id: str, waiters: int) -> None:
        self.bus.emit(self.now_us(), EventKind.JOB_COALESCE, core=-1,
                      value=float(waiters), detail=job_id)
        self.metrics.counter("jobs_coalesced").inc()

    def job_reject(self, queue_depth: int) -> None:
        self.bus.emit(self.now_us(), EventKind.JOB_REJECT, core=-1,
                      value=float(queue_depth))
        self.metrics.counter("jobs_rejected").inc()

    def job_done(self, job_id: str, worker: Optional[int], status: str,
                 label: str, started_us: Optional[int],
                 elapsed_us: int) -> None:
        now = self.now_us()
        core = -1 if worker is None else worker
        self.bus.emit(now, EventKind.JOB_DONE, core=core,
                      value=float(elapsed_us), detail=f"{job_id}:{status}")
        self.metrics.counter(f"jobs_{status}").inc()
        if worker is not None and started_us is not None:
            self._append(self.slices,
                         (worker, label, started_us, now, status))

    def cache_hit(self) -> None:
        self.metrics.counter("cache_hits").inc()

    # -- gauges -------------------------------------------------------------

    def set_queue_depth(self, depth: int) -> None:
        self.metrics.gauge("queue_depth").set(float(depth))
        self._append(self.queue_samples, (self.now_us(), depth))


#: pid for every track of one server process.
_PID = 0

#: Job-event names on the dispatcher track.
_JOB_INSTANTS = {
    EventKind.JOB_SUBMIT: "job.submit",
    EventKind.JOB_COALESCE: "job.coalesce",
    EventKind.JOB_REJECT: "job.reject",
    EventKind.JOB_DONE: "job.done",
}


def build_serve_trace(tel: ServeTelemetry) -> Dict:
    """Render server telemetry as Chrome ``trace_event`` JSON.

    Same schema as :func:`repro.telemetry.export.build_chrome_trace`
    (and validated by the same validator): worker tracks instead of
    core tracks, a dispatcher track instead of the balancer track.
    """
    n = tel.num_workers
    dispatcher_tid = n
    events: List[Dict] = []

    def meta(kind: str, tid: Optional[int] = None, **args) -> None:
        ev: Dict = {"name": kind, "ph": "M", "pid": _PID, "args": args}
        if tid is not None:
            ev["tid"] = tid
        events.append(ev)

    meta("process_name", name=f"repro.serve ({n} workers)")
    for i in range(n):
        meta("thread_name", tid=i, name=f"worker {i}")
        meta("thread_sort_index", tid=i, sort_index=i)
    meta("thread_name", tid=dispatcher_tid, name="dispatcher")
    meta("thread_sort_index", tid=dispatcher_tid, sort_index=n)

    body: List[Dict] = []
    # One duration slice per completed job on its worker's track.
    for worker, label, start_us, end_us, status in tel.slices:
        body.append({"name": label, "ph": "B", "pid": _PID, "tid": worker,
                     "ts": float(start_us), "args": {"status": status}})
        body.append({"name": label, "ph": "E", "pid": _PID, "tid": worker,
                     "ts": float(max(end_us, start_us))})

    # Job lifecycle instants on the dispatcher track.
    for kind, name in _JOB_INSTANTS.items():
        for ev in tel.bus.events(kind):
            args: Dict = {"value": ev.value}
            if ev.detail:
                args["detail"] = ev.detail
            body.append({"name": name, "ph": "i", "pid": _PID,
                         "tid": dispatcher_tid, "ts": float(ev.cycle),
                         "s": "t", "args": args})

    # Counter track: queue depth over time.
    for us, depth in tel.queue_samples:
        body.append({"name": "queue depth", "ph": "C", "pid": _PID,
                     "ts": float(us), "args": {"jobs": depth}})

    body.sort(key=lambda e: e["ts"])
    return {
        "traceEvents": events + body,
        "displayTimeUnit": "ns",
        "otherData": {
            "source": "repro.serve",
            "num_workers": n,
            "events_total": tel.bus.total_events,
            "events_dropped": tel.bus.total_dropped,
            "samples_dropped": tel.samples_dropped,
        },
    }


def write_serve_trace(tel: ServeTelemetry, path: str) -> Dict:
    trace = build_serve_trace(tel)
    with open(path, "w") as fh:
        json.dump(trace, fh)
    return trace
