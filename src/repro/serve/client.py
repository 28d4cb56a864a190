"""Synchronous client for the job server.

A thin blocking wrapper over the line-delimited JSON protocol: one
socket, one request at a time, results streamed back as they complete.
Used by the ``submit``/``status`` CLI verbs, the CI smoke gate and the
test suite (which deliberately has no async test runner — the server
runs on a background thread and plain sockets talk to it).

    with ServeClient.connect(path) as cli:
        reply = cli.submit([Recipe("fft", 8, "ptb", "dynamic")])
        for res in reply.results:
            print(res.recipe, res.result.avg_power)
"""

from __future__ import annotations

import pickle
import socket
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..analysis.runner import Recipe
from . import protocol

__all__ = ["ServeClient", "JobResult", "SubmitReply", "ServeError"]

#: Address forms `ServeClient.connect` accepts.
Address = Union[str, Tuple[str, int]]


class ServeError(RuntimeError):
    """The server answered with an error / rejected reply."""


class JobResult:
    """One job's outcome as seen by this client."""

    __slots__ = ("job", "recipe", "status", "cached", "coalesced",
                 "elapsed_ms", "error", "payload")

    def __init__(self, job: str, recipe: Optional[Recipe], status: str,
                 cached: bool, coalesced: bool, elapsed_ms: float,
                 error: Optional[str], payload: Optional[bytes]) -> None:
        self.job = job
        self.recipe = recipe
        self.status = status
        self.cached = cached
        self.coalesced = coalesced
        self.elapsed_ms = elapsed_ms
        self.error = error
        #: Raw pickled ``SimResult`` bytes (byte-identical across every
        #: client of the same job) — unpickle lazily via :attr:`result`.
        self.payload = payload

    @property
    def ok(self) -> bool:
        return self.status == "done" and self.payload is not None

    @property
    def result(self):
        """The unpickled :class:`~repro.sim.results.SimResult`."""
        if self.payload is None:
            raise ServeError(
                f"job {self.job} has no result (status={self.status}"
                f"{', ' + self.error if self.error else ''})"
            )
        return pickle.loads(self.payload)


class SubmitReply:
    """The accepted ack plus (when waiting) the streamed results."""

    __slots__ = ("jobs", "rejected", "queue_depth", "results")

    def __init__(self, jobs: List[Dict], rejected: List[Dict],
                 queue_depth: int, results: List[JobResult]) -> None:
        self.jobs = jobs
        self.rejected = rejected
        self.queue_depth = queue_depth
        self.results = results


class ServeClient:
    """One blocking connection to a :class:`~repro.serve.server.JobServer`."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._seq = 0

    # -- connection ---------------------------------------------------------

    @classmethod
    def connect(cls, address: Address,
                timeout: Optional[float] = 60.0) -> "ServeClient":
        """Dial a unix path (str) or ``(host, port)`` tuple."""
        if isinstance(address, str):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(address)
        else:
            host, port = address
            sock = socket.create_connection((host, int(port)),
                                            timeout=timeout)
        return cls(sock)

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- wire helpers -------------------------------------------------------

    def _send(self, msg: Dict) -> None:
        self._sock.sendall(protocol.encode_msg(msg))

    def _recv(self) -> Dict:
        line = self._rfile.readline()
        if not line:
            raise ServeError("server closed the connection")
        return protocol.decode_msg(line)

    def _next_id(self) -> str:
        self._seq += 1
        return f"req-{self._seq}"

    # -- ops ----------------------------------------------------------------

    def ping(self) -> bool:
        self._send({"op": "ping"})
        return self._recv().get("reply") == "pong"

    def status(self) -> Dict:
        self._send({"op": "status"})
        reply = self._recv()
        if reply.get("reply") != "status":
            raise ServeError(f"unexpected status reply: {reply}")
        return reply

    def cancel(self, job_id: str) -> Dict:
        self._send({"op": "cancel", "job": job_id})
        return self._recv()

    def shutdown(self, drain: bool = True) -> Dict:
        self._send({"op": "shutdown", "drain": drain})
        return self._recv()

    def submit_nowait(self, recipes: Sequence[Recipe]) -> SubmitReply:
        """Fire-and-forget: enqueue and return the ack immediately."""
        rid = self._next_id()
        self._send({
            "op": "submit", "id": rid, "wait": False,
            "recipes": [protocol.recipe_to_wire(r) for r in recipes],
        })
        return SubmitReply(*self._read_ack(rid), results=[])

    def submit(self, recipes: Sequence[Recipe],
               timeout: Optional[float] = None) -> SubmitReply:
        """Submit, then block until every job's result has streamed back."""
        reply, _ = self._submit_start(recipes, timeout)
        reply.results.extend(self.stream_results(reply))
        return reply

    def _submit_start(
        self, recipes: Sequence[Recipe], timeout: Optional[float] = None
    ) -> Tuple[SubmitReply, str]:
        """Send a waiting submit and return the ack (results still due).

        Split from :meth:`submit` so tests can park several clients on
        one coalesced job before any result arrives.
        """
        rid = self._next_id()
        msg: Dict = {
            "op": "submit", "id": rid, "wait": True,
            "recipes": [protocol.recipe_to_wire(r) for r in recipes],
        }
        if timeout is not None:
            msg["timeout"] = timeout
        self._send(msg)
        jobs, rejected, depth = self._read_ack(rid)
        return SubmitReply(jobs, rejected, depth, results=[]), rid

    def _read_ack(self, rid: str) -> Tuple[List[Dict], List[Dict], int]:
        reply = self._recv()
        kind = reply.get("reply")
        if kind == "rejected":
            raise ServeError(f"request rejected: {reply.get('reason')}")
        if kind == "error":
            raise ServeError(str(reply.get("error")))
        if kind != "accepted" or reply.get("id") != rid:
            raise ServeError(f"unexpected submit reply: {reply}")
        return (reply.get("jobs", []), reply.get("rejected", []),
                int(reply.get("queue_depth", 0)))

    def stream_results(self, reply: SubmitReply) -> Iterator[JobResult]:
        """Yield one :class:`JobResult` per job until the ``done`` marker."""
        by_id = {j["job"]: j for j in reply.jobs}
        while True:
            msg = self._recv()
            kind = msg.get("reply")
            if kind == "done":
                return
            if kind == "error":
                raise ServeError(str(msg.get("error")))
            if kind != "result":
                raise ServeError(f"unexpected reply mid-stream: {msg}")
            ack = by_id.get(msg.get("job"), {})
            wire = ack.get("recipe")
            payload = None
            if "result" in msg:
                payload = protocol.decode_result(msg["result"])
            yield JobResult(
                job=str(msg.get("job")),
                recipe=(protocol.recipe_from_wire(wire) if wire else None),
                status=str(msg.get("status")),
                cached=bool(msg.get("cached")),
                coalesced=bool(msg.get("coalesced")),
                elapsed_ms=float(msg.get("elapsed_ms", 0.0)),
                error=msg.get("error"),
                payload=payload,
            )
