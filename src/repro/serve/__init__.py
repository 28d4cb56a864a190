"""repro.serve — simulation-as-a-service.

An asyncio job server that accepts sweep requests (lists of
:class:`~repro.analysis.runner.Recipe`) over a line-delimited JSON
protocol, coalesces identical in-flight recipes across clients onto
one simulation, and dispatches each job to the lowest free slot of a
pluggable worker backend.

Layout:

* :mod:`.protocol` — wire format, recipe validation;
* :mod:`.jobs` — job lifecycle + the coalescing registry;
* :mod:`.backends` — the process and thread worker pools;
* :mod:`.trace` — JOB_* telemetry and the Perfetto trace exporter;
* :mod:`.server` — the event loop and slot free list tying it together;
* :mod:`.client` — the synchronous client;
* :mod:`.cli` — ``python -m repro.serve`` verbs (serve/submit/status/
  smoke).
"""

from .backends import BACKENDS, make_backend
from .client import JobResult, ServeClient, ServeError, SubmitReply
from .protocol import PROTOCOL_VERSION, ProtocolError
from .server import JobServer, ServeConfig, ServerThread

__all__ = [
    "BACKENDS",
    "JobResult",
    "JobServer",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerThread",
    "SubmitReply",
    "make_backend",
]
