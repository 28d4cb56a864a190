"""repro.serve — simulation-as-a-service with token-based balancing.

An asyncio job server that accepts sweep requests (lists of
:class:`~repro.analysis.runner.Recipe`) over a line-delimited JSON
protocol, coalesces identical in-flight recipes across clients onto
one simulation, and dispatches to a pluggable worker backend through a
Comte-style capacity-token scheduler — the service-layer twin of the
chip's :class:`~repro.budget.ptb.PTBLoadBalancer`.

Layout:

* :mod:`.protocol` — wire format, recipe validation;
* :mod:`.jobs` — job lifecycle + the coalescing registry;
* :mod:`.tokens` — the capacity-token balancer;
* :mod:`.backends` — the process and thread worker pools;
* :mod:`.trace` — JOB_* telemetry and the Perfetto trace exporter;
* :mod:`.server` — the event loop tying it together;
* :mod:`.client` — the synchronous client;
* :mod:`.cli` — ``python -m repro.serve`` verbs (serve/submit/status/
  smoke/bench).
"""

from .backends import BACKENDS, make_backend
from .client import JobResult, ServeClient, ServeError, SubmitReply
from .protocol import PROTOCOL_VERSION, ProtocolError
from .server import JobServer, ServeConfig, ServerThread
from .tokens import TokenBalancer

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
    "TokenBalancer",
    "make_backend",
]
