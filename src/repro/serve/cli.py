"""Command-line front end: ``python -m repro.serve <verb>``.

Verbs::

    serve    run a job server in the foreground
    submit   send recipes to a running server, print the results
    status   print a running server's status document
    smoke    self-contained coalescing smoke test (the CI gate)

``smoke`` is self-contained: it starts its own server on a background
thread (unix socket in a temp dir), drives it with real socket clients,
and tears it down — no daemon management needed in CI.  Throughput and
latency are measured by the repo benchmark (``python -m bench``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from ..analysis.runner import Recipe
from . import protocol
from .backends import BACKENDS
from .client import ServeClient, ServeError
from .server import JobServer, ServeConfig, ServerThread

__all__ = ["main", "build_parser"]


def _add_server_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--unix", metavar="PATH", default=None,
                   help="unix socket path (default: TCP)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = ephemeral, printed at startup)")
    p.add_argument("--backend", choices=BACKENDS, default="process")
    p.add_argument("--workers", type=int, default=None,
                   help="worker slots (default: cpu count)")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="pending jobs admitted before REJECTED")
    p.add_argument("--timeout", type=float, default=None,
                   help="default per-job timeout in seconds")
    p.add_argument("--scale", default=None,
                   help="simulation scale (tiny/small/medium/large)")
    p.add_argument("--max-cycles", type=int, default=400_000)
    p.add_argument("--seed", type=int, default=2011)
    p.add_argument("--engine", default=None,
                   help="simulation engine (reference/fast)")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write a Perfetto trace here at shutdown")


def _config_from(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(
        unix_path=args.unix, host=args.host, port=args.port,
        backend=args.backend, workers=args.workers,
        queue_limit=args.queue_limit, job_timeout=args.timeout,
        scale=args.scale, max_cycles=args.max_cycles, seed=args.seed,
        engine=args.engine, cache_dir=args.cache_dir,
        use_cache=not args.no_cache, trace_path=args.trace,
    )


def _add_client_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--connect", required=True, metavar="ADDR",
                   help="unix socket path, or host:port")


def _parse_addr(addr: str):
    if ":" in addr and not addr.startswith("/") and "/" not in addr:
        host, port = addr.rsplit(":", 1)
        return (host, int(port))
    return addr


def _parse_recipes(args: argparse.Namespace) -> List[Recipe]:
    recipes: List[Recipe] = []
    for raw in args.recipe or []:
        try:
            obj = json.loads(raw)
        except ValueError as exc:
            raise SystemExit(f"bad --recipe JSON {raw!r}: {exc}")
        recipes.append(protocol.recipe_from_wire(obj))
    if args.benchmark:
        recipes.append(protocol.validate_recipe(Recipe(
            benchmark=args.benchmark, cores=args.cores,
            technique=args.technique, policy=args.policy,
            relax=args.relax, budget_fraction=args.budget_fraction,
        )))
    if not recipes:
        raise SystemExit("nothing to submit: use --benchmark or --recipe")
    return recipes


# -- verbs -------------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    config = _config_from(args)

    async def _main() -> None:
        server = JobServer(config)
        await server.start()
        print(f"repro.serve listening on {server.address} "
              f"({server.backend.name} backend, "
              f"{server.backend.workers} workers)", flush=True)
        try:
            await server.wait_closed()
        except asyncio.CancelledError:
            await server.shutdown(drain=True)
            raise

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("interrupted; shut down", file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    recipes = _parse_recipes(args)
    with ServeClient.connect(_parse_addr(args.connect)) as cli:
        reply = cli.submit(recipes, timeout=args.job_timeout)
        for rej in reply.rejected:
            print(f"REJECTED {rej['recipe']}: {rej['reason']}")
        failures = 0
        for res in reply.results:
            tag = ("cached" if res.cached
                   else "coalesced" if res.coalesced else "ran")
            if res.ok:
                r = res.result
                print(f"{res.job} done ({tag}, {res.elapsed_ms:.1f} ms): "
                      f"{r.benchmark} x{r.num_cores} {r.technique} "
                      f"avg_power={r.avg_power:.2f}W cycles={r.cycles}")
            else:
                failures += 1
                print(f"{res.job} {res.status} ({tag}): {res.error}")
        return 1 if (failures or reply.rejected) else 0


def _cmd_status(args: argparse.Namespace) -> int:
    with ServeClient.connect(_parse_addr(args.connect)) as cli:
        print(json.dumps(cli.status(), indent=2, sort_keys=True))
    return 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    """The CI gate: 2 clients, 1 recipe, exactly 1 simulation.

    Asserts the acceptance criteria end to end over real sockets:
    both clients' submissions coalesce onto one job, the disk cache
    gains exactly one entry, and the result payloads are byte-identical.
    """
    tmp = Path(tempfile.mkdtemp(prefix="repro-serve-smoke-"))
    cache_dir = Path(args.cache_dir) if args.cache_dir else tmp / "cache"
    trace_path = args.trace or str(tmp / "serve_trace.json")
    config = ServeConfig(
        unix_path=str(tmp / "serve.sock"), backend="thread", workers=2,
        queue_limit=16, scale="tiny", max_cycles=120_000,
        cache_dir=str(cache_dir), trace_path=trace_path,
    )
    recipe = Recipe("fft", 4, "ptb", "dynamic")
    payloads: Dict[str, bytes] = {}
    errors: List[str] = []

    with ServerThread(config) as st:
        addr = st.address
        # Hold dispatch so both clients attach before the job runs.
        st.pause_dispatch()

        def _client(tag: str) -> None:
            try:
                with ServeClient.connect(addr) as cli:
                    reply, _ = cli._submit_start([recipe])
                    results = list(cli.stream_results(reply))
                    assert len(results) == 1, results
                    res = results[0]
                    if not res.ok:
                        raise ServeError(f"{res.status}: {res.error}")
                    payloads[tag] = res.payload
            except Exception as exc:  # surfaced below, fails the gate
                errors.append(f"{tag}: {exc!r}")

        threads = [threading.Thread(target=_client, args=(f"client-{i}",))
                   for i in range(2)]
        for t in threads:
            t.start()
        # Both submits must have landed before dispatch resumes.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            stats = st.status()["stats"]
            if stats["jobs_submitted"] >= 1 and stats["jobs_coalesced"] >= 1:
                break
            time.sleep(0.02)
        st.resume_dispatch()
        for t in threads:
            t.join(timeout=60)
        status = st.status()

    if errors:
        print("SMOKE FAIL:", *errors, sep="\n  ")
        return 1
    entries = sorted(cache_dir.glob("run_*.pkl"))
    distinct = {payloads[k] for k in payloads}
    checks = [
        ("two clients answered", len(payloads) == 2),
        ("payloads byte-identical", len(distinct) == 1),
        ("exactly one cache entry", len(entries) == 1),
        ("exactly one job submitted",
         status["stats"]["jobs_submitted"] == 1),
        ("second client coalesced",
         status["stats"]["jobs_coalesced"] == 1),
        ("one job done", status["stats"]["jobs_done"] == 1),
        ("trace written", Path(trace_path).is_file()),
    ]
    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"  {'ok' if ok else 'FAIL'}  {name}")
    if failed:
        print(f"SMOKE FAIL: {failed}")
        return 1
    print(f"SMOKE PASS: 1 simulation served {len(payloads)} clients "
          f"({len(payloads[next(iter(payloads))])} bytes each); "
          f"trace at {trace_path}")
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Simulation-as-a-service for the PTB repro harness.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("serve", help="run a job server in the foreground")
    _add_server_opts(p)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("submit", help="submit recipes to a running server")
    _add_client_opts(p)
    p.add_argument("--recipe", action="append", metavar="JSON",
                   help="recipe as a JSON object (repeatable)")
    p.add_argument("--benchmark", default=None)
    p.add_argument("--cores", type=int, default=8)
    p.add_argument("--technique", default="ptb")
    p.add_argument("--policy", default=None)
    p.add_argument("--relax", type=float, default=0.0)
    p.add_argument("--budget-fraction", type=float, default=None)
    p.add_argument("--job-timeout", type=float, default=None)
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser("status", help="print a running server's status")
    _add_client_opts(p)
    p.set_defaults(fn=_cmd_status)

    p = sub.add_parser(
        "smoke",
        help="self-contained coalescing smoke test (CI gate)",
    )
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--trace", metavar="PATH", default=None)
    p.set_defaults(fn=_cmd_smoke)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)
