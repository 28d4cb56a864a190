"""The job server end to end, over real sockets.

The suite drives a :class:`~repro.serve.server.JobServer` on a
background-thread event loop (:class:`ServerThread`) with blocking
:class:`ServeClient` connections — the same topology as production,
minus the child processes (the thread backend keeps the simulation in
this process so monkeypatched spies can count actual `_simulate`
calls).

The acceptance test is first: two concurrent clients submitting the
same recipe produce exactly ONE simulation and byte-identical result
payloads.  The rest covers the failure paths: disconnects mid-job,
timeouts, cancellation, queue overflow, drain shutdown.
"""

import json
import pickle
import threading
import time

import pytest

from repro.analysis.runner import Recipe
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import ServeConfig, ServerStopped, ServerThread

RECIPE = Recipe("swaptions", 2, "ptb", "toall")
OTHER = Recipe("ocean", 2)


def make_config(tmp_path, **over) -> ServeConfig:
    kw = dict(
        unix_path=str(tmp_path / "serve.sock"), backend="thread",
        workers=2, scale="tiny", max_cycles=120_000,
        cache_dir=str(tmp_path / "cache"),
    )
    kw.update(over)
    return ServeConfig(**kw)


def wait_until(pred, timeout=15.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


@pytest.fixture
def sim_calls(monkeypatch):
    """Spy on the actual simulation entry point; returns the call list."""
    import repro.analysis.runner as runner_mod

    calls = []
    lock = threading.Lock()
    real = runner_mod._simulate

    def spy(*args, **kwargs):
        with lock:
            calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "_simulate", spy)
    return calls


class TestCoalescing:
    def test_two_clients_one_simulation_byte_identical(
            self, tmp_path, sim_calls):
        """The acceptance criterion, verbatim."""
        with ServerThread(make_config(tmp_path)) as st:
            st.pause_dispatch()
            results = {}
            errors = []

            def client(tag):
                try:
                    with ServeClient.connect(st.address) as cli:
                        reply, _ = cli._submit_start([RECIPE])
                        (res,) = list(cli.stream_results(reply))
                        results[tag] = res
                except Exception as exc:
                    errors.append(f"{tag}: {exc!r}")

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            wait_until(
                lambda: st.status()["stats"]["jobs_coalesced"] == 1,
                what="second submit to coalesce")
            assert st.status()["stats"]["jobs_submitted"] == 1
            st.resume_dispatch()
            for t in threads:
                t.join(timeout=60)
            status = st.status()

        assert errors == []
        assert len(sim_calls) == 1, "coalescing must run ONE simulation"
        a, b = results[0], results[1]
        assert a.ok and b.ok
        assert a.payload == b.payload, "waiters must share one payload"
        assert a.coalesced and b.coalesced
        assert pickle.loads(a.payload).cycles == \
            pickle.loads(b.payload).cycles
        assert status["stats"]["jobs_done"] == 1
        assert status["live_jobs"] == 0
        (entry,) = (tmp_path / "cache").glob("run_*.pkl")
        assert entry.is_file()

    def test_terminal_job_not_coalesced_cache_answers(
            self, tmp_path, sim_calls):
        with ServerThread(make_config(tmp_path)) as st:
            with ServeClient.connect(st.address) as cli:
                first = cli.submit([RECIPE]).results[0]
            with ServeClient.connect(st.address) as cli:
                second = cli.submit([RECIPE]).results[0]
            stats = st.status()["stats"]
        assert len(sim_calls) == 1
        assert not first.cached and second.cached
        assert stats["cache_hits"] == 1
        assert stats["jobs_submitted"] == 1  # second never queued
        assert first.payload == second.payload

    def test_warm_submit_computes_one_key_per_recipe(
            self, tmp_path, monkeypatch):
        """The server's cache probe reuses the key it coalesces on."""
        import repro.analysis.runner as runner_mod

        with ServerThread(make_config(tmp_path)) as st:
            with ServeClient.connect(st.address) as cli:
                cli.submit([RECIPE])     # cold: simulated, memoised
                cli.submit([RECIPE])     # a memo hit
            before = st.status()["runner"]
            calls = []
            real = runner_mod._cache_key

            def spy(*args, **kwargs):
                calls.append(args[0])
                return real(*args, **kwargs)

            monkeypatch.setattr(runner_mod, "_cache_key", spy)
            with ServeClient.connect(st.address) as cli:
                reply = cli.submit([RECIPE, RECIPE, RECIPE])
            after = st.status()["runner"]
        assert calls == [RECIPE] * 3
        assert [r.cached for r in reply.results] == [True] * 3
        assert after["mem_hits"] == before["mem_hits"] + 3

    def test_cold_result_is_memoised(self, tmp_path, sim_calls):
        """A cold job's result enters the runner's memo, so the next
        submit of its recipe is a memo hit, not a disk re-read."""
        with ServerThread(make_config(tmp_path)) as st:
            with ServeClient.connect(st.address) as cli:
                cli.submit([RECIPE])
                before = st.status()["runner"]
                cli.submit([RECIPE])
            after = st.status()["runner"]
        assert len(sim_calls) == 1
        assert after["mem_hits"] == before["mem_hits"] + 1
        assert after["disk_hits"] == before["disk_hits"]

    def test_duplicate_recipes_in_one_request_coalesce(
            self, tmp_path, sim_calls):
        with ServerThread(make_config(tmp_path)) as st:
            with ServeClient.connect(st.address) as cli:
                reply = cli.submit([RECIPE, RECIPE, RECIPE])
            stats = st.status()["stats"]
        assert len(sim_calls) == 1
        # Three acks, one underlying job, one result message.
        assert len(reply.jobs) == 3
        assert len({j["job"] for j in reply.jobs}) == 1
        assert len(reply.results) == 1 and reply.results[0].ok
        assert stats["jobs_coalesced"] == 2


class TestDisconnect:
    def test_last_waiter_disconnect_cancels_pending_job(
            self, tmp_path, sim_calls):
        with ServerThread(make_config(tmp_path)) as st:
            st.pause_dispatch()
            cli = ServeClient.connect(st.address)
            cli._submit_start([RECIPE])
            wait_until(
                lambda: st.status()["stats"]["jobs_submitted"] == 1,
                what="submit to land")
            cli.close()
            wait_until(
                lambda: st.status()["stats"]["jobs_cancelled"] == 1,
                what="abandoned job to be cancelled")
            status = st.status()
            assert status["live_jobs"] == 0
            assert status["queue_depth"] == 0
            st.resume_dispatch()
            time.sleep(0.1)
        assert sim_calls == [], "abandoned work must never reach a worker"

    def test_surviving_waiter_keeps_coalesced_job_alive(
            self, tmp_path, sim_calls):
        with ServerThread(make_config(tmp_path)) as st:
            st.pause_dispatch()
            quitter = ServeClient.connect(st.address)
            quitter._submit_start([RECIPE])
            wait_until(
                lambda: st.status()["stats"]["jobs_submitted"] == 1,
                what="first submit")
            result = {}

            def stayer():
                with ServeClient.connect(st.address) as cli:
                    reply, _ = cli._submit_start([RECIPE])
                    (result["res"],) = list(cli.stream_results(reply))

            t = threading.Thread(target=stayer)
            t.start()
            wait_until(
                lambda: st.status()["stats"]["jobs_coalesced"] == 1,
                what="second submit to coalesce")
            quitter.close()  # mid-job disconnect of the FIRST waiter
            time.sleep(0.05)
            assert st.status()["live_jobs"] == 1, \
                "job must survive while a waiter remains"
            st.resume_dispatch()
            t.join(timeout=60)
            stats = st.status()["stats"]
        assert len(sim_calls) == 1
        assert result["res"].ok
        assert stats["jobs_done"] == 1
        assert stats["jobs_cancelled"] == 0


class TestTimeoutAndCancel:
    def test_job_timeout_answers_waiter_and_returns_token(
            self, tmp_path, monkeypatch):
        """The waiter hears the timeout at once; the slot returns to the
        free list only when the backend future completes."""
        import repro.analysis.runner as runner_mod

        release = threading.Event()

        def stuck(*args, **kwargs):
            release.wait(timeout=30)
            raise RuntimeError("worker released after timeout test")

        monkeypatch.setattr(runner_mod, "_simulate", stuck)
        try:
            with ServerThread(make_config(tmp_path, workers=1)) as st:
                with ServeClient.connect(st.address) as cli:
                    reply = cli.submit([RECIPE], timeout=0.2)
                    (res,) = reply.results
                assert res.status == "timeout"
                assert "timed out after 0.2s" in res.error
                # The worker still runs the simulation: the slot must
                # NOT be free yet, so nothing else can be dispatched.
                assert st.status()["busy_slots"] == [0]
                with ServeClient.connect(st.address) as cli:
                    cli.submit_nowait([OTHER])
                    wait_until(
                        lambda: st.status()["queue_depth"] == 1,
                        what="second job to queue behind the busy slot")
                    assert st.status()["running"] == 0
                    release.set()
                    wait_until(
                        lambda: st.status()["stats"]["jobs_error"] == 1,
                        what="second job to run once the slot frees")
                wait_until(
                    lambda: st.status()["busy_slots"] == [],
                    what="slot to free when its backend future completes")
                assert st.status()["stats"]["jobs_timeout"] == 1
        finally:
            release.set()

    def test_cancel_pending_job(self, tmp_path, sim_calls):
        with ServerThread(make_config(tmp_path)) as st:
            st.pause_dispatch()
            with ServeClient.connect(st.address) as cli:
                reply, _ = cli._submit_start([RECIPE])
                job_id = reply.jobs[0]["job"]
                cli._send({"op": "cancel", "job": job_id})
                # Replies interleave: collect until cancel-ok AND the
                # submit stream's done marker both arrived.
                kinds, result_msgs = set(), []
                while {"cancel-ok", "done"} - kinds:
                    msg = cli._recv()
                    kinds.add(msg["reply"])
                    if msg["reply"] == "result":
                        result_msgs.append(msg)
                assert len(result_msgs) == 1
                assert result_msgs[0]["status"] == "cancelled"
            st.resume_dispatch()
            time.sleep(0.1)
            stats = st.status()["stats"]
        assert sim_calls == []
        assert stats["jobs_cancelled"] == 1

    def test_cancel_unknown_job_is_harmless(self, tmp_path):
        with ServerThread(make_config(tmp_path)) as st:
            with ServeClient.connect(st.address) as cli:
                reply = cli.cancel("job-999")
        assert reply["reply"] == "cancel-ok"
        assert reply["state"] == "unknown"


class TestSlots:
    def test_next_job_takes_the_slot_that_finished(
            self, tmp_path, monkeypatch):
        """A runs on slot 0 and B on slot 1; B finishes first, so C must
        run on slot 1 — never on slot 0 beside the still-running A."""
        import repro.analysis.runner as runner_mod

        real = runner_mod._simulate
        a, b, c = Recipe("ocean", 2), RECIPE, Recipe("barnes", 2)
        started = {r.benchmark: threading.Event() for r in (a, b, c)}
        release = {r.benchmark: threading.Event() for r in (a, b, c)}

        def gated(recipe, *args):
            started[recipe.benchmark].set()
            release[recipe.benchmark].wait(timeout=30)
            return real(recipe, *args)

        monkeypatch.setattr(runner_mod, "_simulate", gated)
        trace_path = tmp_path / "serve_trace.json"
        config = make_config(tmp_path, trace_path=str(trace_path))
        try:
            with ServerThread(config) as st, \
                    ServeClient.connect(st.address) as cli:
                for recipe in (a, b):
                    cli.submit_nowait([recipe])
                    assert started[recipe.benchmark].wait(timeout=30)
                release[b.benchmark].set()
                wait_until(lambda: st.status()["stats"]["jobs_done"] == 1,
                           what="B to finish")
                busy = [st.status().get("busy_slots")]
                cli.submit_nowait([c])
                assert started[c.benchmark].wait(timeout=30)
                busy.append(st.status().get("busy_slots"))
                release[a.benchmark].set()
                release[c.benchmark].set()
                wait_until(lambda: st.status()["stats"]["jobs_done"] == 3,
                           what="A and C to finish")
        finally:
            for ev in release.values():
                ev.set()

        trace = json.loads(trace_path.read_text())
        slot_name = {e["tid"]: e["args"]["name"] for e in trace["traceEvents"]
                     if e["name"] == "thread_name"}
        tracks = {}
        for ev in trace["traceEvents"]:
            if ev["ph"] == "B":
                tracks.setdefault(slot_name[ev["tid"]], []).append(
                    [ev["name"], ev["ts"], None])
            elif ev["ph"] == "E":
                open_slice = next(sl for sl in tracks[slot_name[ev["tid"]]]
                                  if sl[2] is None)
                open_slice[2] = ev["ts"]
        labels = {slot: [sl[0].split(" ")[0] for sl in slices]
                  for slot, slices in tracks.items()}
        assert labels == {"worker 0": ["ocean"],
                          "worker 1": ["swaptions", "barnes"]}
        for slices in tracks.values():
            for (_, _, end), (_, start, _) in zip(slices, slices[1:]):
                assert start >= end, tracks
        assert busy == [[0], [0, 1]]


class TestBackpressure:
    def test_queue_full_rejects_explicitly(self, tmp_path, sim_calls):
        config = make_config(tmp_path, queue_limit=1)
        with ServerThread(config) as st:
            st.pause_dispatch()
            with ServeClient.connect(st.address) as cli:
                reply, _ = cli._submit_start([RECIPE, OTHER])
                assert len(reply.jobs) == 1
                assert len(reply.rejected) == 1
                rej = reply.rejected[0]
                assert "queue full (limit 1)" in rej["reason"]
                assert rej["recipe"]["benchmark"] == OTHER.benchmark
                assert st.status()["stats"]["jobs_rejected"] == 1
                # Accepted job still completes once dispatch resumes.
                st.resume_dispatch()
                (res,) = list(cli.stream_results(reply))
                assert res.ok
        assert len(sim_calls) == 1

    def test_coalesced_submit_ignores_full_queue(self, tmp_path, sim_calls):
        # A duplicate of an in-flight recipe needs no queue slot, so it
        # must be accepted even when the queue is at its limit.
        config = make_config(tmp_path, queue_limit=1)
        with ServerThread(config) as st:
            st.pause_dispatch()
            with ServeClient.connect(st.address) as a, \
                    ServeClient.connect(st.address) as b:
                ra, _ = a._submit_start([RECIPE])
                wait_until(
                    lambda: st.status()["queue_depth"] == 1,
                    what="queue to fill")
                rb, _ = b._submit_start([RECIPE])
                assert rb.rejected == []
                assert rb.jobs[0]["coalesced"]
                st.resume_dispatch()
                (res_a,) = list(a.stream_results(ra))
                (res_b,) = list(b.stream_results(rb))
        assert len(sim_calls) == 1
        assert res_a.payload == res_b.payload


class TestValidationAndOps:
    def test_invalid_recipe_rejected_at_the_door(self, tmp_path, sim_calls):
        with ServerThread(make_config(tmp_path)) as st:
            with ServeClient.connect(st.address) as cli:
                reply = cli.submit([Recipe("quake3", 4)])
        assert reply.jobs == []
        assert "unknown benchmark" in reply.rejected[0]["reason"]
        assert sim_calls == []

    def test_empty_submit_is_an_error(self, tmp_path):
        with ServerThread(make_config(tmp_path)) as st:
            with ServeClient.connect(st.address) as cli:
                with pytest.raises(ServeError, match="non-empty"):
                    cli.submit([])

    def test_garbage_line_answered_not_fatal(self, tmp_path):
        with ServerThread(make_config(tmp_path)) as st:
            with ServeClient.connect(st.address) as cli:
                cli._sock.sendall(b"this is not json\n")
                assert "malformed" in cli._recv()["error"]
                assert cli.ping()  # connection still usable

    def test_unknown_op_answered(self, tmp_path):
        with ServerThread(make_config(tmp_path)) as st:
            with ServeClient.connect(st.address) as cli:
                cli._send({"op": "frobnicate"})
                assert "unknown op" in cli._recv()["error"]

    def test_status_document_shape(self, tmp_path):
        with ServerThread(make_config(tmp_path)) as st:
            with ServeClient.connect(st.address) as cli:
                doc = cli.status()
        assert doc["protocol"] == 1
        assert doc["backend"] == "thread"
        assert doc["queue_depth"] == 0 and doc["live_jobs"] == 0
        assert doc["slots"] == 2 and doc["busy_slots"] == []
        assert json.dumps(doc)  # JSON-clean throughout

    def test_submit_nowait_acks_and_runs(self, tmp_path, sim_calls):
        with ServerThread(make_config(tmp_path)) as st:
            with ServeClient.connect(st.address) as cli:
                reply = cli.submit_nowait([RECIPE])
                assert len(reply.jobs) == 1 and reply.results == []
                wait_until(
                    lambda: st.status()["stats"]["jobs_done"] == 1,
                    what="fire-and-forget job to finish")
        assert len(sim_calls) == 1


class TestShutdown:
    def test_drain_finishes_inflight_work(self, tmp_path, sim_calls):
        st = ServerThread(make_config(tmp_path)).start()
        results = {}

        def client():
            with ServeClient.connect(st.address) as cli:
                results["res"] = cli.submit([RECIPE]).results[0]

        t = threading.Thread(target=client)
        t.start()
        wait_until(lambda: st.status()["stats"]["jobs_submitted"] == 1,
                   what="submit to land")
        st.stop(drain=True)  # must wait for the job and flush the result
        t.join(timeout=60)
        assert results["res"].ok
        assert len(sim_calls) == 1

    def test_draining_server_rejects_new_submits(self, tmp_path):
        with ServerThread(make_config(tmp_path)) as st:
            with ServeClient.connect(st.address) as cli:
                assert cli.shutdown(drain=True)["reply"] == "shutdown-ok"

            def draining():
                try:
                    return st.status()["draining"]
                except ServerStopped:  # already stopped: drained
                    return True

            wait_until(draining, timeout=5, what="drain to start")

    def test_status_on_stopped_server_raises_promptly(self, tmp_path):
        st = ServerThread(make_config(tmp_path)).start()
        st.stop(drain=True)
        t0 = time.monotonic()
        with pytest.raises(ServerStopped, match="stopped"):
            st.status()
        assert time.monotonic() - t0 < 1.0

    def test_trace_written_at_shutdown(self, tmp_path):
        from repro.telemetry.export import validate_chrome_trace

        trace_path = tmp_path / "serve_trace.json"
        config = make_config(tmp_path, trace_path=str(trace_path))
        st = ServerThread(config).start()
        with ServeClient.connect(st.address) as cli:
            assert cli.submit([RECIPE]).results[0].ok
        st.stop(drain=True)

        trace = json.loads(trace_path.read_text())
        validate_chrome_trace(trace)
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"job.submit", "job.done", "queue depth"} <= names
        threads = {e["args"]["name"] for e in trace["traceEvents"]
                   if e["name"] == "thread_name"}
        assert {"worker 0", "worker 1", "dispatcher"} <= threads
        # Exactly one job slice (B/E pair) across the worker tracks.
        slices = [e for e in trace["traceEvents"] if e["ph"] == "B"]
        assert len(slices) == 1
        assert slices[0]["name"].startswith("swaptions x2 ptb")
