"""``serve-mixed``: the cluster CLI under closed-loop load, two request types.

The system under test is ``python -m repro serve --cluster --workers 1`` in
its own process group: one asyncio gateway and one forked matcher worker.
The load generator is this process: two threads, each with one keep-alive
``MatchingClient`` connection, each sending its next request only after the
previous answer (closed loop).  Two outstanding requests keep the single
worker busy, so throughput is the capacity, not an offered rate.  Requests
are never retried and every client call has a finite timeout.

Each server runs a match phase, then a streaming phase.  In the match phase
every request is one ``/v1/match`` of one trajectory; in the streaming
phase each connection runs sessions back to back (create, one point per
``feed_points``, close).  Each connection owns a fixed, seed-derived list
of work, so which requests hit the gateway's response cache (every fifth
``/v1/match`` request of a connection repeats the one that connection sent
three requests earlier) and every count the run reports do not depend on
thread timing.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from perfbench.common import (
    Result,
    accuracy,
    chunks,
    cpu_probe_ms,
    digest,
    end_to_end,
    load_and_fit,
    make_inputs,
    root_self_fraction,
    span_metrics,
    split,
    trace_overhead,
)
from perfbench.trace import SPAN_NAMES, Tracer, instrumented

PRESET, SCALE = "xiamen", 0.5
TRAIN, WARMUP = 40, 8
CONNECTIONS = 2
LAG = 4
#: ``/v1/match`` requests and streaming sessions per second of ``--seconds``:
#: the work is sized from the run length, never from speed.  The ratio gives
#: the two phases about the same time.
MATCH_REQUESTS_PER_SECOND = 50
STREAM_SESSIONS_PER_SECOND = 26
#: Every REPEAT_EVERY-th ``/v1/match`` request of a connection repeats the
#: trajectory that connection sent REPEAT_BACK requests earlier (answered).
REPEAT_EVERY, REPEAT_BACK = 5, 3
SETUPS = 3
#: Served match results and closed sessions compared with the in-process
#: decode in an untraced run (a traced run compares all of them).
CHECK_SAMPLE = 24
#: Distinct trips and sessions decoded traced and untraced to estimate
#: tracing overhead.
OVERHEAD_SAMPLE = 24
CLIENT_TIMEOUT_S = 30.0
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


# --------------------------------------------------------------- the server
class ClusterProcess:
    """``python -m repro serve --cluster`` in a process group of its own."""

    def __init__(self, work: Path, dataset_path: Path, model_path: Path) -> None:
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(
            os.environ,
            PYTHONPATH=str(src),
            PYTHONPYCACHEPREFIX=str(work / "pycache"),
        )
        self.log_path = work / "server.log"
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--cluster",
                 "--dataset", str(dataset_path), "--model", str(model_path),
                 "--workers", "1", "--port", "0"],
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                cwd=work,
                env=env,
                start_new_session=True,
            )

    def await_port(self) -> int:
        """The gateway's port, read from its banner once it is serving."""
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        marker = "cluster gateway at http://"
        while time.monotonic() < deadline:
            text = self.log_path.read_text()
            if marker in text:
                address = text.split(marker, 1)[1].split()[0].rstrip("/")
                return int(address.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"cluster did not boot:\n{self.log_path.read_text()}")

    def _group_alive(self) -> bool:
        """Any non-zombie process left in the server's process group."""
        pgid = self.proc.pid
        for stat in Path("/proc").glob("[0-9]*/stat"):
            try:
                fields = stat.read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[2]) == pgid and fields[0] != "Z":
                return True
        return False

    def stop(self) -> None:
        """SIGINT drain, then wait for every process of the group to end."""
        pgid = self.proc.pid
        with contextlib.suppress(ProcessLookupError):
            os.killpg(pgid, signal.SIGINT)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pgid, signal.SIGKILL)
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while self._group_alive():
            if time.monotonic() > deadline:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(pgid, signal.SIGKILL)
                deadline = time.monotonic() + STOP_TIMEOUT_S
            time.sleep(0.02)


def _peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _client(port: int):
    from repro.serve import MatchingClient

    class CountingClient(MatchingClient):
        """Counts dropped connections: a request that needed a new socket
        was retried by the client, so the benchmark counts it as failed."""

        drops = 0

        def _drop_connection(self, connection) -> None:
            self.drops += 1
            super()._drop_connection(connection)

    # failover_deadline_s=0: busy answers and transport errors raise at once.
    return CountingClient(
        "127.0.0.1", port, timeout=CLIENT_TIMEOUT_S, keep_alive=True,
        failover_deadline_s=0.0,
    )


# ------------------------------------------------------------------ the plan
def _match_schedule(n_requests: int, distinct: int) -> tuple[list[list[int]], int]:
    """Per-connection lists of distinct-trajectory indices, with repeats.

    New trajectories are numbered from ``distinct``; also returns the next
    unused number.
    """
    orders: list[list[int]] = [[] for _ in range(CONNECTIONS)]
    for i in range(n_requests):
        order = orders[i % CONNECTIONS]
        if len(order) % REPEAT_EVERY == REPEAT_EVERY - 1:
            order.append(order[-REPEAT_BACK])
        else:
            order.append(distinct)
            distinct += 1
    return orders, distinct


def _plan(seconds: float):
    """Per set-up ``(match orders, session orders)``, one order per
    connection; the number of distinct matched trips; every streamed trip.
    Trips ``0..n_match-1`` are matched, the ones after them streamed."""
    n_requests = max(40, round(MATCH_REQUESTS_PER_SECOND * seconds))
    n_sessions = max(8, round(STREAM_SESSIONS_PER_SECOND * seconds))
    matches, n_match = [], 0
    for n in split(n_requests, SETUPS):
        orders, n_match = _match_schedule(n, n_match)
        matches.append(orders)
    sessions = [
        [[n_match + i for i in piece[c::CONNECTIONS]] for c in range(CONNECTIONS)]
        for piece in chunks(n_sessions, SETUPS)
    ]
    streamed = [i for orders in sessions for order in orders for i in order]
    return list(zip(matches, sessions)), n_match, streamed


class _Load:
    """One connection's results in one phase: per-op latency and outcome."""

    def __init__(self) -> None:
        self.op_seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.answers: dict[int, object] = {}
        self.trajectories = 0
        self.points = 0

    def call(self, client, tracer, fn, *args):
        """One request; returns its answer or None when it failed."""
        self.attempted += 1
        drops = client.drops
        start = time.perf_counter()
        try:
            with tracer.span("serve.client_request") if tracer else contextlib.nullcontext():
                answer = fn(*args)
        except (OSError, http.client.HTTPException, RuntimeError) as error:
            # ServeClientError is a RuntimeError; timeouts are OSErrors.
            answer, reason = None, repr(error)
        else:
            reason = "connection re-opened" if client.drops != drops else None
        elapsed = time.perf_counter() - start
        if reason is not None:
            self.failed += 1
            self.errors.append(reason)
            return None, elapsed
        return answer, elapsed


def _merge(loads: list[_Load]) -> _Load:
    """One phase's results over every connection."""
    merged = _Load()
    for load in loads:
        merged.op_seconds += load.op_seconds
        merged.attempted += load.attempted
        merged.failed += load.failed
        merged.errors += load.errors
        merged.answers.update(load.answers)
        merged.trajectories += load.trajectories
        merged.points += load.points
    return merged


def _match_loop(client, tracer, payloads, order, load: _Load) -> None:
    for idx in order:
        answer, elapsed = load.call(client, tracer, client.match, payloads[idx])
        load.op_seconds.append(elapsed)
        if answer is None:
            continue
        if len(answer) != 1 or "path" not in answer[0]:
            load.failed += 1
            load.errors.append(f"error slot: {answer!r:.200}")
            continue
        if load.answers.setdefault(idx, answer[0]) != answer[0]:
            load.errors.append(f"trajectory {idx}: a repeat answered differently")
        load.trajectories += 1
        load.points += len(payloads[idx])


def _stream_loop(client, tracer, payloads, order, load: _Load) -> None:
    for idx in order:
        session, _ = load.call(client, tracer, client.create_session, LAG)
        if session is None:
            continue
        fed = True
        for point in payloads[idx]:
            state, elapsed = load.call(
                client, tracer, client.feed_points, session.session_id, [point]
            )
            load.op_seconds.append(elapsed)
            if state is None:
                fed = False
                break
            load.points += 1
        closed, _ = load.call(client, tracer, client.close_session, session.session_id)
        if fed and closed is not None:
            load.answers[idx] = closed["path"]
            load.trajectories += 1


def _timed(loop, clients, tracer, payloads, orders, loads) -> float:
    """Every connection works through its order in its own thread; wall time."""
    threads = [
        threading.Thread(
            target=loop, args=(clients[c], tracer, payloads, orders[c], loads[c])
        )
        for c in range(CONNECTIONS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


# ------------------------------------------------------------------- setup
def _setup_once(city_path: Path, work: Path, servers: list, warmup):
    """Fit, save the model artifact, boot the cluster and warm it up.

    The server joins ``servers`` as soon as it exists, so the caller stops
    it whatever happens next.
    """
    times = {}
    start = time.perf_counter()
    dataset, model = load_and_fit(city_path)
    times["fit"] = time.perf_counter() - start
    mark = time.perf_counter()
    model_path = work / "model.npz"
    model.save(model_path)
    times["artifacts"] = time.perf_counter() - mark
    mark = time.perf_counter()
    server = ClusterProcess(work, city_path, model_path)
    servers.append(server)
    port = server.await_port()
    clients = [_client(port) for _ in range(CONNECTIONS)]
    clients[0].health()
    times["boot"] = time.perf_counter() - mark
    _warm_up(clients, warmup)
    times["total"] = time.perf_counter() - start
    return dataset, server, clients, times, model_path


def _warm_up(clients, samples) -> None:
    """Open every connection and run each request type outside the timed set."""
    from repro.serve import protocol

    for i, sample in enumerate(samples):
        client = clients[i % CONNECTIONS]
        points = protocol.encode_trajectory(sample.cellular)
        client.match(points)
        session = client.create_session(LAG)
        for point in points:
            client.feed_points(session.session_id, [point])
        client.close_session(session.session_id)


def _counters(metrics: dict) -> Counter:
    """The gateway's cumulative counters the per-layer metrics are made of.

    Counters appear in ``/metrics`` only once they are first bumped.
    """
    admission, counters = metrics["admission"], metrics["counters"]
    return Counter({
        "cache_hits": metrics["cache"].get("hits", 0),
        "cache_misses": metrics["cache"].get("misses", 0),
        "admitted": admission.get("admitted_total", 0),
        "shed": admission.get("shed_overflow_total", 0)
        + admission.get("shed_deadline_total", 0),
        "worker_requests": metrics["workers"][0]["requests_total"],
        "sessions_opened": counters.get("sessions_created", 0),
        "sessions_replayed": counters.get("sessions_replayed_total", 0),
        "feed_duplicates": counters.get("feed_duplicates_total", 0),
    })


class _Replay:
    """The in-process decode of served inputs, and what tracing it recorded."""

    def __init__(self) -> None:
        self.matched: dict[int, object] = {}
        self.streamed: dict[int, object] = {}
        self.match_seconds: list[float] = []
        self.tracer = Tracer()
        self.wall_s = 0.0
        self.route_before: dict = {}
        self.route_after: dict = {}


def _replay(direct, samples, matched: list[int], streamed: list[int], trace: bool):
    """Decode the served inputs in-process on the served artifact, as the
    worker does: one ``LHMM.match`` per matched trip, one ``add_point`` per
    point and a ``finish`` per session.  Traced only in a traced run."""
    from repro.core import OnlineLHMM
    from repro.serve import protocol

    replay = _Replay()
    replay.route_before = direct.engine.cache_stats()
    with instrumented(replay.tracer) if trace else contextlib.nullcontext():
        start = time.perf_counter()
        for idx in matched:
            op_start = time.perf_counter()
            result = direct.match(samples[idx].cellular)
            replay.match_seconds.append(time.perf_counter() - op_start)
            replay.matched[idx] = protocol.encode_match_result(result)
        for idx in streamed:
            online = OnlineLHMM(direct, lag=LAG)
            for point in samples[idx].cellular.points:
                online.add_point(point)
            replay.streamed[idx] = online.finish()
        replay.wall_s = time.perf_counter() - start
    replay.route_after = direct.engine.cache_stats()
    return replay


def _sample(indices, size: int) -> list[int]:
    """An evenly spread, fixed sample of at most ``size`` of ``indices``."""
    ordered = sorted(indices)
    return ordered[:: max(1, len(ordered) // size)][:size]


# -------------------------------------------------------------------- run
def run(seed: int, seconds: float, trace: bool, work: Path) -> Result:
    from repro.core import LHMM
    from repro.datasets import load_dataset, save_dataset
    from repro.serve import protocol

    work.mkdir(parents=True, exist_ok=True)
    # One plan per set-up: each set-up serves the next slice of the timed
    # work, so the timed work is spread over the whole run rather than one
    # stretch of it (the host's speed drifts over tens of seconds).
    plan, n_match, session_trips = _plan(seconds)

    start = time.perf_counter()
    city, heldout = make_inputs(
        PRESET, SCALE, TRAIN, WARMUP + n_match + len(session_trips), seed
    )
    city_path = work / "city.json.gz"
    save_dataset(city, city_path)
    generate_s = time.perf_counter() - start
    del city
    samples = heldout[WARMUP:]
    payloads = [protocol.encode_trajectory(s.cellular) for s in samples]

    reps, memory = [], []
    servers: list[ClusterProcess] = []
    clients = []
    tracer = Tracer() if trace else None
    match_loads = [_Load() for _ in range(CONNECTIONS)]
    stream_loads = [_Load() for _ in range(CONNECTIONS)]
    match_wall_s = stream_wall_s = 0.0
    slices = []
    served = Counter()
    probe_before = cpu_probe_ms()
    try:
        for match_orders, session_orders in plan:
            for client in clients:
                client.close()
            while servers:
                servers[-1].stop()
                servers.pop()
            gc.collect()
            dataset, server, clients, times, model_path = _setup_once(
                city_path, work, servers, heldout[:WARMUP]
            )
            reps.append(times)
            before = _counters(clients[0].metrics())
            match_s = _timed(
                _match_loop, clients, tracer, payloads, match_orders, match_loads
            )
            # The gateway's latency window is recent samples: read it before
            # the streaming phase pushes the match phase out.
            gateway_p50_ms = clients[0].metrics()["latency"]["match"]["p50_s"] * 1e3
            stream_s = _timed(
                _stream_loop, clients, tracer, payloads, session_orders, stream_loads
            )
            match_wall_s += match_s
            stream_wall_s += stream_s
            slices.append([
                round(match_s, 3), sum(load.trajectories for load in match_loads),
                round(stream_s, 3), sum(load.points for load in stream_loads),
            ])
            metrics_after = clients[0].metrics()
            served += _counters(metrics_after) - before
            worker = metrics_after["workers"][0]
            memory.append(_peak_rss_mb(server.proc.pid) + _peak_rss_mb(worker["pid"]))
        probe_after = cpu_probe_ms()
    finally:
        for client in clients:
            client.close()
        while servers:
            servers[-1].stop()
            servers.pop()

    match_load, stream_load = loads = [_merge(match_loads), _merge(stream_loads)]
    direct = LHMM.load(model_path, load_dataset(city_path))
    check_matched = sorted(match_load.answers)
    check_streamed = sorted(stream_load.answers)
    if not trace:
        check_matched = _sample(check_matched, CHECK_SAMPLE)
        check_streamed = _sample(check_streamed, CHECK_SAMPLE)
    replay = _replay(direct, samples, check_matched, check_streamed, trace)

    # ---- output checks ----
    problems = [f"serving: {e}" for load in loads for e in load.errors[:2]]
    attempted = sum(load.attempted for load in loads)
    failed = sum(load.failed for load in loads)
    for kind, answers, expected in (
        ("match results", match_load.answers, replay.matched),
        ("closed sessions", stream_load.answers, replay.streamed),
    ):
        mismatched = [idx for idx in expected if answers[idx] != expected[idx]]
        if mismatched:
            problems.append(
                f"{len(mismatched)}/{len(expected)} served {kind} differ from "
                f"the in-process decode (first: trajectory {mismatched[0]})"
            )
    paths = {idx: answer["path"] for idx, answer in match_load.answers.items()}
    degraded = sum(a.get("provenance") != "lhmm" for a in match_load.answers.values())
    paths.update(stream_load.answers)
    decoded = sorted(paths)
    quality = accuracy(
        dataset.network, [samples[i].sim_path for i in decoded], [paths[i] for i in decoded]
    )

    setup = {k: statistics.median(rep[k] for rep in reps) for k in reps[0]}
    probe = (probe_before + probe_after) / 2
    client_p50_ms = statistics.median(match_load.op_seconds) * 1e3
    per_layer = {
        "setup.generate_s": (generate_s, "s"),
        "setup.fit_s": (setup["fit"], "s"),
        "setup.artifacts_s": (setup["artifacts"], "s"),
        "setup.boot_s": (setup["boot"], "s"),
        "host.cpu_probe_ms": (probe, "ms"),
        "error_rate": (failed / attempted, "ratio"),
        "degraded_rate": (degraded / max(len(match_load.answers), 1), "ratio"),
    }
    if trace:
        hits, misses = served["cache_hits"], served["cache_misses"]
        route_before, route_after = replay.route_before, replay.route_after
        route_hits = route_after["route_cache_hits"] - route_before["route_cache_hits"]
        route_misses = (
            route_after["route_cache_misses"] - route_before["route_cache_misses"]
        )
        counts = replay.tracer.counts
        bodies = [
            {"trajectories": [payloads[i]]}
            for orders, _ in plan for order in orders for i in order
        ] + [{"points": [p]} for i in stream_load.answers for p in payloads[i]]
        feeds = stream_load.op_seconds
        per_layer.update(span_metrics(
            tracer, ["serve.client_request"], match_wall_s + stream_wall_s
        ))
        per_layer.update(
            span_metrics(replay.tracer, SPAN_NAMES[:-1], replay.wall_s)
        )
        per_layer.update({
            "network.route.cache_hit_ratio": (
                route_hits / max(route_hits + route_misses, 1), "ratio"),
            "network.route.cache_misses": (route_misses, "count"),
            "network.route.cache_entries": (route_after["route_cache_entries"], "count"),
            "network.route.cached_sources": (route_after["cached_sources"], "count"),
            "core.candidates.pool_size_mean": (
                counts["pool_segments"] / max(counts["pool_points"], 1), "count"),
            "core.relevance.scope_segments": (counts["scope_segments"], "count"),
            "core.transition.pairs_scored": (counts["pairs_scored"], "count"),
            "serve.feed_p50_ms": (statistics.median(feeds) * 1e3, "ms"),
            "serve.feed_p90_ms": (statistics.quantiles(feeds, n=10)[8] * 1e3, "ms"),
            "serve.transport_ms": (client_p50_ms - gateway_p50_ms, "ms"),
            "serve.request_bytes_mean": (
                statistics.fmean(len(protocol.dumps(b)) for b in bodies), "B"),
            "serve.gateway_p50_ms": (gateway_p50_ms, "ms"),
            "serve.queue_ms": (
                gateway_p50_ms - statistics.median(replay.match_seconds) * 1e3, "ms"),
            "serve.admission.wait_p95_ms": (
                metrics_after["admission"]["wait_p95_s"] * 1e3, "ms"),
            "serve.admission.admitted": (served["admitted"], "count"),
            "serve.admission.shed": (served["shed"], "count"),
            "serve.cache.hit_ratio": (hits / max(hits + misses, 1), "ratio"),
            "serve.worker.requests": (served["worker_requests"], "count"),
            "serve.worker.private_mb": (worker["memory"]["private_kb"] / 1024, "MB"),
            "serve.shared_artifact_mb": (
                metrics_after["shared_artifact_bytes"] / 2**20, "MB"),
            "serve.sessions.opened": (served["sessions_opened"], "count"),
            "serve.sessions.replayed": (served["sessions_replayed"], "count"),
            "serve.feed_duplicates": (served["feed_duplicates"], "count"),
            "trace.root_self_fraction": (
                root_self_fraction(replay.tracer, "core.match"), "ratio"),
            "trace.overhead": (trace_overhead(
                lambda: _replay(
                    direct, samples, check_matched[:OVERHEAD_SAMPLE],
                    check_streamed[:OVERHEAD_SAMPLE], False,
                )), "ratio"),
        })

    detail = {
        "digest": digest([[i, paths[i]] for i in decoded]),
        "requests": f"{attempted - failed}/{attempted} ok",
        "errors": f"{failed}/{attempted}",
        "degraded": f"{degraded}/{len(match_load.answers)}",
        "checked": [len(replay.matched), len(replay.streamed)],
        "cache": metrics_after["cache"],
        "gateway_p50_ms": round(gateway_p50_ms, 3),
        "client_p50_ms": round(client_p50_ms, 3),
        "wall_s": [round(match_wall_s, 3), round(stream_wall_s, 3)],
        "cpu_probe_ms": [round(probe_before, 3), round(probe_after, 3)],
        "setup_s": [round(rep["total"], 3) for rep in reps],
        "slices": slices,
    }
    return Result(
        attempted=attempted,
        failed=failed,
        correct=not problems,
        end_to_end=end_to_end(
            setup_s=setup["total"],
            trajectories=(match_load.trajectories, match_wall_s),
            points=(stream_load.points, stream_wall_s),
            op_seconds=match_load.op_seconds,
            memory_mb=statistics.median(memory),
            attempted=attempted,
            failed=failed,
            degraded=degraded,
            answered=len(match_load.answers),
            quality=quality,
        ),
        per_layer=per_layer,
        detail=detail,
        problems=problems,
    )
