"""serve-mixed: an open-loop ``/extract`` stream against ``repro serve``.

The benchmark process is the one load generator.  From a single event-
loop thread it sends a seeded stream of requests at a fixed rate, each
on a fresh connection at its due time (open loop), and times every
request from that due time.  Requests cover H-tree levels 2-7, weighted
by their cold cost (see ``LEVEL_WEIGHTS``); every second slot
repeats a payload sent at least two seconds earlier, which the result
cache answers.

The traced run drives :meth:`ExtractionService.handle` in-process with
the same stream from ``nproc`` threads instead of going through HTTP.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import bench_common as bc

#: The stream is synthetic: the repository has no recorded traffic.
#: New payloads draw their level from a bag built from the measured cold
#: cost of one extraction on the benchmark kit (one BLAS thread, 2-CPU
#: host): 16, 36, 83, 167, 380 and 751 ms for levels 2-7.
#:
#: * Levels 2-4 are weighted inversely to that cost (24:10:5), so each
#:   takes the same share of cold server time (~6 %).
#: * Level 5 gets 24 slots (~64 % of cold server time), so every run
#:   holds 24 cold level-5 requests.  The eleven slowest answers are the
#:   level-7 and level-6 requests, the one or two requests queued behind
#:   the level-7 one, and seven or eight cold level-5 requests, so the
#:   tail percentile (the 11th-slowest answer) is an upper percentile of
#:   the level-5 latencies drawn from 24 samples.  With a pure
#:   inverse-cost mix it fell on the few requests queued behind the
#:   level-6 and level-7 extractions and swung by 2x with host speed.
#: * Levels 6 and 7 come once per bag (~6 % and ~12 %), so every level
#:   2-7 is exercised in every run.
#:
#: One bag is 65 new payloads and ~6.3 s of cold compute.  At 5
#: requests/s with half of them repeats it fills one 24 s run, keeps
#: the daemon's one compute lane ~25 % busy and its in-flight count well
#: under the default ``--max-inflight 8``.
RATE = {"full": 5.0, "smoke": 8.0}
LEVEL_WEIGHTS = {
    "full": {2: 24, 3: 10, 4: 5, 5: 24, 6: 1, 7: 1},
    "smoke": {2: 1, 3: 1},
}
#: Every second request repeats an earlier payload, so about half of
#: the stream is answered from the result cache.
REPEAT_EVERY = 2
#: A repeat only targets payloads due at least this long before it.
REPEAT_MIN_AGE_S = {"full": 2.0, "smoke": 0.5}
ROOT_LENGTH_RANGE_UM = (2000.0, 6000.0)
#: Latency limit of ``ok_share``: about twice the slowest cold request
#: (level 7) plus the requests queued behind it on a 2-CPU host, so only
#: a growing backlog or failures make answers miss.
SLO_MS = 2000.0
#: Responses compared against an in-process extraction of the payload.
VERIFY_SAMPLES = 3
#: Untimed first request: a fresh daemon's first heavy extraction pays
#: one-off costs (first-touch memory, lazy imports) that a long-running
#: daemon does not.  Its root length lies outside the stream's range, so
#: it never turns a stream request into a cache hit.
WARMUP_PAYLOAD = {"root_length_um": 1999.0, "levels": 7}


def make_stream(seed: int, seconds: float,
                size: str) -> List[Tuple[float, dict]]:
    """The request schedule: ``(due offset [s], payload)`` pairs.

    The order of new-payload levels is the same for every seed, so runs
    differ in geometry and in which payloads repeat, not in how much
    work arrives when; the seed draws root lengths and repeat targets.
    """
    rng = random.Random(f"perfbench-serve-{seed}")
    level_rng = random.Random("perfbench-serve-levels")
    rate = RATE[size]
    bag: List[int] = []
    sent: List[Tuple[float, dict]] = []
    stream = []
    for i in range(max(1, int(rate * seconds))):
        due = i / rate
        eligible = [p for t, p in sent if t <= due - REPEAT_MIN_AGE_S[size]]
        if i % REPEAT_EVERY == 1 and eligible:
            payload = rng.choice(eligible)
        else:
            if not bag:
                bag = [level for level, weight in LEVEL_WEIGHTS[size].items()
                       for _ in range(weight)]
                level_rng.shuffle(bag)
            root_um = round(rng.uniform(*ROOT_LENGTH_RANGE_UM), 3)
            payload = {"root_length_um": root_um, "levels": bag.pop()}
            sent.append((due, payload))
        stream.append((due, payload))
    return stream


class Outcome:
    """One request's fate, filled in by a client thread."""

    __slots__ = ("due", "sent", "done", "ok", "status", "envelope",
                 "service_s", "error")

    def __init__(self) -> None:
        self.due = self.sent = self.done = 0.0
        self.ok = False
        self.status = 0
        self.envelope: Optional[dict] = None
        self.service_s: Optional[float] = None
        self.error = ""


def drive(stream, make_sender: Callable[[], Callable]
          ) -> Tuple[List[Outcome], float, float]:
    """Send *stream* open-loop from ``nproc`` threads.

    ``make_sender()`` is called once per thread and returns
    ``send(index, payload, outcome)``.  Returns the outcomes, the
    monotonic start and the time the last answer arrived.
    """
    outcomes = [Outcome() for _ in stream]
    lock = threading.Lock()
    next_index = [0]
    start = time.perf_counter() + 0.05

    def client() -> None:
        send = make_sender()
        while True:
            with lock:
                i = next_index[0]
                next_index[0] += 1
            if i >= len(stream):
                return
            due_offset, payload = stream[i]
            out = outcomes[i]
            out.due = start + due_offset
            delay = out.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            out.sent = time.perf_counter()
            try:
                send(i, payload, out)
            except Exception as exc:  # noqa: BLE001 -- counted as failed
                out.ok, out.error = False, f"{type(exc).__name__}: {exc}"
            out.done = time.perf_counter()

    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(bc.nproc())]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=150)
        bc.check(not thread.is_alive(), "a client thread did not finish")
    return outcomes, start, max(o.done for o in outcomes)


def check_outcomes(stream, outcomes: List[Outcome]) -> None:
    """Every answer is a 200 with one sink per leaf and a table-backed kit."""
    want_ghz = bc.kit_frequency() / 1e9
    for (_, payload), out in zip(stream, outcomes):
        bc.check(out.ok, f"request {payload} failed: status {out.status} "
                         f"{out.error}")
        result = out.envelope["result"]
        bc.check(result["num_sinks"] == 2 ** payload["levels"],
                 f"request {payload}: {result['num_sinks']} sinks")
        bc.check(all(result["tables"].values()),
                 f"request {payload}: extraction fell back without tables "
                 f"{result['tables']}")
        bc.check(abs(result["frequency_ghz"] - want_ghz) <= 1e-9 * want_ghz,
                 f"service frequency {result['frequency_ghz']} GHz differs "
                 f"from the extractor's {want_ghz} GHz")


def verify_in_process(kit: Path, seed: int, stream, outcomes) -> None:
    """Sampled answers equal a direct in-process extraction."""
    from repro.serve import ExtractionService

    service = ExtractionService(str(kit))
    rng = random.Random(f"perfbench-serve-verify-{seed}")
    for i in rng.sample(range(len(stream)), min(VERIFY_SAMPLES, len(stream))):
        payload = stream[i][1]
        direct = json.loads(json.dumps(
            service.handle("extract", dict(payload))["result"]))
        bc.check(direct == outcomes[i].envelope["result"],
                 f"request {payload}: served result differs from a direct "
                 f"in-process extraction")


def latency_metrics(ctx, outcomes: List[Outcome], start: float,
                    end: float) -> None:
    latencies = [o.done - o.due for o in outcomes if o.ok]
    value, pct = bc.tail(latencies)
    ctx.metric("op_p50_ms", bc.median(latencies) * 1e3)
    ctx.metric("op_tail_ms", value * 1e3)
    ctx.metric("ops_per_s", len(latencies) / (end - start))
    ctx.metric("ok_share", sum(1 for o in outcomes if o.ok and
                               (o.done - o.due) * 1e3 <= SLO_MS)
               / len(outcomes))
    hits = sum(1 for o in outcomes if o.ok and o.envelope["cache"]["hit"])
    ctx.detail("serve", {
        "serve_p50_ms": bc.median(latencies) * 1e3,
        "serve_tail_ms": value * 1e3, "tail_percentile": pct,
        "samples": len(latencies), "attempted": len(outcomes),
        "serve_slo_share": ctx.metrics["ok_share"], "slo_ms": SLO_MS,
        "rate_per_s": RATE[ctx.size], "threads": bc.nproc(),
        "cache_hit_ratio": hits / max(1, len(latencies)),
        "lag_ms_max": max(o.sent - o.due for o in outcomes) * 1e3,
    })


# ----------------------------------------------------------------------
# the daemon
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _get(port: int, path: str) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Daemon:
    """A ``repro serve`` subprocess on a free port.

    The daemon gets one BLAS thread.  With the default (one per CPU) on a
    2-CPU host, BLAS threads spinning inside one request's lint compete
    with the threads serving the others, and single requests then take up
    to 4x longer at random; the tail would measure that contention rather
    than the service.
    """

    def __init__(self, kit: Path, log: Path):
        self.port = _free_port()
        self.log = log
        env = bc.child_env()
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--library", str(kit),
             "--port", str(self.port), "--log-file", str(log)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=env, cwd=str(bc.ROOT))

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            bc.check(self.proc.poll() is None, "repro serve exited early")
            try:
                if _get(self.port, "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise bc.CheckFailed("repro serve did not become ready")

    def counters(self) -> Dict[str, float]:
        status, body = _get(self.port, "/metrics")
        bc.check(status == 200, f"/metrics answered {status}")
        out = {}
        for line in body.decode().splitlines():
            match = re.match(r"^repro_([a-z_]+) ([0-9.e+-]+)$", line)
            if match:
                out[match.group(1)] = float(match.group(2))
        return out

    def health(self) -> dict:
        status, body = _get(self.port, "/healthz")
        bc.check(status == 200, f"/healthz answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def server_latencies_ms(self) -> Dict[str, float]:
        """request id -> the daemon's own latency, from its access log."""
        out = {}
        for line in self.log.read_text().splitlines():
            record = json.loads(line)
            if record.get("event") == "request" and "latency_ms" in record:
                out[record.get("request_id", "")] = float(record["latency_ms"])
        return out


async def _post(port: int, payload: dict, request_id: str,
                out: Outcome) -> None:
    """One request on a fresh connection, as ``curl`` or urllib send it."""
    body = json.dumps(payload).encode()
    head = ("POST /extract HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Type: application/json\r\nConnection: close\r\n"
            f"X-Request-Id: {request_id}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(head + body)
        await writer.drain()
        data = await asyncio.wait_for(reader.read(), timeout=60)
    finally:
        writer.close()
        await writer.wait_closed()
    header, _, payload_bytes = data.partition(b"\r\n\r\n")
    out.status = int(header.split(b" ", 2)[1])
    out.ok = out.status == 200
    out.envelope = json.loads(payload_bytes) if out.ok else None
    if not out.ok:
        out.error = payload_bytes[:200].decode(errors="replace")


def drive_http(stream, port: int, seed: int
               ) -> Tuple[List[Outcome], float, float]:
    """Send *stream* open-loop from one event-loop thread.

    Every request is its own task, sent at its due time whatever earlier
    requests are doing, so the generator never holds a request back
    because a slow one is outstanding.
    """
    outcomes = [Outcome() for _ in stream]

    async def one(start: float, i: int) -> None:
        due_offset, payload = stream[i]
        out = outcomes[i]
        out.due = start + due_offset
        await asyncio.sleep(max(0.0, out.due - time.perf_counter()))
        out.sent = time.perf_counter()
        try:
            await _post(port, payload, f"pb{seed}-{i}", out)
        except (OSError, ValueError, asyncio.TimeoutError) as exc:
            out.ok, out.error = False, f"{type(exc).__name__}: {exc}"
        out.done = time.perf_counter()

    async def main() -> float:
        start = time.perf_counter() + 0.05
        await asyncio.gather(*(one(start, i) for i in range(len(stream))))
        return start

    start = asyncio.run(main())
    return outcomes, start, max(o.done for o in outcomes)


_WARM_PATH = ("loop_solve", "partial_inductance_solve",
              "table_lookup_extrapolated")


def run_timed(ctx) -> None:
    setup_times = []
    daemon = None
    try:
        for rep in range(bc.SETUP_REPS[ctx.size]):
            if daemon is not None:
                daemon.stop()
            kit = ctx.work / f"kit{rep}"
            child_s = bc.spawn_setup_child(kit)
            t0 = time.perf_counter()
            daemon = Daemon(kit, ctx.work / f"serve{rep}.log")
            daemon.wait_ready()
            setup_times.append(child_s + time.perf_counter() - t0)
        ctx.metric("setup_s", bc.median(setup_times))
        ctx.detail("setup_s_samples", setup_times)
        bc.check_kit_frequency(kit)

        warmup = Outcome()
        asyncio.run(_post(daemon.port, WARMUP_PAYLOAD, "pb-warmup", warmup))
        bc.check(warmup.ok, f"warm-up request failed: {warmup.error}")
        stream = make_stream(ctx.seed, ctx.seconds, ctx.size)
        before = daemon.counters()
        outcomes, start, end = drive_http(stream, daemon.port, ctx.seed)
        ctx.attempted += len(outcomes)
        ctx.failed += sum(1 for o in outcomes if not o.ok)
        after = daemon.counters()
        health = daemon.health()
        ctx.metric("peak_rss_mb", bc.proc_peak_rss_mb(daemon.proc.pid))
    finally:
        if daemon is not None:
            daemon.stop()

    moved = {k: after.get(k, 0) - before.get(k, 0) for k in _WARM_PATH
             if after.get(k, 0) != before.get(k, 0)}
    bc.check(not moved, f"warm-path invariant broken while serving: {moved}")
    check_outcomes(stream, outcomes)
    latency_metrics(ctx, outcomes, start, end)
    server_ms = daemon.server_latencies_ms()
    ids = [f"pb{ctx.seed}-{i}" for i in range(len(outcomes))]
    bc.check(all(rid in server_ms for rid in ids),
             "the daemon's access log misses requests")
    ctx.details["serve"].update({
        "server_ms_p50": bc.median([server_ms[r] for r in ids]),
        "wait_ms_p50": bc.median([(o.done - o.due) * 1e3 - server_ms[r]
                                  for o, r in zip(outcomes, ids)]),
        "coalesced": health["coalesced"], "rejected": health["rejected"],
    })
    verify_in_process(kit, ctx.seed, stream, outcomes)


def run_traced(ctx) -> None:
    from layers import LayerTracer
    from repro.serve import ExtractionService
    from repro.telemetry import SERVE_COALESCED, SERVE_REJECTED, get_registry

    import skew_workload

    kit = ctx.work / "kit"
    setup = bc.setup_in_process(kit)
    stream = make_stream(ctx.seed, ctx.seconds, ctx.size)

    def in_process(service):
        def make():
            def send(i: int, payload: dict, out: Outcome) -> None:
                t0 = time.perf_counter()
                out.envelope = json.loads(json.dumps(
                    service.handle("extract", dict(payload))))
                out.service_s = time.perf_counter() - t0
                out.ok, out.status = True, 200
            return send
        return make

    def fresh_service():
        service = ExtractionService(str(kit))
        service.handle("extract", dict(WARMUP_PAYLOAD))
        return service

    def one_pass(service):
        outcomes, start, end = drive(stream, in_process(service))
        ctx.attempted += len(outcomes)
        ctx.failed += sum(1 for o in outcomes if not o.ok)
        check_outcomes(stream, outcomes)
        return outcomes, start, end

    # Untraced, traced, untraced, each on a fresh service (empty result
    # cache); the traced pass is compared with the last one.
    before = skew_workload.solver_counters()
    one_pass(fresh_service())
    tracer = LayerTracer()
    registry = get_registry()
    service = fresh_service()
    start_snapshot = registry.snapshot()
    with tracer.installed():
        traced, start, end = one_pass(service)
    delta = registry.snapshot().minus(start_snapshot)
    untraced, _, _ = one_pass(fresh_service())
    skew_workload.check_warm_path(before)
    missing = tracer.require_calls((
        "serve.handle", "clocktree.extract", "clocktree.build_netlist",
        "tables.lookup", "circuit.lint"))
    bc.check(not missing, f"wrapped layers recorded no calls: {missing}")

    untraced_busy = sum(o.service_s for o in untraced)
    traced_busy = sum(o.service_s for o in traced)
    hits = sum(1 for o in traced if o.envelope["cache"]["hit"])
    extra = {
        "serve.server_ms_p50": bc.median([o.service_s for o in traced]) * 1e3,
        "serve.wait_ms_p50": bc.median(
            [o.done - o.due - o.service_s for o in traced]) * 1e3,
        "serve.cache_hit_ratio": hits / len(traced),
        "serve.coalesced": delta.counters.get(SERVE_COALESCED, 0),
        "serve.rejected": delta.counters.get(SERVE_REJECTED, 0),
        "loadgen.lag_ms_max": max(o.sent - o.due for o in traced) * 1e3,
    }
    metrics = bc.layer_metrics(tracer, delta, traced_busy, untraced_busy,
                               setup, extra)
    # Requests overlap on the client threads, so wall time is the
    # stream's span, not the sum of service times.
    metrics["traced_wall_s"] = end - start
    metrics["untraced_s"] = max(0.0, traced_busy - tracer.covered_s())
    for name, value in metrics.items():
        ctx.metric(name, value)
    ctx.detail("path", "in-process ExtractionService.handle (no HTTP)")
