"""The ``serve-small`` workload: ``python -m repro serve`` in a child process,
driven over TCP by one load-generating process with two connections.

Phases, in order:

* ``open`` — seeded Poisson arrivals at :data:`OPEN_RATE`, each latency
  timed from the request's due time.  Gives the read and write latencies.
* ``capacity`` — each connection keeps :data:`IN_FLIGHT` requests in
  flight.  Gives the throughputs.
* ``probe`` — one connection, one request at a time: wide samples and
  scalar inserts/deletes.  Gives ``bulk_read_p50_ms`` and
  ``point_write_us``.
* ``check`` — untimed output checks against a sorted NumPy mirror.

Updates only touch values below 0.5 and ``count`` requests only ask about
ranges above it, so every count reply of the timed phases has one exact
answer however the server interleaves the two connections.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np

from common import (
    CHI2_ALPHA,
    CHI2_SAMPLES,
    CHI2_SEED,
    Checks,
    decile_chi2,
    median,
    ms,
    peak_rss_mb,
    quantile,
    read_tail,
    slow_quartile,
    windowed_latency,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

N = 1_000_000
SETUPS = 3
#: Offered rate of the open phase, requests/s: a fixed 180/s, about an
#: eighth of the capacity measured when the benchmark was introduced.  A
#: third of capacity was tried and rejected as too noisy (DEFINITIONS.md).
#: Never changed since, so open-phase latencies stay comparable.
OPEN_RATE = 180.0
#: Requests each connection keeps in flight in the capacity phase.
IN_FLIGHT = 8
CONNECTIONS = 2
#: WAL flush policy of the served data directory: flushed to the OS after
#: every record, never fsynced.  Snapshots still fsync (no server option
#: turns that off).
FLUSH_POLICY = "off"
#: Snapshot triggers set out of reach, so the one checkpoint of a run is
#: the graceful-shutdown one, after the timed phases.  Snapshots always
#: fsync, and each one re-reads the whole active WAL segment, so a
#: checkpoint inside a timed phase would stall the server for a time that
#: grows with everything logged since start; see DEFINITIONS.md.
SNAPSHOT_OPS = 1 << 40
#: Seconds a one-at-a-time request may wait for its reply.
REPLY_TIMEOUT = 30.0
SMALL_T = 16
NARROW = 1e-3
BULK = 64
#: Share of each phase in the run's --seconds.
OPEN_SHARE, CAPACITY_SHARE = 0.55, 0.35
#: Untimed lead-in of the capacity phase (pipelines fill).
CAPACITY_WARM = 0.5
#: Throughputs are computed per capacity slice this long and read at the
#: slow-side quartile of the slices (``common.slow_quartile``).
SLICE = 0.5

perf = time.perf_counter


# -- traffic ------------------------------------------------------------------------


class Traffic:
    """Seeded request stream plus the bookkeeping the mirror needs."""

    def __init__(self, gen, values) -> None:
        self.gen = gen
        self.values = values
        low = np.flatnonzero(values < 0.5)
        self.deletable = low[gen.permutation(low.size)]
        self.next_delete = 0
        self.next_id = 0
        self.inserted: list = []  # acknowledged inserted value arrays
        self.deleted: list = []  # acknowledged deleted index arrays

    def new_id(self) -> int:
        self.next_id += 1
        return self.next_id

    def mixed(self) -> tuple:
        """One request of the serve-small mix: ``(id, kind, meta, line)``."""
        gen = self.gen
        u = float(gen.random())
        rid = self.new_id()
        if u < 0.86:
            lo = float(gen.random()) * (1.0 - NARROW)
            meta = (lo, lo + NARROW, SMALL_T)
            msg = {"op": "sample", "lo": lo, "hi": lo + NARROW, "t": SMALL_T, "id": rid}
            kind = "read"
        elif u < 0.90:
            lo = 0.5 + float(gen.random()) * (0.5 - NARROW)
            meta = (lo, lo + NARROW)
            msg = {"op": "count", "lo": lo, "hi": lo + NARROW, "id": rid}
            kind = "count"
        elif u < 0.95:
            vals = gen.random(BULK) * 0.5
            meta = vals
            msg = {"op": "insert_bulk", "values": vals.tolist(), "id": rid}
            kind = "insert_bulk"
        else:
            at = self.next_delete
            idx = self.deletable[at : at + BULK]
            self.next_delete = at + BULK
            meta = idx
            msg = {"op": "delete_bulk", "values": self.values[idx].tolist(), "id": rid}
            kind = "delete_bulk"
        return rid, kind, meta, json.dumps(msg).encode() + b"\n"

    def wide(self) -> tuple:
        gen = self.gen
        width = 0.1 + 0.9 * float(gen.random())
        lo = float(gen.random()) * (1.0 - width)
        rid = self.new_id()
        msg = {"op": "sample", "lo": lo, "hi": lo + width, "t": 4096, "id": rid}
        return rid, "bulk_read", (lo, lo + width, 4096), json.dumps(msg).encode() + b"\n"

    def point(self, op: str, value: float) -> tuple:
        rid = self.new_id()
        msg = {"op": op, "value": value, "id": rid}
        return rid, op, value, json.dumps(msg).encode() + b"\n"

    def acknowledge(self, kind: str, meta) -> None:
        if kind == "insert_bulk":
            self.inserted.append(meta)
        elif kind == "delete_bulk":
            self.deleted.append(meta)

    def mirror(self):
        keep = np.ones(self.values.size, dtype=bool)
        for idx in self.deleted:
            keep[idx] = False
        return np.sort(np.concatenate([self.values[keep], *self.inserted]))


# -- the client -------------------------------------------------------------------------


class Client:
    """Two pipelined NDJSON connections and the per-request records."""

    def __init__(self, traffic: Traffic) -> None:
        self.traffic = traffic
        self.conns: list = []
        self.readers: list = []
        self.inflight: dict[int, list] = {}  # id -> [kind, meta, due, sent, conn]
        self.on_reply = None  # phase hook: (record, ok, t) -> None
        self.replies: list = []  # (kind, meta, line) kept for the checks
        self.sent = 0
        self.failed = 0
        self.answered = 0
        self.last_line = b""

    async def connect(self, port: int) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=1 << 26
            )
            self.conns.append(writer)
            self.readers.append(asyncio.create_task(self._read(reader)))

    async def close(self) -> None:
        for writer in self.conns:
            writer.close()
        for task in self.readers:
            task.cancel()
        for task in self.readers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        for writer in self.conns:
            try:
                await writer.wait_closed()
            except OSError:
                pass

    def send(self, req: tuple, conn: int, due: float | None = None) -> None:
        rid, kind, meta, line = req
        now = perf()
        self.inflight[rid] = [kind, meta, now if due is None else due, now, conn]
        self.conns[conn].write(line)
        self.sent += 1

    def mark(self, phase: str) -> None:
        """Tell a traced server that ``phase`` starts (no-op otherwise)."""
        self.conns[0].write(json.dumps({"op": "ping", "id": f"mark:{phase}"}).encode() + b"\n")

    async def _read(self, reader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            t = perf()
            if line[6:7] == b'"':  # a phase marker's reply
                continue
            rid = int(line[6 : line.index(b",", 6)])
            record = self.inflight.pop(rid)
            ok = line.find(b'"ok":true', 0, 64) >= 0
            self.answered += 1
            self.last_line = line
            if ok:
                kind = record[0]
                self.traffic.acknowledge(kind, record[1])
                if kind in ("read", "count", "bulk_read"):
                    self.replies.append((kind, record[1], line))
            else:
                self.failed += 1
            self.on_reply(record, ok, t)

    def _check_readers(self) -> None:
        """Re-raise the error of a reader task that died."""
        for task in self.readers:
            if task.done() and not task.cancelled() and task.exception():
                raise task.exception()

    async def drain(self, timeout: float = 60.0) -> None:
        deadline = perf() + timeout
        while self.inflight and perf() < deadline:
            self._check_readers()
            await asyncio.sleep(0.005)

    async def call(self, req: tuple) -> tuple[bool, float, bytes]:
        """One request on connection 0, awaited: ``(ok, seconds, line)``."""
        loop = asyncio.get_running_loop()
        done = loop.create_future()
        prev = self.on_reply
        self.on_reply = lambda record, ok, t: done.set_result(
            (ok, t - record[3], self.last_line)
        )
        self.send(req, 0)
        try:
            return await asyncio.wait_for(done, REPLY_TIMEOUT)
        except asyncio.TimeoutError:
            self._check_readers()  # a dead reader is the likelier cause
            raise
        finally:
            self.on_reply = prev


# -- phases ----------------------------------------------------------------------------


async def open_phase(client: Client, gen, seconds: float) -> dict:
    """Poisson arrivals at OPEN_RATE; latencies from each request's due time."""
    gaps = gen.exponential(1.0 / OPEN_RATE, size=int(OPEN_RATE * seconds * 1.5) + 100)
    arrivals = np.cumsum(gaps)
    arrivals = arrivals[arrivals < seconds]
    requests = [client.traffic.mixed() for _ in arrivals]
    lat: dict[str, list] = {"read": [], "count": [], "insert_bulk": [], "delete_bulk": []}
    due_at: dict[str, list] = {kind: [] for kind in lat}  # aligned with lat
    late: list[float] = []
    rtt: list[float] = []  # send to reply, for the tcp layer
    completed = 0

    def on_reply(record, ok, t):
        nonlocal completed
        completed += 1
        lat[record[0]].append(t - record[2] if ok else math.inf)
        due_at[record[0]].append(record[2])
        if ok:
            rtt.append(t - record[3])

    client.on_reply = on_reply
    client.mark("open")
    t0 = perf() + 0.05
    for i, req in enumerate(requests):
        due = t0 + float(arrivals[i])
        wait = due - perf()
        if wait > 0:
            await asyncio.sleep(wait)
        client.send(req, i % CONNECTIONS, due)
        late.append(client.inflight[req[0]][3] - due)
    backlog = len(requests) - completed
    await client.drain()
    return {"lat": lat, "due": due_at, "late": late, "rtt": rtt, "backlog": backlog}


async def capacity_phase(
    client: Client, seconds: float, trace: bool, name: str = "capacity"
) -> dict:
    """Closed loop, IN_FLIGHT per connection; throughput after a warm-up.

    Traced runs split the window: the first half runs the plain server,
    the second the traced one, and their throughput ratio is the tracing
    overhead.
    """
    traffic = client.traffic
    pool = [traffic.mixed() for _ in range(int(4000 * seconds) + 1000)]
    pool.reverse()
    issuing = True
    # [start, end, completed, samples, updates, refused, group, first, last]
    slices: list[list] = []

    def on_reply(record, ok, t):
        kind = record[0]
        for w in slices:
            if w[0] <= t < w[1]:
                w[2] += 1
                if w[2] == 1:
                    w[7] = t
                w[8] = t
                if ok:
                    w[3] += SMALL_T if kind == "read" else 0
                    w[4] += BULK if kind in ("insert_bulk", "delete_bulk") else 0
                else:
                    w[5] += 1
                break
        if issuing:
            client.send(pool.pop() if pool else traffic.mixed(), record[4])

    def add_slices(start: float, end: float, group: str) -> None:
        at = start
        while at + SLICE <= end + 1e-9:
            slices.append([at, at + SLICE, 0, 0, 0, 0, group, 0.0, 0.0])
            at += SLICE

    client.on_reply = on_reply
    client.mark(f"{name}-plain" if trace else name)
    start = perf()
    for conn in range(CONNECTIONS):
        for _ in range(IN_FLIGHT):
            client.send(pool.pop(), conn)
    if trace:
        half = seconds / 2
        add_slices(start + CAPACITY_WARM, start + half, "plain")
        add_slices(start + half + CAPACITY_WARM, start + seconds, "traced")
        await asyncio.sleep(half)
        client.mark(name)
        await asyncio.sleep(half)
    else:
        add_slices(start + CAPACITY_WARM, start + seconds, "plain")
        await asyncio.sleep(seconds)
    issuing = False
    await client.drain()
    return {"slices": slices}


async def probe_phase(client: Client, seconds: float) -> dict:
    """One request at a time: a wide sample, then a scalar insert and delete."""
    client.on_reply = lambda record, ok, t: None
    client.mark("probe")
    traffic = client.traffic
    lat: dict[str, list] = {"bulk_read": [], "insert": [], "delete": []}
    sent: dict[str, list] = {kind: [] for kind in lat}  # send times, aligned with lat
    deadline = perf() + seconds
    while perf() < deadline or min(len(v) for v in lat.values()) < 20:
        sent["bulk_read"].append(perf())
        ok, dt, _line = await client.call(traffic.wide())
        lat["bulk_read"].append(dt if ok else math.inf)
        value = float(traffic.gen.random()) * 0.5
        for op in ("insert", "delete"):
            sent[op].append(perf())
            ok, dt, _line = await client.call(traffic.point(op, value))
            lat[op].append(dt if ok else math.inf)
    return {"lat": lat, "sent": sent}


async def check_phase(client: Client, checks: Checks, initial_sorted) -> None:
    """Exact counts, final size and one decile chi-square against the mirror."""
    client.mark("check")
    client.on_reply = lambda record, ok, t: None
    traffic = client.traffic
    # Timed-phase replies: samples in range with length t; counts exact
    # (their ranges lie above every updated value).
    for kind, meta, line in client.replies:
        result = json.loads(line)["result"]
        if kind == "count":
            lo, hi = meta
            want = int(np.searchsorted(initial_sorted, hi, side="right")
                       - np.searchsorted(initial_sorted, lo, side="left"))
            checks.expect(result == want, f"count({lo}, {hi}) = {result}, mirror {want}")
        else:
            checks.sample(result, *meta)
    client.replies.clear()
    mirror = traffic.mirror()
    gen = traffic.gen
    ranges = [(-1.0, 2.0)]
    for _ in range(100):
        width = float(gen.random()) if gen.random() < 0.5 else NARROW
        lo = float(gen.random()) * (1.0 - width)
        ranges.append((lo, lo + width))
    for lo, hi in ranges:
        rid = traffic.new_id()
        line = json.dumps({"op": "count", "lo": lo, "hi": hi, "id": rid}).encode() + b"\n"
        ok, _dt, reply = await client.call((rid, "count", (lo, hi), line))
        want = int(np.searchsorted(mirror, hi, side="right")
                   - np.searchsorted(mirror, lo, side="left"))
        got = json.loads(reply)["result"] if ok else None
        checks.expect(got == want, f"count({lo}, {hi}) = {got}, mirror {want}")
    lo, hi = float(quantile(mirror, 0.05)), float(quantile(mirror, 0.95))
    rid = traffic.new_id()
    line = json.dumps({"op": "sample", "lo": lo, "hi": hi, "t": CHI2_SAMPLES,
                       "seed": CHI2_SEED, "id": rid}).encode() + b"\n"
    ok, _dt, reply = await client.call((rid, "read", (lo, hi, CHI2_SAMPLES), line))
    client.replies.clear()
    checks.expect(ok, "chi-square draw refused")
    if ok:
        out = np.asarray(json.loads(reply)["result"])
        checks.sample(out, lo, hi, CHI2_SAMPLES)
        p = decile_chi2(out, mirror, lo, hi)
        checks.expect(p > CHI2_ALPHA, f"decile chi-square p={p:.3g}")


# -- the server process -----------------------------------------------------------------


def start_server(data_path: str, work: str, seed: int, trace_out: str | None):
    """Start the server on an ephemeral port; return ``(process, port, seconds)``."""
    data_dir = tempfile.mkdtemp(prefix="data-", dir=work)
    args = [
        "serve", "--structure", "dynamic", "--data", data_path,
        "--port", "0", "--seed", str(seed), "--data-dir", data_dir,
        "--fsync", FLUSH_POLICY, "--snapshot-ops", str(SNAPSHOT_OPS),
    ]
    if trace_out is None:
        cmd = [sys.executable, "-m", "repro", *args]
    else:
        cmd = [sys.executable, os.path.join(HERE, "serve_child.py"), trace_out, *args]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = perf()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, cwd=ROOT)
    line = proc.stdout.readline().decode()
    elapsed = perf() - t0
    if not line.startswith("serving on "):
        stop_server(proc)
        raise RuntimeError(f"server did not start: {line!r}")
    return proc, int(line.rsplit(":", 1)[1]), elapsed


def stop_server(proc) -> None:
    """Graceful SIGTERM, then wait; kill if it hangs."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


# -- the workload -----------------------------------------------------------------------------


def _rate(w: list) -> float:
    """Completions per second inside one capacity slice, first to last.

    A slice with fewer than two completions (the server stalled through
    it) reads 0.
    """
    return (w[2] - 1) / (w[8] - w[7]) if w[2] > 1 else 0.0


def serve_small(seed: int, seconds: float, trace: bool):
    gen = np.random.default_rng(seed)
    values = gen.random(N)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="serve-", dir=WORK)
    proc = None
    try:
        data_path = os.path.join(work, "values.txt")
        with open(data_path, "w") as handle:
            handle.write(" ".join(map(repr, values.tolist())))
        trace_out = os.path.join(work, "trace.json") if trace else None
        setup = []
        for i in range(SETUPS):
            last = i == SETUPS - 1
            proc, port, elapsed = start_server(
                data_path, work, seed, trace_out if last else None
            )
            setup.append(elapsed)
            if not last:
                stop_server(proc)
                proc = None
        traffic = Traffic(gen, values)
        checks = Checks()
        gc.collect()
        gc.freeze()
        result = asyncio.run(
            _drive(port, traffic, gen, seconds, trace, checks, np.sort(values))
        )
        stop_server(proc)
        proc = None
        if trace:
            with open(trace_out) as handle:
                result["server"] = json.load(handle)
    finally:
        if proc is not None:
            stop_server(proc)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run's files are still there
    client = result["client"]
    attempted = client.sent
    failed = client.failed + (client.sent - client.answered)
    if trace:
        return checks, attempted, failed, _per_layer(result), {}
    return (
        checks, attempted, failed, _end_to_end(result, setup),
        read_tail(result["open"]["lat"]["read"]),
    )


async def _drive(port, traffic, gen, seconds, trace, checks, initial_sorted) -> dict:
    client = Client(traffic)
    await client.connect(port)
    try:
        # Untimed warm-up: a short burst of the mix.
        await capacity_phase(client, 0.5 + CAPACITY_WARM, False, "warm")
        opened = await open_phase(client, gen, max(OPEN_SHARE * seconds, 2.0))
        capacity = await capacity_phase(
            client, max(CAPACITY_SHARE * seconds, 2.0), trace
        )
        probe = await probe_phase(
            client, max((1.0 - OPEN_SHARE - CAPACITY_SHARE) * seconds, 1.0)
        )
        await check_phase(client, checks, initial_sorted)
    finally:
        await client.close()
    return {"client": client, "open": opened, "capacity": capacity, "probe": probe}


def _end_to_end(result: dict, setup: list) -> dict:
    """Latencies and throughputs are slow-side quartiles over windows
    (``common.windowed_latency``, ``common.slow_quartile``); two-class
    metrics are the mean of the two classes' figures."""
    opened, probe = result["open"], result["probe"]
    slices = result["capacity"]["slices"]
    ops = slow_quartile([_rate(w) for w in slices], True)
    # Samples and updates per request over the whole phase: per slice,
    # the mix of ~700 requests would add its own sampling noise.
    completed = sum(w[2] for w in slices)

    def open_ms(*kinds) -> float:
        return sum(ms(windowed_latency(opened["due"][k], opened["lat"][k]))
                   for k in kinds) / len(kinds)

    def probe_ms(*kinds) -> float:
        return sum(ms(windowed_latency(probe["sent"][k], probe["lat"][k]))
                   for k in kinds) / len(kinds)

    return {
        "setup_s": (median(setup), "s"),
        "ops_per_s": (ops, "1/s"),
        "samples_per_s": (ops * sum(w[3] for w in slices) / completed, "1/s"),
        "updates_per_s": (ops * sum(w[4] for w in slices) / completed, "1/s"),
        "read_p50_ms": (open_ms("read"), "ms"),
        "bulk_read_p50_ms": (probe_ms("bulk_read"), "ms"),
        "write_p50_ms": (open_ms("insert_bulk", "delete_bulk"), "ms"),
        "point_write_us": (1e3 * probe_ms("insert", "delete"), "us"),
        "peak_rss_mb": (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB"),
    }


def _per_layer(result: dict) -> dict:
    server = result["server"]
    opened = server["open"]
    out = {name: tuple(v) for name, v in server["capacity"]["metrics"].items()}
    out["store.wal_bytes_per_value"] = (
        server["capacity"]["wal_bytes_per_update"] / BULK, "B/value")
    for name in ("serve.queue_ms_p50", "serve.exec_ms_p50"):
        out[name] = tuple(opened["metrics"][name])
    checkpoints = server["checkpoints"]
    out["store.checkpoints"] = (float(len(checkpoints)), "count")
    out["store.checkpoint_ms"] = (1e3 * median(checkpoints), "ms")
    rtt = result["open"]["rtt"]
    out["tcp.us_per_req"] = (
        1e6 * median(rtt) - opened["server_reply_us_p50"], "us")
    out["loadgen.late_p99_ms"] = (1e3 * quantile(result["open"]["late"], 0.99), "ms")
    out["loadgen.backlog"] = (float(result["open"]["backlog"]), "count")
    slices = result["capacity"]["slices"]
    plain = [_rate(w) for w in slices if w[6] == "plain"]
    traced = [w for w in slices if w[6] == "traced"]
    out["trace.overhead_frac"] = (median(plain) / median([_rate(w) for w in traced]), "ratio")
    out["serve.refused_frac"] = (
        sum(w[5] for w in traced) / max(sum(w[2] for w in traced), 1), "ratio")
    return out
