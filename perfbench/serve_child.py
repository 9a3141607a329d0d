"""Traced server for the serve-small workload: ``python -m repro serve``
with the layer tracer switched on and off at phase markers.

Usage: ``python3 perfbench/serve_child.py OUT.json <repro serve arguments>``.

The load generator marks phase boundaries with ``ping`` requests whose id
is ``mark:<phase>``.  Phases named in :data:`TRACED` run with every layer
wrapped; the others run the plain program.  When the server shuts down,
the per-phase figures are written to ``OUT.json``.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import (  # noqa: E402
    Tracer,
    install,
    sampler_counters,
    sampler_state_metrics,
    structure_metrics,
)

TRACED = ("open", "capacity")
SERVER_LAYERS = (
    "serve", "protocol", "batch", "store", "sampler", "directory", "rng", "kernels",
)

perf = time.perf_counter


def _median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


class Recorder:
    """Per-phase figures; the tracer is installed only in traced phases.

    Outside traced phases the server runs the plain program apart from one
    byte-prefix comparison per request (the phase-marker test).  Counts
    come from the tracer's own call counts and the server's public
    counters, queue and execute times from the server's trace ring.
    """

    def __init__(self) -> None:
        self.server = None
        self.tracer: Tracer | None = None
        self.phase = "setup"
        self.results: dict[str, dict] = {}
        self.checkpoints: list[float] = []  # seconds, whole server life
        self._reset()

    def _reset(self) -> None:
        self.t0 = perf()
        self.updates0 = self.server.stats.update_requests if self.server else 0
        self.wal_bytes0 = self._wal_bytes()
        self.counters0 = self._sampler_counters()

    def _samplers(self) -> list:
        return list(self.server.structures.values()) if self.server else []

    def _sampler_counters(self) -> tuple[int, int]:
        return sampler_counters(self._samplers())

    def _wal_bytes(self) -> int:
        store = getattr(self.server, "store", None)
        return store.wal.bytes_written if store is not None else 0

    def begin(self, server, phase: str) -> None:
        """Close the current phase and open ``phase``."""
        self.server = server
        self.finish()
        self.phase = phase
        self._reset()
        if phase in TRACED:
            self.tracer = install(Tracer())

    def finish(self) -> None:
        tracer, self.tracer = self.tracer, None
        if tracer is not None:
            tracer.uninstall()
        wall = perf() - self.t0
        out: dict = {"wall_s": wall}
        if tracer is not None:
            out.update(self._traced_figures(tracer, wall))
        self.results[self.phase] = out

    def _traced_figures(self, tracer: Tracer, wall: float) -> dict:
        _s, submits = tracer.fn_total("serve", ("submit",))
        reqs = max(submits, 1)
        _s, executes = tracer.fn_total("serve", ("_execute",))
        _s, run_mixed_calls = tracer.fn_total("batch", ("run_mixed",))
        updates = self.server.stats.update_requests - self.updates0
        queue_s, exec_s, reply_s = [], [], []
        for record in self.server.traces.recent():
            if record.started < self.t0:
                continue
            for name, start, duration, _detail in record._spans:
                if name == "coalesce_wait":
                    queue_s.append(duration)
                elif name == "execute":
                    exec_s.append(duration)
                elif name == "reply":
                    reply_s.append(start - record.started)
        metrics: dict = {}
        structure_metrics(tracer, metrics)
        attributed = 0.0
        for layer in SERVER_LAYERS:
            secs = tracer.layer_self(layer)
            attributed += secs
            metrics[f"{layer}.self_us_per_op"] = (1e6 * secs / reqs, "us")
        metrics["trace.wall_us_per_op"] = (1e6 * wall / reqs, "us")
        metrics["trace.unattributed_us_per_op"] = (1e6 * (wall - attributed) / reqs, "us")
        submit_s, _n = tracer.fn_total("serve", ("submit",))
        metrics["serve.admit_us"] = (1e6 * submit_s / reqs, "us")
        metrics["serve.self_us_per_req"] = (1e6 * tracer.layer_self("serve") / reqs, "us")
        metrics["serve.batch_reqs"] = (submits / max(executes, 1), "count")
        proto_s, _n = tracer.fn_total("protocol", ("decode", "encode"))
        metrics["protocol.us_per_req"] = (1e6 * proto_s / reqs, "us")
        metrics["batch.self_us_per_req"] = (1e6 * tracer.layer_self("batch") / reqs, "us")
        metrics["batch.reqs_per_call"] = (submits / max(run_mixed_calls, 1), "count")
        wal_s, _n = tracer.fn_total("store", ("log_batch",))
        metrics["store.wal_us_per_write"] = (1e6 * wal_s / max(updates, 1), "us")
        metrics["serve.queue_ms_p50"] = (1e3 * _median(queue_s), "ms")
        metrics["serve.exec_ms_p50"] = (1e3 * _median(exec_s), "ms")
        sampler_state_metrics(self._samplers(), self.counters0, metrics)
        return {
            "metrics": metrics,
            "server_reply_us_p50": 1e6 * _median(reply_s),
            "wal_bytes_per_update": (self._wal_bytes() - self.wal_bytes0) / max(updates, 1),
        }


#: Wire prefix of the load generator's phase markers (see ``Client.mark``).
MARK = b'{"op": "ping", "id": "mark:'


def _hook(recorder: Recorder) -> None:
    """Always-on wrappers: the phase-marker test and checkpoint timing."""
    from repro.serve.server import ReproServer
    from repro.store.durable import DurableStore

    submit = ReproServer.submit
    snapshot = DurableStore.snapshot

    def submit_hook(self, request):
        if isinstance(request, bytes) and request[: len(MARK)] == MARK:
            recorder.begin(self, json.loads(request)["id"][len("mark:"):])
        return submit(self, request)

    def snapshot_hook(self, structures):
        t0 = perf()
        try:
            return snapshot(self, structures)
        finally:
            recorder.checkpoints.append(perf() - t0)

    ReproServer.submit = submit_hook
    DurableStore.snapshot = snapshot_hook


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    from repro import cli

    recorder = Recorder()
    _hook(recorder)
    try:
        return cli.main(argv)
    finally:
        recorder.finish()
        recorder.results["checkpoints"] = recorder.checkpoints
        with open(out_path, "w") as handle:
            json.dump(recorder.results, handle)


if __name__ == "__main__":
    sys.exit(main())
