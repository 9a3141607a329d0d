"""The two embedded workloads: ``churn`` and ``weighted-sharded``.

Both are closed loops: one caller makes direct library calls, each timed
on its own.  Throughputs are a window's work over its summed call time,
so the output checks that run between calls stay outside every timed
section; every figure is the slow-side quartile over 1 s windows.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

from common import (
    CHI2_ALPHA,
    CHI2_SAMPLES,
    CHI2_SEED,
    WINDOW_S,
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
from tracer import (
    Tracer,
    install,
    sampler_counters,
    sampler_state_metrics,
    structure_metrics,
)

N = 1_000_000
#: Set-ups per run (``setup_s`` is their median): a DynamicIRS build
#: takes about 0.07 s, a sharded weighted one about 0.6 s.
CHURN_SETUPS = 15
WS_SETUPS = 5
NARROW = 1e-3  # selectivity of the small reads
SMALL_T = 16

perf = time.perf_counter


class Timings:
    """Per-class call durations (seconds) plus the work they did.

    A call that raises counts as failed, with an infinite latency: it
    misses every latency limit.
    """

    def __init__(self) -> None:
        self.by_class: dict[str, list[float]] = {}
        self.started: dict[str, list[float]] = {}  # call start times, per class
        self.busy = 0.0
        self.calls = 0
        self.failed = 0
        self.samples = 0
        self.updates = 0
        # per round: (start, calls, busy, samples, updates)
        self.rounds: list[tuple] = []
        self._mark = (perf(), 0, 0.0, 0, 0)

    def end_round(self) -> None:
        """Close one round of the loop."""
        now = (self.calls, self.busy, self.samples, self.updates)
        self.rounds.append(
            (self._mark[0], *(a - b for a, b in zip(now, self._mark[1:])))
        )
        self._mark = (perf(), *now)

    def rate(self, field: int) -> float:
        """``field`` (1 calls, 3 samples, 4 updates) per busy second.

        Rounds are summed per window by their start time; the result is
        the slow-side quartile over windows (``common.slow_quartile``).
        """
        t0 = self.rounds[0][0]
        work: dict[int, list[float]] = {}
        for r in self.rounds:
            acc = work.setdefault(int((r[0] - t0) // WINDOW_S), [0.0, 0.0])
            acc[0] += r[field]
            acc[1] += r[2]
        return slow_quartile([w / busy for w, busy in work.values()], True)

    def latency(self, cls: str) -> float:
        """Windowed latency of one class, seconds (``common.windowed_latency``)."""
        return windowed_latency(self.started[cls], self.by_class[cls])

    def call(self, cls: str, fn, *args, samples: int = 0, updates: int = 0):
        """Time one call of ``fn``; return its result (``None`` if it failed)."""
        from repro.errors import ReproError

        t0 = perf()
        try:
            out = fn(*args)
        except ReproError:
            dt = perf() - t0
            self.busy += dt
            self.by_class.setdefault(cls, []).append(math.inf)
            self.started.setdefault(cls, []).append(t0)
            self.calls += 1
            self.failed += 1
            return None
        dt = perf() - t0
        self.by_class.setdefault(cls, []).append(dt)
        self.started.setdefault(cls, []).append(t0)
        self.busy += dt
        self.calls += 1
        self.samples += samples
        self.updates += updates
        return out

    def get(self, cls: str) -> list[float]:
        return self.by_class.get(cls, [])


def _settle() -> None:
    """Collect, then freeze the survivors so set-up garbage is never rescanned."""
    gc.collect()
    gc.freeze()


def _narrow_range(gen) -> tuple[float, float]:
    lo = float(gen.random()) * (1.0 - NARROW)
    return lo, lo + NARROW


def _wide_range(gen, smallest: float) -> tuple[float, float]:
    width = smallest + (1.0 - smallest) * float(gen.random())
    lo = float(gen.random()) * (1.0 - width)
    return lo, lo + width


def end_to_end(timings: Timings, setup: list[float], bulk_classes=("bulk_read",)) -> dict:
    """The end-to-end metrics of an embedded run (``name -> (value, unit)``).

    Two-class metrics are the mean of the two classes' figures.
    """
    lat = timings.latency

    def mean_ms(*classes) -> float:
        return sum(ms(lat(c)) for c in classes) / len(classes)

    return {
        "setup_s": (median(setup), "s"),
        "ops_per_s": (timings.rate(1), "1/s"),
        "samples_per_s": (timings.rate(3), "1/s"),
        "updates_per_s": (timings.rate(4), "1/s"),
        "read_p50_ms": (mean_ms("read"), "ms"),
        "bulk_read_p50_ms": (mean_ms(*bulk_classes), "ms"),
        "write_p50_ms": (mean_ms("insert_bulk", "delete_bulk"), "ms"),
        "point_write_us": (1e3 * mean_ms("insert", "delete"), "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _traced_run(loop, state, seconds: float, instances, out: dict) -> Timings:
    """Run half the time untraced, half traced; fill the per-layer metrics.

    Returns the timings of both halves together (for the attempt count).
    """
    half = seconds / 2
    plain = Timings()
    t0 = perf()
    rounds_plain = loop(state, plain, t0 + half)
    wall_plain = perf() - t0
    tracer = install(Tracer(), instances=instances)
    samplers = state["samplers"]()
    before = sampler_counters(samplers)
    shard_before = state["shard_stats"]()
    traced = Timings()
    t0 = perf()
    try:
        rounds_traced = loop(state, traced, t0 + half)
    finally:
        wall = perf() - t0
        tracer.uninstall()
    ops = traced.calls
    structure_metrics(tracer, out)
    sampler_state_metrics(samplers, before, out)
    shard_after = state["shard_stats"]()
    reads = tracer.roots["read"]
    out["shard.tasks_per_read"] = (
        (shard_after[0] - shard_before[0]) / reads if reads else 0.0, "count")
    out["shard.rebalances"] = (float(shard_after[1] - shard_before[1]), "count")
    attributed = 0.0
    for layer in ("shard", "sampler", "directory", "rng", "kernels"):
        secs = tracer.layer_self(layer)
        attributed += secs
        out[f"{layer}.self_us_per_op"] = (1e6 * secs / ops, "us")
    out["trace.wall_us_per_op"] = (1e6 * wall / ops, "us")
    out["trace.unattributed_us_per_op"] = (1e6 * (wall - attributed) / ops, "us")
    out["trace.overhead_frac"] = (
        (wall / rounds_traced) / (wall_plain / rounds_plain), "ratio")
    traced.calls += plain.calls
    traced.failed += plain.failed
    return traced


# -- churn ----------------------------------------------------------------------


def _churn_round(state, timings: Timings, deadline: float) -> int:
    d = state["structure"]
    gen = state["gen"]
    checks = state["checks"]
    rounds = 0
    while perf() < deadline:
        batch = gen.random(1000)
        call = timings.call
        call("insert_bulk", d.insert_bulk, batch, updates=batch.size)
        points = gen.random(128).tolist()
        for v in points:
            call("insert", d.insert, v, updates=1)
        for v in points:
            call("delete", d.delete, v, updates=1)
        for _ in range(32):
            lo, hi = _narrow_range(gen)
            out = call("read", d.sample_bulk, lo, hi, SMALL_T, samples=SMALL_T)
            if out is not None:
                checks.sample(out, lo, hi, SMALL_T)
        for _ in range(4):
            lo, hi = _wide_range(gen, 0.1)
            out = call("bulk_read", d.sample_bulk, lo, hi, 4096, samples=4096)
            if out is not None:
                checks.sample(out, lo, hi, 4096)
        previous = state["live"]
        call("delete_bulk", d.delete_bulk, previous, updates=previous.size)
        state["live"] = batch
        timings.end_round()
        rounds += 1
    return rounds


def churn(seed: int, seconds: float, trace: bool) -> tuple[Checks, int, int, dict]:
    from repro import DynamicIRS

    gen = np.random.default_rng(seed)
    values = gen.random(N)
    setup = []
    for _ in range(CHURN_SETUPS):
        structure = None
        gc.collect()
        t0 = perf()
        structure = DynamicIRS(values, seed=seed)
        setup.append(perf() - t0)
    checks = Checks()
    # The round deletes the previous round's batch, so the first round
    # needs one to delete: a warm-up batch, inserted untimed.
    live = gen.random(1000)
    structure.insert_bulk(live)
    state = {
        "structure": structure,
        "gen": gen,
        "checks": checks,
        "live": live,
        "samplers": lambda: [structure],
        "shard_stats": lambda: (0, 0),
    }
    _churn_round(state, Timings(), perf() + min(1.0, seconds / 10))  # warm-up
    _settle()
    timings = Timings()
    out: dict = {}
    if trace:
        timings = _traced_run(_churn_round, state, seconds, (), out)
    else:
        _churn_round(state, timings, perf() + seconds)
    mirror = np.sort(np.concatenate((values, state["live"])))
    _check_structure(checks, structure, mirror, gen)
    info = {}
    if not trace:
        out = end_to_end(timings, setup)
        info = read_tail(timings.get("read"))
    return checks, timings.calls, timings.failed, out, info


# -- weighted-sharded -------------------------------------------------------------


def _weights(gen, n: int):
    """Pareto (type I, x_m = 1, shape 1.5) weights: heavy-tailed, all >= 1."""
    return gen.pareto(1.5, n) + 1.0


def _ws_cycle(state, timings: Timings, deadline: float) -> int:
    s = state["structure"]
    gen = state["gen"]
    checks = state["checks"]
    cycles = 0
    while perf() < deadline:
        batch = gen.random(1000)
        bw = _weights(gen, batch.size)
        call = timings.call
        call("insert_bulk", s.insert_bulk, batch, bw, updates=batch.size)
        points = gen.random(8).tolist()
        pw = _weights(gen, 8).tolist()
        for v, w in zip(points, pw):
            call("insert", s.insert, v, w, updates=1)
        for v in points:
            call("delete", s.delete, v, updates=1)
        previous = state["live"][0]
        call("delete_bulk", s.delete_bulk, previous, updates=previous.size)
        state["live"] = (batch, bw)
        # The reads after the writes start with the two large classes, so
        # the rebuilds the writes leave behind are paid by large reads,
        # never by a small one.  The facade draws from its own re-exported
        # shard snapshots and never reaches a shard's sampler, so one
        # large read per cycle goes to a shard directly: it times the
        # weighted sampler's read path (flat_pick, the weight prefix and
        # the cumulative-table rebuild after the writes).
        j = cycles % len(s.shards)
        bounds = (0.0, *s.bounds, 1.0)
        span_lo, span = bounds[j], bounds[j + 1] - bounds[j]
        lo, hi = _wide_range(gen, 0.1)
        lo, hi = span_lo + lo * span, span_lo + hi * span
        out = call("shard_read", s.shards[j].sample_bulk, lo, hi, 65536, samples=65536)
        if out is not None:
            checks.sample(out, lo, hi, 65536)
        for _ in range(3):
            lo, hi = _wide_range(gen, 0.01)
            out = call("bulk_read", s.sample_bulk, lo, hi, 65536, samples=65536)
            if out is not None:
                checks.sample(out, lo, hi, 65536)
            for _ in range(12):
                lo, hi = _narrow_range(gen)
                out = call("read", s.sample_bulk, lo, hi, SMALL_T, samples=SMALL_T)
                if out is not None:
                    checks.sample(out, lo, hi, SMALL_T)
        timings.end_round()
        cycles += 1
    return cycles


def weighted_sharded(seed: int, seconds: float, trace: bool) -> tuple[Checks, int, int, dict]:
    from repro import ShardedIRS

    gen = np.random.default_rng(seed)
    values = gen.random(N)
    weights = _weights(gen, N)
    setup = []
    structure = None
    for _ in range(WS_SETUPS):
        if structure is not None:
            structure.close()
            structure = None
        gc.collect()
        t0 = perf()
        structure = ShardedIRS(
            values, num_shards=4, weights=weights, seed=seed,
            shard_kind="weighted-dynamic", backend="serial",
        )
        setup.append(perf() - t0)
    checks = Checks()
    live = gen.random(1000)
    live_w = _weights(gen, live.size)
    structure.insert_bulk(live, live_w)
    state = {
        "structure": structure,
        "gen": gen,
        "checks": checks,
        "live": (live, live_w),
        "samplers": lambda: list(structure.shards),
        "shard_stats": lambda: (
            structure.stats.extra.get("scatter_tasks", 0),
            structure.stats.extra.get("rebalances", 0),
        ),
    }
    try:
        _ws_cycle(state, Timings(), perf() + min(1.5, seconds / 10))  # warm-up
        _settle()
        timings = Timings()
        out: dict = {}
        if trace:
            timings = _traced_run(_ws_cycle, state, seconds, (structure,), out)
        else:
            _ws_cycle(state, timings, perf() + seconds)
        batch, bw = state["live"]
        all_values = np.concatenate((values, batch))
        all_weights = np.concatenate((weights, bw))
        order = np.argsort(all_values, kind="stable")
        _check_structure(
            checks, structure, all_values[order], gen, all_weights[order]
        )
        info = {}
        if not trace:
            out = end_to_end(timings, setup, ("bulk_read", "shard_read"))
            info = read_tail(timings.get("read"))
    finally:
        structure.close()
    return checks, timings.calls, timings.failed, out, info


# -- checks shared by both --------------------------------------------------------


def _check_structure(checks: Checks, structure, mirror, gen, weights=None) -> None:
    """Size, counts, invariants and one decile chi-square against the mirror."""
    checks.expect(len(structure) == mirror.size,
                  f"size {len(structure)} != mirror {mirror.size}")
    for _ in range(200):
        lo, hi = _wide_range(gen, 0.0) if gen.random() < 0.5 else _narrow_range(gen)
        want = int(np.searchsorted(mirror, hi, side="right")
                   - np.searchsorted(mirror, lo, side="left"))
        got = structure.count(lo, hi)
        checks.expect(got == want, f"count({lo}, {hi}) = {got}, mirror {want}")
    try:
        structure.check_invariants()
    except AssertionError as exc:
        checks.expect(False, f"check_invariants: {exc}")
    lo, hi = float(quantile(mirror, 0.05)), float(quantile(mirror, 0.95))
    out = structure.sample_bulk(lo, hi, CHI2_SAMPLES, seed=CHI2_SEED)
    checks.sample(out, lo, hi, CHI2_SAMPLES)
    p = decile_chi2(out, mirror, lo, hi, weights)
    checks.expect(p > CHI2_ALPHA, f"decile chi-square p={p:.3g}")
