"""Shared helpers of the benchmark: statistics, host record, calibration,
output checks and the result line."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import time

import numpy as np

#: p-value below which a decile chi-square check fails.  The draw uses a
#: fixed seed, so an honest sampler passes deterministically.
CHI2_ALPHA = 1e-4
#: Seed of the one wide uniformity draw per structure.
CHI2_SEED = 0x5EED
CHI2_SAMPLES = 100_000
#: A tail percentile is reported only with at least this many samples
#: beyond it.
TAIL_BEYOND = 10


def quantile(values, q: float) -> float:
    """The ``q``-quantile (0..1) of ``values``, linear interpolation."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


def tail(values, q: float) -> float:
    """The ``q``-quantile, refused when fewer than ten samples lie beyond it."""
    if len(values) * (1.0 - q) < TAIL_BEYOND:
        raise RuntimeError(
            f"{len(values)} samples are too few for a q={q} tail"
        )
    return quantile(values, q)


def host_record() -> dict:
    """nproc, CPU model, Python/NumPy versions and the kernel backend."""
    from repro.core import backend_info

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": backend_info()["backend"],
    }


_CALIB_DATA = np.random.default_rng(12345).random(200_000)


def calibrate() -> float:
    """Milliseconds for a fixed NumPy sort plus a pure-Python loop.

    The median of three repetitions.  It flags slow spells on the host
    and is never used to correct a metric.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        np.sort(_CALIB_DATA)
        acc = 0
        for i in range(200_000):
            acc += i & 7
        times.append(time.perf_counter() - t0)
    return 1e3 * sorted(times)[1]


def cpu_ticks() -> tuple[int, int] | None:
    """Host-wide ``(steal, total)`` CPU ticks from ``/proc/stat``, if readable.

    Steal is time the hypervisor gave this VM's CPUs to someone else.
    """
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_frac(before, after) -> float | None:
    """Share of CPU time stolen between two :func:`cpu_ticks` readings."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MB (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def decile_chi2(samples, mirror_sorted, lo: float, hi: float, weights=None) -> float:
    """p-value of a decile chi-square of ``samples`` against the mirror.

    The bins are the deciles of the mirror's values in ``[lo, hi]``; the
    expected mass of a bin is its point count (uniform) or its weight sum
    (weighted, ``weights`` aligned with ``mirror_sorted``).
    """
    from repro.stats import chi_square_gof

    a = int(np.searchsorted(mirror_sorted, lo, side="left"))
    b = int(np.searchsorted(mirror_sorted, hi, side="right"))
    inside = mirror_sorted[a:b]
    k = inside.size
    cuts = np.unique(inside[[k * j // 10 for j in range(1, 10)]])
    mirror_bins = np.searchsorted(cuts, inside, side="right")
    if weights is None:
        expected = np.bincount(mirror_bins, minlength=cuts.size + 1)
    else:
        expected = np.bincount(
            mirror_bins, weights=weights[a:b], minlength=cuts.size + 1
        )
    observed = np.bincount(
        np.searchsorted(cuts, np.asarray(samples, dtype=float), side="right"),
        minlength=cuts.size + 1,
    )
    _stat, p = chi_square_gof(observed.tolist(), expected.tolist())
    return p


def read_tail(latencies) -> dict:
    """p95 and p99 of the small reads in ms, for the host line only.

    Not end-to-end metrics: on a VM that loses a few percent of its CPU
    time to steal, the tail of a millisecond-scale request measures the
    hypervisor (see DEFINITIONS.md).
    """
    out = {"read_p95_ms": ms(tail(latencies, 0.95))}
    if len(latencies) >= 1000:
        out["read_p99_ms"] = ms(tail(latencies, 0.99))
    return out


def ms(seconds: float) -> float:
    """Seconds to milliseconds; a failed call (infinite latency) reads 1e9 ms."""
    return 1e3 * seconds if math.isfinite(seconds) else 1e9


def metric(value: float, unit: str) -> dict:
    if not math.isfinite(value):
        raise RuntimeError(f"non-finite metric value {value!r}")
    return {"value": float(value), "unit": unit}


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result object as the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )


class Checks:
    """Collects output-check failures; the run is correct when none fired."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def sample(self, out, lo: float, hi: float, t: int) -> None:
        """A sample reply must have length ``t`` and lie in ``[lo, hi]``."""
        arr = np.asarray(out, dtype=float)
        if arr.shape != (t,):
            self.failures.append(f"sample of length {arr.size}, expected {t}")
        elif t and (arr.min() < lo or arr.max() > hi):
            self.failures.append(f"sample outside [{lo!r}, {hi!r}]")

    @property
    def correct(self) -> bool:
        return not self.failures


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


#: Length of the windows a timed phase is cut into (seconds).
WINDOW_S = 1.0
#: A window contributes a class median only with at least this many calls.
WINDOW_MIN = 3


def slow_quartile(per_window, higher_is_better: bool = False) -> float:
    """The slow-side quartile of per-window figures.

    The 75th percentile of a time, the 25th of a rate.  The host this
    benchmark was built on runs in a usual state with spells up to 1.7x
    faster that last from a second to minutes; a median over windows
    reads whichever state held most of the run, the slow-side quartile
    reads the usual state unless three quarters of the run was fast (see
    DEFINITIONS.md).  A program change moves every window alike.
    """
    arr = np.asarray(per_window, dtype=float)
    if arr.size == 0:
        raise RuntimeError("no window to summarize")
    arr = np.where(np.isinf(arr), 1e6, arr)  # a failed call reads 10^6 s
    return float(np.quantile(arr, 0.25 if higher_is_better else 0.75))


def windowed_latency(starts, durations) -> float:
    """Slow-side quartile over windows of the per-window median duration.

    ``starts`` are the calls' start times and ``durations`` their
    latencies (seconds).  Windows with fewer than :data:`WINDOW_MIN`
    calls are skipped; a run too short for any full window reads the
    plain median.
    """
    starts = np.asarray(starts, dtype=float)
    durations = np.asarray(durations, dtype=float)
    if durations.size == 0:
        raise RuntimeError("no call to summarize")
    slot = ((starts - starts.min()) // WINDOW_S).astype(np.int64)
    medians = [
        median(durations[slot == k])
        for k in np.unique(slot)
        if np.count_nonzero(slot == k) >= WINDOW_MIN
    ]
    return slow_quartile(medians) if medians else median(durations)
