"""Execution backends for the sharded scatter-gather engine.

A backend runs a list of *shard tasks* — pure, picklable descriptors of
"draw ``t`` samples from shard ``i``'s snapshot over ``[lo, hi]`` with seed
``s`` and write them at offset ``o``" — and the engine guarantees that the
result is byte-identical no matter which backend executed them:

* every task derives its randomness from an explicit integer seed
  (:func:`repro.rng.derive_seed` of the root entropy and the task's
  ``(call, shard)`` path), never from shared generator state;
* tasks write into disjoint slices of one output array, so completion
  order is irrelevant.

``serial`` runs the tasks inline; ``threads`` fans them out over a
:class:`~concurrent.futures.ThreadPoolExecutor` (NumPy's searchsorted /
gather kernels release the GIL on large arrays); ``processes`` keeps every
shard snapshot in :mod:`multiprocessing.shared_memory` and ships only the
task tuples — workers attach the segments by name, draw, and write their
slice of a shared output segment, so neither point data nor samples ever
cross the pipe.

Every backend's ``run`` accepts an optional ``timeout`` (seconds for the
whole task list).  Expiry raises :class:`~repro.errors.ShardTimeoutError`;
a dead worker process raises :class:`~repro.errors.WorkerDiedError`.  Both
are :class:`~repro.errors.ShardExecutionError`\\ s, which is the signal
:class:`~repro.shard.sharded.ShardedIRS` uses to fail over to the serial
backend — safe precisely because tasks are seed-pure and idempotent.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as _np

from ..core.kernels.numpy_backend import flat_pick
from ..errors import ShardTimeoutError, WorkerDiedError

__all__ = [
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "make_backend",
    "BACKEND_NAMES",
]

BACKEND_NAMES = ("serial", "threads", "processes")


def draw_from_snapshot(values, cumw, lo: float, hi: float, t: int, seed: int):
    """Draw ``t`` samples from one shard snapshot — the shared task kernel.

    ``values`` is the shard's sorted point array; ``cumw`` is either
    ``None`` (uniform shard: one rank draw per sample) or the length
    ``n + 1`` inclusive weight prefix with ``cumw[0] == 0`` (weighted
    shard: one inverse-CDF bisect per sample, exact proportional to the
    masses the prefix represents, resolved by the NumPy ``flat_pick``
    kernel — in key order for large batches).  Every backend — and every
    worker process — runs exactly this function, which is what makes
    results backend-independent: the generator is rebuilt from the
    explicit seed.
    """
    rng = _np.random.default_rng(seed)
    a = int(_np.searchsorted(values, lo, side="left"))
    b = int(_np.searchsorted(values, hi, side="right"))
    if cumw is None:
        return values[rng.integers(a, b, size=t)]
    u = rng.random(t) * (cumw[b] - cumw[a]) + cumw[a]
    # Every u >= cumw[0] == 0, so bisect_right over cumw[1:] maps u in
    # [cumw[i], cumw[i+1]) to rank i; the clamp guards the one-ulp case
    # where u rounds up to exactly cumw[b].
    return flat_pick(values, cumw[1:], u, a, b - 1)


def _run_with_deadline(pool, fn, tasks: Sequence, timeout: float) -> None:
    """Submit ``tasks`` to ``pool`` and wait at most ``timeout`` seconds.

    Stragglers are cancelled best-effort (a task already running cannot be
    interrupted, but its write lands in its own disjoint output slice, so
    a late completion is harmless).  Raises
    :class:`~repro.errors.ShardTimeoutError` when the deadline expires
    with tasks unfinished; re-raises the first task exception otherwise.
    """
    from concurrent.futures import wait

    futures = [pool.submit(fn, task) for task in tasks]
    done, not_done = wait(futures, timeout=timeout)
    if not_done:
        for future in not_done:
            future.cancel()
        raise ShardTimeoutError(
            f"{len(not_done)} of {len(futures)} shard task(s) "
            f"unfinished after {timeout}s"
        )
    for future in done:
        future.result()


class SerialBackend:
    """Run shard tasks inline, one after another.

    ``timeout`` is accepted for interface parity and ignored: inline
    execution cannot be preempted, and the serial backend is the failover
    target — it must never itself raise a shard-execution fault.
    """

    name = "serial"
    uses_shared_memory = False

    def run(self, fn, tasks: Sequence, timeout: float | None = None) -> None:
        """Execute every task inline (``timeout`` ignored)."""
        for task in tasks:
            fn(task)

    def close(self) -> None:
        """Nothing to release."""


class ThreadBackend:
    """Run shard tasks on a persistent thread pool.

    Useful when the per-task NumPy kernels are large enough to release the
    GIL; always deterministic (tasks share no mutable state and write
    disjoint output slices).
    """

    name = "threads"
    uses_shared_memory = False

    def __init__(self, max_workers: int | None = None) -> None:
        self._max_workers = max_workers or min(8, os.cpu_count() or 1)
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(max_workers=self._max_workers)
        return self._pool

    def run(self, fn, tasks: Sequence, timeout: float | None = None) -> None:
        """Execute the tasks on the pool (inline when there is at most one).

        With a ``timeout`` the whole task list must finish within it or
        :class:`~repro.errors.ShardTimeoutError` is raised.
        """
        if timeout is None and len(tasks) <= 1:
            for task in tasks:
                fn(task)
            return
        pool = self._ensure_pool()
        if timeout is None:
            # list() drains the iterator so exceptions propagate here.
            list(pool.map(fn, tasks))
        else:
            _run_with_deadline(pool, fn, tasks, timeout)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# -- process backend ---------------------------------------------------------
#
# Worker-side cache of attached shared-memory segments.  Snapshot segment
# names are stable across calls (until the shard is mutated), so caching
# the attachment turns the steady-state per-task cost into two dict hits.
# The cache is bounded: refreshed snapshots retire their old names, and
# unbounded growth would hold dead segments' mappings alive in every
# worker.

_ATTACH_CAP = 64
_attached: dict[str, tuple] = {}


def _attach(name: str, length: int):
    """Return a NumPy view of the named segment (attach-and-cache)."""
    from multiprocessing import shared_memory

    entry = _attached.get(name)
    if entry is None:
        if len(_attached) >= _ATTACH_CAP:
            stale_name, (stale_shm, stale_view) = next(iter(_attached.items()))
            del _attached[stale_name]
            del stale_view
            try:
                stale_shm.close()
            except BufferError:  # pragma: no cover - view still exported
                pass
        shm = shared_memory.SharedMemory(name=name)
        view = _np.ndarray((length,), dtype=_np.float64, buffer=shm.buf)
        entry = _attached[name] = (shm, view)
    return entry[1]


def _run_shm_task(task) -> None:
    """Execute one pickled shard task against shared-memory segments.

    ``task`` is ``(values_name, n, cumw_name, lo, hi, t, seed, out_name,
    out_len, out_off)`` — names and scalars only; the arrays live in
    shared memory on both sides.
    """
    (values_name, n, cumw_name, lo, hi, t, seed, out_name, out_len, out_off) = task
    values = _attach(values_name, n)
    cumw = _attach(cumw_name, n + 1) if cumw_name is not None else None
    from multiprocessing import shared_memory

    out_shm = shared_memory.SharedMemory(name=out_name)
    try:
        out = _np.ndarray((out_len,), dtype=_np.float64, buffer=out_shm.buf)
        out[out_off : out_off + t] = draw_from_snapshot(values, cumw, lo, hi, t, seed)
        del out
    finally:
        out_shm.close()


class ProcessBackend:
    """Run shard tasks on a persistent process pool over shared memory.

    The engine publishes shard snapshots as named shared-memory segments
    (see :class:`~repro.shard.sharded.ShardedIRS`); this backend ships the
    ``(lo, hi, t, seed)`` task tuples to the pool and the workers write
    their samples straight into the call's shared output segment — no
    array crosses a pipe in either direction.

    The pool uses the ``fork`` start method when the platform offers it
    (shared imports, ~ms startup); ``spawn`` elsewhere.  Workers are
    started lazily on the first parallel call and live until
    :meth:`close`.
    """

    name = "processes"
    uses_shared_memory = True

    def __init__(self, max_workers: int | None = None) -> None:
        self._max_workers = max_workers or max(1, os.cpu_count() or 1)
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self._max_workers, mp_context=context
            )
        return self._pool

    def run(self, fn, tasks: Sequence, timeout: float | None = None) -> None:
        """Execute the shared-memory task descriptors on the pool.

        ``fn`` is ignored: process tasks are always the shared-memory
        descriptors executed by the module-level worker (closures over
        snapshot arrays cannot cross the pipe).  A worker dying mid-call
        surfaces as :class:`~repro.errors.WorkerDiedError` (the pool is
        torn down — it is unusable after a break); a ``timeout`` expiry
        as :class:`~repro.errors.ShardTimeoutError`.
        """
        from concurrent.futures.process import BrokenProcessPool

        if not tasks:
            return
        pool = self._ensure_pool()
        try:
            if timeout is None:
                chunksize = max(1, len(tasks) // (4 * self._max_workers))
                list(pool.map(_run_shm_task, tasks, chunksize=chunksize))
            else:
                _run_with_deadline(pool, _run_shm_task, tasks, timeout)
        except BrokenProcessPool as exc:
            self.close()
            raise WorkerDiedError(f"shard worker process died: {exc}") from exc

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_backend(spec, max_workers: int | None = None):
    """Resolve a backend name (or pass an instance through).

    ``spec`` may be ``"serial"``, ``"threads"``, ``"processes"`` or any
    object with ``run``/``close``/``uses_shared_memory`` (a custom
    backend).
    """
    if not isinstance(spec, str):
        return spec
    if spec == "serial":
        return SerialBackend()
    if spec == "threads":
        return ThreadBackend(max_workers)
    if spec == "processes":
        return ProcessBackend(max_workers)
    raise ValueError(f"unknown backend {spec!r}; expected one of {BACKEND_NAMES}")
