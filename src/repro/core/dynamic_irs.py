"""Dynamic internal-memory IRS — result R2 of the paper (reconstruction).

Guarantees (matching the published bounds of Hu–Qiao–Tao, PODS 2014):

* space ``O(n)``;
* query ``O(log n + t)`` — ``O(log n)`` setup, then ``O(1)`` *expected*
  per sample (exact uniformity, rejection-based);
* update ``O(log n)`` amortized.

Design (see DESIGN.md §2.2 for the full analysis).  Points live in sorted
*chunks* of size ``s .. 2s`` with ``s = Θ(log n)``.  The chunk directory is
the shared **array-backed engine** of :mod:`repro.core.directory`
(DESIGN.md §8): chunks hold NumPy array planes in key order and three
parallel arrays (``maxes``, ``mins``, ``counts``) describe them —

* boundary chunks of a query are found with one C-level ``searchsorted``
  per endpoint (the ``maxes`` array is nondecreasing, so "first chunk whose
  max ≥ lo" is a binary search — duplicates across chunks are harmless);
* the number of points in a run of whole chunks is a difference of two
  entries of a lazily cached prefix-sum over ``counts``; scalar updates
  ride on the cache as per-chunk pending deltas (folded by readers in
  ``O(|pending|)``), so only structural changes force the vectorized
  ``cumsum`` rebuild;
* the middle run of a query occupies a *contiguous index window* of the
  chunk list, so "uniform (chunk, slot) pair, accept slot < |chunk|"
  samples an in-range point exactly uniformly with acceptance ≥ 1/2 —
  the density-bounded window the paper gets from a packed-memory array
  falls out of the directory for free, with no gaps to reject.

Every hot loop dispatches through the kernel tier
(:mod:`repro.core.kernels`, DESIGN.md §13): scalar splices, the
middle-rejection accept/reject scan and the rank-resolution searches each
run as one compiled call under the numba backend, with the vectorized
NumPy twins as the always-available fallback.  Bulk updates and bulk
reads run as whole-batch passes over the directory (one gather of the
touched chunks, one vectorized merge, filter or fancy index, one recut).
All randomness (Philox counter streams, the scalar stream's draw order)
and all accounting stay in this driver, so the two backends consume
identical draws and produce byte-identical results.

Storage planes are dtype-generic (PR 10): ``dtype=float32`` at
construction halves resident bytes, with every value coerced through the
plane dtype on the way in so routing, equality, and sortedness are
computed on exactly the stored representation.  Sampling and export
surfaces return float64 (float32 values widen exactly).  With
``from_sorted(..., copy=False)`` the caller's array is adopted without a
copy (see :mod:`repro.core.planes` for the strict contract).

Global rebuilds keep ``s`` in step with ``log n``: the structure is rebuilt
whenever ``n`` drifts outside ``[n0/2, 2·n0]``, which is amortized ``O(1)``
per update.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as _np

from ..errors import InvalidQueryError, KeyNotFoundError
from ..rng import RandomSource
from ..rng import generator as _generator
from ..types import QueryStats
from .base import DynamicRangeSampler, coerce_query_bounds, validate_query
from .directory import Chunk as _Chunk
from .directory import ChunkDirectory, distinct
from .kernels import get as _kernels
from .planes import admit_values, as_plane, resolve_dtype

__all__ = ["DynamicIRS"]

_MIN_CHUNK = 8
#: Middle runs at most this many chunks wide are gathered behind a
#: prefix-sum table instead of sampled by rejection (see ``_middle_plan``).
_NARROW = 24
#: Batches at or below this size take the scalar update loop — the
#: vectorized prelude's fixed cost only amortizes above it.
_BULK_CUTOFF = 16


class _MiddlePlan:
    """Query-local sampler over the middle run of whole chunks.

    Two modes (chosen by :meth:`DynamicIRS._middle_plan`):

    * ``cumulative`` — the chunks are gathered once and a prefix-sum table
      maps the caller's in-range rank ``r ∈ [0, K_mid)`` straight to
      ``(chunk, offset)`` with one C-level bisect.  Exactly uniform, zero
      extra random draws, worst-case ``O(log)`` per sample; used whenever
      gathering is affordable (``m = O(log n + t)`` chunks).
    * ``rejection`` — uniform over the ``(chunk, slot)`` grid of the middle
      index window: accept slot ``i`` of chunk ``c`` iff ``i < |c|``.  Every
      chunk holds ``s .. 2s`` points, so acceptance is at least 1/2 and each
      accepted pair is an exactly uniform middle point in ``O(1)`` expected
      probes; used for wide middles where gathering would break the
      ``O(log n + t)`` budget.

    The mode decision depends only on structure content and ``t`` — never
    on the active kernel backend — so draw consumption is backend-free.
    """

    __slots__ = ("mode", "window_lo", "window_hi", "cap", "chunks", "cum")

    def sample_rank(self, rank: int) -> float:
        """cumulative mode: map an in-range middle rank to its value."""
        i = int(_kernels().search_right_scalar(self.cum, rank))
        prev = int(self.cum[i - 1]) if i else 0
        return float(self.chunks[i].data[rank - prev])

    def sample_draw(self, randbelow, stats: QueryStats) -> float:
        """rejection mode: draw a fresh uniform middle element.

        One draw per probe: a uniform integer over ``window × cap`` encodes
        the chunk (quotient) and the acceptance/element index (remainder) at
        once — per-element probability is ``1/(window·cap)``, exactly
        uniform conditional on acceptance.
        """
        window_lo = self.window_lo
        cap = self.cap
        span = (self.window_hi - window_lo + 1) * cap
        chunks = self.chunks
        while True:
            draw = randbelow(span)
            data = chunks[window_lo + draw // cap].data
            idx = draw % cap
            if idx < data.size:
                return float(data[idx])
            stats.rejections += 1


class DynamicIRS(DynamicRangeSampler):
    """Dynamic uniform independent range sampling (multiset of floats).

    Parameters
    ----------
    values:
        Initial point set.
    seed:
        Seed of the private random stream.
    chunk_scale:
        Multiplier on the ``Θ(log n)`` chunk size — exposed for the ablation
        experiment F10; leave at 1.0 for normal use.
    dtype:
        Value-plane dtype (``float32`` or ``float64``).  ``None`` keeps a
        float32/float64 ndarray input's dtype and defaults everything else
        to float64.
    """

    def __init__(
        self,
        values: Iterable[float] = (),
        seed: int | None = None,
        chunk_scale: float = 1.0,
        *,
        dtype=None,
    ) -> None:
        self._init_common(seed, chunk_scale, resolve_dtype(values, dtype))
        if not isinstance(values, _np.ndarray):
            values = _np.asarray(list(values), dtype=self._dtype)
        self._build(_np.sort(admit_values(values.astype(self._dtype, copy=False))))

    @classmethod
    def from_sorted(
        cls,
        values: Iterable[float],
        seed: int | None = None,
        chunk_scale: float = 1.0,
        *,
        dtype=None,
        copy: bool = True,
    ) -> "DynamicIRS":
        """O(n) fast constructor over already-sorted input.

        Skips the ``O(n log n)`` sort of ``__init__``; the input is verified
        nondecreasing in ``O(n)`` (one vectorized pass) and a
        :class:`ValueError` is raised otherwise.  ``copy=False`` adopts a
        caller ndarray zero-copy under the strict contract of
        :func:`repro.core.planes.as_plane` (chunks become views of it;
        mutating it afterwards is undefined behavior).
        """
        self = cls.__new__(cls)
        arr = admit_values(as_plane(values, dtype=dtype, copy=copy))
        self._init_common(seed, chunk_scale, arr.dtype)
        self._build(arr)
        return self

    def _init_common(self, seed: int | None, chunk_scale: float, dtype=None) -> None:
        self._rng = RandomSource(seed)
        self._chunk_scale = chunk_scale
        self.stats = QueryStats()
        self._bulk_gen = None  # lazily-spawned NumPy side stream (sample_bulk)
        self._dtype = _np.dtype(dtype) if dtype is not None else _np.dtype(_np.float64)
        self._dir = ChunkDirectory(weighted=False)

    def _coerce(self, value) -> float:
        """Round ``value`` through the plane dtype (identity for float64).

        Every scalar entering the structure is coerced *before* routing or
        comparison, so searches run against exactly the stored bits.
        float32→float64 widening is exact, so the result is still a plain
        Python float.
        """
        if self._dtype.itemsize == 8:
            return float(value)
        return float(self._dtype.type(value))

    # -- construction / rebuild ------------------------------------------------

    def _build(self, data) -> None:
        """(Re)build the chunk list and directory from sorted points."""
        if not isinstance(data, _np.ndarray) or data.dtype != self._dtype:
            data = _np.asarray(data, dtype=self._dtype)
        self._n = int(data.size)
        self._n0 = max(self._n, 1)
        raw = self._chunk_scale * max(1.0, math.log2(self._n0 + 2))
        self._s = max(_MIN_CHUNK, int(raw))
        self._cap = 2 * self._s
        # Build at the midpoint of the [s, 2s] window so fresh chunks have
        # slack on both sides: deletes can borrow instead of merging and
        # inserts absorb s/2 points before the first split.  Pieces are
        # views — building over an adopted array allocates no planes.
        s = self._s
        step = (3 * s) // 2
        pieces = [data[i : i + step] for i in range(0, self._n, step)]
        if len(pieces) > 1 and pieces[-1].size < s:
            tail = pieces.pop()
            merged = _np.concatenate((pieces.pop(), tail))
            if merged.size > self._cap:
                half = merged.size // 2
                pieces.append(merged[:half])
                pieces.append(merged[half:])
            else:
                pieces.append(merged)
        self._dir.load([_Chunk(piece) for piece in pieces])

    def _maybe_rebuild(self) -> None:
        if self._n > 2 * self._n0 or (self._n0 > _MIN_CHUNK and 2 * self._n < self._n0):
            self._build(self.export_sorted())

    # -- basic accessors ----------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def dtype(self):
        """The value-plane dtype (``float32`` or ``float64``)."""
        return self._dtype

    @property
    def plane_nbytes(self) -> int:
        """Logical bytes of the stored value plane (``n × itemsize``)."""
        return self._n * self._dtype.itemsize

    @property
    def chunk_size_bounds(self) -> tuple[int, int]:
        """Current ``(s, 2s)`` chunk-size window (changes on rebuilds)."""
        return self._s, self._cap

    @property
    def _chunks(self) -> list[_Chunk]:
        """The directory's ordered chunk list (tests and debugging)."""
        return self._dir.chunks

    def _iter_chunks(self) -> Iterator[_Chunk]:
        return iter(self._dir.chunks)

    def _iter_values(self) -> Iterator[float]:
        for chunk in self._dir.chunks:
            yield from chunk.data.tolist()

    def values(self) -> list[float]:
        """Return every stored point in sorted order (``O(n)``)."""
        out: list[float] = []
        for chunk in self._dir.chunks:
            out.extend(chunk.data.tolist())
        return out

    def __contains__(self, value: float) -> bool:
        value = self._coerce(value)
        kernel = _kernels()
        i = int(kernel.search_left_scalar(self._dir.maxes, value))
        if i >= len(self._dir.chunks):
            return False
        data = self._dir.chunks[i].data
        j = int(kernel.search_left_scalar(data, value))
        return j < data.size and data[j] == value

    # -- scalar updates --------------------------------------------------------------

    def insert(self, value: float) -> None:
        """Insert one point in ``O(log n)`` amortized time.

        The route (one binary search over ``maxes``), the in-chunk
        position search, and the splice are three kernel calls; under the
        compiled backend each is a single Python→native transition with
        the splice allocating exactly one fresh ``s``-element plane.
        """
        value = admit_values(self._coerce(value))
        directory = self._dir
        chunks = directory.chunks
        if not chunks:
            self._build(_np.asarray([value], dtype=self._dtype))
            return
        kernel = _kernels()
        i = int(kernel.search_left_scalar(directory.maxes, value))
        if i >= len(chunks):
            i = len(chunks) - 1
        chunk = chunks[i]
        pos = kernel.search_right_scalar(chunk.data, value)
        chunk.data = kernel.splice_insert(chunk.data, pos, value)
        chunk.touch()
        directory.refresh_entry(i)
        self._n += 1
        directory.note_delta(i, 1)
        if chunk.data.size > self._cap:
            directory.split_chunk(i, self._cap)
        self._maybe_rebuild()

    def delete(self, value: float) -> None:
        """Delete one occurrence of ``value`` in ``O(log n)`` amortized time."""
        value = self._coerce(value)
        directory = self._dir
        chunks = directory.chunks
        kernel = _kernels()
        i = int(kernel.search_left_scalar(directory.maxes, value))
        j = -1
        if i < len(chunks):
            data = chunks[i].data
            j = int(kernel.search_left_scalar(data, value))
            if j >= data.size or data[j] != value:
                j = -1
        if j < 0:
            raise KeyNotFoundError(f"value not present: {value!r}")
        chunk = chunks[i]
        chunk.data = kernel.splice_delete(chunk.data, j)
        chunk.touch()
        self._n -= 1
        directory.note_delta(i, -1)
        if chunk.data.size == 0:
            directory.remove_chunk(i)
            return
        directory.refresh_entry(i)
        if chunk.data.size < self._s and len(chunks) > 1:
            directory.repair_underfull(i, self._s)
        self._maybe_rebuild()

    # -- bulk updates -----------------------------------------------------------------

    def insert_bulk(self, values: Iterable[float]) -> None:
        """Insert a whole batch with one gather–merge–recut pass.

        The batch is sorted once and handed to
        :meth:`ChunkDirectory.merge_batch
        <repro.core.directory.ChunkDirectory.merge_batch>`: one vectorized
        ``searchsorted`` routes it, the touched chunks are gathered into
        one array, the batch is merged in with one stable scatter (chunk
        points first on ties) and the result is recut into the same
        chunks with vectorized directory repair; over-full chunks are
        re-split in one assembly pass — ``O(b log b + touched·s)`` for a
        batch of ``b`` with no per-chunk chain of NumPy calls.  The
        global-rebuild check is hoisted: a batch that would push ``n``
        past ``2·n0`` rebuilds wholesale *before* routing (the only way an
        insert batch can trip it), so no trailing ``_maybe_rebuild`` is
        needed.
        """
        if not isinstance(values, _np.ndarray):
            values = list(values)
        if len(values) <= _BULK_CUTOFF:
            # Below the cutoff the vectorized prelude (array round trip,
            # searchsorted, unique) costs more than the scalar loop.  The
            # whole batch is admitted before the first insert.
            for value in values:
                admit_values(float(value))
            for value in values:
                self.insert(float(value))
            return
        batch = _np.sort(admit_values(_np.asarray(values, dtype=self._dtype)))
        m = int(batch.size)
        if self._n == 0:
            self._build(batch)
            return
        if self._n + m > 2 * self._n0:
            # The batch alone crosses the global-rebuild threshold: merge
            # into one sorted array and rebuild wholesale — amortized O(1)
            # per element, and it picks the right chunk size for the new n
            # immediately.
            merged = _np.sort(_np.concatenate((self.export_sorted(), batch)))
            self._build(merged)
            return
        self._dir.merge_batch(batch, self._cap)
        self._n += m

    def delete_bulk(self, values: Iterable[float]) -> None:
        """Delete one occurrence per batch value with one gather–filter–recut pass.

        Atomic: if any value is absent the structure is left untouched and
        :class:`~repro.errors.KeyNotFoundError` is raised.  The batch is
        sorted once and handed to :meth:`ChunkDirectory.remove_batch
        <repro.core.directory.ChunkDirectory.remove_batch>`, which gathers
        every chunk that can hold a batch value, verifies all of them with
        one vectorized comparison (the ``k``-th copy of a value takes its
        ``k``-th leftmost occurrence), recuts the survivors and repairs
        only the under-full chunks it touched; one ``_maybe_rebuild``
        check follows.
        """
        if not isinstance(values, _np.ndarray):
            values = list(values)
        if len(values) <= 1:
            # One value: the scalar path is just as atomic, and cheaper.
            for value in values:
                self.delete(value)
            return
        batch = _np.sort(_np.asarray(values, dtype=self._dtype))
        self._dir.remove_batch(batch, self._s, self._cap)
        self._n -= int(batch.size)
        self._maybe_rebuild()

    # -- queries ------------------------------------------------------------------------

    def count(self, lo: float, hi: float) -> int:
        validate_query(lo, hi, 0)
        plan = self._plan(lo, hi)
        return plan[0] if plan is not None else 0

    def peek_counts(self, queries):
        """Vectorized multi-range count over the chunk directory.

        ``queries`` is a sequence of ``(lo, hi)`` pairs; the result is a
        NumPy ``int64`` array of in-range counts aligned with the input.
        Boundary-chunk resolution (one ``searchsorted`` over ``maxes`` and
        one over ``mins`` for *all* bounds at once) and the whole-chunk
        middle mass (prefix-sum differences) are vectorized; only the two
        in-chunk boundary searches remain per query, so the total cost is
        ``O(q log n)`` with the directory passes done in C.
        """
        los, his = coerce_query_bounds(queries)
        if self._dtype.itemsize == 4:
            # Round bounds through the plane dtype (see ``_plan``).
            los = los.astype(_np.float32).astype(_np.float64)
            his = his.astype(_np.float32).astype(_np.float64)
        q = len(los)
        out = _np.zeros(q, dtype=_np.int64)
        directory = self._dir
        chunks = directory.chunks
        if not chunks:
            return out
        kernel = _kernels()
        a_idx = _np.searchsorted(directory.maxes, los, side="left")
        b_idx = _np.searchsorted(directory.mins, his, side="right") - 1
        # Fold the pending scalar deltas into a query-local copy so the
        # middle mass stays one subtraction per query.
        prefix = directory.folded_prefix()
        for i in range(q):
            a, b = int(a_idx[i]), int(b_idx[i])
            if a >= len(chunks) or b < a:
                continue
            data_a = chunks[a].data
            if a == b:
                out[i] = kernel.search_right_scalar(
                    data_a, his[i]
                ) - kernel.search_left_scalar(data_a, los[i])
                continue
            k = data_a.size - int(kernel.search_left_scalar(data_a, los[i]))
            k += int(kernel.search_right_scalar(chunks[b].data, his[i]))
            if b - a > 1:
                k += int(prefix[b - 1] - prefix[a])
            out[i] = k
        return out

    def export_sorted(self):
        """Return every stored point as a sorted NumPy array (shard hook).

        ``O(n)`` — one concatenation of the per-chunk planes in the
        structure's dtype; the result is freshly assembled, so callers
        own it.
        """
        if not self._dir.chunks:
            return _np.empty(0, dtype=self._dtype)
        return _np.concatenate([chunk.data for chunk in self._dir.chunks])

    def report(self, lo: float, hi: float) -> list[float]:
        validate_query(lo, hi, 0)
        lo = self._coerce(lo)
        hi = self._coerce(hi)
        out: list[float] = []
        chunks = self._dir.chunks
        kernel = _kernels()
        i = self._dir.first_max_ge(lo)
        while i < len(chunks) and chunks[i].data[0] <= hi:
            data = chunks[i].data
            a = int(kernel.search_left_scalar(data, lo)) if data[0] < lo else 0
            b = (
                int(kernel.search_right_scalar(data, hi))
                if data[-1] > hi
                else data.size
            )
            out.extend(data[a:b].tolist())
            i += 1
        return out

    def _plan(self, lo: float, hi: float):
        """Resolve a range into ``(K, a, la, k_left, k_mid, b, k_right)``.

        Returns ``None`` for an empty range.  ``a``/``b`` are the boundary
        chunk indices; the middle run is the index window ``[a+1, b-1]``.
        The single-chunk case is encoded entirely in the "left" fields with
        ``a == b``.

        Bounds are coerced through the plane dtype first (identity for
        float64): every in-chunk comparison then runs against values that
        are exactly representable in the plane, which is what keeps the
        two kernel backends' searches bit-identical on float32 planes.
        """
        lo = self._coerce(lo)
        hi = self._coerce(hi)
        directory = self._dir
        chunks = directory.chunks
        a = directory.first_max_ge(lo)
        if a >= len(chunks):
            return None
        b = directory.last_min_le(hi)
        if b < a:
            return None
        kernel = _kernels()
        if a == b:
            data = chunks[a].data
            la = int(kernel.search_left_scalar(data, lo))
            ra = int(kernel.search_right_scalar(data, hi))
            if ra <= la:
                return None
            return ra - la, a, la, ra - la, 0, b, 0
        data_a = chunks[a].data
        la = int(kernel.search_left_scalar(data_a, lo))
        k_left = data_a.size - la
        k_right = int(kernel.search_right_scalar(chunks[b].data, hi))
        k_mid = directory.points_between(a, b)
        total = k_left + k_mid + k_right
        if total == 0:
            return None
        return total, a, la, k_left, k_mid, b, k_right

    def sample(self, lo: float, hi: float, t: int) -> list[float]:
        """Return ``t`` independent uniform samples from ``P ∩ [lo, hi]``."""
        validate_query(lo, hi, t)
        plan = self._plan(lo, hi)
        if self._require_nonempty(0 if plan is None else plan[0], t):
            return []
        total, a, la, k_left, k_mid, b, k_right = plan
        chunks = self._dir.chunks
        stats = self.stats
        stats.queries += 1
        stats.samples_returned += t
        randbelow = self._rng.randbelow_fn(t)
        out: list[float] = []
        append = out.append
        middle: _MiddlePlan | None = None
        left_data = chunks[a].data
        right_data = chunks[b].data if b != a else None
        k_lm = k_left + k_mid
        for _ in range(t):
            r = randbelow(total)
            if r < k_left:
                append(float(left_data[la + r]))
            elif r < k_lm:
                if middle is None:
                    middle = self._middle_plan(a + 1, b - 1, t)
                if middle.mode == "cumulative":
                    append(middle.sample_rank(r - k_left))
                else:
                    append(middle.sample_draw(randbelow, stats))
            else:
                append(float(right_data[r - k_lm]))
        return out

    def sample_bulk(self, lo: float, hi: float, t: int, *, seed=None):
        """Vectorized :meth:`sample` returning a float64 NumPy array.

        Semantics match :meth:`sample` (``t`` independent uniform samples),
        but the randomness comes from a NumPy side stream spawned once via
        :meth:`RandomSource.spawn_numpy`, so draw accounting differs from
        the scalar path (bulk draws are not counted per element).  An
        explicit ``seed`` draws from :func:`repro.rng.generator` instead,
        decoupling this call's result from the structure's stream position
        (seed-addressable sampling, the serving layer's contract).

        The query plan's three-way split is resolved vectorized: one batch
        of uniform ranks in ``[0, K)``, boolean masks for the left/middle/
        right parts, and gathers against the chunks' array planes.  Wide
        middles fall back to the same index-window rejection scheme as the
        scalar path, with the accept/reject scan run as one kernel call
        per draw batch — all draws are generated *here*, in draw order,
        so the stream position after the call is backend-invariant.
        """
        validate_query(lo, hi, t)
        plan = self._plan(lo, hi)
        if self._require_nonempty(0 if plan is None else plan[0], t):
            return _np.empty(0, dtype=float)
        total, a, la, k_left, k_mid, b, k_right = plan
        chunks = self._dir.chunks
        stats = self.stats
        stats.queries += 1
        stats.samples_returned += t
        if seed is not None:
            gen = _generator(seed)
        else:
            if self._bulk_gen is None:
                self._bulk_gen = self._rng.spawn_numpy()
            gen = self._bulk_gen
        ranks = gen.integers(0, total, size=t)
        out = _np.empty(t, dtype=float)
        k_lm = k_left + k_mid
        left_mask = ranks < k_left
        right_mask = ranks >= k_lm
        if left_mask.any():
            out[left_mask] = chunks[a].data[la + ranks[left_mask]]
        if right_mask.any():
            out[right_mask] = chunks[b].data[ranks[right_mask] - k_lm]
        mid_mask = ~(left_mask | right_mask)
        n_mid = int(mid_mask.sum())
        if n_mid:
            out[mid_mask] = self._middle_bulk(
                a + 1, b - 1, ranks[mid_mask] - k_left, n_mid, gen, stats
            )
        return out

    def _middle_bulk(
        self,
        mid_lo: int,
        mid_hi: int,
        mid_ranks,
        count: int,
        gen,
        stats: QueryStats,
    ):
        """Resolve middle-run ranks (cumulative mode) or draw fresh middle
        elements (rejection mode) for :meth:`sample_bulk`.

        Either way the hit chunks are gathered once
        (:meth:`ChunkDirectory.gather
        <repro.core.directory.ChunkDirectory.gather>`) and every sample is
        one fancy index into the gathered array — no per-chunk loop."""
        plan = self._middle_plan(mid_lo, mid_hi, count)
        kernel = _kernels()
        directory = self._dir
        if plan.mode == "cumulative":
            cum = plan.cum
            idx = kernel.search_right(cum, mid_ranks)
            starts = _np.concatenate(([0], cum[:-1]))
            rows, inverse = distinct(idx)
            offsets, flat = directory.gather(rows + mid_lo)
            return flat[offsets[inverse] + (mid_ranks - starts[idx])]
        # rejection mode: the in-range rank of a middle sample is irrelevant
        # (each middle hit just needs a fresh uniform middle element), so
        # draw batches of chunk/slot codes and keep the accepted ones.  The
        # accept/reject scan is one kernel call per batch with the exact
        # sequential consumed/rejected accounting of the scalar loop.
        out = _np.empty(count, dtype=float)
        window_lo = plan.window_lo
        cap = plan.cap
        span = (plan.window_hi - window_lo + 1) * cap
        filled = 0
        while filled < count:
            codes = gen.integers(0, span, size=2 * (count - filled) + 8)
            cells, slots, consumed = kernel.rejection_split(
                codes, directory.counts, window_lo, cap, count - filled
            )
            got = int(cells.size)
            stats.rejections += consumed - got
            if got:
                rows, inverse = distinct(cells)
                offsets, flat = directory.gather(rows + window_lo)
                out[filled : filled + got] = flat[offsets[inverse] + slots]
                filled += got
        return out

    def _middle_plan(self, mid_lo: int, mid_hi: int, t: int) -> _MiddlePlan:
        """Build the query-local sampler over the middle chunk window.

        Gathering the chunks behind a prefix-sum table costs ``O(m)`` once
        and makes every middle sample a single C-level bisect, so it is used
        whenever ``m`` fits the query's ``O(log n + t)`` budget — i.e. when
        the window is narrow or ``m <= t`` (the gather is amortized by the
        samples themselves).  Wider middles fall back to ``O(1)``-expected
        rejection over the ``(chunk, slot)`` grid of the index window.
        """
        plan = _MiddlePlan()
        if mid_hi - mid_lo + 1 <= max(_NARROW, 2 * t):
            plan.mode = "cumulative"
            plan.chunks = self._dir.chunks[mid_lo : mid_hi + 1]
            plan.cum = _np.cumsum(self._dir.counts[mid_lo : mid_hi + 1])
            return plan
        plan.mode = "rejection"
        plan.window_lo = mid_lo
        plan.window_hi = mid_hi
        plan.cap = self._cap
        plan.chunks = self._dir.chunks
        return plan

    def select_in_range(self, lo: float, hi: float, ranks: list[int]) -> list[float]:
        """Return the values at the given in-range ranks (0 = smallest).

        ``ranks`` need not be sorted or distinct.  Cost is ``O(log n + t +
        c)`` where ``c`` is the number of chunks the requested ranks touch —
        one ordered walk resolves all of them.  This is the primitive behind
        exact without-replacement sampling on the dynamic structure: ranks
        identify points uniquely even when values repeat.
        """
        validate_query(lo, hi, 0)
        plan = self._plan(lo, hi)
        total = plan[0] if plan is not None else 0
        out: list[float | None] = [None] * len(ranks)
        order = sorted(range(len(ranks)), key=ranks.__getitem__)
        for i in order:
            if not 0 <= ranks[i] < total:
                raise InvalidQueryError(
                    f"rank {ranks[i]} outside [0, {total}) for this range"
                )
        if not ranks:
            return []
        _, a, la, k_left, _k_mid, b, k_right = plan
        chunks = self._dir.chunks
        index = a
        chunk_start = 0  # in-range rank of the chunk's first in-range point
        chunk_offset = la
        chunk_len = k_left
        for i in order:
            rank = ranks[i]
            while rank >= chunk_start + chunk_len:
                chunk_start += chunk_len
                index += 1
                if index == b:
                    chunk_offset, chunk_len = 0, k_right
                else:
                    chunk_offset, chunk_len = 0, chunks[index].data.size
            out[i] = float(chunks[index].data[chunk_offset + (rank - chunk_start)])
        return out  # type: ignore[return-value]

    def kth_in_range(self, lo: float, hi: float, k: int) -> float:
        """Return the ``k``-th smallest point of ``P ∩ [lo, hi]`` (0-based)."""
        return self.select_in_range(lo, hi, [k])[0]

    def sample_without_replacement(self, lo: float, hi: float, t: int) -> list[float]:
        """Return a uniform ``t``-subset of ``P ∩ [lo, hi]`` (random order).

        Exact for multisets: Floyd's algorithm draws distinct in-range
        *ranks*, which :meth:`select_in_range` resolves in one chunk walk.
        """
        from .without_replacement import sample_ranks_without_replacement

        validate_query(lo, hi, t)
        total = self.count(lo, hi)
        if self._require_nonempty(total, t):
            return []
        ranks = sample_ranks_without_replacement(self._rng, 0, total, t)
        return self.select_in_range(lo, hi, ranks)

    # -- validation (used by tests) -----------------------------------------------------

    def check_invariants(self) -> None:
        """Assert every structural invariant; ``O(n)``, tests only."""
        self._dir.check(self._s, self._cap, self._n)
        for chunk in self._dir.chunks:
            assert chunk.data.dtype == self._dtype, "plane dtype drift"
