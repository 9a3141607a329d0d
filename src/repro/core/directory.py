"""Shared array-backed chunk directory engine (DESIGN.md §8, §13).

Both dynamic samplers — :class:`~repro.core.dynamic_irs.DynamicIRS`
(uniform) and :class:`~repro.core.weighted_dynamic.WeightedDynamicIRS`
(weight-proportional) — store their points in sorted *chunks* of
``Θ(log n)`` values and describe the chunk sequence with the parallel
arrays in this module.  The engine owns everything that is about the
*directory* and nothing that is about the *sampling policy*:

* parallel ``maxes`` / ``mins`` / ``counts`` arrays (plus a ``wtotals``
  weight plane for weighted chunk kinds), repaired with vectorized array
  ops so bulk updates touch the directory once per batch, not once per
  element;
* boundary routing — "first chunk whose max ≥ x" / "last chunk whose
  min ≤ y" — as one C-level ``searchsorted`` per endpoint;
* lazily cached prefix sums over counts (and over weights) with bounded
  *pending per-chunk deltas*, so an update→query alternation costs
  ``O(|pending|)`` instead of an ``O(n/s)`` cumsum rebuild per transition;
* the whole-batch chunk passes behind bulk updates and bulk reads:
  :meth:`ChunkDirectory.gather` concatenates the planes of a set of
  chunk rows into one flat array with row offsets, and
  :meth:`ChunkDirectory.recut` writes a merged or filtered flat array
  back into those rows with vectorized directory repair — so a batch
  costs one attribute read or write per touched chunk, not a chain of
  NumPy calls;
* the structural repair pass: scalar split, borrow-or-merge for
  under-full chunks (one row, or a batch of rows after a bulk delete),
  and the multi-index split assembly behind bulk inserts.

Chunk payloads are **NumPy array planes** (PR 10): ``data`` is a 1-D
array in the structure's value dtype (float32 or float64), and a
:class:`WeightedChunk` adds an aligned float64 ``weights`` plane with a
lazy cumulative table.  Two rules make this safe and fast:

* **copy-on-write** — no chunk op ever mutates a plane in place; scalar
  splices go through the kernel tier (:mod:`repro.core.kernels`) and bulk
  passes through :meth:`ChunkDirectory.recut`, and both install fresh
  arrays.  Structural cuts produce *views*, so a structure built over an
  adopted caller array (``from_sorted(..., copy=False)``) stays zero-copy
  until an update actually touches a chunk;
* the directory's own arrays (``maxes``/``mins`` float64, ``counts``
  int64, ``wtotals`` float64) are dtype-invariant — float32 values
  widen exactly, so routing is identical under either plane dtype.

The directory never looks inside a payload except through the chunk
protocol — which is exactly what lets one engine serve both samplers.
``mutations`` is a monotone version stamp bumped by every mutating call;
samplers key their own derived caches (e.g. the weighted sampler's
flattened global cumulative-weight array) off it.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as _np  # a hard dependency of the package (pyproject.toml)

from ..errors import KeyNotFoundError
from . import kernels as _kernels

__all__ = ["Chunk", "WeightedChunk", "ChunkDirectory", "distinct", "split_sizes"]

#: Scalar count/weight changes ride on the cached prefixes as per-chunk
#: deltas up to this many entries; beyond it the cache is dropped and the
#: next reader re-runs the cumsum.
_PENDING_CAP = 64


def split_sizes(n: int, cap: int) -> list[int]:
    """Balanced piece sizes cutting a run of ``n`` into pieces ≤ ``cap``.

    Used by every split path (scalar, bulk, under-full repair): the run is cut
    into ``ceil(n / cap)`` pieces whose sizes differ by at most one, so
    every piece lands within ``[s, 2s]`` whenever ``n > cap = 2s``.
    """
    k = -(-n // cap)
    base, extra = divmod(n, k)
    return [base + 1 if i < extra else base for i in range(k)]


def distinct(rows):
    """``(values, inverse)`` of an int array: its ascending distinct values
    and each element's index among them (``values[inverse] == rows``).

    The sort-based core of ``numpy.unique(rows, return_inverse=True)``
    without its wrapper overhead, which dominates for the few-dozen-row
    batches of small reads.
    """
    order = rows.argsort()
    ordered = rows[order]
    new = _np.empty(rows.size, dtype=bool)
    new[:1] = True
    _np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    inverse = _np.empty(rows.size, dtype=_np.intp)
    inverse[order] = _np.cumsum(new) - 1
    return ordered[new], inverse


class Chunk:
    """A sorted run of points stored as one NumPy array plane.

    Directory information (key extent, size, position) lives in the owning
    :class:`ChunkDirectory`'s parallel arrays, not on the chunk, so bulk
    repairs can touch it with vectorized array ops.  ``data`` may be a
    view into a larger plane (the build path slices one array; adopted
    caller arrays stay zero-copy) — every mutation replaces it with a
    fresh array, never writes through it.
    """

    __slots__ = ("data",)

    #: Class-level flag: the directory maintains a weight plane iff True.
    weighted = False

    def __init__(self, data) -> None:
        self.data = data

    def touch(self) -> None:
        """Invalidate derived per-chunk caches after a ``data`` swap."""

    @property
    def mass(self) -> float:
        """The chunk's directory weight (its size, for uniform sampling)."""
        return float(self.data.size)

    # -- structural protocol (used by the directory's repair passes) -------

    def cut(self, sizes: list[int]) -> list["Chunk"]:
        """Keep the first ``sizes[0]`` points; return the rest as new chunks.

        The pieces are views — cutting never copies the plane.
        """
        data = self.data
        out: list[Chunk] = []
        at = sizes[0]
        for size in sizes[1:]:
            out.append(Chunk(data[at : at + size]))
            at += size
        self.data = data[: sizes[0]]
        return out

    def absorb(self, other: "Chunk") -> None:
        """Append ``other``'s run (adjacent in key order) onto this one."""
        self.data = _np.concatenate((self.data, other.data))

    def borrow_from_next(self, right: "Chunk") -> float:
        """Move the right neighbor's first point here; return moved mass."""
        self.data = _np.concatenate((self.data, right.data[:1]))
        right.data = right.data[1:]
        return 1.0

    def borrow_from_prev(self, left: "Chunk") -> float:
        """Move the left neighbor's last point here; return moved mass."""
        self.data = _np.concatenate((left.data[-1:], self.data))
        left.data = left.data[:-1]
        return 1.0


class WeightedChunk(Chunk):
    """A sorted run of points with an aligned float64 weight plane.

    ``data`` holds the values, ``weights`` aligns with it, and
    :meth:`cum_table` is the in-chunk inclusive cumulative weight table —
    the second pass of the weighted two-pass draw bisects it.  The table
    is *lazy*: any mutation just drops it via :meth:`touch` (``O(1)``),
    and the first read that needs it rebuilds it through the kernel tier
    (a strictly sequential sum on both backends) — so bulk updates never
    pay table work for chunks nobody queries.
    """

    __slots__ = ("weights", "cum")

    weighted = True

    def __init__(self, data, weights) -> None:
        self.data = data
        self.weights = weights
        self.cum = None

    def touch(self) -> None:
        """Drop the cumulative table (rebuilt lazily on next read)."""
        self.cum = None

    def cum_table(self):
        """Return (building if stale) the inclusive cumulative weight table."""
        if self.cum is None:
            self.cum = _kernels.get().cum_table(self.weights)
        return self.cum

    def np_arrays(self):
        """Return the ``(values, cum)`` planes for the bulk sampling path."""
        return self.data, self.cum_table()

    @property
    def cumulative(self):
        """The cumulative table, as the plane ``"cumulative"`` for
        :meth:`ChunkDirectory.gather` (built on first read, like
        :meth:`cum_table`)."""
        return self.cum_table()

    @property
    def mass(self) -> float:
        """Total weight stored in this chunk."""
        cum = self.cum_table()
        return float(cum[-1]) if cum.size else 0.0

    def prefix(self, count: int) -> float:
        """Weight of the first ``count`` points."""
        return float(self.cum_table()[count - 1]) if count > 0 else 0.0

    def locate(self, target: float) -> int:
        """Index of the point owning cumulative mass position ``target``."""
        i = _kernels.get().search_right_scalar(self.cum_table(), target)
        return min(int(i), self.data.size - 1)

    # -- structural protocol -----------------------------------------------

    def cut(self, sizes: list[int]) -> list["WeightedChunk"]:
        """Keep the first piece; return the rest as new weighted chunks."""
        data, weights = self.data, self.weights
        out: list[WeightedChunk] = []
        at = sizes[0]
        for size in sizes[1:]:
            out.append(WeightedChunk(data[at : at + size], weights[at : at + size]))
            at += size
        self.data = data[: sizes[0]]
        self.weights = weights[: sizes[0]]
        self.touch()
        return out

    def absorb(self, other: "WeightedChunk") -> None:
        """Append ``other``'s run (adjacent in key order) onto this one."""
        self.data = _np.concatenate((self.data, other.data))
        self.weights = _np.concatenate((self.weights, other.weights))
        self.touch()

    def borrow_from_next(self, right: "WeightedChunk") -> float:
        """Move the right neighbor's first point here; return moved mass."""
        moved = float(right.weights[0])
        self.data = _np.concatenate((self.data, right.data[:1]))
        self.weights = _np.concatenate((self.weights, right.weights[:1]))
        right.data = right.data[1:]
        right.weights = right.weights[1:]
        self.touch()
        right.touch()
        return moved

    def borrow_from_prev(self, left: "WeightedChunk") -> float:
        """Move the left neighbor's last point here; return moved mass."""
        moved = float(left.weights[-1])
        self.data = _np.concatenate((left.data[-1:], self.data))
        self.weights = _np.concatenate((left.weights[-1:], self.weights))
        left.data = left.data[:-1]
        left.weights = left.weights[:-1]
        self.touch()
        left.touch()
        return moved


class ChunkDirectory:
    """Array-backed directory over an ordered chunk list.

    The owning sampler holds the chunk *policy* (how to draw from a plan);
    the directory holds the chunk *geometry*: which chunks exist, their key
    extents, their counts (and masses), and every repair pass that keeps
    the ``[s, 2s]`` size invariant.  All mutating entry points bump
    :attr:`mutations` so samplers can invalidate derived caches.
    """

    __slots__ = (
        "chunks",
        "weighted",
        "maxes",
        "mins",
        "counts",
        "wtotals",
        "mutations",
        "_prefix",
        "_pending",
        "_wprefix",
        "_wpending",
    )

    def __init__(self, weighted: bool = False) -> None:
        self.weighted = weighted
        self.mutations = 0
        self.load([])

    # -- (re)construction --------------------------------------------------

    def load(self, chunks: list) -> None:
        """Install ``chunks`` as the directory's ordered sequence."""
        self.chunks = chunks
        self.rebuild()

    def rebuild(self) -> None:
        """Recompute every parallel array from the chunk list."""
        maxes: list[float] = []
        mins: list[float] = []
        counts: list[int] = []
        wtotals: list[float] = []
        for chunk in self.chunks:
            data = chunk.data
            maxes.append(data[-1])
            mins.append(data[0])
            counts.append(data.size)
            if self.weighted:
                wtotals.append(chunk.mass)
        self.maxes = _np.asarray(maxes, dtype=float)
        self.mins = _np.asarray(mins, dtype=float)
        self.counts = _np.asarray(counts, dtype=_np.int64)
        self.wtotals = _np.asarray(wtotals, dtype=float) if self.weighted else None
        self._prefix = None
        self._pending = {}
        self._wprefix = None
        self._wpending = {}
        self.mutations += 1

    def __len__(self) -> int:
        return len(self.chunks)

    # -- boundary routing --------------------------------------------------

    def first_max_ge(self, x: float) -> int:
        """Index of the first chunk whose max ≥ ``x`` (``len`` if none)."""
        return int(_np.searchsorted(self.maxes, x, side="left"))

    def last_min_le(self, y: float) -> int:
        """Index of the last chunk whose min ≤ ``y`` (``-1`` if none)."""
        return int(_np.searchsorted(self.mins, y, side="right")) - 1

    # -- lazy count prefix -------------------------------------------------

    def ensure_prefix(self):
        """Return the inclusive prefix-sum over chunk counts (cached)."""
        if self._prefix is None:
            self._prefix = _np.cumsum(self.counts)
            self._pending.clear()
        return self._prefix

    def folded_prefix(self):
        """Return the count prefix with pending deltas folded in.

        When no deltas are pending this is the cached array itself
        (callers must not mutate it); otherwise a query-local copy.
        """
        prefix = self.ensure_prefix()
        if self._pending:
            prefix = prefix.copy()
            for j, delta in self._pending.items():
                prefix[j:] += delta
        return prefix

    def invalidate_prefix(self) -> None:
        """Drop both prefix caches (chunk indices or many rows changed)."""
        self._prefix = None
        self._pending.clear()
        self._wprefix = None
        self._wpending.clear()
        self.mutations += 1

    def note_delta(self, i: int, dcount: int, dweight: float = 0.0) -> None:
        """Record a scalar count/weight change against the cached prefixes.

        While the chunk list's *shape* is unchanged, a count (or weight)
        change only shifts the prefix entries from ``i`` on — recorded as a
        pending per-chunk delta folded in by readers, so an update→query
        alternation costs ``O(|pending|)`` instead of an ``O(n/s)`` cumsum
        rebuild per transition.  Past ``_PENDING_CAP`` entries a cache is
        dropped (update-heavy phases then do no prefix work at all).
        """
        self.mutations += 1
        if dcount and self._prefix is not None:
            pending = self._pending
            pending[i] = pending.get(i, 0) + dcount
            if len(pending) > _PENDING_CAP:
                self._prefix = None
                pending.clear()
        if dweight and self._wprefix is not None:
            wpending = self._wpending
            wpending[i] = wpending.get(i, 0.0) + dweight
            if len(wpending) > _PENDING_CAP:
                self._wprefix = None
                wpending.clear()

    def points_between(self, a: int, b: int) -> int:
        """Points in chunks strictly between indices ``a`` and ``b``."""
        if b - a <= 1:
            return 0
        prefix = self.ensure_prefix()
        total = int(prefix[b - 1] - prefix[a])
        if self._pending:
            # P(b-1) - P(a) covers chunks a+1 .. b-1.
            for j, delta in self._pending.items():
                if a < j < b:
                    total += delta
        return total

    # -- lazy weight prefix (weighted directories only) --------------------

    def ensure_wprefix(self):
        """Return the inclusive prefix-sum over chunk masses (cached)."""
        if self._wprefix is None:
            self._wprefix = _np.cumsum(self.wtotals)
            self._wpending.clear()
        return self._wprefix

    def folded_wprefix(self):
        """Return the weight prefix with pending deltas folded in.

        When no deltas are pending this is the cached array itself
        (callers must not mutate it); otherwise a query-local copy.
        """
        wprefix = self.ensure_wprefix()
        if self._wpending:
            wprefix = wprefix.copy()
            for j, delta in self._wpending.items():
                wprefix[j:] += delta
        return wprefix

    def weight_between(self, a: int, b: int) -> float:
        """Mass of chunks strictly between indices ``a`` and ``b``."""
        if b - a <= 1:
            return 0.0
        wprefix = self.ensure_wprefix()
        total = float(wprefix[b - 1] - wprefix[a])
        if self._wpending:
            for j, delta in self._wpending.items():
                if a < j < b:
                    total += delta
        return total

    @property
    def total_weight(self) -> float:
        """Sum of all chunk masses (0.0 for an empty directory)."""
        if not self.chunks:
            return 0.0
        wprefix = self.ensure_wprefix()
        total = float(wprefix[-1])
        for delta in self._wpending.values():
            total += delta
        return total

    # -- single-row repairs ------------------------------------------------

    def refresh_entry(self, i: int) -> None:
        """Repair one chunk's directory row after a data mutation."""
        chunk = self.chunks[i]
        data = chunk.data
        self.maxes[i] = data[-1]
        self.mins[i] = data[0]
        self.counts[i] = data.size
        if self.weighted:
            self.wtotals[i] = chunk.mass
        self.mutations += 1

    def insert_entry(self, i: int, chunk) -> None:
        """Insert one chunk's directory row at index ``i``."""
        data = chunk.data
        self.maxes = _np.insert(self.maxes, i, data[-1])
        self.mins = _np.insert(self.mins, i, data[0])
        self.counts = _np.insert(self.counts, i, data.size)
        if self.weighted:
            self.wtotals = _np.insert(self.wtotals, i, chunk.mass)
        self.mutations += 1

    def delete_entry(self, i: int) -> None:
        """Remove one chunk's directory row."""
        self.maxes = _np.delete(self.maxes, i)
        self.mins = _np.delete(self.mins, i)
        self.counts = _np.delete(self.counts, i)
        if self.weighted:
            self.wtotals = _np.delete(self.wtotals, i)
        self.mutations += 1

    # -- structural repairs ------------------------------------------------

    def split_chunk(self, i: int, cap: int) -> None:
        """Split an over-full chunk into balanced pieces in place."""
        chunk = self.chunks[i]
        pieces = chunk.cut(split_sizes(chunk.data.size, cap))
        self.refresh_entry(i)
        for j, piece in enumerate(pieces, start=i + 1):
            self.chunks.insert(j, piece)
            self.insert_entry(j, piece)
        self.invalidate_prefix()

    def remove_chunk(self, i: int) -> None:
        """Drop an emptied chunk and its directory row."""
        self.chunks.pop(i)
        self.delete_entry(i)
        self.invalidate_prefix()

    def repair_underfull(self, i: int, s: int) -> None:
        """Restore the size invariant of an under-full chunk.

        Borrowing one boundary element from a neighbor with slack is
        ``O(s)`` and leaves the directory structure untouched (two row
        refreshes, no array insert/delete); only when both neighbors sit
        at exactly ``s`` does the chunk concatenate with one — the result
        is ``2s - 1 ≤ cap``, so a merge can never cascade into a split.
        """
        chunks = self.chunks
        chunk = chunks[i]
        right = chunks[i + 1] if i + 1 < len(chunks) else None
        if right is not None and right.data.size > s:
            moved = chunk.borrow_from_next(right)
            self.refresh_entry(i)
            self.refresh_entry(i + 1)
            self.note_delta(i, 1, moved)
            self.note_delta(i + 1, -1, -moved)
            return
        left = chunks[i - 1] if i > 0 else None
        if left is not None and left.data.size > s:
            moved = chunk.borrow_from_prev(left)
            self.refresh_entry(i)
            self.refresh_entry(i - 1)
            self.note_delta(i, 1, moved)
            self.note_delta(i - 1, -1, -moved)
            return
        j = i + 1 if right is not None else i - 1
        lo, hi = (i, j) if j > i else (j, i)
        # Adjacent chunks are consecutive in sorted order, so concatenation
        # preserves sortedness — no merge pass needed.
        chunks[lo].absorb(chunks[hi])
        chunks.pop(hi)
        self.delete_entry(hi)
        self.refresh_entry(lo)
        self.invalidate_prefix()

    def bulk_split(self, positions: list[int], cap: int) -> None:
        """Re-split every over-full chunk with one directory assembly.

        ``positions`` must be ascending.  Each over-full chunk keeps its
        first piece in place; the remaining pieces become new chunks
        spliced into the list with slice concatenation and into the
        directory with one multi-index array insert per column —
        ``O(n/s + new)`` C-level work total, independent of how many
        chunks split.
        """
        chunks = self.chunks
        inserts: list[tuple[int, object]] = []
        for p in positions:
            chunk = chunks[p]
            pieces = chunk.cut(split_sizes(chunk.data.size, cap))
            self.refresh_entry(p)
            for piece in pieces:
                inserts.append((p + 1, piece))
        out: list = []
        at = 0
        for idx, chunk in inserts:
            out.extend(chunks[at:idx])
            out.append(chunk)
            at = idx
        out.extend(chunks[at:])
        self.chunks = out
        idxs = [idx for idx, _ in inserts]
        self.maxes = _np.insert(self.maxes, idxs, [c.data[-1] for _, c in inserts])
        self.mins = _np.insert(self.mins, idxs, [c.data[0] for _, c in inserts])
        self.counts = _np.insert(self.counts, idxs, [c.data.size for _, c in inserts])
        if self.weighted:
            self.wtotals = _np.insert(self.wtotals, idxs, [c.mass for _, c in inserts])
        self.invalidate_prefix()

    def repair_underfull_rows(self, rows, s: int, cap: int) -> None:
        """Restore the size invariant around the under-full ``rows``.

        The batch twin of :meth:`repair_underfull`, run once after a bulk
        delete over the rows it touched.  Each run of consecutive rows
        below ``s`` (emptied rows included) is widened by one neighbour —
        the right one, else the left — and the window is re-cut into
        balanced pieces within ``[s, 2s]``: one piece when it fits (a
        merge), more when the neighbour had points to lend (a borrow).
        Only those windows change; every other chunk keeps its plane, and
        the directory is reassembled with one multi-index delete and
        insert per column — no Python sweep over the whole chunk list.
        """
        short = rows[self.counts[rows] < s]
        if not short.size:
            return
        chunks = self.chunks
        n_chunks = len(chunks)
        breaks = _np.flatnonzero(_np.diff(short) > 1)
        firsts = short[_np.concatenate(([0], breaks + 1))].tolist()
        lasts = short[_np.concatenate((breaks, [short.size - 1]))].tolist()
        windows: list[list[int]] = []
        for a, b in zip(firsts, lasts):
            if b + 1 < n_chunks:
                b += 1
            elif a > 0:
                a -= 1
            if windows and a <= windows[-1][1]:
                windows[-1][1] = b  # the tail run borrowed its left window
            else:
                windows.append([a, b])
        out: list = []
        dropped: list[int] = []
        at_rows: list[int] = []
        pieces: list = []
        at = 0
        for a, b in windows:
            window = chunks[a : b + 1]
            first = window[0]
            first.data = _np.concatenate([c.data for c in window])
            if self.weighted:
                first.weights = _np.concatenate([c.weights for c in window])
            first.touch()
            total = first.data.size
            cut = [first] + first.cut(split_sizes(total, cap)) if total else []
            out.extend(chunks[at:a])
            out.extend(cut)
            at = b + 1
            at_rows.extend([a - len(dropped)] * len(cut))
            dropped.extend(range(a, b + 1))
            pieces.extend(cut)
        out.extend(chunks[at:])
        self.chunks = out

        def splice(column, values, dtype=float):
            return _np.insert(
                _np.delete(column, dropped), at_rows, _np.asarray(values, dtype=dtype)
            )

        self.maxes = splice(self.maxes, [c.data[-1] for c in pieces])
        self.mins = splice(self.mins, [c.data[0] for c in pieces])
        self.counts = splice(self.counts, [c.data.size for c in pieces], _np.int64)
        if self.weighted:
            self.wtotals = splice(self.wtotals, [c.mass for c in pieces])
        self.invalidate_prefix()

    # -- whole-batch chunk passes ------------------------------------------

    def gather(self, rows, *planes):
        """Concatenate the planes of the ascending chunk ``rows``.

        ``planes`` name chunk attributes (default ``"data"``).  Returns
        ``(offsets, *flats)`` with one flat array per plane; row ``k``
        occupies ``offsets[k]:offsets[k + 1]``.  Chunks are disjoint and in
        key order, so a gathered value plane is sorted.  Per chunk this is
        one attribute read; the concatenation is one C-level call.
        """
        chunks = self.chunks
        picked = [chunks[r] for r in rows.tolist()]
        offsets = _np.zeros(len(picked) + 1, dtype=_np.int64)
        _np.cumsum(self.counts[rows], out=offsets[1:])
        return (offsets,) + tuple(
            _np.concatenate([getattr(c, name) for c in picked])
            for name in planes or ("data",)
        )

    def recut(self, rows, offsets, data, weights=None, dmass=None) -> None:
        """Write flat planes back into the ascending chunk ``rows``.

        Row ``k`` receives a fresh copy of ``data[offsets[k]:offsets[k + 1]]``
        (and of the same ``weights`` span) — never a view, which would pin
        the whole batch buffer behind every chunk.  ``counts``, ``maxes``
        and ``mins`` are repaired with vectorized assignments (an emptied
        row keeps its old extents until :meth:`repair_underfull_rows`
        drops it) and ``dmass`` is added to ``wtotals[rows]``.  Over- and
        under-full rows are left for the caller to repair.
        """
        chunks = self.chunks
        bounds = offsets.tolist()
        for r, a, b in zip(rows.tolist(), bounds, bounds[1:]):
            chunk = chunks[r]
            chunk.data = data[a:b].copy()
            if weights is not None:
                chunk.weights = weights[a:b].copy()
                chunk.touch()
        starts, ends = offsets[:-1], offsets[1:]
        self.counts[rows] = ends - starts
        if dmass is not None:
            self.wtotals[rows] += dmass
        live = ends > starts
        if not live.all():
            rows, starts, ends = rows[live], starts[live], ends[live]
        self.maxes[rows] = data[ends - 1]
        self.mins[rows] = data[starts]
        self.invalidate_prefix()

    def merge_batch(self, batch, cap: int, weights=None) -> None:
        """Insert a sorted batch with one gather–merge–recut pass.

        Each value is routed to the first chunk whose max is ≥ it (values
        past the global max join the last chunk).  The routed rows are
        gathered into one sorted array and the batch is merged into it
        with one stable scatter — chunk points first on ties, each value
        clamped to the end of its routed row, so every chunk receives
        exactly the points a per-chunk merge would give it.  The result
        is recut into the same rows (``wtotals`` gains one
        ``add.reduceat`` segment sum per row) and over-full rows go to
        :meth:`bulk_split`.  ``weights`` aligns with ``batch`` on
        weighted directories.
        """
        pos = _np.searchsorted(self.maxes, batch, side="left")
        _np.minimum(pos, len(self.chunks) - 1, out=pos)
        rows, starts = _np.unique(pos, return_index=True)
        sizes = _np.diff(_np.append(starts, batch.size))
        names = ("data", "weights") if weights is not None else ("data",)
        offsets, flat, *wflat = self.gather(rows, *names)
        row_end = _np.repeat(offsets[1:], sizes)
        slots = _np.minimum(_np.searchsorted(flat, batch, side="right"), row_end)
        slots += _np.arange(batch.size)
        keep = _np.ones(flat.size + batch.size, dtype=bool)
        keep[slots] = False

        def merged(plane, extra):
            out = _np.empty(keep.size, dtype=plane.dtype)
            out[slots] = extra
            out[keep] = plane
            return out

        offsets[1:] += _np.cumsum(sizes)
        if weights is None:
            self.recut(rows, offsets, merged(flat, batch))
        else:
            self.recut(
                rows,
                offsets,
                merged(flat, batch),
                merged(wflat[0], weights),
                _np.add.reduceat(weights, starts),
            )
        over = rows[self.counts[rows] > cap]
        if over.size:
            self.bulk_split(over.tolist(), cap)

    def remove_batch(self, batch, s: int, cap: int):
        """Remove one occurrence per value of a sorted batch, atomically.

        Every copy of a value ``v`` lies in the rows from the first chunk
        whose max is ≥ ``v`` to the last whose min is ≤ ``v`` (duplicates
        may spill past a chunk's max), so gathering those rows puts all of
        them in one sorted array, where the ``k``-th copy of ``v`` in the
        batch takes the ``k``-th leftmost occurrence.  The verify is one
        vectorized comparison: an absent value raises
        :class:`~repro.errors.KeyNotFoundError` before anything mutates.
        The survivors are recut into their rows and under-full rows are
        repaired locally (:meth:`repair_underfull_rows`).

        Returns the removed weights aligned with ``batch`` on weighted
        directories (``None`` otherwise); each row's removed mass is
        summed strictly left to right, as a scalar loop would.
        """
        lo = _np.searchsorted(self.maxes, batch, side="left")
        hi = _np.searchsorted(self.mins, batch, side="right") - 1
        absent = hi < lo
        if absent.any():
            missing = float(batch[absent.argmax()])
            raise KeyNotFoundError(f"value not present: {missing!r}")
        span = hi - lo + 1
        first = _np.cumsum(span) - span
        rows = _np.unique(_np.repeat(lo - first, span) + _np.arange(int(span.sum())))
        names = ("data", "weights") if self.weighted else ("data",)
        offsets, flat, *wflat = self.gather(rows, *names)
        pos = _np.searchsorted(flat, batch, side="left")
        pos += _np.arange(batch.size) - _np.searchsorted(batch, batch, side="left")
        found = pos < flat.size
        found[found] = flat[pos[found]] == batch[found]
        if not found.all():
            missing = float(batch[(~found).argmax()])
            raise KeyNotFoundError(f"value not present: {missing!r}")
        keep = _np.ones(flat.size, dtype=bool)
        keep[pos] = False
        hits = _np.bincount(
            _np.searchsorted(offsets, pos, side="right") - 1, minlength=rows.size
        )
        offsets[1:] -= _np.cumsum(hits)
        removed = None
        if not self.weighted:
            self.recut(rows, offsets, flat[keep])
        else:
            removed = wflat[0][pos]
            mass = _np.zeros(rows.size)
            first = _np.cumsum(hits) - hits
            for k in range(int(hits.max())):  # the k-th hit of every row
                more = hits > k
                mass[more] += removed[first[more] + k]
            self.recut(rows, offsets, flat[keep], wflat[0][keep], -mass)
        self.repair_underfull_rows(rows, s, cap)
        return removed

    # -- validation (used by the samplers' check_invariants) ---------------

    def check(self, s: int, cap: int, n: int) -> None:
        """Assert every directory invariant; ``O(n)``, tests only."""
        chunks = self.chunks
        assert (len(chunks) == 0) == (n == 0)
        assert len(self.maxes) == len(self.mins) == len(self.counts) == len(chunks)
        if self.weighted:
            assert len(self.wtotals) == len(chunks)
        seen = 0
        prev_value = float("-inf")
        for i, chunk in enumerate(chunks):
            data = chunk.data
            assert data.size, "empty chunk"
            assert data.ndim == 1, "plane not 1-D"
            assert not bool((data[1:] < data[:-1]).any()), "chunk not sorted"
            assert data[0] >= prev_value, "chunks out of order"
            if n > cap:
                assert s <= data.size <= cap, (
                    f"chunk size {data.size} outside [{s}, {cap}]"
                )
            assert self.maxes[i] == data[-1], "maxes stale"
            assert self.mins[i] == data[0], "mins stale"
            assert self.counts[i] == data.size, "counts stale"
            if self.weighted:
                assert abs(self.wtotals[i] - chunk.mass) <= 1e-9 * max(
                    1.0, abs(chunk.mass)
                ), "wtotals stale"
            prev_value = data[-1]
            seen += data.size
        assert seen == n, f"size mismatch: {seen} != {n}"
        if self._prefix is not None:
            expect = list(accumulate(c.data.size for c in chunks))
            folded = list(self._prefix)
            for j, delta in self._pending.items():
                for k in range(j, len(folded)):
                    folded[k] += delta
            assert folded == expect, "prefix cache (with pending deltas) stale"
        else:
            assert not self._pending, "pending deltas without a prefix cache"
        if self.weighted and self._wprefix is not None:
            expect_w = list(accumulate(c.mass for c in chunks))
            folded_w = list(self._wprefix)
            for j, delta in self._wpending.items():
                for k in range(j, len(folded_w)):
                    folded_w[k] += delta
            assert all(
                abs(x - y) <= 1e-6 * max(1.0, abs(y))
                for x, y in zip(folded_w, expect_w)
            ), "weight prefix cache (with pending deltas) stale"
        elif self.weighted:
            assert not self._wpending, "pending weight deltas without a cache"
