"""Vectorized NumPy reference implementation of the kernel op set.

Always importable (NumPy is a hard dependency); the numba backend
compiles *twins* of exactly these functions.  Every op is a deterministic
pure function of its array arguments — no RNG, no float reductions beyond
the sequential cumulative sum — which is what makes cross-backend
byte-identity structural (see the package docstring).

Conventions shared by both backends:

* value planes are 1-D and sorted; weight/cumulative planes are float64;
* splice ops are **copy-on-write**: they return fresh arrays and never
  mutate an input (chunk payloads may be views into an adopted caller
  array — see :mod:`repro.core.planes`);
* all searches are ``searchsorted`` semantics (``left``/``right``).
"""

from __future__ import annotations

import numpy as _np

NAME = "numpy"


# -- scalar splice ops -------------------------------------------------------


def splice_insert(arr, pos, value):
    """Return ``arr`` with ``value`` spliced in at ``pos`` (fresh array)."""
    out = _np.empty(arr.size + 1, dtype=arr.dtype)
    out[:pos] = arr[:pos]
    out[pos] = value
    out[pos + 1 :] = arr[pos:]
    return out


def splice_delete(arr, pos):
    """Return ``arr`` without the element at ``pos`` (fresh array)."""
    out = _np.empty(arr.size - 1, dtype=arr.dtype)
    out[:pos] = arr[:pos]
    out[pos:] = arr[pos + 1 :]
    return out


# -- scalar searches ---------------------------------------------------------


def search_left_scalar(arr, value) -> int:
    """``bisect_left`` over a sorted plane."""
    return int(_np.searchsorted(arr, value, side="left"))


def search_right_scalar(arr, value) -> int:
    """``bisect_right`` over a sorted plane."""
    return int(_np.searchsorted(arr, value, side="right"))


def search_right(arr, targets):
    """Vectorized ``bisect_right``: one int64 index per target."""
    return _np.searchsorted(arr, targets, side="right").astype(_np.int64, copy=False)


# -- weight tables -----------------------------------------------------------


def cum_table(weights):
    """Inclusive cumulative sum of a weight plane (sequential, float64)."""
    return _np.cumsum(weights)


# -- sampling kernels --------------------------------------------------------


def rejection_split(codes, counts, window_lo, cap, needed):
    """Run the middle-rejection accept/reject pass over a draw batch.

    ``codes`` are uniform integers over ``window × cap``; a code is
    accepted iff its slot index falls inside its chunk's live length
    (``counts[window_lo + cell]``).  Returns ``(cells, slots, consumed)``:
    the first ``min(needed, accepted)`` accepted pairs in draw order and
    the number of codes consumed to produce them — the exact sequential
    semantics of the scalar loop, so rejection accounting and stream
    position are backend-invariant.
    """
    cells = codes // cap
    slots = codes - cells * cap
    ok = slots < counts[window_lo + cells]
    acc = _np.nonzero(ok)[0]
    if acc.size >= needed:
        consumed = int(acc[needed - 1]) + 1
        acc = acc[:needed]
    else:
        consumed = int(codes.size)
    return cells[acc].astype(_np.int64, copy=False), slots[acc].astype(
        _np.int64, copy=False
    ), consumed


#: Below these sizes one direct ``searchsorted`` over the random keys is
#: cheaper than sorting them first (the argsort is not paid back).  Measured
#: crossovers on a 2-CPU Xeon, NumPy 2.4: ~512 keys on a 2k-entry table,
#: ~300 on 250k entries; on tables under ~2k entries the search is
#: cache-resident and the keys must number in the thousands to win.
_ORDERED_MIN_KEYS = 512
_ORDERED_MIN_TABLE = 2048


def flat_pick(vals, gcum, targets, lo, hi):
    """Fused weighted draw against the flattened global cumulative table.

    For each mass position in ``targets``: ``bisect_right`` into ``gcum``,
    clamp into ``[lo, hi]`` (the flat index window of the query's middle
    chunks), gather the value.  Returns float64 regardless of the value
    plane's dtype.

    A large batch against a large table is resolved in key order: the
    keys are argsorted, searched ascending (NumPy's binary search narrows
    from the previous hit, so successive searches touch the same cache
    lines instead of a fresh chain of misses each), gathered, and
    scattered back to draw order.  Each key's result is a pure function
    of the key, so both paths return the same bytes.
    """
    if targets.size < _ORDERED_MIN_KEYS or gcum.size < _ORDERED_MIN_TABLE:
        idx = _np.searchsorted(gcum, targets, side="right")
        return vals[_np.clip(idx, lo, hi)].astype(_np.float64, copy=False)
    order = _np.argsort(targets)
    idx = _np.searchsorted(gcum, targets[order], side="right")
    out = _np.empty(targets.size, dtype=_np.float64)
    out[order] = vals[_np.clip(idx, lo, hi)]
    return out
