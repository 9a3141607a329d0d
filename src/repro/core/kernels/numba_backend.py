"""Numba-compiled twins of the NumPy kernel ops.

Each function carries the same name, signature, and exact semantics as
its twin in :mod:`repro.core.kernels.numpy_backend`; the bodies are
explicit loops so a scalar update or a sampling fill is one Python→native
transition with no intermediate arrays.  ``@njit(cache=True)`` persists
the compiled machine code in ``__pycache__`` so the JIT warm-up cost is
paid once per machine, not once per process (see DESIGN.md §13 for the
warm-up and cache-directory caveats).

Importing this module requires ``numba`` (the ``[compiled]`` extra); the
dispatch package probes for it and falls back to the NumPy backend when
the import fails.
"""

from __future__ import annotations

import numpy as _np
from numba import njit

NAME = "numba"


# -- scalar searches (explicit binary searches; also used by the ops below) --


@njit(cache=True)
def _bisect_left(arr, value, lo):
    hi = arr.size
    while lo < hi:
        mid = (lo + hi) >> 1
        if arr[mid] < value:
            lo = mid + 1
        else:
            hi = mid
    return lo


@njit(cache=True)
def _bisect_right(arr, value, lo):
    hi = arr.size
    while lo < hi:
        mid = (lo + hi) >> 1
        if value < arr[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


@njit(cache=True)
def search_left_scalar(arr, value):
    return _bisect_left(arr, value, 0)


@njit(cache=True)
def search_right_scalar(arr, value):
    return _bisect_right(arr, value, 0)


@njit(cache=True)
def search_right(arr, targets):
    out = _np.empty(targets.size, dtype=_np.int64)
    for i in range(targets.size):
        out[i] = _bisect_right(arr, targets[i], 0)
    return out


# -- scalar splice ops -------------------------------------------------------


@njit(cache=True)
def splice_insert(arr, pos, value):
    out = _np.empty(arr.size + 1, dtype=arr.dtype)
    for i in range(pos):
        out[i] = arr[i]
    out[pos] = value
    for i in range(pos, arr.size):
        out[i + 1] = arr[i]
    return out


@njit(cache=True)
def splice_delete(arr, pos):
    out = _np.empty(arr.size - 1, dtype=arr.dtype)
    for i in range(pos):
        out[i] = arr[i]
    for i in range(pos + 1, arr.size):
        out[i - 1] = arr[i]
    return out


# -- weight tables -----------------------------------------------------------


@njit(cache=True)
def cum_table(weights):
    out = _np.empty(weights.size, dtype=_np.float64)
    acc = 0.0
    for i in range(weights.size):
        acc += weights[i]
        out[i] = acc
    return out


# -- sampling kernels --------------------------------------------------------


@njit(cache=True)
def rejection_split(codes, counts, window_lo, cap, needed):
    cells = _np.empty(needed, dtype=_np.int64)
    slots = _np.empty(needed, dtype=_np.int64)
    filled = 0
    consumed = 0
    for c in range(codes.size):
        code = codes[c]
        cell = code // cap
        slot = code - cell * cap
        if slot < counts[window_lo + cell]:
            cells[filled] = cell
            slots[filled] = slot
            filled += 1
            if filled == needed:
                consumed = c + 1
                return cells, slots, consumed
    consumed = codes.size
    return cells[:filled], slots[:filled], consumed


@njit(cache=True)
def flat_pick(vals, gcum, targets, lo, hi):
    out = _np.empty(targets.size, dtype=_np.float64)
    for i in range(targets.size):
        idx = _bisect_right(gcum, targets[i], 0)
        if idx < lo:
            idx = lo
        elif idx > hi:
            idx = hi
        out[i] = vals[idx]
    return out
