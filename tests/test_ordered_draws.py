"""Ordered-key weighted draws: same bytes as one direct ``searchsorted``.

Large batches of inverse-CDF keys are resolved in key order (argsort,
search the sorted keys, gather, scatter back to draw order).  Each key's
result is a pure function of that key, so the ordered path must agree
with the direct search bit for bit — on edge keys, on both sides of the
size cutoff, and end to end through the sharded facade on every backend.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import ShardedIRS
from repro.core.kernels import numpy_backend
from repro.shard.executors import draw_from_snapshot

KEYS_CUT = numpy_backend._ORDERED_MIN_KEYS
TABLE_CUT = numpy_backend._ORDERED_MIN_TABLE


def _direct_pick(vals, table, keys, lo, hi):
    """The reference: one direct search, clamp, gather."""
    idx = np.searchsorted(table, keys, side="right")
    return vals[np.clip(idx, lo, hi)].astype(np.float64)


def _table(n, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    vals = np.sort(rng.uniform(0.0, 100.0, n)).astype(dtype)
    gcum = np.cumsum(rng.pareto(1.5, n) + 1.0)
    return vals, gcum


def _check(vals, gcum, keys, lo, hi):
    got = numpy_backend.flat_pick(vals, gcum, keys, lo, hi)
    want = _direct_pick(vals, gcum, keys, lo, hi)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "size", [0, 1, KEYS_CUT - 1, KEYS_CUT, KEYS_CUT + 1, 4 * KEYS_CUT]
)
@pytest.mark.parametrize("n", [TABLE_CUT - 1, TABLE_CUT, 4 * TABLE_CUT])
def test_batch_sizes_on_both_sides_of_the_cutoff(size, n):
    vals, gcum = _table(n, seed=size + n)
    keys = np.random.default_rng(size).uniform(0.0, gcum[-1], size)
    _check(vals, gcum, keys, 3, n - 4)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_keys_exactly_on_table_entries(dtype):
    n = 4 * TABLE_CUT
    vals, gcum = _table(n, seed=1, dtype=dtype)
    rng = np.random.default_rng(2)
    keys = gcum[rng.integers(0, n, 2 * KEYS_CUT)]
    keys[:4] = (gcum[0], gcum[-1], gcum[n // 2], gcum[n // 2])
    _check(vals, gcum, keys, 0, n - 1)
    _check(vals, gcum, keys, 10, n - 11)


def test_keys_past_both_ends_and_the_clamp_case():
    n = 4 * TABLE_CUT
    vals, gcum = _table(n, seed=3)
    lo, hi = 100, 3000
    rng = np.random.default_rng(4)
    keys = rng.uniform(gcum[lo - 1], gcum[hi], 2 * KEYS_CUT)
    # A key that rounds up to the window's end: the clamp pins it to hi.
    keys[0] = gcum[hi]
    keys[1] = np.nextafter(gcum[hi], np.inf)
    keys[2] = -1.0
    keys[3] = gcum[-1] * 2.0
    _check(vals, gcum, keys, lo, hi)
    got = numpy_backend.flat_pick(vals, gcum, keys, lo, hi)
    assert got[0] == vals[hi] and got[1] == vals[hi]


def test_duplicate_values_and_duplicate_keys():
    n = 4 * TABLE_CUT
    rng = np.random.default_rng(5)
    vals = np.sort(np.round(rng.uniform(0.0, 10.0, n), 0))
    gcum = np.cumsum(np.ones(n))
    keys = np.repeat(rng.uniform(0.0, gcum[-1], KEYS_CUT), 3)
    rng.shuffle(keys)
    _check(vals, gcum, keys, 0, n - 1)


def test_snapshot_draws_equal_the_direct_inverse_cdf():
    """``draw_from_snapshot`` against the formula it replaced, including
    tiny windows and a window ending at the last entry."""
    rng = np.random.default_rng(6)
    n = 4 * TABLE_CUT
    values = np.sort(rng.random(n))
    cumw = np.concatenate(([0.0], np.cumsum(rng.pareto(1.5, n) + 1.0)))
    for lo, hi, t in (
        (0.0, 1.0, 4 * KEYS_CUT),
        (0.2, 0.3, KEYS_CUT),
        (0.2, 0.3, KEYS_CUT - 1),
        (values[7], values[7], KEYS_CUT),
        (values[-3], 1.0, 2 * KEYS_CUT),
        (0.5, 0.6, 1),
    ):
        for seed in (11, 12):
            got = draw_from_snapshot(values, cumw, lo, hi, t, seed)
            g = np.random.default_rng(seed)
            a = int(np.searchsorted(values, lo, side="left"))
            b = int(np.searchsorted(values, hi, side="right"))
            u = g.random(t) * (cumw[b] - cumw[a]) + cumw[a]
            ranks = np.clip(np.searchsorted(cumw, u, side="right") - 1, a, b - 1)
            assert got.tobytes() == values[ranks].tobytes()


def _facade_fingerprint(backend: str) -> str:
    """Fixed-seed facade weighted reads at t = 65,536 (seeded, unseeded,
    many-query rounds, before and after an update round)."""
    rng = np.random.default_rng(77)
    values = rng.random(40_000)
    weights = rng.pareto(1.5, values.size) + 1.0
    h = hashlib.sha256()
    with ShardedIRS(
        values, num_shards=4, weights=weights, seed=78,
        shard_kind="weighted-dynamic", backend=backend, max_workers=2,
    ) as s:
        for r in range(2):
            h.update(s.sample_bulk(0.05, 0.95, 65_536).tobytes())
            h.update(s.sample_bulk(0.3, 0.55, 65_536, seed=500 + r).tobytes())
            for out in s.sample_bulk_many(
                [(0.0, 1.0, 65_536), (0.4, 0.41, 2_000), (0.1, 0.2, 16)],
                seeds=[None, 600 + r, None],
            ):
                h.update(out.tobytes())
            batch = rng.random(1_000)
            s.insert_bulk(batch, rng.pareto(1.5, batch.size) + 1.0)
            s.delete_bulk(values[r * 1_000 : (r + 1) * 1_000])
    return h.hexdigest()[:16]


#: Recorded from the commit before the ordered-key path (direct
#: ``searchsorted`` over the random keys) with ``_facade_fingerprint``.
FACADE_RECORDED = "8ab246b3f2fc0876"


@pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
def test_facade_weighted_reads_match_the_direct_search(backend):
    assert _facade_fingerprint(backend) == FACADE_RECORDED
