"""Whole-batch chunk passes of the shared directory, differentially tested.

``ChunkDirectory.merge_batch``/``remove_batch`` do a bulk update as one
gather of the touched chunks, one vectorized merge or filter, and one
recut; the bulk reads gather the hit chunks once.  These tests pin them to
a test-local reference that applies the per-chunk algorithm they replaced
(route, then merge or take out chunk by chunk, verifying value by value):

* a Hypothesis differential test drives both samplers, over float64 and
  float32 planes and over adopted ``from_sorted(..., copy=False)`` input,
  and asserts identical chunk planes, identical directory rows and
  identical fixed-seed ``sample_bulk`` draws;
* a refused batch (a missing value mid-batch) leaves every observable
  piece of state unchanged;
* a batch that drains one chunk below ``s`` repairs that chunk locally —
  no other chunk loses its plane and no full directory rebuild runs;
* fixed-seed fingerprints of a bulk-update workload equal the values the
  per-chunk implementation produced.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DynamicIRS, KeyNotFoundError, WeightedDynamicIRS
from repro.core.directory import ChunkDirectory
from repro.errors import ReproError


class PerChunkDirectory(ChunkDirectory):
    """The directory with the per-chunk bulk algorithm as its batch passes."""

    __slots__ = ()

    def merge_batch(self, batch, cap, weights=None):
        chunks = self.chunks
        pos = np.minimum(np.searchsorted(self.maxes, batch, side="left"), len(chunks) - 1)
        uniq, starts = np.unique(pos, return_index=True)
        ends = np.append(starts[1:], batch.size)
        self.counts[uniq] += ends - starts
        self.maxes[uniq] = np.maximum(self.maxes[uniq], batch[ends - 1])
        self.mins[uniq] = np.minimum(self.mins[uniq], batch[starts])
        if weights is not None:
            self.wtotals[uniq] += np.add.reduceat(weights, starts)
        oversized = []
        for p, g0, g1 in zip(uniq.tolist(), starts.tolist(), ends.tolist()):
            chunk = chunks[p]
            # Chunk points first on ties: insert after every equal point.
            at = np.searchsorted(chunk.data, batch[g0:g1], side="right")
            chunk.data = np.insert(chunk.data, at, batch[g0:g1])
            if weights is not None:
                chunk.weights = np.insert(chunk.weights, at, weights[g0:g1])
            chunk.touch()
            if chunk.data.size > cap:
                oversized.append(p)
        self.invalidate_prefix()
        if oversized:
            self.bulk_split(oversized, cap)

    def remove_batch(self, batch, s, cap):
        chunks = self.chunks
        plan: dict[int, list[int]] = {}
        for value in batch.tolist():  # verify every value before mutating
            j = int(np.searchsorted(self.maxes, value, side="left"))
            while True:
                if j >= len(chunks) or self.mins[j] > value:
                    raise KeyNotFoundError(f"value not present: {value!r}")
                data = chunks[j].data
                hits = plan.setdefault(j, [])
                i = int(np.searchsorted(data, value, side="left"))
                if hits:
                    i = max(i, hits[-1] + 1)
                if i < data.size and data[i] == value:
                    hits.append(i)
                    break
                j += 1  # duplicates spill past this chunk's max
        removed = []
        for j in sorted(plan):
            chunk, hits = chunks[j], plan[j]
            keep = np.ones(chunk.data.size, dtype=bool)
            keep[hits] = False
            if self.weighted:
                mass = 0.0
                for i in hits:
                    mass += float(chunk.weights[i])
                    removed.append(float(chunk.weights[i]))
                self.wtotals[j] -= mass
                chunk.weights = chunk.weights[keep]
            chunk.data = chunk.data[keep]
            chunk.touch()
            self.counts[j] = chunk.data.size
            if chunk.data.size:
                self.maxes[j] = chunk.data[-1]
                self.mins[j] = chunk.data[0]
        self.invalidate_prefix()
        self.repair_underfull_rows(np.asarray(sorted(plan), dtype=np.intp), s, cap)
        if not self.weighted:
            return None
        # ``removed`` is in (chunk, offset) order, which is batch order.
        return np.asarray(removed)


def _per_chunk(structure):
    structure._dir.__class__ = PerChunkDirectory
    return structure


def _build(weighted, values, weights, dtype, adopt):
    cls = WeightedDynamicIRS if weighted else DynamicIRS
    args = (values, weights) if weighted else (values,)
    return cls.from_sorted(*args, seed=11, dtype=dtype, copy=not adopt)


def _draws(structure, lo, hi):
    out = []
    for a, b in ((lo, lo + (hi - lo) / 16), (lo, hi)):
        for t in (16, 4096):
            try:
                out.append(structure.sample_bulk(a, b, t))
                out.append(structure.sample_bulk(a, b, t, seed=5))
            except ReproError as exc:  # an empty range must match too
                out.append(type(exc).__name__)
    return out


def _assert_same(fast, ref):
    assert len(fast) == len(ref)
    df, dr = fast._dir, ref._dir
    assert len(df.chunks) == len(dr.chunks)
    for cf, cr in zip(df.chunks, dr.chunks):
        assert cf.data.dtype == cr.data.dtype
        assert cf.data.tobytes() == cr.data.tobytes()
        if df.weighted:
            assert cf.weights.tobytes() == cr.weights.tobytes()
    for column in ("counts", "maxes", "mins") + (("wtotals",) if df.weighted else ()):
        assert getattr(df, column).tobytes() == getattr(dr, column).tobytes(), column
    fast.check_invariants()
    ref.check_invariants()
    if len(fast):
        lo, hi = float(fast.export_sorted()[0]), float(fast.export_sorted()[-1])
        for x, y in zip(_draws(fast, lo, hi), _draws(ref, lo, hi)):
            if isinstance(x, str):
                assert x == y
            else:
                assert x.tobytes() == y.tobytes()
        assert fast.stats.rejections == ref.stats.rejections


# Small integers as values: long duplicate runs straddle chunk boundaries
# and ties at a chunk's max are the norm, not the exception.
_values = st.integers(min_value=0, max_value=30).map(float)
_op = st.tuples(
    st.sampled_from(["insert", "delete", "missing"]),
    st.lists(
        st.integers(min_value=-4, max_value=34).map(float), min_size=17, max_size=60
    ),
)


@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    initial=st.lists(_values, min_size=40, max_size=300),
    ops=st.lists(_op, min_size=1, max_size=6),
    dtype=st.sampled_from(["float64", "float32"]),
    adopt=st.booleans(),
    data=st.data(),
)
def test_batch_passes_match_the_per_chunk_algorithm(
    weighted, initial, ops, dtype, adopt, data
):
    weights = np.linspace(0.5, 3.0, len(initial)) if weighted else None
    caller = np.sort(np.asarray(initial, dtype=dtype))
    pristine = caller.tobytes()
    fast = _build(weighted, caller, weights, dtype, adopt)
    ref = _per_chunk(_build(weighted, caller.copy(), weights, dtype, False))
    for kind, values in ops:
        if kind == "insert":
            # Values below the global min and above the global max included.
            w = np.linspace(0.25, 4.0, len(values)) if weighted else None
            args = (values, w) if weighted else (values,)
            fast.insert_bulk(*args)
            ref.insert_bulk(*args)
        else:
            stored = fast.export_sorted().astype(float).tolist()
            if not stored:
                continue
            picks = data.draw(
                st.lists(
                    st.sampled_from(range(len(stored))),
                    min_size=2,
                    max_size=40,
                    unique=True,
                )
            )
            batch = [stored[i] for i in picks]
            if kind == "missing":
                batch.insert(len(batch) // 2, 0.5)  # never stored: values are integers
                with pytest.raises(KeyNotFoundError):
                    fast.delete_bulk(batch)
                with pytest.raises(KeyNotFoundError):
                    ref.delete_bulk(batch)
            else:
                got, want = fast.delete_bulk(batch), ref.delete_bulk(batch)
                if weighted:
                    assert got == want
        _assert_same(fast, ref)
    assert caller.tobytes() == pristine  # the adopted array is never written


@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
def test_refused_batch_leaves_every_observable_unchanged(weighted):
    gen = np.random.default_rng(3)
    values = np.round(gen.uniform(0, 100, 5000), 1)
    if weighted:
        s = WeightedDynamicIRS(values, gen.uniform(1, 2, values.size), seed=1)
    else:
        s = DynamicIRS(values, seed=1)
    s.sample_bulk(0.0, 100.0, 4096)  # warm the mutation-keyed caches
    d = s._dir
    before = (
        len(s),
        s.export_sorted().tobytes(),
        d.mutations,
        [c.data for c in d.chunks],
        d.counts.tobytes(),
        d.maxes.tobytes(),
        d.mins.tobytes(),
    )
    flat = s._flat_stamp if weighted else None
    stored = s.export_sorted().tolist()
    batch = stored[:300:3] + [50.05] + stored[-300::3]  # 50.05 is between stored values
    with pytest.raises(KeyNotFoundError):
        s.delete_bulk(batch)
    after = (
        len(s),
        s.export_sorted().tobytes(),
        d.mutations,
        [c.data for c in d.chunks],
        d.counts.tobytes(),
        d.maxes.tobytes(),
        d.mins.tobytes(),
    )
    assert after[:3] == before[:3] and after[4:] == before[4:]
    assert all(a is b for a, b in zip(after[3], before[3]))
    if weighted:
        assert s._flat_stamp == flat == d.mutations  # the flat cache stays valid
        assert s.export_sorted_pairs()[1].size == len(s)
    s.check_invariants()


@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
def test_one_underflow_in_a_large_batch_is_repaired_locally(weighted, monkeypatch):
    values = np.arange(150_000, dtype=float)
    if weighted:
        s = WeightedDynamicIRS(values, np.ones(values.size), seed=1)
    else:
        s = DynamicIRS(values, seed=1)
    d = s._dir
    lo_size = s._s
    target = len(d.chunks) // 2
    # Drain the target chunk to one below s, and take one point from every
    # fourth chunk elsewhere (they all hold 1.5 s, so none of them underflows).
    drained = d.chunks[target].data
    batch = drained[: drained.size - lo_size + 1].tolist()
    others = [i for i in range(0, len(d.chunks), 4) if abs(i - target) > 1]
    batch += [float(d.chunks[i].data[0]) for i in others]
    assert len(batch) > 1000
    planes = [c.data for c in d.chunks]

    def no_rebuild(self):
        raise AssertionError("bulk delete swept the whole directory")

    monkeypatch.setattr(ChunkDirectory, "rebuild", no_rebuild)
    s.delete_bulk(batch)
    monkeypatch.undo()
    s.check_invariants()
    assert len(s) == values.size - len(batch)
    kept = {id(c.data) for c in d.chunks}
    touched = set(others) | {target - 1, target, target + 1}
    for i, plane in enumerate(planes):
        if i not in touched:
            assert id(plane) in kept, f"untouched chunk {i} lost its plane"


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _workload_fingerprints(weighted: bool, dtype: str) -> dict:
    """Bulk inserts (one clustered batch that splits chunks, then batches
    with values past both global extremes) and bulk deletes of the previous
    batch, each round followed by narrow/wide, t=16/4096 ``sample_bulk``
    draws from the structure's own stream and from a fixed seed."""
    rng = np.random.default_rng(2024)
    base = np.round(rng.uniform(0.0, 1000.0, 20_000), 1)
    if weighted:
        weights = rng.uniform(0.5, 2.0, base.size)
        d = WeightedDynamicIRS(base, weights, seed=5, dtype=dtype)
    else:
        d = DynamicIRS(base, seed=5, dtype=dtype)
    out = {}
    removed = []
    prev = None
    for r in range(5):
        if r == 0:
            batch = np.round(rng.uniform(500.0, 502.0, 400), 1)
        else:
            batch = np.round(rng.uniform(0.0, 1000.0, 300), 1)
            batch = batch[(batch < 495.0) | (batch > 507.0)]
            batch = np.concatenate((batch, [-1.0 - r, 1001.0 + r]))
        if weighted:
            d.insert_bulk(batch, rng.uniform(0.5, 2.0, batch.size))
        else:
            d.insert_bulk(batch)
        if r >= 2:
            got = d.delete_bulk(prev[::-1])
            if weighted:
                removed.extend(got)
        prev = batch
        draws = []
        for lo, hi in ((400.0, 410.0), (50.0, 950.0)):
            for t in (16, 4096):
                draws.append(d.sample_bulk(lo, hi, t))
                draws.append(d.sample_bulk(lo, hi, t, seed=100 + r))
        out[f"round{r}/draws"] = _digest(*draws)
        dr = d._dir
        rows = [dr.counts, dr.maxes, dr.mins] + ([dr.wtotals] if weighted else [])
        out[f"round{r}/rows"] = _digest(*rows)
    out["rejections"] = d.stats.rejections
    if weighted:
        out["removed"] = _digest(np.asarray(removed))
    return out


#: Recorded from the per-chunk implementation (the commit before the
#: whole-batch passes) with ``_workload_fingerprints``.
RECORDED = {
    "uniform/float32": {
        "rejections": 52,
        "round0/draws": "a3255ce5b8c1948b",
        "round0/rows": "17d85b83103b0ca4",
        "round1/draws": "244db26e362e9c78",
        "round1/rows": "092fa0c27e1eebf4",
        "round2/draws": "7950d6efa6f7b6d8",
        "round2/rows": "4af7d807f5861c6d",
        "round3/draws": "76713a521b19098b",
        "round3/rows": "6d9ffd03dc7a080a",
        "round4/draws": "c76e0727a2845e70",
        "round4/rows": "070bd669c6257b06",
    },
    "uniform/float64": {
        "rejections": 52,
        "round0/draws": "a2e54c06a7cc2a70",
        "round0/rows": "c2740aac30ae8451",
        "round1/draws": "3fd59bb922461f79",
        "round1/rows": "12ba98b265493261",
        "round2/draws": "a579810a1d64dc6c",
        "round2/rows": "eeaf69fc21cb5d54",
        "round3/draws": "5f944add8017f5d5",
        "round3/rows": "9ab4e67bcb4109bc",
        "round4/draws": "6ac10619e7052b09",
        "round4/rows": "859d8ea4afb73d7a",
    },
    "weighted/float32": {
        "rejections": 0,
        "removed": "371ac105125aabc3",
        "round0/draws": "8b990cdcf5c7c3e7",
        "round0/rows": "7e0a330d9a8e64f8",
        "round1/draws": "4981c104a01eacc6",
        "round1/rows": "08ddae1007257459",
        "round2/draws": "b75486b4c7ba667f",
        "round2/rows": "2c916960b82a3b46",
        "round3/draws": "be71d2b63dff8667",
        "round3/rows": "d5a15bf0c074c22f",
        "round4/draws": "704b121698bba4e6",
        "round4/rows": "f86d2c480d6629d4",
    },
    "weighted/float64": {
        "rejections": 0,
        "removed": "371ac105125aabc3",
        "round0/draws": "149c2a2f127a3ab9",
        "round0/rows": "88e9762887653798",
        "round1/draws": "ccc3ee11d23f3df7",
        "round1/rows": "28d94516da55721f",
        "round2/draws": "d5e5c6e65b0b9010",
        "round2/rows": "29f179e17acace29",
        "round3/draws": "37c929e6e6191276",
        "round3/rows": "d26130658641e804",
        "round4/draws": "27aa1bcc43bb37e4",
        "round4/rows": "72b1c8e9cd66427c",
    },
}


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_fixed_seed_fingerprints_match_the_per_chunk_implementation(case):
    kind, dtype = case.split("/")
    assert _workload_fingerprints(kind == "weighted", dtype) == RECORDED[case]
