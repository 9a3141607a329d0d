"""Kernel tier (PR 10): dispatch seam, backend parity, dtype planes, zero-copy.

The compiled (numba) and vectorized (numpy) backends must be *byte-identical*
under a fixed seed — parity here is a hard equality, not a statistical gate.
Without numba installed the cross-backend tests skip and the suite still
exercises the numpy backend's semantics against independent oracles, the
dtype-generic storage planes, and the strict zero-copy adoption contract.
"""

from __future__ import annotations

import bisect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import DynamicIRS, ShardedIRS, StaticIRS, WeightedDynamicIRS
from repro.core import backend_info, kernels
from repro.core.planes import as_plane, resolve_dtype
from repro.errors import KernelBackendError, KeyNotFoundError, ZeroCopyError

BACKENDS = kernels.available_backends()

needs_both = pytest.mark.skipif(
    len(BACKENDS) < 2, reason="numba backend unavailable"
)

_HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(params=BACKENDS)
def backend(request):
    """Force one kernel backend for the duration of a test."""
    previous = kernels.set_backend(request.param)
    yield kernels.get()
    kernels.set_backend(previous)


# -- dispatch seam ---------------------------------------------------------------


class TestDispatch:
    def test_backend_info_shape(self):
        info = backend_info()
        assert info["backend"] in ("numpy", "numba")
        assert "numpy" in info["available"]
        assert info["backend"] in info["available"]
        assert info["numpy_version"] == np.__version__
        if info["numba_version"] is None:
            assert info["numba_error"]
        json.dumps(info)  # JSON-safe by contract

    def test_set_backend_roundtrip(self):
        previous = kernels.set_backend("numpy")
        try:
            assert kernels.backend_name() == "numpy"
        finally:
            kernels.set_backend(previous)
        assert kernels.backend_name() == previous

    def test_set_backend_unknown_raises(self):
        with pytest.raises(KernelBackendError):
            kernels.set_backend("cython")

    @pytest.mark.skipif("numba" in BACKENDS, reason="numba is installed")
    def test_set_backend_numba_unavailable_raises(self):
        with pytest.raises(KernelBackendError):
            kernels.set_backend("numba")

    def test_env_override_selects_numpy(self):
        out = self._subprocess_backend({"REPRO_KERNELS": "numpy"})
        assert out == "numpy"

    @needs_both
    def test_env_override_selects_numba(self):
        out = self._subprocess_backend({"REPRO_KERNELS": "numba"})
        assert out == "numba"

    def test_env_override_unknown_fails(self):
        proc = self._run_subprocess({"REPRO_KERNELS": "fortran"})
        assert proc.returncode != 0
        assert "KernelBackendError" in proc.stderr

    @staticmethod
    def _run_subprocess(extra_env):
        env = dict(os.environ, **extra_env)
        src = os.path.join(os.path.dirname(_HERE), "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        code = "from repro.core import kernels; print(kernels.backend_name())"
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )

    @classmethod
    def _subprocess_backend(cls, extra_env) -> str:
        proc = cls._run_subprocess(extra_env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()


# -- kernel-op semantics against independent oracles -----------------------------


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestKernelOps:
    """Each op checked against a pure-Python/NumPy oracle, per backend."""

    def test_splices(self, backend):
        arr = np.sort(_rng(1).uniform(0, 100, 33))
        pos = int(np.searchsorted(arr, 42.0))
        inserted = backend.splice_insert(arr, pos, 42.0)
        assert inserted.tolist() == sorted(arr.tolist() + [42.0])
        removed = backend.splice_delete(inserted, pos)
        assert removed.tolist() == arr.tolist()
        assert inserted.dtype == removed.dtype == arr.dtype

    def test_scalar_searches(self, backend):
        arr = np.asarray([1.0, 2.0, 2.0, 2.0, 5.0])
        for v in (0.0, 1.0, 2.0, 3.0, 5.0, 9.0):
            assert backend.search_left_scalar(arr, v) == bisect.bisect_left(
                arr.tolist(), v
            )
            assert backend.search_right_scalar(arr, v) == bisect.bisect_right(
                arr.tolist(), v
            )

    def test_search_right_vector(self, backend):
        arr = np.sort(_rng(2).integers(0, 50, 40).astype(float))
        targets = _rng(3).integers(-5, 55, 25).astype(float)
        got = np.asarray(backend.search_right(arr, targets))
        assert got.tolist() == [
            bisect.bisect_right(arr.tolist(), t) for t in targets
        ]

    def test_cum_table(self, backend):
        weights = np.asarray([0.5, 1.5, 2.0, 0.25])
        got = np.asarray(backend.cum_table(weights))
        assert got.tolist() == np.cumsum(weights).tolist()

    def test_rejection_split(self, backend):
        # Oracle: walk the codes sequentially, keeping draws whose slot
        # falls under the chunk's true count, until `needed` are kept.
        counts = np.asarray([3, 5, 2, 4], dtype=np.int64)
        cap = 5
        window_lo = 0
        codes = np.asarray(
            _rng(4).integers(0, len(counts) * cap, 64), dtype=np.int64
        )
        needed = 6
        cells, slots, consumed = backend.rejection_split(
            codes, counts, window_lo, cap, needed
        )
        kept = []
        used = 0
        for code in codes.tolist():
            used += 1
            cell, slot = divmod(code, cap)
            if slot < counts[window_lo + cell]:
                kept.append((cell, slot))
                if len(kept) == needed:
                    break
        assert consumed == used
        assert list(zip(np.asarray(cells).tolist(), np.asarray(slots).tolist())) == kept

    def test_flat_pick(self, backend):
        vals = np.sort(_rng(5).uniform(0, 10, 20))
        gcum = np.concatenate(([0.0], np.cumsum(_rng(6).uniform(0.1, 1.0, 20))))
        targets = _rng(7).uniform(0, gcum[-1], 16)
        lo, hi = 3, 17
        got = np.asarray(backend.flat_pick(vals, gcum, targets, lo, hi))
        expect = [
            float(vals[min(max(int(np.searchsorted(gcum, t, side="right")), lo), hi)])
            for t in targets
        ]
        assert got.dtype == np.float64
        assert got.tolist() == expect


# -- whole-batch chunk passes (directory gather / merge / remove / recut) --------


def _chunked(values, weights=None, dtype=None):
    """A structure whose chunks can be inspected (f64 unless ``dtype``)."""
    if weights is None:
        return DynamicIRS(values, seed=0, dtype=dtype)
    return WeightedDynamicIRS(values, weights, seed=0, dtype=dtype)


class TestChunkPasses:
    """The bulk-update and bulk-read passes of ``ChunkDirectory``.

    These replaced the per-chunk ``merge_runs``/``merge_pair_runs``/
    ``take_out`` kernels and, unlike kernels, have one backend-free NumPy body.
    """

    def test_gather_concatenates_rows_with_offsets(self):
        values = np.arange(200, dtype=float)
        s = _chunked(values, np.linspace(1.0, 2.0, 200))
        d = s._dir
        rows = np.asarray([0, 2, 3], dtype=np.intp)
        offsets, vals, weights, cum = d.gather(rows, "data", "weights", "cumulative")
        chunks = [d.chunks[r] for r in rows]
        assert offsets.tolist() == np.cumsum([0] + [c.data.size for c in chunks]).tolist()
        assert vals.tolist() == np.concatenate([c.data for c in chunks]).tolist()
        assert weights.tolist() == np.concatenate([c.weights for c in chunks]).tolist()
        for k, c in enumerate(chunks):
            assert cum[offsets[k] : offsets[k + 1]].tolist() == c.cum_table().tolist()
        (default_offsets, default_vals) = d.gather(rows)
        assert default_vals.tolist() == vals.tolist()
        assert default_offsets.tolist() == offsets.tolist()

    def test_recut_installs_fresh_planes_and_repairs_rows(self):
        s = _chunked(np.arange(200, dtype=float), np.ones(200))
        d = s._dir
        rows = np.asarray([1, 4], dtype=np.intp)
        offsets, vals, weights = d.gather(rows, "data", "weights")
        before = d.wtotals.copy()
        # Drop each row's first point, as a bulk delete would.
        keep = np.ones(vals.size, dtype=bool)
        keep[offsets[:-1]] = False
        new_offsets = offsets - np.arange(offsets.size)
        d.recut(rows, new_offsets, vals[keep], weights[keep], np.asarray([-1.0, -1.0]))
        for k, r in enumerate(rows):
            chunk = d.chunks[r]
            expect = vals[offsets[k] + 1 : offsets[k + 1]]
            assert chunk.data.tolist() == expect.tolist()
            assert chunk.data.base is None and chunk.weights.base is None  # own planes
            assert d.counts[r] == expect.size
            assert d.mins[r] == expect[0] and d.maxes[r] == expect[-1]
            assert d.wtotals[r] == before[r] - 1.0
        s._n -= 2
        s.check_invariants()

    def test_merge_batch_is_stable_chunk_first(self):
        # On ties the chunk's occurrences must precede the batch's:
        # provenance rides on the weights.
        values = np.repeat(np.arange(10, dtype=float), 6)
        s = _chunked(values, np.ones(values.size))
        batch = np.asarray([-1.0] + [4.0] * 20 + [5.0, 99.0])
        weights = np.arange(2.0, 2.0 + batch.size)
        s.insert_bulk(batch, weights)
        s.check_invariants()
        got = s.items()
        assert [v for v, _w in got] == sorted(values.tolist() + batch.tolist())
        fours = [w for v, w in got if v == 4.0]
        assert fours == [1.0] * 6 + weights[1:21].tolist()
        assert got[0] == (-1.0, 2.0) and got[-1] == (99.0, weights[-1])

    def test_merge_batch_clamps_ties_into_the_routed_chunk(self):
        # A run of equal values straddles chunk boundaries; inserted copies
        # all go to the first chunk whose max reaches them, after its own
        # copies — the chunks behind it keep their planes untouched.
        values = np.asarray([1.0] * 8 + [2.0] * 40 + [3.0] * 8)
        s = _chunked(values)
        d = s._dir
        first = int(np.searchsorted(d.maxes, 2.0))
        assert d.mins[first + 1] == 2.0  # the run does straddle
        planes = [c.data for c in d.chunks]
        s.insert_bulk(np.full(17, 2.0))
        s.check_invariants()
        assert s.values() == sorted(values.tolist() + [2.0] * 17)
        unchanged = [p for p in planes if any(c.data is p for c in d.chunks)]
        assert len(unchanged) == len(planes) - 1

    def test_remove_batch_takes_leftmost_copies_and_returns_weights(self):
        values = np.asarray([0.0, 1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0] * 4)
        s = _chunked(np.sort(values), np.arange(1.0, 33.0))
        pairs = s.items()
        removed = s.delete_bulk([1.0, 5.0, 1.0])
        ones = [w for v, w in pairs if v == 1.0]
        fives = [w for v, w in pairs if v == 5.0]
        assert removed == [ones[0], fives[0], ones[1]]
        s.check_invariants()
        assert len(s) == 29

    def test_remove_batch_refuses_before_mutating(self):
        s = _chunked(np.arange(100, dtype=float))
        d = s._dir
        planes = [c.data for c in d.chunks]
        stamp = d.mutations
        with pytest.raises(KeyNotFoundError):
            s.delete_bulk([3.0, 50.5, 7.0])
        with pytest.raises(KeyNotFoundError):
            s.delete_bulk([3.0, 3.0])  # only one copy stored
        assert d.mutations == stamp
        assert all(c.data is p for c, p in zip(d.chunks, planes))
        assert len(s) == 100


# -- cross-backend parity: ops, stateful machines, seed audit --------------------


def _op_fingerprints(backend):
    """Deterministic results of every kernel op on shared inputs."""
    arr = np.sort(_rng(11).uniform(0, 100, 64))
    batch = np.sort(_rng(12).uniform(0, 100, 16))
    weights = _rng(13).uniform(0.1, 2.0, arr.size)
    counts = np.asarray(_rng(15).integers(1, 9, 12), dtype=np.int64)
    codes = np.asarray(_rng(16).integers(0, 12 * 9, 80), dtype=np.int64)
    gcum = np.concatenate(([0.0], np.cumsum(weights)))
    targets = _rng(17).uniform(0, gcum[-1], 24)
    rj = backend.rejection_split(codes, counts, 0, 9, 10)
    return [
        backend.splice_insert(arr, 10, 50.5).tolist(),
        backend.splice_delete(arr, 3).tolist(),
        backend.search_left_scalar(arr, float(arr[20])),
        backend.search_right_scalar(arr, float(arr[20])),
        np.asarray(backend.search_right(arr, batch)).tolist(),
        np.asarray(backend.cum_table(weights)).tolist(),
        [np.asarray(x).tolist() for x in rj[:2]] + [rj[2]],
        np.asarray(backend.flat_pick(arr, gcum, targets, 2, arr.size - 3)).tolist(),
    ]


@needs_both
def test_every_op_identical_across_backends():
    results = {}
    for name in BACKENDS:
        previous = kernels.set_backend(name)
        try:
            results[name] = _op_fingerprints(kernels.get())
        finally:
            kernels.set_backend(previous)
    first, second = (results[name] for name in BACKENDS[:2])
    assert first == second


def _drive_dynamic(dtype):
    data = [float((i * 37) % 101) for i in range(220)]
    s = DynamicIRS(data, seed=42, dtype=dtype)
    s.insert_bulk([0.5 * i + 0.125 for i in range(48)])
    s.delete_bulk([float((i * 37) % 101) for i in range(0, 60, 3)])
    for i in range(25):
        s.insert(float((i * 13) % 47) + 0.25)
        if i % 5 == 0:
            s.delete(float((i * 13) % 47) + 0.25)
    s.check_invariants()
    return [
        s.sample(5.0, 90.0, 32),
        list(s.sample_bulk(2.0, 80.0, 64, seed=9)),
        s.sample_without_replacement(10.0, 60.0, 12),
        s.export_sorted().tolist(),
    ]


def _drive_weighted(dtype):
    data = [float((i * 53) % 97) for i in range(180)]
    weights = [1.0 + (i % 7) for i in range(180)]
    s = WeightedDynamicIRS(data, weights, seed=7, dtype=dtype)
    s.insert_bulk([0.25 * i for i in range(40)], [1.5] * 40)
    s.delete_bulk([float((i * 53) % 97) for i in range(0, 40, 4)])
    for i in range(20):
        s.insert(float(i) + 0.5, 2.0 + i % 3)
        if i % 4 == 0:
            s.update_weight(float(i) + 0.5, 5.0)
    s.check_invariants()
    return [
        s.sample(5.0, 90.0, 32),
        list(s.sample_bulk(2.0, 80.0, 64, seed=11)),
        [list(p) for p in zip(*s.export_sorted_pairs())],
    ]


@needs_both
def test_stateful_machines_identical_across_backends():
    """The full update/sample workload draws byte-identically per backend."""
    results = {}
    for name in BACKENDS:
        previous = kernels.set_backend(name)
        try:
            results[name] = [
                _drive_dynamic(np.float64),
                _drive_dynamic(np.float32),
                _drive_weighted(np.float64),
                _drive_weighted(np.float32),
            ]
        finally:
            kernels.set_backend(previous)
    first, second = (results[name] for name in BACKENDS[:2])
    assert first == second


@needs_both
def test_seedaudit_identical_across_backends():
    """The full sampler×path audit fingerprints agree across backends."""
    script = os.path.join(_HERE, "seedaudit.py")
    src = os.path.join(os.path.dirname(_HERE), "src")

    def run(backend_name):
        env = dict(os.environ, REPRO_KERNELS=backend_name)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
            timeout=300,
        )
        return json.loads(proc.stdout)

    audits = [run(name) for name in BACKENDS[:2]]
    assert audits[0] == audits[1]


# -- dtype-generic storage planes ------------------------------------------------


class TestDtypePlanes:
    def test_resolve_dtype_rules(self):
        assert resolve_dtype([1.0], None) == np.float64
        assert resolve_dtype(np.zeros(3, dtype=np.float32), None) == np.float32
        assert resolve_dtype(np.zeros(3, dtype=np.int64), None) == np.float64
        assert resolve_dtype([1.0], np.float32) == np.float32
        with pytest.raises(ValueError):
            resolve_dtype([1.0], np.int32)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_static_and_dynamic_planes(self, dtype):
        data = _rng(21).uniform(0, 1, 300)
        s = StaticIRS(data, seed=1, dtype=dtype)
        d = DynamicIRS(data, seed=1, dtype=dtype)
        for structure in (s, d):
            assert structure.dtype == np.dtype(dtype)
            assert structure.export_sorted().dtype == np.dtype(dtype)
            assert structure.plane_nbytes == 300 * np.dtype(dtype).itemsize
            out = structure.sample_bulk(0.2, 0.8, 50)
            assert out.dtype == np.float64

    def test_weighted_values_plane_narrows_weights_stay_f64(self):
        data = _rng(22).uniform(0, 1, 200)
        w = WeightedDynamicIRS(data, np.ones(200), seed=3, dtype=np.float32)
        values, weights = w.export_sorted_pairs()
        assert values.dtype == np.float32
        assert weights.dtype == np.float64
        assert w.plane_nbytes == 200 * (4 + 8)

    def test_f32_counts_match_f32_membership(self):
        # Query bounds are rounded through the plane dtype, so counts are
        # exactly the float32 closed-interval membership.
        data = np.asarray([0.1, 0.2, 0.3], dtype=np.float32)
        s = StaticIRS(data, seed=1)
        lo = float(np.float32(0.2))  # representable bound
        assert s.count(lo, 1.0) == 2
        assert s.count(0.2, 1.0) == 2  # 0.2 rounds to the same bound
        d = DynamicIRS(data, seed=1)
        assert d.count(0.2, 1.0) == s.count(0.2, 1.0)

    def test_sharded_dtype_and_f64_only_kinds(self):
        data = np.sort(_rng(23).uniform(0, 1, 400))
        s = ShardedIRS.from_sorted(data, num_shards=4, seed=5, dtype=np.float32)
        assert s.dtype == np.float32
        assert s.export_sorted().dtype == np.float32
        assert all(shard.dtype == np.float32 for shard in s.shards)
        s.insert_bulk(_rng(24).uniform(0, 1, 50))
        s.check_invariants()
        with pytest.raises(ValueError):
            ShardedIRS([1.0], shard_kind="external", dtype=np.float32)
        with pytest.raises(ValueError):
            ShardedIRS(
                [1.0], shard_kind="weighted", weights=[1.0], dtype=np.float32
            )

    def test_snapshot_roundtrip_preserves_dtype(self, tmp_path):
        from repro.store.snapshot import (
            SnapshotStore,
            build_from_sorted,
            snapshot_spec,
        )

        store = SnapshotStore(str(tmp_path))
        original = {
            "f32": StaticIRS(_rng(25).uniform(0, 1, 64), seed=1, dtype=np.float32),
            "f64": DynamicIRS(_rng(26).uniform(0, 1, 64), seed=2),
        }
        store.save(original, wal_seq=1)
        loaded = store.load()
        rebuilt = {
            name: build_from_sorted(spec, values, weights, seed=9)
            for name, (spec, values, weights) in loaded.items()
        }
        assert rebuilt["f32"].dtype == np.float32
        assert rebuilt["f64"].dtype == np.float64
        for name in original:
            assert rebuilt[name].export_sorted().tolist() == pytest.approx(
                original[name].export_sorted().tolist()
            )
        # float32 planes persist at 4 bytes/point (file name carries f4).
        snap_dir = next(p for p in tmp_path.iterdir() if p.name.startswith("snap-"))
        suffixes = {p.suffix for p in snap_dir.iterdir()}
        assert ".f4" in suffixes and ".f8" in suffixes


# -- zero-copy adoption contract -------------------------------------------------


class TestZeroCopy:
    def test_static_adopts_the_caller_array(self):
        arr = np.sort(_rng(31).uniform(0, 1, 128))
        s = StaticIRS.from_sorted(arr, seed=1, copy=False)
        assert s.export_sorted() is arr

    def test_dynamic_chunks_are_views_of_the_caller_array(self):
        arr = np.sort(_rng(32).uniform(0, 1, 512))
        d = DynamicIRS.from_sorted(arr, seed=1, copy=False)
        # Every chunk except a possibly-merged tail pair is a view of the
        # adopted plane (the tail merge below the size floor concatenates).
        shared = [np.shares_memory(chunk.data, arr) for chunk in d._dir.chunks]
        assert all(shared[:-2]) and any(shared)
        # Read-only buffers adopt too (the snapshot-recovery path).
        ro = np.frombuffer(arr.tobytes())
        assert not ro.flags.writeable
        d2 = DynamicIRS.from_sorted(ro, seed=1, copy=False)
        assert np.shares_memory(d2._dir.chunks[0].data, ro)

    def test_copy_true_never_aliases(self):
        arr = np.sort(_rng(33).uniform(0, 1, 64))
        d = DynamicIRS.from_sorted(arr, seed=1)
        assert not any(np.shares_memory(chunk.data, arr) for chunk in d._dir.chunks)

    def test_adoption_contract_is_strict(self):
        arr = np.sort(_rng(34).uniform(0, 1, 64))
        with pytest.raises(ZeroCopyError):
            StaticIRS.from_sorted(arr.tolist(), copy=False)
        with pytest.raises(ZeroCopyError):
            StaticIRS.from_sorted(arr.astype(np.float32), dtype=np.float64, copy=False)
        with pytest.raises(ZeroCopyError):
            StaticIRS.from_sorted(arr[::2], copy=False)  # strided view
        with pytest.raises(ZeroCopyError):
            StaticIRS.from_sorted(arr.reshape(8, 8), copy=False)
        with pytest.raises(ValueError):
            StaticIRS.from_sorted(arr[::-1].copy(), copy=False)  # unsorted
        assert isinstance(ZeroCopyError("x"), ValueError)

    def test_as_plane_copy_false_returns_input(self):
        arr = np.sort(_rng(35).uniform(0, 1, 16))
        assert as_plane(arr, copy=False) is arr

    def test_admission_gate_sees_adopted_planes(self):
        from repro.obs.capacity import structure_bytes

        arr = np.sort(_rng(36).uniform(0, 1, 256)).astype(np.float32)
        s = StaticIRS.from_sorted(arr, seed=1, copy=False)
        assert structure_bytes(s) == arr.nbytes == 256 * 4


# -- observability surfaces ------------------------------------------------------


class TestObservability:
    def test_cli_info(self, capsys):
        from repro.cli import main

        assert main(["info"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernels"]["backend"] == kernels.backend_name()
        assert "numpy" in payload["kernels"]["available"]
        assert payload["version"]

    def test_backend_gauge_marks_the_active_backend(self):
        from repro.serve.stats import ServerStats

        text = ServerStats().registry.render()
        active = kernels.backend_name()
        assert f'repro_core_kernel_backend{{backend="{active}"}} 1' in text
        for name in ("numpy", "numba"):
            if name != active:
                assert f'repro_core_kernel_backend{{backend="{name}"}} 0' in text
