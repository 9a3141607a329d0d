"""F20 — kernel-tier ablation: compiled (numba) vs vectorized (numpy) backends.

The claim under test: expressing the chunk directory's hot loops as pure
array kernels (`repro.core.kernels`) lets a compiled backend remove the
remaining Python-interpreter cost at exactly the paper's constant-overhead
points — scalar insert/delete, the bulk splice passes, and the middle
window of `sample_bulk` — while the vectorized backend keeps the same
numbers available everywhere.  Both backends draw byte-identically under
a fixed seed (tests/test_kernels.py), so this table is a pure constants
comparison.

Rows cover every available backend (the `backend` column records what
this host could run — on a numpy-only host the table documents the
fallback tier honestly, like F14's single-CPU rows), n = 10⁴ and 10⁶,
and float32 vs float64 planes at the large size.  `µs/op` is the
inverse-throughput view used by the DESIGN.md §5 scalar-cost table.

`before rate/s` holds the bulk-update and wide-sampling rates of an
earlier commit measured on the same host: run this file there with
``--bench-json DIR``, then here with ``--bench-before DIR``.  Without
that option the column is empty.
"""

from __future__ import annotations

import pytest

from repro import DynamicIRS, WeightedDynamicIRS
from repro.core import kernels
from repro.bench import time_callable, update_throughput
from repro.workloads import uniform_points

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is installed in CI
    np = None

BACKENDS = kernels.available_backends()
SIZES = [10_000, 1_000_000]
SCALAR_OPS = 2_000
BULK_BATCH = 10_000
T_WIDE = 65_536
T_NARROW = 256
NARROW_QUERIES = 64


@pytest.fixture(params=BACKENDS)
def backend(request):
    previous = kernels.set_backend(request.param)
    yield request.param
    kernels.set_backend(previous)


@pytest.fixture(scope="module")
def datasets():
    return {n: np.asarray(uniform_points(n, seed=201)) for n in SIZES}


#: Ops whose rows carry the earlier commit's rate (``--bench-before``).
COMPARED = ("bulk-insert+delete", "sample-wide")


@pytest.fixture(scope="module")
def rec(experiment, before_rows):
    recorder = experiment(
        "F20",
        "kernel backends (scalar ops x2000, bulk batch=10k, wide t=65536): "
        "rate by op, backend, dtype and n",
        ["op", "backend", "dtype", "n", "rate/s", "us/op", "before rate/s"],
    )
    recorder.before = {
        tuple(row[:4]): row[4]
        for row in before_rows("F20")
        if row[0] in COMPARED
    }
    return recorder


def _dtypes_for(n):
    # float32 rows at the large size only: the dtype ablation is about
    # resident bytes at scale, and the small-n rows would double runtime
    # for no information.
    return [np.float64, np.float32] if n == SIZES[-1] else [np.float64]


def _row(rec, op, backend_name, dtype, n, rate):
    dtype_name = np.dtype(dtype).name
    rec.row(
        op,
        backend_name,
        dtype_name,
        n,
        round(rate),
        round(1e6 / rate, 3) if rate else float("inf"),
        rec.before.get((op, backend_name, dtype_name, n)),
    )


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.benchmark(group="F20 kernels")
def test_scalar_updates(datasets, rec, backend, n):
    data = datasets[n]
    inserts = uniform_points(SCALAR_OPS, seed=202)
    for dtype in _dtypes_for(n):
        def scalar_churn(d):
            for v in inserts:
                d.insert(v)
            for v in inserts:
                d.delete(v)

        rate = update_throughput(
            lambda: DynamicIRS(data, seed=203, dtype=dtype),
            scalar_churn,
            2 * SCALAR_OPS,
        )
        _row(rec, "scalar-insert+delete", backend, dtype, n, rate)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.benchmark(group="F20 kernels")
def test_bulk_updates(datasets, rec, backend, n):
    data = datasets[n]
    batch = uniform_points(BULK_BATCH, seed=204)
    for dtype in _dtypes_for(n):
        rate = update_throughput(
            lambda: DynamicIRS(data, seed=205, dtype=dtype),
            lambda d: (d.insert_bulk(batch), d.delete_bulk(batch)),
            2 * BULK_BATCH,
        )
        _row(rec, "bulk-insert+delete", backend, dtype, n, rate)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.benchmark(group="F20 kernels")
def test_bulk_sampling(datasets, rec, backend, n):
    data = datasets[n]
    for dtype in _dtypes_for(n):
        d = DynamicIRS(data, seed=206, dtype=dtype)
        d.sample_bulk(0.05, 0.95, T_WIDE)  # warm the side stream
        best = time_callable(lambda: d.sample_bulk(0.05, 0.95, T_WIDE), repeat=3)
        _row(rec, "sample-wide", backend, dtype, n, T_WIDE / best)

        narrow = [
            (0.4 + 0.001 * i, 0.4 + 0.001 * i + 0.002, T_NARROW)
            for i in range(NARROW_QUERIES)
        ]

        def run_narrow():
            for lo, hi, t in narrow:
                d.sample_bulk(lo, hi, t)

        best = time_callable(run_narrow, repeat=3)
        _row(
            rec, "sample-narrow", backend, dtype, n,
            NARROW_QUERIES * T_NARROW / best,
        )


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.benchmark(group="F20 kernels")
def test_weighted_bulk_sampling(datasets, rec, backend, n):
    data = datasets[n]
    weights = [1.0 + (i % 7) for i in range(n)]
    for dtype in _dtypes_for(n):
        w = WeightedDynamicIRS(data, weights, seed=207, dtype=dtype)
        w.sample_bulk(0.05, 0.95, T_WIDE)
        best = time_callable(lambda: w.sample_bulk(0.05, 0.95, T_WIDE), repeat=3)
        _row(rec, "weighted-sample-wide", backend, dtype, n, T_WIDE / best)
