"""NaN is refused at the structure boundary, before any state changes.

A stored NaN compares false against everything, so once admitted it
leaves chunk maxima stale (``check_invariants`` fails) and makes the
facade's ``len`` disagree with its counts.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import DynamicIRS, InvalidValueError, ShardedIRS, WeightedDynamicIRS

NAN = float("nan")


def _base(n=400):
    return np.random.default_rng(3).random(n)


def _observe(s):
    return len(s), s.export_sorted().tobytes(), s.count(0.0, 1.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dynamic_insert_nan_is_refused(dtype):
    d = DynamicIRS(_base(), seed=1, dtype=dtype)
    before = _observe(d)
    with pytest.raises(InvalidValueError):
        d.insert(NAN)
    for batch in ([0.5, NAN], [0.1 * i for i in range(40)] + [NAN]):
        with pytest.raises(InvalidValueError):
            d.insert_bulk(batch)
    assert _observe(d) == before
    d.check_invariants()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_weighted_insert_bulk_nan_is_refused(dtype):
    w = WeightedDynamicIRS(_base(), np.ones(400), seed=1, dtype=dtype)
    before = _observe(w), w.total_weight
    for batch in ([0.2, 0.3, NAN], [0.01 * i for i in range(60)] + [NAN]):
        with pytest.raises(InvalidValueError):
            w.insert_bulk(batch, [1.0] * len(batch))
    with pytest.raises(InvalidValueError):
        w.insert(NAN, 2.0)
    assert (_observe(w), w.total_weight) == before
    w.check_invariants()


@pytest.mark.parametrize("kind", ["dynamic", "weighted-dynamic"])
def test_sharded_insert_nan_is_refused(kind):
    s = ShardedIRS(_base(), num_shards=4, seed=2, shard_kind=kind)
    with pytest.raises(InvalidValueError):
        s.insert(NAN)
    with pytest.raises(InvalidValueError):
        s.insert_bulk([0.5, NAN])
    assert len(s) == s.count(-math.inf, math.inf) == 400
    s.check_invariants()


@pytest.mark.parametrize(
    "build",
    [
        lambda v: DynamicIRS(v),
        lambda v: DynamicIRS.from_sorted(v),
        lambda v: WeightedDynamicIRS(v),
        lambda v: WeightedDynamicIRS.from_sorted(v),
        lambda v: ShardedIRS(v, num_shards=2),
        lambda v: ShardedIRS.from_sorted(v, num_shards=2, shard_kind="static"),
    ],
)
def test_constructors_refuse_nan(build):
    values = np.array([0.1, 0.2, NAN, 0.4])
    with pytest.raises(InvalidValueError) as info:
        build(values)
    assert isinstance(info.value, ValueError)
