"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (a separate, traced run).  Standard output ends with one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the host.  DEFINITIONS.md defines every name.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("serve-small", "churn", "weighted-sharded")

#: name -> unit of every end-to-end metric (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "samples_per_s": "1/s",
    "updates_per_s": "1/s",
    "read_p50_ms": "ms",
    "bulk_read_p50_ms": "ms",
    "write_p50_ms": "ms",
    "point_write_us": "us",
    "peak_rss_mb": "MB",
}

#: name -> unit of every per-layer metric (``--trace 1``).  A layer that
#: does no work on a workload reports 0.
PER_LAYER = {
    "kernels.calls_per_read": "count",
    "kernels.self_us_per_read": "us",
    "kernels.calls_per_write": "count",
    "kernels.self_us_per_write": "us",
    "directory.self_us_per_write": "us",
    "directory.repairs_per_write": "count",
    "directory.rebuilds": "count",
    "directory.prefix_us_per_read": "us",
    "sampler.self_us_per_read": "us",
    "sampler.self_us_per_write": "us",
    "sampler.point_us": "us",
    "sampler.accept_ratio": "ratio",
    "sampler.plane_bytes_per_value": "B/value",
    "rng.us_per_read": "us",
    "batch.self_us_per_req": "us",
    "batch.reqs_per_call": "count",
    "shard.self_us_per_read": "us",
    "shard.tasks_per_read": "count",
    "shard.self_us_per_write": "us",
    "shard.rebalances": "count",
    "serve.queue_ms_p50": "ms",
    "serve.exec_ms_p50": "ms",
    "serve.admit_us": "us",
    "serve.self_us_per_req": "us",
    "serve.batch_reqs": "count",
    "serve.refused_frac": "ratio",
    "protocol.us_per_req": "us",
    "store.wal_us_per_write": "us",
    "store.wal_bytes_per_value": "B/value",
    "store.checkpoints": "count",
    "store.checkpoint_ms": "ms",
    "tcp.us_per_req": "us",
    "loadgen.late_p99_ms": "ms",
    "loadgen.backlog": "count",
    "host.calib_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.wall_us_per_op": "us",
    "trace.unattributed_us_per_op": "us",
    "serve.self_us_per_op": "us",
    "protocol.self_us_per_op": "us",
    "batch.self_us_per_op": "us",
    "store.self_us_per_op": "us",
    "shard.self_us_per_op": "us",
    "sampler.self_us_per_op": "us",
    "directory.self_us_per_op": "us",
    "rng.self_us_per_op": "us",
    "kernels.self_us_per_op": "us",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from common import calibrate, cpu_ticks, emit, host_record, metric, steal_frac

    calib_before = calibrate()
    ticks = cpu_ticks()
    if args.workload == "serve-small":
        from serving import serve_small as run
    elif args.workload == "churn":
        from embedded import churn as run
    else:
        from embedded import weighted_sharded as run
    checks, attempted, failed, values, info = run(
        args.seed, args.seconds, bool(args.trace)
    )
    steal = steal_frac(ticks, cpu_ticks())
    calib_after = calibrate()
    host = host_record()
    host["calib_ms_before"] = calib_before
    host["calib_ms_after"] = calib_after
    host["cpu_steal_frac"] = steal
    host["workload"] = args.workload
    host["seed"] = args.seed
    if args.workload == "serve-small":
        from serving import FLUSH_POLICY, OPEN_RATE

        host["wal_flush_policy"] = FLUSH_POLICY
        host["open_rate_per_s"] = OPEN_RATE
    host.update(info)
    host["check_failures"] = checks.failures[:10]
    print(json.dumps({"host": host}), flush=True)

    wanted = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        values["host.calib_ms"] = ((calib_before + calib_after) / 2, "ms")
    metrics = {}
    for name, unit in wanted.items():
        value, got_unit = values.get(name, (0.0, unit))
        if got_unit != unit:
            raise RuntimeError(f"{name}: unit {got_unit!r}, declared {unit!r}")
        metrics[name] = metric(value, unit)
    extra = set(values) - set(wanted)
    if extra:
        raise RuntimeError(f"undeclared metrics: {sorted(extra)}")
    emit(checks.correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
