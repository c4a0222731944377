"""Sharded Phase 1 scaling — the worker-pool speedup curve.

Measures ``Birch.fit(..., n_jobs=N)`` wall-clock across shard counts on
a large DS1 grid, isolating what the parallel runtime rebuild changed:

* zero-copy shared-memory shard transport (no per-fit pickling of the
  point arrays into workers),
* the persistent worker pool (created once, reused for every shard
  dispatch and every merge round), and
* pairwise tournament merge reduction (``ceil(log2 N)`` rounds of
  pair folds, each moving the donor's leaf entries through
  ``CFTree.bulk_insert`` — the path raw points take — instead of a
  serial per-entry ``insert_cf`` fold in the parent).

Results land in ``BENCH_phase1_scale.json``.  **Honesty note:** the
speedup column only means something when the machine has the cores;
``cpu_count`` is recorded in the JSON, and on hosts with fewer cores
than shards the pool clamps its process count (results stay
deterministic — identical floats — but the curve flattens to ~1x).
``--assert-speedup X`` therefore fails the run only when the host has
at least as many cores as the largest shard count measured.

Run standalone (this is not a pytest module):

    PYTHONPATH=src python benchmarks/bench_phase1_scale.py \
        --scale 10.0 --jobs 1 2 4 8 --out BENCH_phase1_scale.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.birch import Birch
from repro.core.config import BirchConfig
from repro.datagen.generator import (
    DatasetGenerator,
    GeneratorParams,
    InputOrder,
    Pattern,
)


def _config(n: int, threshold: float) -> BirchConfig:
    # Fixed threshold and a generous budget so the measurement isolates
    # the scan + merge runtime (threshold-growth rebuilds are an
    # orthogonal cost that would dominate every shard count equally).
    return BirchConfig(
        n_clusters=100,
        memory_bytes=64 * 1024 * 1024,
        initial_threshold=threshold,
        total_points_hint=n,
        phase4_passes=0,
        phase3_algorithm="kmeans",
        validate_points=False,
    )


def _time_fit(points: np.ndarray, jobs: int, threshold: float, repeats: int):
    best = None
    for _ in range(repeats):
        estimator = Birch(_config(points.shape[0], threshold))
        try:
            start = time.perf_counter()
            result = estimator.fit(points, n_jobs=jobs)
            total = time.perf_counter() - start
        finally:
            estimator.close()
        assert result.conservation_ok, "sharded ledger must balance"
        sample = {
            "phase1_seconds": result.timings.phase1,
            "total_seconds": total,
            "clusters": result.n_clusters,
        }
        if best is None or sample["phase1_seconds"] < best["phase1_seconds"]:
            best = sample
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=float, default=10.0,
        help="multiple of the paper's DS1 size; 1.0 = 100,000 points, "
        "10.0 = 1,000,000 points (default 10.0)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--threshold", type=float, default=1.5,
        help="fixed initial threshold (isolates scan/merge runtime)",
    )
    parser.add_argument(
        "--jobs", type=int, nargs="*", default=[1, 2, 4, 8],
        help="shard counts to measure (default 1 2 4 8)",
    )
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="timed repeats per shard count; best is reported",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_phase1_scale.json"),
        help="JSON output path",
    )
    parser.add_argument(
        "--assert-speedup", type=float, default=None, metavar="X",
        help="fail unless the largest shard count reaches X * jobs=1 "
        "(enforced only when the host has >= that many cores)",
    )
    args = parser.parse_args(argv)

    # The DS1 grid geometry (100 clusters, r = sqrt(2), spacing 4) with
    # the per-cluster population scaled: the presets module caps its
    # ``scale`` at the paper's N = 100,000, so large-N runs generate
    # directly.
    per_cluster = max(1, int(round(1000 * args.scale)))
    params = GeneratorParams(
        pattern=Pattern.GRID,
        n_clusters=100,
        n_low=per_cluster,
        n_high=per_cluster,
        r_low=math.sqrt(2.0),
        r_high=math.sqrt(2.0),
        grid_spacing=4.0,
        order=InputOrder.ORDERED,
        seed=args.seed,
    )
    points = DatasetGenerator().generate(params, name="DS1-scaled").points
    n, d = points.shape
    cores = os.cpu_count() or 1
    print(
        f"DS1 grid: N={n} d={d} (scale={args.scale}, seed={args.seed}); "
        f"host has {cores} core(s)"
    )

    report: dict[str, object] = {
        "dataset": {
            "preset": "ds1",
            "scale": args.scale,
            "seed": args.seed,
            "n": n,
            "d": d,
        },
        "threshold": args.threshold,
        "cpu_count": cores,
        "runs": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "note": (
            "speedup_vs_jobs_1 is only meaningful when cpu_count >= jobs; "
            "with fewer cores the pool clamps its process count and the "
            "curve measures overhead, not parallelism"
        ),
    }

    base_seconds = None
    speedups: dict[int, float] = {}
    for jobs in args.jobs:
        best = _time_fit(points, jobs, args.threshold, args.repeats)
        entry = dict(best)
        entry["points_per_second"] = n / best["phase1_seconds"]
        entry["processes_clamped_to"] = max(1, min(jobs, cores))
        if jobs == 1:
            base_seconds = best["phase1_seconds"]
        if base_seconds is not None:
            speedups[jobs] = base_seconds / best["phase1_seconds"]
            entry["speedup_vs_jobs_1"] = speedups[jobs]
        report["runs"][f"jobs_{jobs}"] = entry
        extra = (
            f" | {speedups[jobs]:.2f}x vs jobs=1" if jobs in speedups else ""
        )
        print(
            f"n_jobs={jobs}: phase1 {best['phase1_seconds']:7.2f}s "
            f"({n / best['phase1_seconds']:9.0f} pts/s){extra}"
        )

    ok = True
    if args.assert_speedup is not None:
        top = max(args.jobs)
        if cores < top:
            print(
                f"speedup gate skipped: host has {cores} core(s) < "
                f"{top} shards (recorded in JSON instead)"
            )
        elif speedups.get(top, 0.0) < args.assert_speedup:
            print(
                f"FAIL: jobs={top} speedup {speedups.get(top, 0.0):.2f}x "
                f"< required {args.assert_speedup:.2f}x",
                file=sys.stderr,
            )
            ok = False

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
