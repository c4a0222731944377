"""Phase 1 ingest throughput — scalar vs bulk vs sharded.

Measures points/second on the Figure 4 base workload (the DS1 grid,
K = 100) at three levels:

* **scalar** — the per-point ``CFTree.insert_points`` loop;
* **bulk** — ``CFTree.bulk_insert``, which is byte-identical to scalar
  by construction (the grouped descent commits only speculation
  verified against exactly evolved entry states) and falls back to
  scalar runs where windows stop paying;
* **sharded** — ``Birch.fit(..., n_jobs=N)``, building per-shard trees
  in worker processes and merging them by CF additivity.

The scalar/bulk comparison runs twice: on DS1 in its generated
(ordered) input order, and on the same points shuffled with a fixed
seed (DS1O), where windows commit fewer rows and ``bulk_insert``
moves part of the stream to scalar runs.

Results land in ``BENCH_phase1_ingest.json`` so the perf-smoke CI job
and the performance docs have a machine-readable record.  Run
standalone (this is not a pytest module):

    PYTHONPATH=src python benchmarks/bench_phase1_ingest.py \
        --scale 1.0 --out BENCH_phase1_ingest.json

``--assert-speedup X`` exits non-zero unless bulk >= X * scalar in the
ordered case (CI uses 1.0 on a small preset; the acceptance run uses
3.0 at scale 1.0, i.e. N = 100,000).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.birch import Birch
from repro.core.config import BirchConfig
from repro.core.tree import CFTree
from repro.datagen.presets import ds1, ds1o
from repro.observe.recorder import Recorder
from repro.pagestore.iostats import IOStats
from repro.pagestore.page import PageLayout

#: Scalar/bulk trials per tree-ingest row; the best time of each wins.
REPEATS = 3


def _make_tree(
    threshold: float,
    page_size: int,
    d: int,
    recorder: Recorder | None = None,
) -> CFTree:
    layout = PageLayout(page_size=page_size, dimensions=d)
    return CFTree(
        layout, threshold=threshold, stats=IOStats(), recorder=recorder
    )


def _bulk_traffic(
    points: np.ndarray, threshold: float, page_size: int
) -> dict[str, float]:
    """Window counters of one untimed, recorded bulk ingest."""
    rec = Recorder()
    tree = _make_tree(threshold, page_size, points.shape[1], rec)
    consumed = 0
    while consumed < points.shape[0]:
        consumed += tree.bulk_insert(points[consumed:])
    c = rec.counters
    traffic = {
        key: int(c.get(f"bulk.{key}", 0))
        for key in ("windows", "full_windows", "flips", "repairs", "appends",
                    "absorbed_rows", "fallback_rows", "scalar_runs")
    }
    traffic["splits"] = tree.stats.splits
    traffic["rows_per_window"] = points.shape[0] / max(traffic["windows"], 1)
    return traffic


def _time_tree_ingest(
    points: np.ndarray,
    threshold: float,
    page_size: int,
    mode: str,
) -> tuple[float, CFTree]:
    tree = _make_tree(threshold, page_size, points.shape[1])
    start = time.perf_counter()
    if mode == "scalar":
        tree.insert_points(points)
    else:
        consumed = 0
        while consumed < points.shape[0]:
            consumed += tree.bulk_insert(points[consumed:])
    return time.perf_counter() - start, tree


def _best_ingest_pair(
    points: np.ndarray,
    threshold: float,
    page_size: int,
) -> tuple[float, float]:
    """Best-of-``REPEATS`` scalar and bulk seconds, interleaved per round.

    Every round's two trees must be byte-identical: the same I/O ledger
    and the same exported structure arrays.
    """
    best_scalar = best_bulk = float("inf")
    for _ in range(REPEATS):
        scalar_s, scalar_tree = _time_tree_ingest(
            points, threshold, page_size, "scalar"
        )
        bulk_s, bulk_tree = _time_tree_ingest(
            points, threshold, page_size, "bulk"
        )
        assert scalar_tree.points == bulk_tree.points == points.shape[0]
        assert scalar_tree.stats.summary() == bulk_tree.stats.summary(), (
            "bulk path diverged from scalar (I/O ledger mismatch)"
        )
        scalar_arrays = scalar_tree.export_structure()
        bulk_arrays = bulk_tree.export_structure()
        assert scalar_arrays.keys() == bulk_arrays.keys() and all(
            scalar_arrays[key].tobytes() == bulk_arrays[key].tobytes()
            for key in scalar_arrays
        ), "bulk path diverged from scalar (tree structure mismatch)"
        best_scalar = min(best_scalar, scalar_s)
        best_bulk = min(best_bulk, bulk_s)
    return best_scalar, best_bulk


def _time_sharded_fit(
    points: np.ndarray, n_jobs: int, threshold: float
) -> float:
    # Fixed threshold and a generous budget so the measurement isolates
    # the scan itself (threshold-growth rebuilds are an orthogonal cost
    # that would dominate either path equally).
    config = BirchConfig(
        n_clusters=100,
        memory_bytes=16 * 1024 * 1024,
        initial_threshold=threshold,
        total_points_hint=points.shape[0],
        phase4_passes=0,
        validate_points=False,
    )
    result = Birch(config).fit(points, n_jobs=n_jobs)
    assert result.conservation_ok
    return result.timings.phase1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="DS1 scale; 1.0 = the paper's N = 100,000 (default 1.0)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--threshold", type=float, default=1.5,
        help="fixed tree threshold for the scalar/bulk comparison",
    )
    parser.add_argument("--page-size", type=int, default=1024)
    parser.add_argument(
        "--jobs", type=int, nargs="*", default=[1, 2, 4],
        help="n_jobs values for the sharded fit comparison",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_phase1_ingest.json"),
        help="JSON output path",
    )
    parser.add_argument(
        "--assert-speedup", type=float, default=None, metavar="X",
        help="fail unless bulk >= X * scalar on the ordered input",
    )
    args = parser.parse_args(argv)

    dataset = ds1(scale=args.scale, seed=args.seed)
    points = dataset.points
    shuffled = ds1o(scale=args.scale, seed=args.seed).points
    n, d = points.shape
    print(f"DS1 grid: N={n} d={d} (scale={args.scale}, seed={args.seed})")

    report: dict[str, object] = {
        "dataset": {
            "preset": "ds1",
            "scale": args.scale,
            "seed": args.seed,
            "n": n,
            "d": d,
        },
        "sharded_fit": {},
        "threshold": args.threshold,
        "page_size": args.page_size,
        "repeats": REPEATS,
        "timed": {
            "tree_ingest": (
                "one layer: CFTree.insert_points / bulk_insert, best of "
                "repeats, scalar/bulk interleaved, trees byte-identical "
                "on every trial"
            ),
            "tree_ingest_shuffled": (
                "one layer, as tree_ingest, on the DS1O order of the same "
                "points"
            ),
            "sharded_fit": "Phase 1 of a whole Birch.fit (timings.phase1)",
        },
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }

    ok = True
    for block, rows in (("tree_ingest", points), ("tree_ingest_shuffled", shuffled)):
        scalar_s, bulk_s = _best_ingest_pair(rows, args.threshold, args.page_size)
        speedup = scalar_s / bulk_s
        report[block] = {
            "scalar_seconds": scalar_s,
            "bulk_seconds": bulk_s,
            "scalar_points_per_second": n / scalar_s,
            "bulk_points_per_second": n / bulk_s,
            "speedup": speedup,
            "bulk_traffic": _bulk_traffic(rows, args.threshold, args.page_size),
        }
        print(
            f"{block}: scalar {n / scalar_s:9.0f} pts/s | "
            f"bulk {n / bulk_s:9.0f} pts/s | {speedup:.2f}x"
        )
        if (
            block == "tree_ingest"
            and args.assert_speedup is not None
            and speedup < args.assert_speedup
        ):
            print(
                f"FAIL: bulk speedup {speedup:.2f}x "
                f"< required {args.assert_speedup:.2f}x",
                file=sys.stderr,
            )
            ok = False

    base_seconds = None
    for jobs in args.jobs:
        phase1_s = _time_sharded_fit(points, jobs, args.threshold)
        entry = {
            "phase1_seconds": phase1_s,
            "points_per_second": n / phase1_s,
        }
        if jobs == 1:
            base_seconds = phase1_s
        if base_seconds is not None:
            entry["speedup_vs_jobs_1"] = base_seconds / phase1_s
        report["sharded_fit"][f"jobs_{jobs}"] = entry
        extra = (
            f" | {base_seconds / phase1_s:.2f}x vs jobs=1"
            if base_seconds is not None and jobs != 1
            else ""
        )
        print(
            f"fit n_jobs={jobs}: phase1 {phase1_s:6.2f}s "
            f"({n / phase1_s:9.0f} pts/s){extra}"
        )

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
