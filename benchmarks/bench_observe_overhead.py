"""Telemetry overhead — enabled vs disabled ingest on the DS1 workload.

The ``repro.observe`` recorder instruments the Phase 1 hot paths per
*window*, never per point, so turning it on must cost almost nothing.
This benchmark measures that claim two ways on the Figure 4 base
workload (the DS1 grid, K = 100):

* **tree ingest** — ``CFTree.bulk_insert`` with a live recorder vs the
  shared ``NULL_RECORDER``, at a fixed threshold (best-of-R trials);
* **full fit** — Phase 1 of ``Birch.fit`` with ``observe=ObserveConfig()``
  vs ``observe=None`` (best-of-R trials, interleaved like the ingest
  rows), checking on every pair that the two runs produce
  byte-identical centroids (telemetry observes, never perturbs).

Results land in ``BENCH_observe_overhead.json``.  Run standalone (this
is not a pytest module):

    PYTHONPATH=src python benchmarks/bench_observe_overhead.py \
        --scale 1.0 --out BENCH_observe_overhead.json

``--assert-overhead X`` exits non-zero if the enabled tree-ingest
overhead exceeds X percent on either backend (the acceptance run uses
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
from repro.datagen.presets import ds1
from repro.observe import NULL_RECORDER, ObserveConfig, Recorder, RingBufferSink
from repro.pagestore.iostats import IOStats
from repro.pagestore.page import PageLayout


def _ingest_once(
    points: np.ndarray,
    backend: str,
    threshold: float,
    page_size: int,
    recorder: Recorder,
) -> tuple[float, CFTree]:
    layout = PageLayout(page_size=page_size, dimensions=points.shape[1])
    tree = CFTree(
        layout,
        threshold=threshold,
        cf_backend=backend,
        stats=IOStats(),
        recorder=recorder,
    )
    start = time.perf_counter()
    consumed = 0
    while consumed < points.shape[0]:
        consumed += tree.bulk_insert(points[consumed:])
    return time.perf_counter() - start, tree


def _best_ingest_pair(
    points: np.ndarray,
    backend: str,
    threshold: float,
    page_size: int,
    repeats: int,
) -> tuple[float, CFTree, float, CFTree]:
    """Best-of-``repeats`` for disabled and enabled, interleaved.

    Alternating the two configurations within each round keeps cache
    warm-up, frequency scaling and allocator drift from loading onto
    one side of the comparison.
    """
    best_off = best_on = float("inf")
    off_tree: CFTree | None = None
    on_tree: CFTree | None = None
    for _ in range(repeats):
        seconds, off_tree = _ingest_once(
            points, backend, threshold, page_size, NULL_RECORDER
        )
        best_off = min(best_off, seconds)
        seconds, on_tree = _ingest_once(
            points, backend, threshold, page_size,
            Recorder([RingBufferSink(1024)]),
        )
        best_on = min(best_on, seconds)
    assert off_tree is not None and on_tree is not None
    return best_off, off_tree, best_on, on_tree


def _fit_seconds(
    points: np.ndarray, enabled: bool, threshold: float
) -> tuple[float, np.ndarray]:
    config = BirchConfig(
        n_clusters=100,
        memory_bytes=16 * 1024 * 1024,
        initial_threshold=threshold,
        total_points_hint=points.shape[0],
        phase4_passes=0,
        validate_points=False,
        observe=ObserveConfig() if enabled else None,
    )
    result = Birch(config).fit(points)
    assert result.conservation_ok
    assert (result.telemetry is not None) == enabled
    return result.timings.phase1, result.centroids


def _best_fit_pair(
    points: np.ndarray, threshold: float, repeats: int
) -> tuple[float, float]:
    """Best-of-``repeats`` Phase-1 seconds, disabled then enabled per round.

    Every pair must agree on the centroids byte for byte.
    """
    best_off = best_on = float("inf")
    for _ in range(repeats):
        off_s, centroids_off = _fit_seconds(points, False, threshold)
        on_s, centroids_on = _fit_seconds(points, True, threshold)
        assert centroids_on.tobytes() == centroids_off.tobytes(), (
            "telemetry changed clustering output"
        )
        best_off = min(best_off, off_s)
        best_on = min(best_on, on_s)
    return best_off, best_on


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="DS1 scale; 1.0 = the paper's N = 100,000 (default 1.0)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--threshold", type=float, default=1.5,
        help="fixed tree threshold for the ingest comparison",
    )
    parser.add_argument("--page-size", type=int, default=1024)
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="trials per configuration; best time wins (default 3)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_observe_overhead.json"),
        help="JSON output path",
    )
    parser.add_argument(
        "--assert-overhead", type=float, default=None, metavar="X",
        help="fail if enabled tree-ingest overhead > X%% on any backend",
    )
    args = parser.parse_args(argv)

    dataset = ds1(scale=args.scale, seed=args.seed)
    points = dataset.points
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
        "tree_ingest": {},
        "full_fit": {},
        "threshold": args.threshold,
        "page_size": args.page_size,
        "repeats": args.repeats,
        "timed": {
            "tree_ingest": (
                "one layer: CFTree.bulk_insert, best of repeats, "
                "disabled/enabled interleaved"
            ),
            "full_fit": (
                "Phase 1 of a whole Birch.fit (timings.phase1), best of "
                "repeats, disabled/enabled interleaved"
            ),
        },
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }

    ok = True
    for backend in ("classic", "stable"):
        off_s, off_tree, on_s, on_tree = _best_ingest_pair(
            points, backend, args.threshold, args.page_size, args.repeats
        )
        assert off_tree.points == on_tree.points == n
        assert off_tree.stats.summary() == on_tree.stats.summary(), (
            "telemetry-on ingest diverged from telemetry-off "
            "(I/O ledger mismatch)"
        )
        overhead_pct = (on_s / off_s - 1.0) * 100.0
        report["tree_ingest"][backend] = {
            "disabled_seconds": off_s,
            "enabled_seconds": on_s,
            "disabled_points_per_second": n / off_s,
            "enabled_points_per_second": n / on_s,
            "overhead_pct": overhead_pct,
        }
        print(
            f"{backend:>7}: off {n / off_s:9.0f} pts/s | "
            f"on {n / on_s:9.0f} pts/s | overhead {overhead_pct:+.2f}%"
        )
        if (
            args.assert_overhead is not None
            and overhead_pct > args.assert_overhead
        ):
            print(
                f"FAIL: {backend} telemetry overhead {overhead_pct:.2f}% "
                f"> allowed {args.assert_overhead:.2f}%",
                file=sys.stderr,
            )
            ok = False

    fit_off_s, fit_on_s = _best_fit_pair(points, args.threshold, args.repeats)
    fit_overhead_pct = (fit_on_s / fit_off_s - 1.0) * 100.0
    report["full_fit"] = {
        "disabled_phase1_seconds": fit_off_s,
        "enabled_phase1_seconds": fit_on_s,
        "overhead_pct": fit_overhead_pct,
        "byte_identical_centroids": True,
    }
    print(
        f"full fit: off {fit_off_s:6.2f}s | on {fit_on_s:6.2f}s | "
        f"overhead {fit_overhead_pct:+.2f}% (centroids byte-identical)"
    )

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
