"""Telemetry overhead — enabled vs disabled ingest on the DS1 workload.

The ``repro.observe`` recorder instruments the Phase 1 hot paths per
*window*, never per point, so turning it on must cost almost nothing.
This benchmark measures that claim two ways on the Figure 4 base
workload (the DS1 grid, K = 100):

* **tree ingest** — ``CFTree.bulk_insert`` with a live recorder vs the
  shared ``NULL_RECORDER``, at a fixed threshold;
* **full fit** — Phase 1 of ``Birch.fit`` with ``observe=ObserveConfig()``
  vs ``observe=None``, checking on every pair that the two runs produce
  byte-identical centroids (telemetry observes, never perturbs).

Each of R rounds times one disabled and one enabled run back to back
(the order alternates between rounds) and keeps their ratio; the
overhead is the median of those paired ratios.  A minimum per side
would compare the two sides at different host periods, which on a
shared host moves the result by more than the 3% being measured.

Results land in ``BENCH_observe_overhead.json``.  Run standalone (this
is not a pytest module):

    PYTHONPATH=src python benchmarks/bench_observe_overhead.py \
        --scale 1.0 --out BENCH_observe_overhead.json

``--assert-overhead X`` exits non-zero if the enabled tree-ingest
overhead exceeds X percent (the acceptance run uses 3.0 at scale 1.0,
i.e. N = 100,000).
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
    threshold: float,
    page_size: int,
    recorder: Recorder,
) -> tuple[float, CFTree]:
    layout = PageLayout(page_size=page_size, dimensions=points.shape[1])
    tree = CFTree(
        layout, threshold=threshold, stats=IOStats(), recorder=recorder
    )
    start = time.perf_counter()
    consumed = 0
    while consumed < points.shape[0]:
        consumed += tree.bulk_insert(points[consumed:])
    return time.perf_counter() - start, tree


def _paired_rounds(run, check, repeats: int) -> dict[str, object]:
    """Time ``run(enabled)`` off/on in ``repeats`` paired rounds.

    The order within a round alternates, so warm-up and drift do not
    load onto one side.  ``check(off_output, on_output)`` runs on every
    pair.  Returns the per-round seconds and ratios and their medians.
    """
    off_s: list[float] = []
    on_s: list[float] = []
    for i in range(repeats):
        outputs = {}
        for enabled in ((False, True) if i % 2 == 0 else (True, False)):
            seconds, outputs[enabled] = run(enabled)
            (on_s if enabled else off_s).append(seconds)
        check(outputs[False], outputs[True])
    ratios = [on / off for on, off in zip(on_s, off_s)]
    return {
        "disabled_seconds": off_s,
        "enabled_seconds": on_s,
        "ratios": ratios,
        "median_disabled_seconds": float(np.median(off_s)),
        "median_enabled_seconds": float(np.median(on_s)),
        "overhead_pct": (float(np.median(ratios)) - 1.0) * 100.0,
    }


def _same_ingest(off_tree: CFTree, on_tree: CFTree, n: int) -> None:
    assert off_tree.points == on_tree.points == n
    assert off_tree.stats.summary() == on_tree.stats.summary(), (
        "telemetry-on ingest diverged from telemetry-off (I/O ledger mismatch)"
    )


def _same_centroids(off: np.ndarray, on: np.ndarray) -> None:
    assert on.tobytes() == off.tobytes(), "telemetry changed clustering output"


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
        "--repeats", type=int, default=7,
        help="paired off/on rounds; the median ratio is reported (default 7)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_observe_overhead.json"),
        help="JSON output path",
    )
    parser.add_argument(
        "--assert-overhead", type=float, default=None, metavar="X",
        help="fail if enabled tree-ingest overhead > X%%",
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
        "full_fit": {},
        "threshold": args.threshold,
        "page_size": args.page_size,
        "repeats": args.repeats,
        "timed": {
            "tree_ingest": (
                "one layer: CFTree.bulk_insert; overhead = median of "
                "per-round enabled/disabled ratios, order alternating"
            ),
            "full_fit": (
                "Phase 1 of a whole Birch.fit (timings.phase1); overhead = "
                "median of per-round enabled/disabled ratios, order "
                "alternating"
            ),
        },
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }

    ok = True
    rounds = _paired_rounds(
        lambda enabled: _ingest_once(
            points, args.threshold, args.page_size,
            Recorder([RingBufferSink(1024)]) if enabled else NULL_RECORDER,
        ),
        lambda off, on: _same_ingest(off, on, n),
        args.repeats,
    )
    overhead_pct = rounds["overhead_pct"]
    report["tree_ingest"] = rounds
    print(
        f"tree ingest: off {n / rounds['median_disabled_seconds']:9.0f} "
        f"pts/s | on {n / rounds['median_enabled_seconds']:9.0f} pts/s | "
        f"overhead {overhead_pct:+.2f}% (median of {args.repeats} pairs)"
    )
    if args.assert_overhead is not None and overhead_pct > args.assert_overhead:
        print(
            f"FAIL: telemetry overhead {overhead_pct:.2f}% "
            f"> allowed {args.assert_overhead:.2f}%",
            file=sys.stderr,
        )
        ok = False

    fit = _paired_rounds(
        lambda enabled: _fit_seconds(points, enabled, args.threshold),
        _same_centroids,
        args.repeats,
    )
    report["full_fit"] = {**fit, "byte_identical_centroids": True}
    print(
        f"full fit: off {fit['median_disabled_seconds']:6.2f}s | "
        f"on {fit['median_enabled_seconds']:6.2f}s | "
        f"overhead {fit['overhead_pct']:+.2f}% (centroids byte-identical)"
    )

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
