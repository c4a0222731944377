"""Frozen-model serving throughput — QPS and latency vs every baseline.

Fits BIRCH on the paper's DS1 grid (100 clusters, d=2), compiles a
:class:`repro.serve.FrozenModel`, and measures batch nearest-centroid
``predict`` throughput (QPS) plus per-batch latency percentiles
(p50/p95/p99) across batch sizes for four contenders:

* ``legacy_broadcast`` — the pre-PR ``Birch.predict`` loop, copied here
  verbatim: a chunked ``(B, K, d)`` difference-tensor broadcast;
* ``birch_predict``    — the estimator's current predict (the shared
  einsum kernel);
* ``sklearn_birch``    — ``sklearn.cluster.Birch`` batch predict when
  scikit-learn is importable.  **Honesty note:** this container ships
  without scikit-learn and nothing may be installed, so by default the
  entry is a faithful reimplementation of sklearn's predict path —
  a chunked einsum ``pairwise_distances_argmin`` over the fit's *leaf
  subcluster* centroids followed by the ``subcluster -> cluster`` label
  map, exactly the two steps ``sklearn/cluster/_birch.py`` performs.
  The surrogate fit mirrors sklearn's defaults as closely as the
  reproduction allows: a **radius** threshold of 0.5 (sklearn's
  ``threshold=0.5`` bounds subcluster *radius*; the repo default bounds
  diameter) with memory generous enough that no threshold rebuild
  fires, so the subcluster count lands in the regime of
  ``subcluster_centers_``.  ``sklearn_available`` in the JSON records
  which one ran, and the ``--assert-vs-sklearn`` gate is **enforced
  only when the real sklearn ran** — the surrogate shares this repo's
  einsum kernel, so its ratio is pinned near the subcluster/centroid
  FLOP ratio and is reported, not gated on;
* ``frozen_predict``   — ``FrozenModel.predict`` as shipped (the flat
  reduced-panel kernel and the gated contender).

Exactness is asserted, not assumed: every exact contender must produce
byte-identical labels on the full query set before any timing is
recorded (the regression tripwire).  The sklearn-style baseline predicts over a
different granularity (subclusters), so it is scored by adjusted Rand
index against the exact labels instead — raw label equality across two
different fits would compare arbitrary cluster numberings.

Results land in ``BENCH_serve_qps.json``.  Gates:
``--assert-vs-legacy 3.0`` always; ``--assert-vs-sklearn 10.0``
enforced when scikit-learn is importable, recorded otherwise.  Both
compare best-batch-size QPS at the full query count.

Run standalone (this is not a pytest module):

    PYTHONPATH=src python benchmarks/bench_serve_qps.py \
        --queries 100000 --out BENCH_serve_qps.json \
        --assert-vs-legacy 3.0 --assert-vs-sklearn 10.0
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
from repro.core.tree import ThresholdKind
from repro.evaluation.labels import adjusted_rand_index
from repro.datagen.generator import (
    DatasetGenerator,
    GeneratorParams,
    InputOrder,
    Pattern,
)
from repro.serve import FrozenModel
from repro.serve.kernel import nearest_centroids, sq_norms

try:  # pragma: no cover - container has no sklearn; gate, don't require
    from sklearn.cluster import Birch as SKBirch

    SKLEARN_AVAILABLE = True
except ImportError:
    SKBirch = None
    SKLEARN_AVAILABLE = False


def _ds1(scale: float, seed: int) -> np.ndarray:
    per_cluster = max(1, int(round(1000 * scale)))
    params = GeneratorParams(
        pattern=Pattern.GRID,
        n_clusters=100,
        n_low=per_cluster,
        n_high=per_cluster,
        r_low=math.sqrt(2.0),
        r_high=math.sqrt(2.0),
        grid_spacing=4.0,
        order=InputOrder.ORDERED,
        seed=seed,
    )
    return DatasetGenerator().generate(params, name="DS1-serve").points


def _fit(
    points: np.ndarray,
    threshold: float,
    threshold_kind: ThresholdKind = ThresholdKind.DIAMETER,
) -> "Birch":
    config = BirchConfig(
        n_clusters=100,
        memory_bytes=64 * 1024 * 1024,
        initial_threshold=threshold,
        threshold_kind=threshold_kind,
        total_points_hint=points.shape[0],
        phase4_passes=0,
        phase3_algorithm="kmeans",
        validate_points=False,
    )
    estimator = Birch(config)
    estimator.fit(points)
    return estimator


def legacy_broadcast_predict(
    points: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """The pre-PR ``Birch.predict`` body, verbatim — the 3-D broadcast."""
    labels = np.empty(points.shape[0], dtype=np.int64)
    chunk = 8192
    for start in range(0, points.shape[0], chunk):
        block = points[start : start + chunk]
        dist2 = ((block[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels[start : start + chunk] = np.argmin(dist2, axis=1)
    return labels


class SklearnStylePredictor:
    """sklearn ``Birch.predict`` — real, or a faithful reimplementation.

    scikit-learn predicts by ``pairwise_distances_argmin`` over the leaf
    *subcluster* centers and then maps through ``subcluster_labels_``.
    The reimplementation performs exactly those two steps with the same
    einsum distance decomposition sklearn uses, over the reproduction's
    own leaf subclusters from a **radius**-threshold T=0.5 fit —
    sklearn's default ``threshold=0.5`` bounds subcluster radius, not
    diameter, so the surrogate must too or it would predict over
    roughly half as many subclusters as sklearn and flatter the gated
    model.
    """

    def __init__(self, fit_points: np.ndarray):
        if SKLEARN_AVAILABLE:
            self.kind = "sklearn"
            self._model = SKBirch(n_clusters=100).fit(fit_points)
            self.n_subclusters = self._model.subcluster_centers_.shape[0]
        else:
            self.kind = "reimplementation"
            estimator = _fit(
                fit_points,
                threshold=0.5,
                threshold_kind=ThresholdKind.RADIUS,
            )
            result = estimator.result
            self._centers = np.ascontiguousarray(
                np.array([cf.centroid for cf in result.subclusters]),
                dtype=np.float64,
            )
            self._sub_labels = np.ascontiguousarray(
                result.entry_labels, dtype=np.int64
            )
            self.n_subclusters = self._centers.shape[0]
            estimator.close()

    def predict(self, points: np.ndarray) -> np.ndarray:
        if SKLEARN_AVAILABLE:
            return self._model.predict(points)
        nearest = nearest_centroids(points, self._centers)
        return self._sub_labels[nearest]


def _percentiles(latencies: list[float]) -> dict[str, float]:
    arr = np.asarray(latencies, dtype=np.float64) * 1e3  # ms
    return {
        "p50_ms": float(np.percentile(arr, 50)),
        "p95_ms": float(np.percentile(arr, 95)),
        "p99_ms": float(np.percentile(arr, 99)),
    }


def _time_batches(fn, queries: np.ndarray, batch_size: int, repeats: int):
    """Best-of-``repeats`` wall clock over all batches; per-batch latencies."""
    n = queries.shape[0]
    best_total = None
    best_latencies: list[float] = []
    for _ in range(max(1, repeats)):
        latencies = []
        start_all = time.perf_counter()
        for lo in range(0, n, batch_size):
            start = time.perf_counter()
            fn(queries[lo : lo + batch_size])
            latencies.append(time.perf_counter() - start)
        total = time.perf_counter() - start_all
        if best_total is None or total < best_total:
            best_total = total
            best_latencies = latencies
    entry = {
        "seconds": best_total,
        "qps": n / best_total if best_total > 0 else 0.0,
        "batches": len(best_latencies),
    }
    entry.update(_percentiles(best_latencies))
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="DS1 fit-set scale; 1.0 = 100,000 fit points (default 1.0)",
    )
    parser.add_argument(
        "--queries", type=int, default=100_000,
        help="query count per contender (default 100,000)",
    )
    parser.add_argument(
        "--batch-sizes", type=int, nargs="*",
        default=[256, 1024, 4096, 16384],
        help="batch sizes to sweep (default 256 1024 4096 16384)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed repeats per (contender, batch size); best kept",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_serve_qps.json"),
        help="JSON output path",
    )
    parser.add_argument(
        "--assert-vs-legacy", type=float, default=None, metavar="X",
        help="fail unless frozen_predict best QPS >= X * legacy best QPS",
    )
    parser.add_argument(
        "--assert-vs-sklearn", type=float, default=None, metavar="X",
        help="fail unless frozen_predict best QPS >= X * sklearn Birch "
        "best QPS; enforced only when the real scikit-learn is "
        "importable (the in-repo surrogate shares the frozen kernel, "
        "so its ratio is recorded, not gated on)",
    )
    args = parser.parse_args(argv)

    fit_points = _ds1(args.scale, args.seed)
    n_fit, d = fit_points.shape
    print(f"DS1 fit set: N={n_fit} d={d}; queries={args.queries}")

    estimator = _fit(fit_points, threshold=1.5)
    result = estimator.result
    centroids = np.ascontiguousarray(result.centroids, dtype=np.float64)
    frozen = FrozenModel.from_result(result)
    artifact = args.out.with_suffix(".frz.tmp")
    frozen.save(artifact)
    frozen = FrozenModel.load(artifact)  # measure the mmap'd form we ship
    sk = SklearnStylePredictor(fit_points)
    print(
        f"model: K={frozen.n_clusters}; "
        f"sklearn baseline: {sk.kind} over {sk.n_subclusters} subclusters"
    )

    rng = np.random.default_rng(args.seed)
    picks = rng.integers(frozen.n_clusters, size=args.queries)
    queries = np.asarray(frozen.centroids)[picks] + rng.normal(
        scale=float(np.median(frozen.radii)) or 1.0,
        size=(args.queries, d),
    )

    # Exactness tripwire before any timing: every exact contender must
    # emit byte-identical labels on the full query set.  (The
    # sklearn-style baseline predicts via a different fit's subclusters
    # under its own arbitrary numbering, so it is scored by ARI against
    # the exact labels, not raw equality.)
    ref = legacy_broadcast_predict(queries, centroids)
    contenders = {
        "birch_predict": estimator.predict(queries),
        "frozen_predict": frozen.predict(queries),
    }
    for name, labels in contenders.items():
        if not np.array_equal(labels, ref):
            print(f"FAIL: {name} labels diverge from brute force", file=sys.stderr)
            return 1
    sk_ari = adjusted_rand_index(sk.predict(queries), ref)
    print(
        f"labels byte-identical across all exact paths; "
        f"sklearn-style ARI vs exact {sk_ari:.4f}"
    )

    timed = {
        "legacy_broadcast": lambda q: legacy_broadcast_predict(q, centroids),
        "birch_predict": estimator.predict,
        "sklearn_birch": sk.predict,
        "frozen_predict": frozen.predict,
    }

    runs: dict[str, dict] = {}
    best_qps: dict[str, float] = {}
    for name, fn in timed.items():
        runs[name] = {}
        for batch in args.batch_sizes:
            entry = _time_batches(fn, queries, batch, args.repeats)
            runs[name][f"batch_{batch}"] = entry
            best_qps[name] = max(best_qps.get(name, 0.0), entry["qps"])
            print(
                f"{name:>16} batch={batch:>6}: {entry['qps']:>12,.0f} QPS  "
                f"p50={entry['p50_ms']:.3f}ms p95={entry['p95_ms']:.3f}ms "
                f"p99={entry['p99_ms']:.3f}ms"
            )

    vs_legacy = best_qps["frozen_predict"] / best_qps["legacy_broadcast"]
    vs_sklearn = best_qps["frozen_predict"] / best_qps["sklearn_birch"]
    print(
        f"frozen_predict best: {best_qps['frozen_predict']:,.0f} QPS = "
        f"{vs_legacy:.1f}x legacy broadcast, {vs_sklearn:.1f}x "
        f"{sk.kind} sklearn baseline"
    )

    report = {
        "dataset": {
            "preset": "ds1",
            "scale": args.scale,
            "seed": args.seed,
            "n_fit": n_fit,
            "d": d,
            "n_queries": args.queries,
        },
        "model": {"n_clusters": frozen.n_clusters},
        "sklearn_available": SKLEARN_AVAILABLE,
        "sklearn_baseline": {
            "kind": sk.kind,
            "n_subclusters": sk.n_subclusters,
            "ari_vs_exact": sk_ari,
        },
        "labels_byte_identical": True,
        "cpu_count": os.cpu_count() or 1,
        "runs": runs,
        "best_qps": best_qps,
        "speedup_vs_legacy_broadcast": vs_legacy,
        "speedup_vs_sklearn_baseline": vs_sklearn,
        "sklearn_gate_enforced": SKLEARN_AVAILABLE,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "note": (
            "labels_byte_identical covers legacy_broadcast, birch_predict "
            "and frozen_predict on the full query set. "
            "sklearn_birch is the real estimator when sklearn_available, "
            "else a faithful reimplementation of its predict path "
            "(einsum pairwise_distances_argmin over leaf subcluster "
            "centers of a radius-0.5 fit + label map); it clusters at a "
            "different granularity, so ARI against the exact labels is "
            "recorded, not asserted.  The 10x-vs-sklearn gate is "
            "enforced only when the real scikit-learn ran: the "
            "surrogate shares the frozen model's own kernel, which pins "
            "its ratio near the subcluster/centroid FLOP ratio and says "
            "nothing about sklearn's actual predict stack."
        ),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    artifact.unlink(missing_ok=True)
    estimator.close()

    ok = True
    if args.assert_vs_legacy is not None and vs_legacy < args.assert_vs_legacy:
        print(
            f"FAIL: frozen_predict {vs_legacy:.2f}x legacy < required "
            f"{args.assert_vs_legacy:.2f}x",
            file=sys.stderr,
        )
        ok = False
    if args.assert_vs_sklearn is not None:
        if not SKLEARN_AVAILABLE:
            print(
                f"SKIP: --assert-vs-sklearn {args.assert_vs_sklearn:.2f} "
                f"not enforced — scikit-learn is not importable here; "
                f"the in-repo surrogate ratio ({vs_sklearn:.2f}x over "
                f"{sk.n_subclusters} subclusters) is recorded in the "
                f"JSON instead"
            )
        elif vs_sklearn < args.assert_vs_sklearn:
            print(
                f"FAIL: frozen_predict {vs_sklearn:.2f}x sklearn < "
                f"required {args.assert_vs_sklearn:.2f}x",
                file=sys.stderr,
            )
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
