"""Command-line interface: ``python -m repro <command>``.

Three commands cover the adopt-this-library workflow:

* ``generate`` — write one of the paper's synthetic datasets (or a
  d-dimensional mixture) to CSV with ground-truth labels;
* ``cluster``  — run the four-phase BIRCH pipeline on a CSV of points,
  print the cluster summary, and optionally save labels/result;
* ``compare``  — run BIRCH and CLARANS side by side on a CSV and print
  the Section 6.7-style comparison table;
* ``resume``   — pick up a stream from a crash-safety checkpoint
  (``cluster --checkpoint``), optionally feed it more points, and
  finish Phases 2-3;
* ``inspect``  — print tree-health diagnostics and an ASCII outline
  from a checkpoint or a ``save_tree`` archive, without clustering;
  result, CF and frozen-model files get a one-screen summary;
* ``serve``    — the read path: ``serve compile`` freezes a checkpoint
  or result archive into a sealed mmap-shareable frozen-model artifact,
  ``serve query`` answers a CSV of batch queries from it, and
  ``serve bench`` probes its QPS/latency in-process;
* ``ensemble`` — the order-robust path: ``ensemble fit`` clusters a CSV
  with a forest of K perturbed BIRCH members and CF-level consensus,
  ``ensemble compile`` freezes that consensus straight into a
  frozen-model artifact, and ``ensemble predict`` answers queries from
  a compiled forest artifact.

``cluster`` takes ``--trace PATH`` (append a JSONL telemetry journal)
and ``--metrics PATH`` (write a Prometheus textfile of run counters);
telemetry never changes clustering output.

CSV convention: one point per row, numeric columns only; a trailing
``label`` column is written by ``generate`` and ignored by ``cluster``
unless ``--truth-column`` is given.

Exit codes: 0 success, 2 argparse usage errors, and for operational
failures a stable mapping scripts can branch on — 3 invalid input point
(``InvalidPointError``), 4 unreadable or foreign file for any archive
kind (``ArchiveError``), 5 integrity failure of any archive
(``ChecksumMismatchError``), 6 parallel task unrecoverable
(``WorkerCrashError``; only under ``--escalation raise`` — the default
ladder finishes the task in-process instead).  Exit code 7 is retired
and not reused.  Each prints a one-line message to stderr instead of a
traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.baselines.clarans import CLARANS
from repro.core.birch import Birch
from repro.core.config import BirchConfig
from repro.core.serialization import save_result
from repro.core.evolve import DRIFT_POLICIES
from repro.errors import (
    ArchiveError,
    ChecksumMismatchError,
    InvalidPointError,
    WorkerCrashError,
)
from repro.datagen.generator import InputOrder
from repro.observe import ObserveConfig
from repro.datagen.mixtures import GaussianMixture
from repro.datagen.presets import ds1, ds2, ds3
from repro.evaluation.labels import adjusted_rand_index, purity
from repro.evaluation.quality import (
    cluster_cfs_from_labels,
    weighted_average_diameter,
)
from repro.evaluation.report import format_table
from repro.evaluation.timing import Timer

__all__ = ["build_parser", "main"]

_PRESETS = {"ds1": ds1, "ds2": ds2, "ds3": ds3}

#: Stable operational exit codes (most specific class first).
EXIT_INVALID_POINT = 3
EXIT_ARCHIVE = 4
EXIT_CHECKSUM = 5
EXIT_WORKER_CRASH = 6

_ERROR_EXIT_CODES: list[tuple[type[Exception], int]] = [
    (ChecksumMismatchError, EXIT_CHECKSUM),
    (ArchiveError, EXIT_ARCHIVE),
    (InvalidPointError, EXIT_INVALID_POINT),
    (WorkerCrashError, EXIT_WORKER_CRASH),
]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BIRCH (SIGMOD 1996) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset to CSV")
    gen.add_argument(
        "dataset",
        choices=sorted(_PRESETS) + ["mixture"],
        help="paper preset or a d-dimensional Gaussian mixture",
    )
    gen.add_argument("output", type=Path, help="CSV file to write")
    gen.add_argument("--scale", type=float, default=0.02, help="preset scale (0,1]")
    gen.add_argument("--shuffle", action="store_true", help="randomized input order")
    gen.add_argument("--dimensions", type=int, default=2, help="mixture only")
    gen.add_argument("--components", type=int, default=10, help="mixture only")
    gen.add_argument("--points", type=int, default=100, help="mixture: per component")
    gen.add_argument("--seed", type=int, default=0)

    cluster = sub.add_parser("cluster", help="run BIRCH on a CSV of points")
    cluster.add_argument("input", type=Path, help="CSV with one point per row")
    cluster.add_argument("-k", "--clusters", type=int, required=True)
    cluster.add_argument("--memory-kb", type=int, default=80, help="M in KB")
    cluster.add_argument("--page-size", type=int, default=1024, help="P in bytes")
    cluster.add_argument(
        "--metric", default="d2", choices=["d0", "d1", "d2", "d3", "d4"]
    )
    cluster.add_argument("--passes", type=int, default=1, help="Phase 4 passes")
    cluster.add_argument(
        "--truth-column",
        action="store_true",
        help="treat the last CSV column as ground-truth labels and score",
    )
    cluster.add_argument(
        "--save-labels", type=Path, default=None, help="write labels CSV"
    )
    cluster.add_argument(
        "--save-result", type=Path, default=None, help="write a result archive"
    )
    cluster.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        help="crash-safety checkpoint file, updated during Phase 1",
    )
    cluster.add_argument(
        "--checkpoint-every",
        type=int,
        default=10_000,
        metavar="N",
        help="points between automatic checkpoints (with --checkpoint)",
    )
    cluster.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard count for the Phase 1 scan (shared-memory worker "
        "pool, pairwise CF-additive merge; processes are clamped to "
        "the machine's CPUs; 1 = single-process)",
    )
    cluster.add_argument(
        "--task-retries",
        type=int,
        default=None,
        metavar="N",
        help="extra worker attempts a failed shard/merge task gets "
        "before escalation (with --jobs; default: the ladder's default)",
    )
    cluster.add_argument(
        "--task-seconds",
        type=float,
        default=None,
        metavar="S",
        help="per-task deadline for worker dispatches; a hung worker is "
        "terminated and the task retried (with --jobs)",
    )
    cluster.add_argument(
        "--escalation",
        choices=["serial", "raise"],
        default=None,
        help="what to do with a task that exhausts its retries: finish "
        "it in-process (serial, default) or fail the run (exit code 6)",
    )
    cluster.add_argument(
        "--bad-points",
        choices=["raise", "skip", "quarantine"],
        default="raise",
        help="policy for rows that fail validation (NaN/Inf/bad shape)",
    )
    cluster.add_argument(
        "--supervised",
        action="store_true",
        help="run under the phase supervisor and print its RunReport",
    )
    cluster.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="append a JSONL telemetry journal of the run to PATH",
    )
    cluster.add_argument(
        "--metrics",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a Prometheus textfile of run counters/gauges to PATH",
    )
    cluster.add_argument(
        "--phase-seconds",
        type=float,
        default=None,
        metavar="S",
        help="per-phase wall-clock deadline (with --supervised)",
    )
    cluster.add_argument(
        "--epoch-size",
        type=int,
        default=None,
        metavar="N",
        help="feed the CSV as a stream of N-row epochs (one partial_fit "
        "batch each) instead of a single fit; the logical clock the "
        "flags below run on advances once per epoch",
    )
    cluster.add_argument(
        "--decay-half-life",
        type=float,
        default=None,
        metavar="H",
        help="halve every CF's weight every H epochs (exponential "
        "forgetting; implies streaming ingestion)",
    )
    cluster.add_argument(
        "--epoch-buckets",
        type=int,
        default=None,
        metavar="W",
        help="sliding-window width in epochs; mass older than the "
        "window is retired by CF subtraction",
    )
    cluster.add_argument(
        "--forget-before",
        type=int,
        default=None,
        metavar="E",
        help="after the stream, retire all mass from epochs < E "
        "(needs --epoch-buckets)",
    )
    cluster.add_argument(
        "--drift-policy",
        choices=list(DRIFT_POLICIES),
        default=None,
        help="respond to drift alarms: alarm = report only, auto_decay "
        "= age the clock one extra epoch per alarm (needs "
        "--decay-half-life), recondense = rebuild the tree",
    )

    resume = sub.add_parser(
        "resume", help="continue a stream from a crash-safety checkpoint"
    )
    resume.add_argument("checkpoint", type=Path, help="file written by --checkpoint")
    resume.add_argument(
        "--input",
        type=Path,
        default=None,
        help="CSV of points not yet seen at the checkpoint (optional)",
    )
    resume.add_argument(
        "--save-result", type=Path, default=None, help="write a result archive"
    )

    inspect_cmd = sub.add_parser(
        "inspect",
        help="summarise any archive: tree diagnostics for checkpoints and "
        "tree archives, a summary for result, CF and frozen-model files",
    )
    inspect_cmd.add_argument(
        "archive",
        type=Path,
        help="checkpoint, save_tree/save_result/save_cfs archive or "
        "frozen model",
    )
    inspect_cmd.add_argument(
        "--max-depth",
        type=int,
        default=3,
        metavar="D",
        help="outline depth (levels shown from the root)",
    )
    inspect_cmd.add_argument(
        "--max-children",
        type=int,
        default=4,
        metavar="C",
        help="children shown per node before eliding",
    )

    compare = sub.add_parser("compare", help="BIRCH vs CLARANS on a CSV")
    compare.add_argument("input", type=Path)
    compare.add_argument("-k", "--clusters", type=int, required=True)
    compare.add_argument("--numlocal", type=int, default=2)
    compare.add_argument("--maxneighbor", type=int, default=None)
    compare.add_argument("--seed", type=int, default=0)

    experiment = sub.add_parser(
        "experiment", help="run one of the paper's experiments"
    )
    experiment.add_argument(
        "name",
        choices=["table4", "table5", "order", "compression"],
        help="which experiment to run",
    )
    experiment.add_argument(
        "--scale", type=float, default=0.02, help="dataset scale (0,1]"
    )

    serve = sub.add_parser(
        "serve", help="compile, query and bench a frozen query model"
    )
    serve_sub = serve.add_subparsers(dest="serve_mode", required=True)

    compile_cmd = serve_sub.add_parser(
        "compile",
        help="freeze a checkpoint or result archive into a frozen-model artifact",
    )
    compile_cmd.add_argument(
        "source",
        type=Path,
        help="checkpoint or ``cluster --save-result`` archive",
    )
    compile_cmd.add_argument("output", type=Path, help="artifact file to write")
    compile_cmd.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="append a JSONL telemetry journal of serve.* events to PATH",
    )

    query_cmd = serve_sub.add_parser(
        "query", help="batch-predict a CSV of points from an artifact"
    )
    query_cmd.add_argument("artifact", type=Path, help="frozen-model artifact")
    query_cmd.add_argument("input", type=Path, help="CSV with one point per row")
    query_cmd.add_argument(
        "--out", type=Path, default=None, help="write labels CSV (default stdout summary only)"
    )
    query_cmd.add_argument(
        "--verify",
        action="store_true",
        help="check the artifact's payload sha256 before serving",
    )
    query_cmd.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="append a JSONL telemetry journal of serve.* events to PATH",
    )

    bench_cmd = serve_sub.add_parser(
        "bench", help="probe an artifact's batch-predict QPS in-process"
    )
    bench_cmd.add_argument("artifact", type=Path, help="frozen-model artifact")
    bench_cmd.add_argument(
        "--queries", type=int, default=100_000, help="total synthetic queries"
    )
    bench_cmd.add_argument(
        "--batch-size", type=int, default=4096, help="rows per predict call"
    )
    bench_cmd.add_argument(
        "--repeats", type=int, default=3, help="timed repetitions (best kept)"
    )
    bench_cmd.add_argument("--seed", type=int, default=0)

    ensemble = sub.add_parser(
        "ensemble",
        help="fit, compile and query a BIRCH forest (CF-level consensus)",
    )
    ensemble_sub = ensemble.add_subparsers(dest="ensemble_mode", required=True)

    def _forest_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", type=Path, help="CSV with one point per row")
        p.add_argument("-k", "--clusters", type=int, required=True)
        p.add_argument(
            "--members", type=int, default=8, help="forest size K"
        )
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes for the member fits (never changes "
            "the result; 1 = in-process)",
        )
        p.add_argument("--memory-kb", type=int, default=80, help="per-member M in KB")
        p.add_argument(
            "--no-shuffle",
            action="store_true",
            help="disable the per-member seeded order shuffle",
        )
        p.add_argument(
            "--feature-fraction",
            type=float,
            default=None,
            metavar="F",
            help="fit members 1.. on a seeded F-fraction feature subset "
            "(member 0 keeps all features: it anchors the consensus)",
        )
        p.add_argument(
            "--threshold-jitter",
            type=float,
            default=0.0,
            metavar="J",
            help="scale each member's threshold/expansion by a seeded "
            "factor in [1-J, 1+J]",
        )
        p.add_argument(
            "--consensus", choices=["average", "kmeans"], default="average"
        )
        p.add_argument(
            "--max-anchors",
            type=int,
            default=512,
            metavar="A",
            help="condense the anchor set to at most A CFs before "
            "consensus (exact CF merges)",
        )
        p.add_argument(
            "--trace",
            type=Path,
            default=None,
            metavar="PATH",
            help="append a JSONL telemetry journal of ensemble.* events",
        )

    ens_fit = ensemble_sub.add_parser(
        "fit", help="cluster a CSV with a BIRCH forest"
    )
    _forest_options(ens_fit)
    ens_fit.add_argument(
        "--truth-column",
        action="store_true",
        help="treat the last CSV column as ground-truth labels and score",
    )
    ens_fit.add_argument(
        "--save-labels", type=Path, default=None, help="write labels CSV"
    )
    ens_fit.add_argument(
        "--save-result", type=Path, default=None, help="write a result archive"
    )

    ens_compile = ensemble_sub.add_parser(
        "compile",
        help="fit a forest and freeze the consensus into a frozen-model artifact",
    )
    _forest_options(ens_compile)
    ens_compile.add_argument(
        "output", type=Path, help="artifact file to write"
    )

    ens_predict = ensemble_sub.add_parser(
        "predict", help="batch-predict a CSV from a compiled forest artifact"
    )
    ens_predict.add_argument("artifact", type=Path, help="frozen-model artifact")
    ens_predict.add_argument(
        "input", type=Path, help="CSV with one point per row"
    )
    ens_predict.add_argument(
        "--out", type=Path, default=None, help="write labels CSV"
    )
    ens_predict.add_argument(
        "--verify",
        action="store_true",
        help="check the artifact's payload sha256 before serving",
    )

    return parser


def _nearest_centroid_labels(
    points: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """Assign each point to its closest centroid (shared serving kernel)."""
    from repro.serve.kernel import nearest_centroids

    return nearest_centroids(
        np.ascontiguousarray(points, dtype=np.float64), centroids
    )


def _load_points(
    path: Path, truth_column: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if truth_column:
        if data.shape[1] < 2:
            raise SystemExit("--truth-column needs at least two CSV columns")
        return data[:, :-1], data[:, -1].astype(np.int64)
    return data, None


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "mixture":
        mixture = GaussianMixture(
            n_components=args.components,
            dimensions=args.dimensions,
            points_per_component=args.points,
            seed=args.seed,
        ).generate()
        points, labels = mixture.points, mixture.labels
    else:
        order = InputOrder.RANDOMIZED if args.shuffle else InputOrder.ORDERED
        dataset = _PRESETS[args.dataset](scale=args.scale, order=order)
        points, labels = dataset.points, dataset.labels
    stacked = np.column_stack([points, labels])
    np.savetxt(args.output, stacked, delimiter=",", fmt="%.8g")
    print(
        f"wrote {points.shape[0]} points (d={points.shape[1]}, "
        f"labels in last column) to {args.output}"
    )
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    points, truth = _load_points(args.input, args.truth_column)
    parallel = None
    if (
        args.task_retries is not None
        or args.task_seconds is not None
        or args.escalation is not None
    ):
        from repro.parallel.config import ParallelConfig

        defaults = ParallelConfig()
        parallel = ParallelConfig(
            max_task_retries=(
                args.task_retries
                if args.task_retries is not None
                else defaults.max_task_retries
            ),
            task_deadline_seconds=args.task_seconds,
            escalation=(
                args.escalation
                if args.escalation is not None
                else defaults.escalation
            ),
        )
    evolve_stream = (
        args.epoch_size is not None
        or args.decay_half_life is not None
        or args.epoch_buckets is not None
        or args.drift_policy is not None
    )
    if args.forget_before is not None and args.epoch_buckets is None:
        raise SystemExit("--forget-before needs --epoch-buckets")
    if args.supervised and evolve_stream:
        raise SystemExit(
            "--supervised does not combine with the evolving-stream flags "
            "(--epoch-size/--decay-half-life/--epoch-buckets/--drift-policy)"
        )
    config = BirchConfig(
        n_clusters=args.clusters,
        memory_bytes=args.memory_kb * 1024,
        page_size=args.page_size,
        metric=args.metric,
        phase4_passes=args.passes,
        total_points_hint=points.shape[0],
        decay_half_life=args.decay_half_life,
        epoch_buckets=args.epoch_buckets,
        drift_policy=args.drift_policy,
        checkpoint_path=(
            str(args.checkpoint) if args.checkpoint is not None else None
        ),
        checkpoint_every_points=(
            args.checkpoint_every if args.checkpoint is not None else None
        ),
        bad_point_policy=args.bad_points,
        n_jobs=args.jobs,
        parallel=parallel,
        observe=(
            ObserveConfig(
                trace_path=str(args.trace) if args.trace else None,
                metrics_path=str(args.metrics) if args.metrics else None,
            )
            if args.trace is not None or args.metrics is not None
            else None
        ),
    )
    if args.supervised:
        from repro.guardrails import PhaseBudgets, run_supervised

        if args.jobs > 1 and args.phase_seconds is not None:
            print(
                "warning: deadline-budgeted --supervised scans are "
                "single-process (the chunked scan is the supervision); "
                "--jobs ignored"
            )
        budgets = PhaseBudgets(
            phase1_seconds=args.phase_seconds,
            phase2_seconds=args.phase_seconds,
            phase3_seconds=args.phase_seconds,
            phase4_seconds=args.phase_seconds,
        )
        with Timer() as timer:
            run = run_supervised(points, config, budgets)
        print(run.report.summary())
        if run.result is None:
            print("error: supervised run failed; no result", file=sys.stderr)
            return 1
        result = run.result
    else:
        with Birch(config) as estimator, Timer() as timer:
            if evolve_stream:
                epoch_size = args.epoch_size or points.shape[0]
                if epoch_size < 1:
                    raise SystemExit("--epoch-size must be >= 1")
                for start in range(0, points.shape[0], epoch_size):
                    estimator.partial_fit(points[start : start + epoch_size])
                if args.forget_before is not None:
                    stats = estimator.forget_before(args.forget_before)
                    print(
                        f"forgot {stats['forgotten_points']} points from "
                        f"{stats['buckets_retired']} epoch bucket(s) "
                        f"before epoch {args.forget_before}"
                    )
                result = estimator.finalize()
            else:
                result = estimator.fit(points)
        if evolve_stream:
            parts = [f"epochs={estimator.epoch}"]
            if result.forgotten_points:
                parts.append(f"forgotten={result.forgotten_points}")
            if result.decayed_mass:
                parts.append(f"decayed mass={result.decayed_mass:.1f}")
            if result.drift is not None:
                parts.append(f"drift alarms={result.drift['alarms']}")
            print("evolving stream: " + ", ".join(parts))
    if result.quarantined_points or result.invalid_dropped_points:
        print(
            f"warning: {result.quarantined_points} point(s) quarantined, "
            f"{result.invalid_dropped_points} dropped by validation "
            f"(by reason: {result.invalid_by_reason})"
        )
    if result.memory_degraded:
        print(
            "warning: memory watchdog tripped; run finished in degraded "
            f"mode {result.watchdog.mode!r}"
        )
    if result.parallel_incidents:
        by_kind: dict[str, int] = {}
        for incident in result.parallel_incidents:
            kind = str(incident.get("kind"))
            by_kind[kind] = by_kind.get(kind, 0) + 1
        print(
            "warning: parallel failure ladder engaged ("
            + ", ".join(f"{k}×{n}" for k, n in sorted(by_kind.items()))
            + "); output is byte-identical to a failure-free run"
        )

    live = [cf for cf in result.clusters if cf.n > 0]
    print(
        f"clustered {result.points_fed} points into {len(live)} clusters "
        f"in {timer.elapsed:.2f}s "
        f"({result.rebuilds} rebuilds, final T={result.final_threshold:.4g})"
    )
    t = result.timings
    print(
        f"phase times: p1={t.phase1:.2f}s "
        f"(ingest {t.phase1_ingest:.2f}s, rebuilds {t.phase1_rebuilds:.2f}s) "
        f"p2={t.phase2:.2f}s p3={t.phase3:.2f}s p4={t.phase4:.2f}s"
    )
    print(
        format_table(
            ["cluster", "points", "radius", "diameter"],
            [
                [i, cf.n, cf.radius, cf.diameter]
                for i, cf in enumerate(result.clusters)
                if cf.n > 0
            ],
            float_format="{:.4f}",
        )
    )
    print(f"weighted average diameter D = {weighted_average_diameter(live):.4f}")
    if not args.supervised and result.telemetry is not None:
        # The supervised path already printed these via report.summary().
        for line in result.telemetry.summary_lines():
            print(line)
    if args.trace is not None:
        print(f"telemetry journal appended to {args.trace}")
    if args.metrics is not None:
        print(f"metrics textfile written to {args.metrics}")

    if (
        truth is not None
        and result.labels is not None
        and result.labels.shape[0] == truth.shape[0]
    ):
        print(
            f"vs ground truth: purity={purity(result.labels, truth):.3f} "
            f"ARI={adjusted_rand_index(result.labels, truth):.3f}"
        )
    if args.save_labels is not None:
        labels = (
            result.labels
            if result.labels is not None
            else _nearest_centroid_labels(points, result.centroids)
        )
        np.savetxt(args.save_labels, labels, fmt="%d")
        print(f"labels written to {args.save_labels}")
    if args.save_result is not None:
        save_result(args.save_result, result)
        print(f"result archive written to {args.save_result}")
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    estimator = Birch.resume(args.checkpoint)
    print(
        f"resumed from {args.checkpoint}: {estimator.points_seen} points "
        f"seen, {estimator.rebuilds} rebuilds, "
        f"T={estimator.tree.threshold:.4g}"
    )
    if args.input is not None:
        points, _ = _load_points(args.input, truth_column=False)
        estimator.partial_fit(points)
        print(f"fed {points.shape[0]} more points from {args.input}")
    with Timer() as timer:
        result = estimator.finalize()
    live = [cf for cf in result.clusters if cf.n > 0]
    print(
        f"finished in {timer.elapsed:.2f}s: {len(live)} clusters, "
        f"weighted average diameter D = "
        f"{weighted_average_diameter(live):.4f}"
    )
    if result.outlier_disk_degraded:
        print(
            "warning: outlier disk degraded during the run "
            f"({result.dropped_outlier_points} points dropped)"
        )
    if result.memory_degraded:
        print(
            "warning: memory watchdog tripped; run finished in degraded "
            f"mode {result.watchdog.mode!r}"
        )
    if args.save_result is not None:
        save_result(args.save_result, result)
        print(f"result archive written to {args.save_result}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.core import container
    from repro.core.diagnostics import diagnose, render_outline
    from repro.core.serialization import load_cfs, load_result_arrays, load_tree

    kind = container.sniff(args.archive)
    if kind == "frozen-model":
        header = container.read_header(args.archive)
        meta = header.metadata
        source = meta.get("source", {})
        print(
            f"frozen model {args.archive}: "
            f"{meta.get('n_clusters', '?')} centroids, "
            f"d={meta.get('dimensions', '?')}"
        )
        print(
            f"format v{header.version}, "
            f"payload sha256 {header.payload_sha256[:16]}…"
        )
        origin = source.get("kind", "unknown")
        digest = source.get("sha256")
        if digest:
            print(f"compiled from {origin} (sha256 {digest[:16]}…)")
        else:
            print(f"compiled from {origin}")
        return 0
    if kind == "result":
        clusters, centroids, labels, header = load_result_arrays(args.archive)
        print(
            f"result archive {args.archive}: {len(clusters)} clusters, "
            f"d={centroids.shape[1]}, "
            f"{sum(cf.n for cf in clusters):.0f} points"
            + (f", {labels.shape[0]} labels" if labels is not None else "")
        )
        print(
            f"final T={header['final_threshold']:.4g}, "
            f"{header['rebuilds']} rebuilds"
        )
        return 0
    if kind == "cfs":
        cfs = load_cfs(args.archive)
        print(
            f"CF archive {args.archive}: {len(cfs)} CF entries, "
            f"d={cfs[0].dimensions}, {sum(cf.n for cf in cfs):.0f} points"
        )
        return 0
    if kind == "checkpoint":
        estimator = Birch.resume(args.archive)
        tree = estimator.tree
        print(
            f"checkpoint {args.archive}: {estimator.points_seen} points "
            f"seen, {estimator.rebuilds} rebuilds, "
            f"T={tree.threshold:.4g}"
        )
        if tree.decay_half_life is not None:
            print(
                f"decay: half-life={tree.decay_half_life:g} epochs, "
                f"clock at epoch {tree.decay_clock}"
            )
        buckets = estimator._epoch_buckets
        if buckets is not None and buckets.size:
            epochs = buckets.epochs()
            print(
                f"epoch buckets: {buckets.size} live "
                f"(epochs {epochs[0]}..{epochs[-1]}), "
                f"{buckets.points:.0f} raw points tagged, "
                f"{estimator.points_forgotten} forgotten so far"
            )
    else:
        tree = load_tree(args.archive)
        print(f"tree archive {args.archive}: T={tree.threshold:.4g}")
    for line in diagnose(tree).summary_lines():
        print(line)
    print(render_outline(
        tree, max_depth=args.max_depth, max_children=args.max_children
    ))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    points, _ = _load_points(args.input, truth_column=False)
    k = args.clusters

    with Timer() as birch_timer:
        birch_result = Birch(
            BirchConfig(n_clusters=k, total_points_hint=points.shape[0])
        ).fit(points)
    birch_d = weighted_average_diameter(
        [cf for cf in birch_result.clusters if cf.n > 0]
    )

    with Timer() as clarans_timer:
        clarans_result = CLARANS(
            n_clusters=k,
            numlocal=args.numlocal,
            maxneighbor=args.maxneighbor,
            seed=args.seed,
        ).fit(points)
    clarans_d = weighted_average_diameter(
        [
            cf
            for cf in cluster_cfs_from_labels(points, clarans_result.labels, k)
            if cf.n > 0
        ]
    )

    print(
        format_table(
            ["algorithm", "time (s)", "weighted avg diameter D"],
            [
                ["BIRCH", birch_timer.elapsed, birch_d],
                ["CLARANS", clarans_timer.elapsed, clarans_d],
            ],
        )
    )
    print(f"speedup: {clarans_timer.elapsed / birch_timer.elapsed:.1f}x")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    scale = args.scale
    if args.name == "table4":
        from repro.datagen.presets import ds1o, ds2o, ds3o
        from repro.workloads.base import run_birch

        rows = []
        for maker in (ds1, ds2, ds3, ds1o, ds2o, ds3o):
            dataset = maker(scale=scale)
            record = run_birch(dataset)
            rows.append(
                [
                    record.dataset,
                    record.n_points,
                    record.time_seconds,
                    record.quality_d,
                ]
            )
        print(format_table(["dataset", "N", "time (s)", "D"], rows, title="Table 4"))
        return 0
    if args.name == "table5":
        from repro.workloads.base import run_birch, run_clarans

        rows = []
        for maker in (ds1, ds2, ds3):
            dataset = maker(scale=scale)
            b = run_birch(dataset)
            c = run_clarans(dataset, n_clusters=100)
            rows.append([b.dataset, "birch", b.time_seconds, b.quality_d])
            rows.append([c.dataset, "clarans", c.time_seconds, c.quality_d])
        print(
            format_table(
                ["dataset", "algorithm", "time (s)", "D"], rows, title="Table 5"
            )
        )
        return 0
    if args.name == "order":
        from repro.workloads.order_study import run_order_study

        study = run_order_study(ds1(scale=scale))
        print(
            format_table(
                ["order", "time (s)", "D"],
                [
                    [r.extra["order_mode"], r.time_seconds, r.quality_d]
                    for r in study.records
                ],
                title="Order-sensitivity study (DS1)",
            )
        )
        print(f"quality spread: {study.spread:.1%}")
        return 0
    if args.name == "compression":
        from repro.workloads.compression import compression_sweep

        points = compression_sweep(ds1(scale=scale), [0.0, 0.5, 1.0, 2.0])
        print(
            format_table(
                ["T", "entries", "compression", "distortion", "final D"],
                [
                    [
                        p.threshold,
                        p.entries,
                        p.ratio,
                        p.distortion,
                        p.downstream_quality,
                    ]
                    for p in points
                ],
                title="CF-summary compression trade-off (DS1)",
            )
        )
        return 0
    raise SystemExit(f"unknown experiment {args.name!r}")  # pragma: no cover


def _serve_recorder(trace: Path | None):
    if trace is None:
        from repro.observe import NULL_RECORDER

        return NULL_RECORDER
    from repro.observe import ObserveConfig, build_recorder

    return build_recorder(ObserveConfig(trace_path=str(trace)))


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import FrozenModel, compile_model

    if args.serve_mode == "compile":
        recorder = _serve_recorder(args.trace)
        with Timer() as timer:
            model = compile_model(args.source, recorder=recorder)
            digest = model.save(args.output)
        recorder.close()
        print(
            f"compiled {args.source} -> {args.output} in {timer.elapsed:.2f}s: "
            f"{model.n_clusters} centroids, d={model.dimensions}"
        )
        print(f"payload sha256 {digest}")
        return 0

    if args.serve_mode == "query":
        points, _ = _load_points(args.input, truth_column=False)
        recorder = _serve_recorder(args.trace)
        model = FrozenModel.load(
            args.artifact, verify=args.verify, recorder=recorder
        )
        with Timer() as timer:
            labels = model.predict(points)
        recorder.close()
        qps = points.shape[0] / timer.elapsed if timer.elapsed > 0 else 0.0
        print(
            f"answered {points.shape[0]} queries in {timer.elapsed:.3f}s "
            f"({qps:,.0f} QPS)"
        )
        if args.out is not None:
            np.savetxt(args.out, labels, fmt="%d")
            print(f"labels written to {args.out}")
        else:
            unique, counts = np.unique(labels, return_counts=True)
            top = sorted(zip(counts, unique), reverse=True)[:5]
            print(
                "top clusters: "
                + ", ".join(f"{int(u)}×{int(c)}" for c, u in top)
            )
        return 0

    if args.serve_mode == "bench":
        import time as _time

        model = FrozenModel.load(args.artifact)
        rng = np.random.default_rng(args.seed)
        # Synthetic queries drawn around the model's own centroids: the
        # realistic regime for a serving bench (queries resemble the
        # fitted data).
        picks = rng.integers(model.n_clusters, size=args.queries)
        scale = float(np.median(model.radii)) or 1.0
        queries = np.asarray(model.centroids)[picks] + rng.normal(
            scale=scale, size=(args.queries, model.dimensions)
        )
        best = None
        for _ in range(max(1, args.repeats)):
            start = _time.perf_counter()
            for lo in range(0, args.queries, args.batch_size):
                model.predict(queries[lo : lo + args.batch_size])
            elapsed = _time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        qps = args.queries / best if best and best > 0 else 0.0
        print(
            f"{args.queries} queries, batch={args.batch_size}: "
            f"best {best:.3f}s = {qps:,.0f} QPS "
            f"({model.n_clusters} centroids, d={model.dimensions})"
        )
        return 0

    raise SystemExit(f"unknown serve mode {args.serve_mode!r}")  # pragma: no cover


def _fit_forest(args: argparse.Namespace, points: np.ndarray):
    """Build and fit a :class:`~repro.ensemble.BirchForest` from CLI args."""
    from repro.ensemble import BirchForest, ForestConfig

    base = BirchConfig(
        n_clusters=args.clusters,
        memory_bytes=args.memory_kb * 1024,
        total_points_hint=points.shape[0],
        n_jobs=args.jobs,
        observe=(
            ObserveConfig(trace_path=str(args.trace))
            if args.trace is not None
            else None
        ),
    )
    config = ForestConfig(
        base=base,
        n_members=args.members,
        seed=args.seed,
        shuffle=not args.no_shuffle,
        feature_fraction=args.feature_fraction,
        threshold_jitter=args.threshold_jitter,
        consensus=args.consensus,
        max_anchors=args.max_anchors,
    )
    with BirchForest(config) as forest, Timer() as timer:
        result = forest.fit(points, n_jobs=args.jobs)
    return result, timer.elapsed


def _print_forest_summary(result, elapsed: float) -> None:
    live = [cf for cf in result.clusters if cf.n > 0]
    print(
        f"forest of {result.n_members} members -> {len(live)} consensus "
        f"clusters from {len(result.anchors)} anchors in {elapsed:.2f}s "
        f"({result.consensus} consensus, seed={result.seed})"
    )
    if result.incidents:
        by_kind: dict[str, int] = {}
        for incident in result.incidents:
            kind = str(incident.get("kind"))
            by_kind[kind] = by_kind.get(kind, 0) + 1
        print(
            "warning: parallel failure ladder engaged ("
            + ", ".join(f"{k}×{n}" for k, n in sorted(by_kind.items()))
            + "); output is byte-identical to a failure-free run"
        )
    print(
        format_table(
            ["cluster", "points", "radius", "diameter"],
            [
                [i, cf.n, cf.radius, cf.diameter]
                for i, cf in enumerate(result.clusters)
                if cf.n > 0
            ],
            float_format="{:.4f}",
        )
    )
    print(f"weighted average diameter D = {weighted_average_diameter(live):.4f}")


def _cmd_ensemble(args: argparse.Namespace) -> int:
    if args.ensemble_mode == "fit":
        points, truth = _load_points(args.input, args.truth_column)
        result, elapsed = _fit_forest(args, points)
        _print_forest_summary(result, elapsed)
        if truth is not None and result.labels is not None:
            print(
                f"vs ground truth: "
                f"purity={purity(result.labels, truth):.3f} "
                f"ARI={adjusted_rand_index(result.labels, truth):.3f}"
            )
        if args.save_labels is not None:
            np.savetxt(args.save_labels, result.labels, fmt="%d")
            print(f"labels written to {args.save_labels}")
        if args.save_result is not None:
            save_result(args.save_result, result)
            print(f"result archive written to {args.save_result}")
        return 0

    if args.ensemble_mode == "compile":
        from repro.serve import FrozenModel

        points, _ = _load_points(args.input, truth_column=False)
        result, elapsed = _fit_forest(args, points)
        recorder = _serve_recorder(args.trace)
        model = FrozenModel.from_forest(result, recorder=recorder)
        digest = model.save(args.output)
        recorder.close()
        print(
            f"compiled a {result.n_members}-member forest of "
            f"{args.input} -> {args.output} in {elapsed:.2f}s: "
            f"{model.n_clusters} centroids, d={model.dimensions}"
        )
        print(f"payload sha256 {digest}")
        return 0

    if args.ensemble_mode == "predict":
        from repro.serve import FrozenModel

        points, _ = _load_points(args.input, truth_column=False)
        model = FrozenModel.load(args.artifact, verify=args.verify)
        source = model.metadata.get("source", {})
        with Timer() as timer:
            labels = model.predict(points)
        qps = points.shape[0] / timer.elapsed if timer.elapsed > 0 else 0.0
        print(
            f"answered {points.shape[0]} queries in {timer.elapsed:.3f}s "
            f"({qps:,.0f} QPS, source={source.get('kind', 'unknown')})"
        )
        if args.out is not None:
            np.savetxt(args.out, labels, fmt="%d")
            print(f"labels written to {args.out}")
        else:
            unique, counts = np.unique(labels, return_counts=True)
            top = sorted(zip(counts, unique), reverse=True)[:5]
            print(
                "top clusters: "
                + ", ".join(f"{int(u)}×{int(c)}" for c, u in top)
            )
        return 0

    raise SystemExit(  # pragma: no cover - argparse enforces choices
        f"unknown ensemble mode {args.ensemble_mode!r}"
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    Operational errors print one line to stderr and map to stable exit
    codes (see the module docstring) instead of leaking tracebacks.
    """
    args = build_parser().parse_args(argv)
    commands = {
        "generate": _cmd_generate,
        "cluster": _cmd_cluster,
        "resume": _cmd_resume,
        "inspect": _cmd_inspect,
        "compare": _cmd_compare,
        "experiment": _cmd_experiment,
        "serve": _cmd_serve,
        "ensemble": _cmd_ensemble,
    }
    try:
        command = commands[args.command]
    except KeyError:  # pragma: no cover - argparse enforces choices
        raise SystemExit(f"unknown command {args.command!r}")
    try:
        return command(args)
    except (
        InvalidPointError,
        ArchiveError,
        WorkerCrashError,
    ) as exc:
        for cls, code in _ERROR_EXIT_CODES:
            if isinstance(exc, cls):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise  # pragma: no cover - the table covers every branch


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
