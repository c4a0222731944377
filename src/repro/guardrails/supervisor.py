"""Supervised execution of the four-phase pipeline (graceful degradation).

:func:`run_supervised` is the robustness counterpart of
:meth:`repro.core.birch.Birch.fit`: the estimator's own Phase 1 scan,
phase timer and result builder, in the same order — byte-identical
output on clean data when no budget trips — but each phase runs under
an optional wall-clock deadline and iteration budget, and a budget
violation *degrades* the run instead of aborting it:

* **Phase 1** (scan): with a deadline, the batch is fed in chunks and
  the scan stops at the deadline; rows never fed are reported (they are
  not "fed" in the conservation ledger, so accounting stays exact).
  A memory-watchdog trip or any validation rejections mark the phase
  ``degraded``.
* **Phase 2** (condense): a condense that cannot meet the Phase 3 input
  budget within its rebuild cap is reported ``degraded`` and the run
  continues with the larger tree (Phase 3 gets slower, not wrong).
* **Phase 3** (global clustering): the hierarchical algorithm runs
  under the deadline; on :class:`~repro.errors.PhaseTimeoutError` or a
  numerical singularity it **falls back to CF-k-means** over the same
  leaf entries (status ``fallback``).
* **Phase 4** (refinement): capped by ``phase4_max_passes`` and the
  deadline; non-convergence is *reported, never raised*.

Every phase lands in a :class:`PhaseOutcome` inside a structured
:class:`RunReport`; a phase that fails outright (its error *and* its
fallback are exhausted) is recorded ``failed`` with the error message,
later phases are not attempted, and the report is still returned —
supervision means the caller always gets an explanation, not a
traceback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.birch import Birch, BirchResult, PhaseTimings
from repro.core.config import BirchConfig
from repro.core.global_clustering import CFKMeans
from repro.errors import PhaseError, PhaseTimeoutError, ReproError
from repro.observe import TelemetrySnapshot
from repro.pagestore.faults import FaultInjector
from repro.parallel.chaos import ChaosInjector

__all__ = [
    "PHASE_STATUSES",
    "PhaseBudgets",
    "PhaseOutcome",
    "RunReport",
    "SupervisedRun",
    "run_supervised",
]

#: Per-phase verdicts, in increasing severity.
PHASE_STATUSES = ("ok", "fallback", "degraded", "failed")

_SEVERITY = {status: i for i, status in enumerate(PHASE_STATUSES)}


@dataclass
class PhaseBudgets:
    """Wall-clock and iteration budgets for a supervised run.

    All fields default to ``None`` (unbudgeted); an unbudgeted
    supervised run over clean data is byte-identical to plain ``fit``.

    Attributes
    ----------
    phase1_seconds:
        Scan deadline.  When exceeded, the remaining rows are not fed
        (counted in the report, excluded from the conservation ledger).
    phase2_seconds:
        Condense budget; exceeding it (or the condense rebuild cap)
        degrades the phase but never aborts the run.
    phase3_seconds:
        Global-clustering deadline for the hierarchical algorithm; on
        timeout the supervisor falls back to CF-k-means.
    phase4_seconds:
        Refinement deadline, checked between passes.
    phase4_max_passes:
        Hard cap on refinement passes (min with the config's
        ``phase4_passes``).
    parallel_task_seconds:
        Per-task wall-clock ceiling for the sharded Phase 1 build's
        worker dispatches (shard builds and merge-pair rounds).  A
        worker holding one task longer is declared hung and the task
        walks the parallel degradation ladder (retry → respawn →
        serial; see :class:`repro.parallel.config.ParallelConfig`)
        instead of stalling the whole dispatch.  Overrides
        ``config.parallel.task_deadline_seconds`` for the run.
    """

    phase1_seconds: Optional[float] = None
    phase2_seconds: Optional[float] = None
    phase3_seconds: Optional[float] = None
    phase4_seconds: Optional[float] = None
    phase4_max_passes: Optional[int] = None
    parallel_task_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        for name in (
            "phase1_seconds",
            "phase2_seconds",
            "phase3_seconds",
            "phase4_seconds",
            "parallel_task_seconds",
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.phase4_max_passes is not None and self.phase4_max_passes < 0:
            raise ValueError(
                f"phase4_max_passes must be >= 0, got {self.phase4_max_passes}"
            )


@dataclass
class PhaseOutcome:
    """How one phase ended.

    Attributes
    ----------
    phase:
        ``"phase1"`` .. ``"phase4"``.
    status:
        One of :data:`PHASE_STATUSES`.
    seconds:
        Wall-clock time the phase consumed.
    notes:
        Human-readable explanations of anything non-nominal (budget
        trips, fallbacks taken, counts of affected rows).
    error:
        The triggering error message for ``fallback``/``failed``.
    """

    phase: str
    status: str = "ok"
    seconds: float = 0.0
    notes: list[str] = field(default_factory=list)
    error: Optional[str] = None

    def degrade(self, status: str, note: str) -> None:
        """Raise the outcome's severity to at least ``status``."""
        if _SEVERITY[status] > _SEVERITY[self.status]:
            self.status = status
        self.notes.append(note)


@dataclass
class RunReport:
    """Structured account of a supervised run.

    Attributes
    ----------
    phases:
        One :class:`PhaseOutcome` per phase attempted, in order.
    points_fed / rows_not_fed:
        Conservation boundary: points that entered the ledger, and raw
        rows the Phase 1 deadline cut off before they were fed.
    quarantined_points / invalid_dropped_points / outlier_points:
        The non-clustered buckets of the ledger (see
        :meth:`repro.core.birch.BirchResult.accounting`).
    forgotten_points / decayed_mass / drift:
        Evolving-stream columns: raw points retired by sliding-window
        forgetting, mass evaporated by the decay clock (reported
        outside the integer ledger), and the drift-monitor summary
        (``None`` when drift detection is off).
    memory_degraded:
        True when the memory watchdog tripped during the scan.
    conservation_ok:
        The ledger identity, verified on the finished result.
    phase1_ingest_seconds / phase1_rebuild_seconds:
        Phase 1 split into the raw insertion scan and the
        threshold-increase rebuilds it triggered (together they are the
        in-scan part of the phase1 outcome's ``seconds``).
    telemetry:
        Frozen :class:`~repro.observe.TelemetrySnapshot` of the run's
        recorder; ``None`` when telemetry is disabled.
    """

    phases: list[PhaseOutcome] = field(default_factory=list)
    points_fed: int = 0
    rows_not_fed: int = 0
    quarantined_points: int = 0
    invalid_dropped_points: int = 0
    outlier_points: int = 0
    forgotten_points: int = 0
    decayed_mass: float = 0.0
    drift: Optional[dict] = None
    memory_degraded: bool = False
    conservation_ok: bool = True
    phase1_ingest_seconds: float = 0.0
    phase1_rebuild_seconds: float = 0.0
    telemetry: Optional[TelemetrySnapshot] = field(default=None, repr=False)

    @property
    def status(self) -> str:
        """Worst phase status (``"ok"`` when every phase was nominal)."""
        if not self.phases:
            return "failed"
        return max(
            (outcome.status for outcome in self.phases),
            key=lambda s: _SEVERITY[s],
        )

    @property
    def ok(self) -> bool:
        """True when the run produced a result (possibly degraded)."""
        return self.status != "failed"

    def phase(self, name: str) -> PhaseOutcome:
        """Look up one phase's outcome by name (``"phase3"`` etc.)."""
        for outcome in self.phases:
            if outcome.phase == name:
                return outcome
        raise KeyError(f"no outcome recorded for {name!r}")

    def summary(self) -> str:
        """One line per phase, for logs and the CLI."""
        lines = [f"run status: {self.status}"]
        for outcome in self.phases:
            line = f"  {outcome.phase}: {outcome.status} ({outcome.seconds:.3f}s)"
            if outcome.phase == "phase1" and (
                self.phase1_ingest_seconds or self.phase1_rebuild_seconds
            ):
                line += (
                    f" [ingest {self.phase1_ingest_seconds:.3f}s, "
                    f"rebuilds {self.phase1_rebuild_seconds:.3f}s]"
                )
            for note in outcome.notes:
                line += f"\n    - {note}"
            lines.append(line)
        lines.append(
            f"  ledger: fed={self.points_fed} outliers={self.outlier_points} "
            f"quarantined={self.quarantined_points} "
            f"dropped={self.invalid_dropped_points} "
            f"forgotten={self.forgotten_points} "
            f"conservation={'ok' if self.conservation_ok else 'VIOLATED'}"
        )
        if self.decayed_mass:
            lines.append(f"  decayed mass: {self.decayed_mass:.3f}")
        if self.drift is not None:
            lines.append(
                f"  drift: {self.drift.get('alarms', 0)} alarm(s), "
                f"last at epoch {self.drift.get('last_alarm_epoch')}"
            )
        if self.telemetry is not None:
            lines.extend(f"  {l}" for l in self.telemetry.summary_lines())
        return "\n".join(lines)


@dataclass
class SupervisedRun:
    """What :func:`run_supervised` hands back.

    ``result`` is ``None`` only when a phase failed outright — the
    ``report`` then says which one and why.
    """

    report: RunReport
    result: Optional[BirchResult]


def _deadline(budget: Optional[float]) -> Optional[float]:
    """Convert a seconds budget into a ``time.monotonic`` instant."""
    if budget is None:
        return None
    return time.monotonic() + budget


def run_supervised(
    points: np.ndarray,
    config: BirchConfig,
    budgets: Optional[PhaseBudgets] = None,
    *,
    outlier_injector: Optional[FaultInjector] = None,
    quarantine_injector: Optional[FaultInjector] = None,
    chaos_injector: Optional[ChaosInjector] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> SupervisedRun:
    """Run the four phases under supervision; never raise for budgets.

    Parameters
    ----------
    points:
        The dataset, as it would be passed to ``fit`` — including
        poisoned rows when the config's ``bad_point_policy`` handles
        them.
    config:
        The pipeline configuration (validation, watchdog and quarantine
        knobs included).
    budgets:
        Per-phase deadlines and caps; ``None`` runs unbudgeted (and
        byte-identical to ``fit`` on clean data).
    outlier_injector / quarantine_injector / chaos_injector / sleep:
        Fault-injection and backoff hooks, forwarded to
        :class:`~repro.core.birch.Birch` (``chaos_injector`` sabotages
        the sharded build's worker tasks; see
        :class:`repro.parallel.chaos.ChaosInjector`).

    Returns
    -------
    SupervisedRun
        The structured report plus the result (``None`` on a failed
        phase).  Configuration errors (bad shapes, bad weights) are not
        supervised faults and still raise ``ValueError``.
    """
    if budgets is None:
        budgets = PhaseBudgets()
    birch = Birch(
        config,
        outlier_injector=outlier_injector,
        quarantine_injector=quarantine_injector,
        chaos_injector=chaos_injector,
        sleep=sleep,
    )
    # Hung-worker detection for the sharded build: the per-task ceiling
    # rides into every pool dispatch of this run.
    birch._task_deadline_override = budgets.parallel_task_seconds
    report = RunReport()
    timings = PhaseTimings()
    rec = birch._recorder

    def note_phase(outcome: PhaseOutcome, budget: Optional[float]) -> None:
        # One supervisor.phase event per attempted phase, budget included
        # so the journal shows how much of it the phase consumed.
        outcome.seconds = getattr(timings, outcome.phase)
        if rec.enabled:
            rec.event(
                "supervisor.phase",
                phase=outcome.phase,
                status=outcome.status,
                seconds=outcome.seconds,
                budget=budget,
            )

    def fail(
        outcome: PhaseOutcome, budget: Optional[float], error: str
    ) -> SupervisedRun:
        outcome.status = "failed"
        outcome.error = error
        note_phase(outcome, budget)
        _fill_accounting(report, birch)
        birch.close()
        return SupervisedRun(report=report, result=None)

    if rec.enabled:
        rec.event("run.start", mode="supervised", n_jobs=config.n_jobs)

    # ---- Phase 1: screened scan under an optional deadline -------------
    outcome = PhaseOutcome(phase="phase1")
    report.phases.append(outcome)
    try:
        with birch._phase(timings, "phase1"):
            clean, outliers, report.rows_not_fed = birch._scan(
                points,
                n_jobs=config.n_jobs,
                deadline=_deadline(budgets.phase1_seconds),
            )
    except (ReproError, ValueError) as exc:
        _note_parallel_incidents(outcome, birch)
        return fail(outcome, budgets.phase1_seconds, str(exc))
    _note_parallel_incidents(outcome, birch)
    if report.rows_not_fed:
        outcome.degrade(
            "degraded",
            f"scan deadline hit: {report.rows_not_fed} of "
            f"{len(points)} rows not fed",
        )
    validator_stats = birch._validator.stats
    if validator_stats.total_points:
        outcome.degrade(
            "degraded",
            f"{validator_stats.total_points} invalid point(s) "
            f"{'quarantined/dropped' if config.bad_point_policy == 'quarantine' else 'dropped'} "
            f"(by reason: "
            f"{ {r: n for r, n in validator_stats.points_by_reason.items() if n} })",
        )
    if birch._watchdog is not None and birch._watchdog.degraded:
        wd = birch._watchdog.report()
        outcome.degrade(
            "degraded",
            f"memory watchdog tripped after {wd.escalation_limit} "
            f"ineffective rebuilds; degraded mode {wd.mode!r} "
            f"({wd.coarsen_rebuilds} forced coarsen rebuild(s))",
        )
    note_phase(outcome, budgets.phase1_seconds)

    # ---- Phase 2: condense (budget trips degrade, never abort) ---------
    outcome = PhaseOutcome(phase="phase2")
    report.phases.append(outcome)
    with birch._phase(timings, "phase2"):
        try:
            birch._phase2_condense()
        except PhaseError as exc:
            outcome.degrade(
                "degraded",
                f"condense gave up before meeting the Phase 3 input budget: {exc}",
            )
    if (
        budgets.phase2_seconds is not None
        and timings.phase2 > budgets.phase2_seconds
    ):
        outcome.degrade(
            "degraded",
            f"condense took {timings.phase2:.3f}s "
            f"(budget {budgets.phase2_seconds:.3f}s)",
        )
    note_phase(outcome, budgets.phase2_seconds)

    # ---- Phase 3: global clustering with CF-k-means fallback -----------
    outcome = PhaseOutcome(phase="phase3")
    report.phases.append(outcome)
    try:
        with birch._phase(timings, "phase3"):
            try:
                global_result = birch._phase3_cluster(
                    deadline=_deadline(budgets.phase3_seconds)
                )
            except (PhaseTimeoutError, FloatingPointError, ZeroDivisionError,
                    np.linalg.LinAlgError) as exc:
                outcome.status = "fallback"
                outcome.error = str(exc)
                outcome.notes.append(
                    f"{config.phase3_algorithm!r} did not finish "
                    f"({type(exc).__name__}); fell back to CF-k-means"
                )
                global_result = CFKMeans(
                    n_clusters=config.n_clusters, seed=config.random_seed
                ).fit(birch.tree.leaf_entries())
    except (ReproError, ValueError) as exc:
        error = (
            str(exc)
            if outcome.error is None
            else f"{outcome.error}; fallback also failed: {exc}"
        )
        return fail(outcome, budgets.phase3_seconds, error)
    note_phase(outcome, budgets.phase3_seconds)

    # ---- Phase 4: capped refinement (non-convergence is reported) ------
    outcome = PhaseOutcome(phase="phase4")
    report.phases.append(outcome)
    refinement = birch._phase4_refine(
        timings,
        clean,
        global_result.centroids,
        max_passes=budgets.phase4_max_passes,
        deadline=_deadline(budgets.phase4_seconds),
    )
    if refinement is not None:
        if refinement.deadline_hit:
            outcome.degrade(
                "degraded",
                f"refinement deadline hit after {refinement.passes_run} "
                f"pass(es); labels are from the last completed pass",
            )
        elif not refinement.converged:
            outcome.notes.append(
                f"refinement did not converge within "
                f"{refinement.passes_run} pass(es) (reported, not raised)"
            )
    note_phase(outcome, budgets.phase4_seconds)

    result = birch._package_result(
        timings, global_result, outliers, refinement, mode="supervised"
    )
    _fill_accounting(report, birch, result)
    birch.close()
    return SupervisedRun(report=report, result=result)


def _note_parallel_incidents(outcome: PhaseOutcome, birch: Birch) -> None:
    """Summarise the sharded build's failure-ladder incidents, if any.

    Survived worker failures do not degrade the phase — the recovered
    result is byte-identical to the failure-free run — but they belong
    in the report so an operator can see the fleet is unhealthy.
    """
    incidents = birch._parallel_incidents
    if not incidents:
        return
    by_kind: dict[str, int] = {}
    for incident in incidents:
        kind = str(incident.get("kind"))
        by_kind[kind] = by_kind.get(kind, 0) + 1
    outcome.degrade(
        "ok",
        "parallel failure ladder engaged ("
        + ", ".join(f"{k}×{n}" for k, n in sorted(by_kind.items()))
        + "); recovered output is byte-identical to a failure-free run",
    )


def _fill_accounting(
    report: RunReport,
    birch: Birch,
    result: Optional[BirchResult] = None,
) -> None:
    """Copy the conservation ledger into the report."""
    report.points_fed = birch._points_fed
    report.phase1_ingest_seconds = birch._ingest_seconds
    report.phase1_rebuild_seconds = birch._rebuild_seconds
    if birch._recorder.enabled:
        # Prefer the result's frozen snapshot (taken after the final
        # gauges); on a failed run freeze whatever was recorded so far.
        report.telemetry = (
            result.telemetry
            if result is not None and result.telemetry is not None
            else birch._recorder.snapshot()
        )
    if result is not None:
        ledger = result.accounting()
        report.quarantined_points = ledger["quarantined"]
        report.invalid_dropped_points = result.invalid_dropped_points
        report.outlier_points = ledger["outliers"]
        report.forgotten_points = ledger["forgotten"]
        report.decayed_mass = result.decayed_mass
        report.drift = result.drift
        report.memory_degraded = result.memory_degraded
        report.conservation_ok = result.conservation_ok
    else:
        # A failed run has no result: read the same figures a result
        # would have been built from.
        fields = birch._robustness_accounting()
        report.quarantined_points = fields.get("quarantined_points", 0)  # type: ignore[assignment]
        report.invalid_dropped_points = fields["invalid_dropped_points"]  # type: ignore[assignment]
        report.memory_degraded = fields.get("memory_degraded", False)  # type: ignore[assignment]
