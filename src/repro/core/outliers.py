"""Outlier handling for Phase 1 (Section 5.1.4), with self-healing I/O.

With the outlier-handling option on, a rebuild treats low-density leaf
entries — entries with "far fewer data points than the average" — as
*potential outliers* and writes them to (simulated) disk instead of
reinserting them.  Potential outliers are periodically, and finally at
the end of the scan, re-examined: if the grown threshold lets one be
absorbed into the tree without splitting, it was merely an artifact of
the insertion order and returns to the tree; otherwise it stays an
outlier.  Total disk use is bounded by ``R`` bytes; running out of disk
triggers an early re-absorption cycle.

Fault tolerance
---------------
The outlier disk is the one component of Phase 1 that performs I/O
mid-scan, so it is where storage faults hit a long-running ingest.  The
handler heals what it can and degrades gracefully otherwise:

* **Transient faults** (:class:`~repro.errors.TransientIOError`) are
  retried with bounded exponential backoff.
* **Permanent faults** (:class:`~repro.errors.PermanentIOError`, or a
  transient fault that survives every retry) switch the handler into a
  *degraded* mode governed by ``fault_policy``:

  - ``"raise"`` — propagate the error (default; crash-consistent);
  - ``"reabsorb"`` — force the affected entries back into the CF-tree,
    the degraded analogue of the paper's out-of-disk re-absorption
    trigger (the tree grows, but no data is lost);
  - ``"drop"`` — discard them, counting dropped entries and raw points
    so the driver can report the loss in its result.

Once degraded, the disk is never written again; entries that would have
spilled follow the policy directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.features import StableCF
from repro.core.tree import CFTree
from repro.errors import PermanentIOError, TransientIOError
from repro.observe.recorder import NULL_RECORDER, Recorder
from repro.pagestore.disk import DiskFullError, DiskStore
from repro.pagestore.faults import retry_io

__all__ = ["OutlierHandler", "OutlierStats"]

_FAULT_POLICIES = ("raise", "reabsorb", "drop")


@dataclass
class OutlierStats:
    """Lifetime counters of the outlier-handling option.

    ``dropped_entries``/``dropped_points`` count data discarded under
    the ``"drop"`` fault policy; ``forced_reabsorbed`` counts entries
    pushed back into the tree under ``"reabsorb"`` after a fault;
    ``transient_retries`` counts healed (retried) transient faults.
    """

    spilled: int = 0
    reabsorbed: int = 0
    rejected_spills: int = 0
    reabsorption_cycles: int = 0
    dropped_entries: int = 0
    dropped_points: int = 0
    forced_reabsorbed: int = 0
    transient_retries: int = 0

    def state_dict(self) -> dict[str, int]:
        """Counters as a plain dict, for checkpointing."""
        return {
            "spilled": self.spilled,
            "reabsorbed": self.reabsorbed,
            "rejected_spills": self.rejected_spills,
            "reabsorption_cycles": self.reabsorption_cycles,
            "dropped_entries": self.dropped_entries,
            "dropped_points": self.dropped_points,
            "forced_reabsorbed": self.forced_reabsorbed,
            "transient_retries": self.transient_retries,
        }

    def load_state(self, state: dict[str, int]) -> None:
        """Restore counters saved by :meth:`state_dict`."""
        for key, value in state.items():
            setattr(self, key, int(value))


class OutlierHandler:
    """Spill-and-reabsorb manager over a bounded :class:`DiskStore`.

    Parameters
    ----------
    disk:
        Simulated disk holding potential-outlier leaf entries (possibly
        a :class:`~repro.pagestore.faults.FaultyDiskStore`).
    fraction:
        An entry is a potential outlier when its point count is below
        ``fraction * mean_entry_points``.  The paper leaves the exact
        rule open ("far fewer ... than the average"); 0.25 is our
        default and is swept in the sensitivity benchmarks.
    fault_policy:
        Degradation policy for permanent disk faults: ``"raise"``,
        ``"reabsorb"`` or ``"drop"`` (see the module docstring).
    retry_attempts / retry_base_delay / sleep:
        Bounded-backoff parameters for transient faults, passed to
        :func:`~repro.pagestore.faults.retry_io`; ``sleep`` is an
        injection point for tests.
    """

    def __init__(
        self,
        disk: DiskStore[StableCF],
        fraction: float = 0.25,
        *,
        fault_policy: str = "raise",
        retry_attempts: int = 4,
        retry_base_delay: float = 0.01,
        sleep: Callable[[float], None] = time.sleep,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        if fault_policy not in _FAULT_POLICIES:
            raise ValueError(
                f"fault_policy must be one of {_FAULT_POLICIES}, "
                f"got {fault_policy!r}"
            )
        self.disk = disk
        self.fraction = fraction
        self.fault_policy = fault_policy
        self.retry_attempts = retry_attempts
        self.retry_base_delay = retry_base_delay
        self._sleep = sleep
        self.recorder = recorder
        self.stats = OutlierStats()
        self._degraded = False

    @property
    def degraded(self) -> bool:
        """True once a permanent fault has taken the disk out of service."""
        return self._degraded

    # -- classification -----------------------------------------------------

    def is_potential_outlier(self, cf: StableCF, mean_entry_points: float) -> bool:
        """The "far fewer points than average" rule.

        Entries of a single point never dominate the mean, so the rule
        only fires once the tree has formed real subclusters
        (``mean_entry_points > 1``).
        """
        return bool(self.potential_outliers(cf.n, mean_entry_points))

    def potential_outliers(
        self, ns: np.ndarray, mean_entry_points: float
    ) -> np.ndarray:
        """:meth:`is_potential_outlier` over an array of entry counts."""
        return (ns < self.fraction * mean_entry_points) & (mean_entry_points > 1.0)

    # -- fault plumbing -----------------------------------------------------

    def _retry(self, operation: Callable[[], object]) -> object:
        def note_retry(_attempt: int, _exc: TransientIOError) -> None:
            self.stats.transient_retries += 1
            self.recorder.count("io.retries")

        return retry_io(
            operation,
            attempts=self.retry_attempts,
            base_delay=self.retry_base_delay,
            sleep=self._sleep,
            on_retry=note_retry,
        )

    def _mark_degraded(self, where: str) -> None:
        self._degraded = True
        if self.recorder.enabled:
            self.recorder.event(
                "outlier_disk.degraded",
                policy=self.fault_policy,
                during=where,
            )

    def _drop(self, entries: list[StableCF]) -> None:
        self.stats.dropped_entries += len(entries)
        self.stats.dropped_points += sum(cf.n for cf in entries)
        if self.recorder.enabled and entries:
            self.recorder.count(
                "outlier.dropped_points", sum(cf.n for cf in entries)
            )

    # -- spilling -------------------------------------------------------------

    def spill(self, cf: StableCF) -> bool:
        """Write a potential outlier to disk; False if the caller keeps it.

        Returns True when the entry is off the caller's hands (stored,
        or dropped-with-accounting under the ``"drop"`` policy); False
        when the caller must keep it in the tree (disk full, or the
        ``"reabsorb"`` degradation policy).  Under the ``"raise"``
        policy, an unhealed fault propagates.
        """
        if self._degraded:
            if self.fault_policy == "drop":
                self._drop([cf])
                return True
            return False  # reabsorb: the caller reinserts into the tree
        try:
            self._retry(lambda: self.disk.write(cf))
        except DiskFullError:
            self.stats.rejected_spills += 1
            return False
        except (TransientIOError, PermanentIOError):
            if self.fault_policy == "raise":
                raise
            self._mark_degraded("spill")
            if self.fault_policy == "drop":
                self._drop([cf])
                return True
            return False
        self.stats.spilled += 1
        self.recorder.count("outlier.spilled")
        return True

    def make_sink(self) -> "OutlierHandler":
        """Self-reference helper so callers can pass ``handler.spill``."""
        return self

    @property
    def pending(self) -> int:
        """Number of potential outliers currently on disk."""
        return len(self.disk)

    @property
    def pending_points(self) -> int:
        """Total raw points represented by pending potential outliers."""
        return sum(cf.n for cf in self.disk.peek())

    # -- re-absorption -----------------------------------------------------------

    def reabsorb(self, tree: CFTree) -> tuple[int, int]:
        """Try to fold pending outliers back into ``tree``.

        Each entry is absorbed only if it fits an existing leaf entry
        under the current (grown) threshold without causing any split;
        the rest are rewritten to disk.  Returns ``(absorbed, kept)``.

        A permanent read fault makes the pending records unrecoverable:
        they are dropped with accounting under both non-raising
        policies (``"reabsorb"`` cannot reinsert what it cannot read).
        A permanent fault on the write-back path follows the policy —
        the kept entries are forced into the tree or dropped.
        """
        try:
            pending = self._retry(self.disk.drain)
        except (TransientIOError, PermanentIOError):
            if self.fault_policy == "raise":
                raise
            self._mark_degraded("reabsorb-drain")
            lost = list(self.disk.peek())  # bookkeeping view of what died
            self._drop(lost)
            self.disk.clear()
            self.stats.reabsorption_cycles += 1
            return 0, 0
        absorbed = 0
        kept: list[StableCF] = []
        for cf in pending:
            if tree.try_absorb_cf(cf):
                absorbed += 1
            else:
                kept.append(cf)
        self.stats.reabsorbed += absorbed
        if self.recorder.enabled and absorbed:
            self.recorder.count("outlier.reabsorbed", absorbed)
        self.stats.reabsorption_cycles += 1
        if kept and not self._degraded:
            try:
                self._retry(lambda: self.disk.write_all(kept))
                return absorbed, len(kept)
            except (TransientIOError, PermanentIOError):
                if self.fault_policy == "raise":
                    raise
                self._mark_degraded("reabsorb-writeback")
        if kept:
            if self.fault_policy == "reabsorb":
                for cf in kept:
                    tree.insert_cf(cf)
                self.stats.forced_reabsorbed += len(kept)
            else:
                self._drop(kept)
            return absorbed, 0
        return absorbed, 0

    def final_outliers(self, tree: CFTree) -> list[StableCF]:
        """End-of-scan pass: absorb what fits, return the true outliers.

        Called when all data has been scanned; entries that still cannot
        be absorbed "are very likely real outliers" and are handed back
        to the driver (which reports, and optionally discards, them).
        """
        self.reabsorb(tree)
        try:
            remaining = self._retry(self.disk.drain)
        except (TransientIOError, PermanentIOError):
            if self.fault_policy == "raise":
                raise
            self._mark_degraded("final-drain")
            lost = list(self.disk.peek())
            self._drop(lost)
            self.disk.clear()
            return []
        return remaining

    # -- checkpoint support -------------------------------------------------

    def state_dict(self) -> dict[str, object]:
        """Counters and degradation flag, for checkpointing.

        The disk *contents* are checkpointed separately (they are CF
        records, stored as arrays alongside the tree).
        """
        return {"stats": self.stats.state_dict(), "degraded": self._degraded}

    def load_state(self, state: dict[str, object]) -> None:
        """Restore a snapshot saved by :meth:`state_dict`."""
        self.stats.load_state(state["stats"])  # type: ignore[arg-type]
        self._degraded = bool(state["degraded"])
