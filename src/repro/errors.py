"""Typed exception hierarchy for the BIRCH reproduction.

Everything the library raises deliberately derives from
:class:`ReproError`, so callers can catch one base class at a process
boundary (a streaming ingest loop, the CLI) and decide between retry,
degrade and crash without string-matching messages.  The leaves keep
their historical built-in bases (``RuntimeError``/``ValueError``/
``OSError``) so existing ``except RuntimeError`` call sites and tests
keep working.

The hierarchy::

    ReproError
    ├── NotFittedError          (also RuntimeError)
    ├── PhaseError              (also RuntimeError)
    │   └── PhaseTimeoutError
    ├── ArchiveError            (also ValueError)
    │   └── ChecksumMismatchError
    ├── InvalidPointError       (also ValueError)
    ├── IOFaultError            (also OSError)
    │   ├── TransientIOError
    │   └── PermanentIOError
    ├── DiskFullError           (also RuntimeError)
    ├── MemoryExhaustedError    (also RuntimeError)
    └── WorkerCrashError        (also RuntimeError)

``TransientIOError`` models faults worth retrying (EINTR-style blips,
momentary unavailability); ``PermanentIOError`` models a device that is
gone for good.  The self-healing I/O layer retries the former with
bounded backoff and applies a degradation policy to the latter (see
:mod:`repro.pagestore.faults` and :class:`repro.core.outliers.OutlierHandler`).
"""

from __future__ import annotations

__all__ = [
    "ArchiveError",
    "ChecksumMismatchError",
    "DiskFullError",
    "IOFaultError",
    "InvalidPointError",
    "MemoryExhaustedError",
    "NotFittedError",
    "PermanentIOError",
    "PhaseError",
    "PhaseTimeoutError",
    "ReproError",
    "TransientIOError",
    "WorkerCrashError",
]


class ReproError(Exception):
    """Base class of every error the library raises deliberately."""


class NotFittedError(ReproError, RuntimeError):
    """An operation needed fitted state but no data has been seen.

    Raised uniformly by every :class:`~repro.core.birch.Birch` entry
    point that requires a prior ``fit``/``partial_fit``/``finalize``.
    """


class PhaseError(ReproError, RuntimeError):
    """A pipeline phase could not complete (e.g. Phase 2 cannot condense)."""


class PhaseTimeoutError(PhaseError):
    """A pipeline phase exceeded its wall-clock deadline.

    Raised from inside long-running phase kernels (the Phase 3
    agglomerative merge loop, Phase 4 refinement passes) when a
    supervisor-imposed deadline passes; the phase supervisor catches it
    and falls back to a cheaper algorithm or reports a capped result.
    """


class InvalidPointError(ReproError, ValueError):
    """An ingested point failed validation (NaN/Inf, bad shape, bad dtype).

    Carries the offending stream row index and the rejection reason so a
    producer can locate the poisoned record.  Raised by the ingest
    guardrails under the default ``bad_point_policy="raise"``; the
    ``"skip"`` and ``"quarantine"`` policies account for the point
    instead of raising.
    """

    def __init__(self, message: str, *, row: int | None = None,
                 reason: str | None = None) -> None:
        super().__init__(message)
        self.row = row
        self.reason = reason


class ArchiveError(ReproError, ValueError):
    """An on-disk archive of any kind cannot be read.

    Carries the offending path and the underlying reason in its message;
    missing, truncated and foreign files, files of the wrong kind and
    unsupported versions all land here rather than leaking
    ``KeyError``/``zipfile.BadZipFile`` from NumPy internals.
    """


class ChecksumMismatchError(ArchiveError):
    """Archive content does not match its recorded checksum.

    A flipped bit anywhere after an archive's magic raises this instead
    of silently deserialising corrupt state.
    """


class IOFaultError(ReproError, OSError):
    """Base class for (injected or real) storage faults."""


class TransientIOError(IOFaultError):
    """A fault that may succeed if retried (the self-healing target)."""


class PermanentIOError(IOFaultError):
    """A fault that will not go away; triggers degradation policies."""


class DiskFullError(ReproError, RuntimeError):
    """A write would exceed the outlier disk capacity ``R``.

    Callers treat this as the paper's "out of disk space" trigger and
    run a re-absorption cycle (Section 5.1.4); it is *not* a fault in
    the :class:`IOFaultError` sense because it is part of the normal
    BIRCH control flow.
    """


class MemoryExhaustedError(ReproError, RuntimeError):
    """A hard page allocation exceeded the memory budget plus allowance."""


class WorkerCrashError(ReproError, RuntimeError):
    """A parallel task exhausted the failure ladder without a result.

    Raised only under ``ParallelConfig(escalation="raise")`` — the
    default ``"serial"`` escalation runs the task in-process instead.
    Carries the dispatch's task kind, the task index, and how many
    worker attempts were consumed; the full story is in the incident
    log (``BirchResult.parallel_incidents``).
    """

    def __init__(
        self,
        message: str,
        *,
        op: str | None = None,
        task_index: int | None = None,
        attempts: int | None = None,
    ) -> None:
        super().__init__(message)
        self.op = op
        self.task_index = task_index
        self.attempts = attempts
