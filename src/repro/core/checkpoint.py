"""Crash-safe checkpoint/resume of Phase 1 (the single-scan state).

BIRCH's headline property is a *single* scan over a very large database
— which is exactly the scan one cannot afford to restart when the
process dies at 90%.  This module snapshots the complete Phase 1 state
of a :class:`~repro.core.birch.Birch` estimator to one file and restores
it bit-for-bit, so a killed ``partial_fit`` stream resumes from the last
checkpoint and produces a result *identical* to an uninterrupted run.

What a checkpoint contains
--------------------------
Everything insertion order and rebuild history have baked into the run:

* the exact CF-tree — node topology, raw entry floats and the leaf
  chain order (:meth:`~repro.core.tree.CFTree.export_structure`), not
  just the leaf entries (re-insertion would build a different tree and
  diverge from the uninterrupted run);
* the current threshold, rebuild count and per-rebuild history;
* the threshold policy's regression observations;
* the outlier disk contents and the outlier handler's counters;
* the Phase 1 ingest and rebuild seconds so far, so a resumed stream's
  timings cover the whole scan;
* the full :class:`~repro.pagestore.IOStats` ledger;
* the :class:`~repro.core.config.BirchConfig` itself, so ``resume``
  needs nothing but the file.

File format
-----------
A checkpoint is a ``checkpoint``-kind file of the sealed container
(:mod:`repro.core.container`): the scalar state above as JSON
metadata, the tree, outlier, quarantine and epoch-bucket records as
arrays.  Layout, integrity checks, atomic writes and the legacy
``BIRCHCKP`` files that still load are described once, in
``docs/robustness.md`` ("On-disk formats").
"""

from __future__ import annotations

import time
from dataclasses import asdict, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.core import container
from repro.core.config import BirchConfig
from repro.core.evolve import EpochBuckets
from repro.core.features import CF, StableCF
from repro.core.tree import CFTree, ThresholdKind
from repro.errors import ArchiveError
from repro.pagestore.faults import FaultInjector, retry_io

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.birch import Birch

__all__ = ["CHECKPOINT_VERSION", "load_checkpoint", "write_checkpoint"]

CHECKPOINT_VERSION = 2
# The metadata schema ("format").  Version 2 added the "evolve" section
# (decay clock, epoch buckets, drift monitor state); version-1
# checkpoints still load, resuming with a zeroed decay clock and no
# window/drift state.
_SUPPORTED_VERSIONS = frozenset({1, 2})


# -- config round-trip --------------------------------------------------------


def _config_to_dict(config: BirchConfig) -> dict:
    out = {}
    for field in fields(config):
        value = getattr(config, field.name)
        if isinstance(value, Enum):
            value = value.value
        elif is_dataclass(value) and not isinstance(value, type):
            # Nested config dataclasses (e.g. ObserveConfig) flatten to
            # plain dicts; BirchConfig.__post_init__ coerces them back.
            value = asdict(value)
        out[field.name] = value
    return out


def _config_from_dict(data: dict) -> BirchConfig:
    kwargs = dict(data)
    if "threshold_kind" in kwargs:
        kwargs["threshold_kind"] = ThresholdKind(kwargs["threshold_kind"])
    try:
        return BirchConfig(**kwargs)
    except TypeError as exc:
        raise ArchiveError(f"checkpoint config does not match this build: {exc}")


# -- CF record packing --------------------------------------------------------


def _cfs_to_arrays(cfs: list[StableCF], dimensions: int) -> dict:
    # float64, not int64: counts may carry fractional (decayed) mass.
    # Integer counts survive the round-trip exactly.
    ns = np.array([cf.n for cf in cfs], dtype=np.float64)
    vec = (
        np.stack([cf.mean for cf in cfs])
        if cfs
        else np.zeros((0, dimensions), dtype=np.float64)
    )
    sq = np.array([cf.ssd for cf in cfs], dtype=np.float64)
    return {
        "ns": ns,
        "vec": vec.astype(np.float64),
        "sq": sq,
    }


def _cfs_from_arrays(
    ns: np.ndarray, vec: np.ndarray, sq: np.ndarray
) -> list[StableCF]:
    return [
        StableCF(float(n), row.copy(), float(s)) for n, row, s in zip(ns, vec, sq)
    ]


def _convert_legacy_rows(
    ns: np.ndarray, vec: np.ndarray, sq: np.ndarray, dimensions: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(N, LS, SS)`` rows of an older checkpoint as ``(n, mean, SSD)``."""
    cfs = [
        CF(int(n), row, float(s)).to_stable() for n, row, s in zip(ns, vec, sq)
    ]
    arrays = _cfs_to_arrays(cfs, dimensions)
    return arrays["ns"], arrays["vec"], arrays["sq"]


# -- payload ------------------------------------------------------------------


def _snapshot(birch: "Birch") -> tuple[dict, dict]:
    tree = birch._tree
    assert tree is not None and birch._budget is not None
    assert birch._policy is not None and birch._dimensions is not None
    handler = birch._outlier_handler
    buckets = birch._epoch_buckets
    meta = {
        "format": CHECKPOINT_VERSION,
        "config": _config_to_dict(birch.config),
        "dimensions": birch._dimensions,
        "points_seen": birch._points_seen,
        "delay_mode": birch._delay_mode,
        "rebuild_history": [
            [int(n), float(t)] for n, t in birch._rebuild_history
        ],
        "io": birch.stats.state_dict(),
        "policy": birch._policy.state_dict(),
        "tree": {"threshold": tree.threshold, "points": tree.points},
        "budget": {"peak_pages": birch._budget.peak_pages},
        "outliers": handler.state_dict() if handler is not None else None,
        "guardrails": {
            "rows_fed": birch._rows_fed,
            "points_fed": birch._points_fed,
            "validator": {
                "dimensions": birch._validator.dimensions,
                "stats": birch._validator.stats.state_dict(),
            },
            "watchdog": (
                birch._watchdog.state_dict()
                if birch._watchdog is not None
                else None
            ),
        },
        "evolve": {
            "epoch": birch._epoch,
            "decay_clock": tree.decay_clock,
            "points_forgotten": birch._points_forgotten,
            "subtract_clamps": birch._subtract_clamps,
            "drift": (
                birch._drift_monitor.state_dict()
                if birch._drift_monitor is not None
                else None
            ),
            "buckets": (
                {
                    "max_buckets": buckets.max_buckets,
                    "max_entries": buckets.max_entries,
                }
                if buckets is not None
                else None
            ),
        },
    }
    arrays = {
        f"tree_{key}": value for key, value in tree.export_structure().items()
    }
    # An array, not metadata: a fixed width keeps the file's size
    # independent of the values.
    arrays["phase1_seconds"] = np.array(
        [birch._ingest_time(), birch._rebuild_seconds], dtype=np.float64
    )
    if buckets is not None:
        for key, value in buckets.to_arrays(birch._dimensions).items():
            arrays[f"evolve_{key}"] = value
    # Outliers a finished scan drained off the disk are still owed to
    # the ledger; a resumed stream holds them as pending again.
    records = (
        list(handler.disk.peek()) + list(birch._resolved_outliers or [])
        if handler is not None
        else []
    )
    for key, value in _cfs_to_arrays(records, birch._dimensions).items():
        arrays[f"outlier_{key}"] = value
    if birch._quarantine is not None:
        quarantine_state = birch._quarantine.state_dict()
        meta["guardrails"]["quarantine"] = quarantine_state.pop("meta")
        for key, value in quarantine_state.items():
            arrays[f"quar_{key}"] = value
    else:
        meta["guardrails"]["quarantine"] = None
    return meta, arrays


def _restore_birch(
    archive: container.Archive,
    *,
    outlier_injector: Optional[FaultInjector] = None,
    quarantine_injector: Optional[FaultInjector] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> "Birch":
    from repro.core.birch import Birch

    path = archive.path
    meta = archive.metadata
    if meta.get("format") not in _SUPPORTED_VERSIONS:
        raise ArchiveError(
            f"checkpoint {path} has format {meta.get('format')!r}; this "
            f"build reads formats {sorted(_SUPPORTED_VERSIONS)}"
        )
    tree_arrays = {
        key: archive[f"tree_{key}"]
        for key in (
            "node_is_leaf",
            "node_sizes",
            "entry_ns",
            "entry_vec",
            "entry_sq",
            "leaf_chain",
        )
    }
    evolve_arrays = {
        key[len("evolve_") :]: value
        for key, value in archive.arrays.items()
        if key.startswith("evolve_")
    }

    stored = dict(meta["config"])
    # Checkpoints written before the tree kept one representation name
    # theirs; a "classic" one stores (N, LS, SS) rows, converted here.
    legacy = stored.pop("cf_backend", "stable") == "classic"
    config = _config_from_dict(stored)
    dimensions = int(meta["dimensions"])
    entry_keys = ("entry_ns", "entry_vec", "entry_sq")
    if legacy:
        converted = _convert_legacy_rows(
            *(tree_arrays[key] for key in entry_keys), dimensions
        )
        tree_arrays.update(zip(entry_keys, converted))
    birch = Birch(
        config,
        outlier_injector=outlier_injector,
        quarantine_injector=quarantine_injector,
        sleep=sleep,
    )
    birch._initialise(dimensions)
    assert birch._tree is not None and birch._budget is not None
    assert birch._policy is not None

    # Hand the placeholder root's page back before rebuilding the tree.
    birch._tree._free_node(birch._tree.root)
    try:
        birch._tree = CFTree.from_structure(
            tree_arrays,
            layout=birch._tree.layout,
            threshold=float(meta["tree"]["threshold"]),
            metric=config.metric,
            threshold_kind=config.threshold_kind,
            points=int(meta["tree"]["points"]),
            budget=birch._budget,
            stats=birch.stats,
            merging_refinement=config.merging_refinement,
        )
    except ValueError as exc:
        raise ArchiveError(f"corrupt tree structure in checkpoint {path}: {exc}")
    birch._budget._peak_pages = int(meta["budget"]["peak_pages"])
    birch._policy.load_state(meta["policy"])
    birch._points_seen = int(meta["points_seen"])
    birch._delay_mode = bool(meta["delay_mode"])
    birch._rebuild_history = [
        (int(n), float(t)) for n, t in meta["rebuild_history"]
    ]
    birch.stats.load_state(meta["io"])
    # Older checkpoints carry no Phase 1 seconds; those resume at zero.
    if "phase1_seconds" in archive:
        ingest, rebuild = archive["phase1_seconds"].tolist()
        birch._ingest_seconds, birch._rebuild_seconds = ingest, rebuild
    if birch._outlier_handler is not None and meta["outliers"] is not None:
        rows = tuple(archive[f"outlier_{key}"] for key in ("ns", "vec", "sq"))
        if legacy:
            rows = _convert_legacy_rows(*rows, dimensions)
        birch._outlier_handler.disk.adopt(_cfs_from_arrays(*rows))
        birch._outlier_handler.load_state(meta["outliers"])
    # Guardrails state is absent from pre-guardrails checkpoints; those
    # resume with fresh (zeroed) validation accounting.
    guardrails = meta.get("guardrails")
    if guardrails is not None:
        birch._rows_fed = int(guardrails["rows_fed"])
        birch._points_fed = int(guardrails["points_fed"])
        validator_state = guardrails["validator"]
        if validator_state["dimensions"] is not None:
            birch._validator.dimensions = int(validator_state["dimensions"])
        birch._validator.stats.load_state(validator_state["stats"])
        if guardrails["watchdog"] is not None and birch._watchdog is not None:
            birch._watchdog.load_state(guardrails["watchdog"])
        if guardrails["quarantine"] is not None:
            store = birch._ensure_quarantine()
            quarantine_arrays = {
                key: archive[f"quar_{key}"]
                for key in (
                    "rows",
                    "reasons",
                    "weights",
                    "has_values",
                    "values",
                    "offsets",
                )
            }
            store.load_state(
                {"meta": guardrails["quarantine"], **quarantine_arrays}
            )
    # Evolve state is absent from version-1 archives; those resume with
    # a zeroed decay clock and no window/drift state.
    evolve = meta.get("evolve")
    if evolve is not None:
        birch._epoch = int(evolve["epoch"])
        birch._points_forgotten = int(evolve["points_forgotten"])
        birch._subtract_clamps = int(evolve.get("subtract_clamps", 0))
        if config.decay_half_life is not None:
            birch._tree.set_decay(
                config.decay_half_life, int(evolve["decay_clock"])
            )
        if evolve.get("drift") is not None:
            birch._ensure_evolve_state()
            assert birch._drift_monitor is not None
            birch._drift_monitor.load_state(evolve["drift"])
        bucket_meta = evolve.get("buckets")
        if bucket_meta is not None:
            birch._epoch_buckets = EpochBuckets.from_arrays(
                evolve_arrays,
                max_buckets=int(bucket_meta["max_buckets"]),
                max_entries=int(bucket_meta["max_entries"]),
            )
    elif config.decay_half_life is not None:
        birch._tree.set_decay(config.decay_half_life, 0)
    every = config.checkpoint_every_points
    if every is not None:
        birch._next_checkpoint_at = (birch._points_seen // every + 1) * every
    return birch


# -- public API ---------------------------------------------------------------


def write_checkpoint(
    path: str | Path,
    birch: "Birch",
    *,
    injector: Optional[FaultInjector] = None,
    attempts: Optional[int] = None,
    base_delay: Optional[float] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> None:
    """Atomically snapshot ``birch``'s Phase 1 state to ``path``.

    Prefer the :meth:`repro.core.birch.Birch.checkpoint` method; this
    free function is the implementation and the hook for tests that
    inject write faults.

    Parameters
    ----------
    path:
        Destination file; replaced atomically.
    birch:
        A fitted (or mid-stream) estimator.
    injector:
        Optional fault injector consulted per written chunk.
    attempts / base_delay / sleep:
        Transient-fault retry parameters; default to the estimator's
        ``io_retry_attempts`` / ``io_retry_base_delay`` config.
    """
    meta, arrays = _snapshot(birch)
    container.write(
        path,
        "checkpoint",
        arrays,
        meta,
        injector=injector,
        attempts=(
            attempts if attempts is not None else birch.config.io_retry_attempts
        ),
        base_delay=(
            base_delay
            if base_delay is not None
            else birch.config.io_retry_base_delay
        ),
        sleep=sleep,
    )


def load_checkpoint(
    path: str | Path,
    *,
    injector: Optional[FaultInjector] = None,
    outlier_injector: Optional[FaultInjector] = None,
    quarantine_injector: Optional[FaultInjector] = None,
    attempts: int = 1,
    base_delay: float = 0.0,
    sleep: Callable[[float], None] = time.sleep,
) -> "Birch":
    """Restore the estimator checkpointed at ``path``, bit-for-bit.

    The returned :class:`~repro.core.birch.Birch` continues exactly
    where the checkpointed one stopped: further ``partial_fit`` calls
    and the final ``finalize`` produce results identical to a run that
    was never interrupted.

    Parameters
    ----------
    path:
        File written by :func:`write_checkpoint`.
    injector:
        Optional fault injector consulted on the read (op ``"read"``),
        retried per ``attempts``/``base_delay``.
    outlier_injector:
        Optional fault injector installed on the restored outlier disk
        (the resumed process may face the same faulty device).
    quarantine_injector:
        Likewise for the restored quarantine store.

    Raises
    ------
    ArchiveError
        Missing/truncated file, bad magic, unsupported version, or a
        payload this build cannot interpret.
    ChecksumMismatchError
        Any flipped byte in the protected region.
    """

    def read_once() -> container.Archive:
        if injector is not None:
            injector.check("read")
        return container.read(path, "checkpoint")

    archive = retry_io(
        read_once, attempts=attempts, base_delay=base_delay, sleep=sleep
    )
    return _restore_birch(
        archive,
        outlier_injector=outlier_injector,
        quarantine_injector=quarantine_injector,
        sleep=sleep,
    )
