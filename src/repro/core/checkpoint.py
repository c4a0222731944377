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
* the full :class:`~repro.pagestore.IOStats` ledger;
* the :class:`~repro.core.config.BirchConfig` itself, so ``resume``
  needs nothing but the file.

File format
-----------
A small binary container around a ``numpy`` ``.npz`` payload::

    magic  "BIRCHCKP"              8 bytes
    version                        4 bytes, little-endian uint32
    sha256(version|length|payload) 32 bytes
    payload length                 8 bytes, little-endian uint64
    payload                        .npz bytes

The digest covers everything after the magic, so flipping any protected
byte raises :class:`~repro.errors.ChecksumMismatchError` instead of
deserialising corrupt state.  Writes are atomic: the container goes to
a temporary file in the same directory, is fsynced, and replaces the
destination with ``os.replace`` — a crash mid-checkpoint leaves the
previous checkpoint intact.  Writes optionally run through a
:class:`~repro.pagestore.faults.FaultInjector` and are retried with
bounded backoff on transient faults.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import time
from dataclasses import asdict, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.core.config import BirchConfig
from repro.core.evolve import EpochBuckets
from repro.core.features import AnyCF, CF, StableCF
from repro.core.tree import CFTree, ThresholdKind
from repro.errors import ArchiveError, ChecksumMismatchError
from repro.pagestore.faults import FaultInjector, retry_io

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.birch import Birch

__all__ = ["CHECKPOINT_VERSION", "load_checkpoint", "write_checkpoint"]

CHECKPOINT_VERSION = 2
# Version 2 added the "evolve" section (decay clock, epoch buckets,
# drift monitor state); version-1 archives still load, resuming with a
# zeroed decay clock and no window/drift state.
_SUPPORTED_VERSIONS = frozenset({1, 2})

_MAGIC = b"BIRCHCKP"
_VERSION_STRUCT = struct.Struct("<I")
_LENGTH_STRUCT = struct.Struct("<Q")
_HEADER_BYTES = len(_MAGIC) + _VERSION_STRUCT.size + 32 + _LENGTH_STRUCT.size
_IO_CHUNK = 64 * 1024


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


def _cfs_to_arrays(cfs: list[AnyCF], backend: str, dimensions: int) -> dict:
    # float64, not int64: stable-backend counts may carry fractional
    # (decayed) mass.  Integer counts survive the round-trip exactly.
    ns = np.array([cf.n for cf in cfs], dtype=np.float64)
    if backend == "stable":
        vec = (
            np.stack([cf.mean for cf in cfs])
            if cfs
            else np.zeros((0, dimensions), dtype=np.float64)
        )
        sq = np.array([cf.ssd for cf in cfs], dtype=np.float64)
    else:
        vec = (
            np.stack([cf.ls for cf in cfs])
            if cfs
            else np.zeros((0, dimensions), dtype=np.float64)
        )
        sq = np.array([cf.ss for cf in cfs], dtype=np.float64)
    return {
        "ns": ns,
        "vec": vec.astype(np.float64),
        "sq": sq,
    }


def _cfs_from_arrays(
    ns: np.ndarray, vec: np.ndarray, sq: np.ndarray, backend: str
) -> list[AnyCF]:
    if backend == "stable":
        return [
            StableCF(float(n), row.copy(), float(s))
            for n, row, s in zip(ns, vec, sq)
        ]
    return [CF(int(n), row.copy(), float(s)) for n, row, s in zip(ns, vec, sq)]


# -- payload ------------------------------------------------------------------


def _snapshot_payload(birch: "Birch") -> bytes:
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
    for key, value in _cfs_to_arrays(
        records, birch.config.cf_backend, birch._dimensions
    ).items():
        arrays[f"outlier_{key}"] = value
    if birch._quarantine is not None:
        quarantine_state = birch._quarantine.state_dict()
        meta["guardrails"]["quarantine"] = quarantine_state.pop("meta")
        for key, value in quarantine_state.items():
            arrays[f"quar_{key}"] = value
    else:
        meta["guardrails"]["quarantine"] = None
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        **arrays,
    )
    return buffer.getvalue()


def _restore_birch(
    payload: bytes,
    path: Path,
    *,
    outlier_injector: Optional[FaultInjector] = None,
    quarantine_injector: Optional[FaultInjector] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> "Birch":
    from repro.core.birch import Birch

    try:
        with np.load(io.BytesIO(payload)) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            tree_arrays = {
                "node_is_leaf": data["tree_node_is_leaf"],
                "node_sizes": data["tree_node_sizes"],
                "entry_ns": data["tree_entry_ns"],
                "entry_vec": data["tree_entry_vec"],
                "entry_sq": data["tree_entry_sq"],
                "leaf_chain": data["tree_leaf_chain"],
            }
            outlier_ns = data["outlier_ns"]
            outlier_vec = data["outlier_vec"]
            outlier_sq = data["outlier_sq"]
            evolve_arrays = {
                key[len("evolve_") :]: data[key]
                for key in data.files
                if key.startswith("evolve_")
            }
            quarantine_arrays = None
            if "quar_rows" in data.files:
                quarantine_arrays = {
                    key: data[f"quar_{key}"]
                    for key in (
                        "rows",
                        "reasons",
                        "weights",
                        "has_values",
                        "values",
                        "offsets",
                    )
                }
    except ChecksumMismatchError:  # pragma: no cover - defensive
        raise
    except Exception as exc:
        raise ArchiveError(f"cannot read checkpoint {path}: {exc}")

    config = _config_from_dict(meta["config"])
    birch = Birch(
        config,
        outlier_injector=outlier_injector,
        quarantine_injector=quarantine_injector,
        sleep=sleep,
    )
    dimensions = int(meta["dimensions"])
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
            cf_backend=config.cf_backend,
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
    if birch._outlier_handler is not None and meta["outliers"] is not None:
        records = _cfs_from_arrays(
            outlier_ns, outlier_vec, outlier_sq, config.cf_backend
        )
        birch._outlier_handler.disk.adopt(records)
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
            assert quarantine_arrays is not None
            store = birch._ensure_quarantine()
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


# -- container I/O ------------------------------------------------------------


def _seal(payload: bytes) -> bytes:
    version = _VERSION_STRUCT.pack(CHECKPOINT_VERSION)
    length = _LENGTH_STRUCT.pack(len(payload))
    digest = hashlib.sha256(version + length + payload).digest()
    return _MAGIC + version + digest + length + payload


def _unseal(raw: bytes, path: Path) -> bytes:
    if len(raw) < _HEADER_BYTES:
        raise ArchiveError(
            f"checkpoint {path} is truncated: {len(raw)} bytes is smaller "
            f"than the {_HEADER_BYTES}-byte header"
        )
    if raw[: len(_MAGIC)] != _MAGIC:
        raise ArchiveError(f"{path} is not a BIRCH checkpoint (bad magic)")
    cursor = len(_MAGIC)
    version_bytes = raw[cursor : cursor + _VERSION_STRUCT.size]
    cursor += _VERSION_STRUCT.size
    digest = raw[cursor : cursor + 32]
    cursor += 32
    length_bytes = raw[cursor : cursor + _LENGTH_STRUCT.size]
    cursor += _LENGTH_STRUCT.size
    payload = raw[cursor:]
    expected = hashlib.sha256(version_bytes + length_bytes + payload).digest()
    if digest != expected:
        raise ChecksumMismatchError(
            f"checkpoint {path} failed its integrity check "
            f"(stored sha256 {digest.hex()[:16]}..., "
            f"computed {expected.hex()[:16]}...)"
        )
    (version,) = _VERSION_STRUCT.unpack(version_bytes)
    if version not in _SUPPORTED_VERSIONS:
        raise ArchiveError(
            f"checkpoint {path} has version {version}; this build reads "
            f"versions {sorted(_SUPPORTED_VERSIONS)}"
        )
    (declared,) = _LENGTH_STRUCT.unpack(length_bytes)
    if declared != len(payload):  # pragma: no cover - caught by the digest
        raise ArchiveError(
            f"checkpoint {path} declares {declared} payload bytes "
            f"but carries {len(payload)}"
        )
    return payload


def _write_atomic(
    path: Path,
    blob: bytes,
    *,
    injector: Optional[FaultInjector],
    attempts: int,
    base_delay: float,
    sleep: Callable[[float], None],
) -> None:
    tmp = path.with_name(path.name + ".tmp")

    def write_once() -> None:
        with open(tmp, "wb") as handle:
            offset = 0
            while offset < len(blob):
                chunk = blob[offset : offset + _IO_CHUNK]
                if injector is not None:
                    injector.check("write", nbytes=len(chunk), offset=offset)
                handle.write(chunk)
                offset += len(chunk)
            handle.flush()
            os.fsync(handle.fileno())

    try:
        retry_io(
            write_once, attempts=attempts, base_delay=base_delay, sleep=sleep
        )
        os.replace(tmp, path)
    except Exception:
        tmp.unlink(missing_ok=True)
        raise
    # Make the rename itself durable where the platform allows it.
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - platform-specific
        pass
    finally:
        os.close(dir_fd)


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
    blob = _seal(_snapshot_payload(birch))
    _write_atomic(
        Path(path),
        blob,
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
    path = Path(path)

    def read_once() -> bytes:
        if injector is not None:
            injector.check("read")
        try:
            return path.read_bytes()
        except FileNotFoundError:
            raise ArchiveError(f"checkpoint {path} does not exist")
        except OSError as exc:
            raise ArchiveError(f"cannot read checkpoint {path}: {exc}")

    raw = retry_io(
        read_once, attempts=attempts, base_delay=base_delay, sleep=sleep
    )
    payload = _unseal(raw, path)
    return _restore_birch(
        payload,
        path,
        outlier_injector=outlier_injector,
        quarantine_injector=quarantine_injector,
        sleep=sleep,
    )
