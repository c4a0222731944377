"""Persistence of CF summaries, trees and results.

The paper's closing discussion points at using CF summaries as a form
of data compression and at feeding them to later analyses.  That
requires the summaries to outlive the process, so this module provides
round-trip serialisation:

* :func:`save_cfs` / :func:`load_cfs` — a list of CF entries (three
  arrays, the ``1 + d + 1`` floats per entry the page model charges
  for);
* :func:`save_tree` / :func:`load_tree` — a CF-tree's leaf entries plus
  its parameters; loading re-inserts the entries (one
  :meth:`~repro.core.tree.CFTree.bulk_insert` call), which by CF
  additivity reproduces an equivalent tree (same summaries, possibly
  different internal node boundaries);
* :func:`save_result` / :func:`load_result_arrays` — a fitted
  :class:`~repro.core.birch.BirchResult`'s clusters, centroids and
  labels.

Each is a ``cfs``/``tree``/``result`` file of the sealed container
(:mod:`repro.core.container`), written to exactly the path given; no
pickle, so archives are safe to exchange.  CFs are stored in their
``(n, mean, SSD)`` representation as ``ns``/``means``/``ssds``:
converting to ``(LS, SS)`` would reintroduce exactly the catastrophic
cancellation that representation exists to avoid.  Legacy files that
store the paper's ``(N, LS, SS)`` triple as ``ns``/``ls``/``ss`` are
converted on read (:meth:`~repro.core.features.CF.to_stable`).  The
layout, what is verified on load and the older ``.npz`` archives that
still load are described in ``docs/robustness.md`` ("On-disk
formats").
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np

from repro.core import container
from repro.core.birch import BirchResult
from repro.core.distances import Metric
from repro.core.features import CF, StableCF, as_stable
from repro.core.tree import CFTree, ThresholdKind
from repro.errors import ArchiveError
from repro.pagestore.page import PageLayout

__all__ = [
    "load_cfs",
    "load_result_arrays",
    "load_tree",
    "save_cfs",
    "save_result",
    "save_tree",
]


def _cfs_to_arrays(cfs: list[CF | StableCF]) -> dict[str, np.ndarray]:
    """Pack CFs into named ``(n, mean, SSD)`` arrays."""
    if not cfs:
        raise ValueError("cannot serialise an empty CF list")
    cfs = [as_stable(cf) for cf in cfs]
    # float64 counts: decayed CFs carry fractional mass.
    return {
        "ns": np.array([cf.n for cf in cfs], dtype=np.float64),
        "means": np.stack([cf.mean for cf in cfs]).astype(np.float64),
        "ssds": np.array([cf.ssd for cf in cfs], dtype=np.float64),
    }


def _arrays_to_cfs(archive: container.Archive) -> list[StableCF]:
    """Unpack a loaded archive's CF arrays as :class:`StableCF`.

    A legacy archive's ``(N, LS, SS)`` rows are converted here, the one
    place such rows are read.

    Every stored count must be finite and positive — zero only for a
    result's clusters, which Phase 4 refinement can empty.  Legacy
    ``.npz`` archives of decayed stable fits stored counts truncated to
    int64, so an entry that had decayed below one point reads back as
    0; such an archive raises :class:`~repro.errors.ArchiveError`
    instead of feeding empty CFs onward.
    """
    ns = np.asarray(archive["ns"], dtype=np.float64)
    floor_ok = (ns >= 0) if archive.kind == "result" else (ns > 0)
    bad = ~(np.isfinite(ns) & floor_ok)
    if bad.any():
        raise ArchiveError(
            f"{archive.path}: {int(bad.sum())} of {ns.shape[0]} CF entries "
            f"have a count that is not a positive finite number (first: "
            f"{ns[int(np.argmax(bad))]:g}); the counts of a decayed fit "
            f"archived as truncated integers cannot be restored"
        )
    if "means" in archive:
        return [
            StableCF(float(n), mean_row.copy(), float(s))
            for n, mean_row, s in zip(
                archive["ns"], archive["means"], archive["ssds"]
            )
        ]
    return [
        CF(int(n), ls_row, float(s)).to_stable()
        for n, ls_row, s in zip(archive["ns"], archive["ls"], archive["ss"])
    ]


def save_cfs(path: str | Path, cfs: list[CF | StableCF]) -> None:
    """Write CF entries to a sealed ``cfs`` archive at ``path``."""
    container.write(path, "cfs", _cfs_to_arrays(cfs), {})


def load_cfs(path: str | Path) -> list[StableCF]:
    """Read CF entries written by :func:`save_cfs` (or a legacy ``.npz``).

    Raises :class:`~repro.errors.ArchiveError` (a ``ValueError``) when
    the file is missing, truncated, corrupt or not a CF archive, and its
    subclass :class:`~repro.errors.ChecksumMismatchError` when a byte
    was flipped.
    """
    return _arrays_to_cfs(container.read(path, "cfs"))


def save_tree(path: str | Path, tree: CFTree) -> None:
    """Persist a CF-tree: its leaf entries plus construction parameters.

    The interior structure is not stored — by the CF Additivity Theorem
    the leaf entries are a complete summary, and reloading re-inserts
    them under the same threshold/metric.
    """
    header = {
        "page_size": tree.layout.page_size,
        "dimensions": tree.layout.dimensions,
        "threshold": tree.threshold,
        "metric": tree.metric.value,
        "threshold_kind": tree.threshold_kind.value,
    }
    container.write(path, "tree", _cfs_to_arrays(tree.leaf_entries()), header)


def load_tree(path: str | Path) -> CFTree:
    """Rebuild a CF-tree from a :func:`save_tree` archive.

    Raises :class:`~repro.errors.ArchiveError` (a ``ValueError``) when
    the file is missing, truncated, corrupt or not a tree archive.
    """
    archive = container.read(path, "tree")
    header = archive.metadata
    rows = _cfs_to_arrays(_arrays_to_cfs(archive))
    layout = PageLayout(
        page_size=int(header["page_size"]), dimensions=int(header["dimensions"])
    )
    tree = CFTree(
        layout,
        threshold=float(header["threshold"]),
        metric=Metric.from_name(header["metric"]),
        threshold_kind=ThresholdKind(header["threshold_kind"]),
    )
    tree.bulk_insert(rows["means"], rows["ns"], rows["ssds"])
    return tree


def save_result(path: str | Path, result: BirchResult) -> None:
    """Persist a fitted result: clusters, centroids, labels, metadata."""
    arrays = _cfs_to_arrays(list(result.clusters))
    arrays["centroids"] = np.asarray(result.centroids, dtype=np.float64)
    arrays["entry_labels"] = np.asarray(result.entry_labels, dtype=np.int64)
    if result.labels is not None:
        arrays["labels"] = np.asarray(result.labels, dtype=np.int64)
    header = {
        "final_threshold": result.final_threshold,
        "rebuilds": result.rebuilds,
        "io": result.io,
        "tree_stats": result.tree_stats,
    }
    container.write(path, "result", arrays, header)


def load_result_arrays(
    path: str | Path,
) -> tuple[list[StableCF], np.ndarray, Optional[np.ndarray], dict]:
    """Read a :func:`save_result` archive.

    Returns ``(clusters, centroids, labels_or_None, header)`` — the
    pieces a downstream consumer (labelling, reporting) actually needs;
    the full BirchResult also carries live objects that are not
    meaningful to rehydrate.

    Raises :class:`~repro.errors.ArchiveError` (a ``ValueError``) when
    the file is missing, truncated, corrupt or not a result archive.
    """
    archive = container.read(path, "result")
    labels = archive.arrays.get("labels")
    return _arrays_to_cfs(archive), archive["centroids"], labels, archive.metadata
