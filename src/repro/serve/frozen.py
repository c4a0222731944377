"""``FrozenModel`` — the compiled, immutable read path of a BIRCH fit.

BIRCH's Phase 3 output (§4 of the paper) is a compact set of cluster
centroids plus their CF statistics — exactly what a high-QPS
nearest-centroid service needs, and nothing a live CF-tree carries
(nodes, thresholds, outlier disks) helps with at query time.  Compiling
freezes that output into flat structure-of-arrays form:

* ``centroids``       ``(K, d)`` float64 cluster centroids;
* ``centroid_sq_norms`` ``(K,)`` precomputed ``||c||^2`` for the einsum
  kernel (never recomputed per batch);
* ``radii``           ``(K,)`` cluster radius ``R`` (paper eq. (2));
* ``weights``         ``(K,)`` per-cluster mass ``N`` (float — decayed
  clusters carry fractional mass);
* ``label_remap``     ``(K,)`` int64 mapping from internal centroid row
  to the public label (identity over the *compacted* rows: clusters
  that Phase 4 refinement emptied are dropped at compile time, so a
  frozen model always emits dense consecutive labels — the original
  cluster count and the dropped ids are recorded under
  ``metadata["compaction"]``).

A frozen model can be built from a live :class:`~repro.core.birch.Birch`
/ :class:`~repro.core.birch.BirchResult`, from a sealed ``BIRCHCKP``
checkpoint (resumed and finalized), from a ``save_result`` archive, or
from a :class:`~repro.ensemble.ForestResult` consensus
(:meth:`FrozenModel.from_forest`) — all round-trip through the sealed
mmap-able ``BIRCHFRZ`` artifact
(:mod:`repro.serve.artifact`), so any number of worker processes serve
queries off one shared read-only file.

Query semantics match :meth:`Birch.predict <repro.core.birch.Birch.predict>`
exactly — same kernel, same lowest-index tie rule.  Every query scans
all ``K`` centroids through that one flat kernel: a two-level pruned
index was measured slower than the flat scan at every ``K`` up to 8192
and was removed (``docs/performance.md``).  Artifacts that still carry
its ``index_*`` arrays load and serve as before; the arrays are ignored.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core import container
from repro.errors import ArchiveError
from repro.serve.kernel import (
    default_chunk,
    nearest_centroids,
    pairwise_sq_dists,
    sq_norms,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.birch import Birch, BirchResult
    from repro.ensemble.forest import ForestResult
    from repro.observe import Recorder

__all__ = ["FrozenModel", "compile_model"]

_CORE_ARRAYS = ("centroids", "centroid_sq_norms", "radii", "weights", "label_remap")


def _file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _null_recorder() -> "Recorder":
    from repro.observe import NULL_RECORDER

    return NULL_RECORDER


def _compact_clusters(
    centroids: np.ndarray,
    radii: np.ndarray,
    weights: np.ndarray,
    metadata: dict,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop zero-mass clusters so the frozen label space is dense.

    Phase 4 refinement can empty a cluster (every point migrates to a
    nearer centroid); its CF then has ``n == 0`` and its centroid is
    meaningless.  Freezing such a row would both leave a hole in the
    public label space and let a garbage centroid compete in the
    nearest-centroid kernel.  Compaction keeps only the massive rows —
    public labels become their dense consecutive indices — and records
    the original cluster count plus the dropped original ids under
    ``metadata["compaction"]``.  Results without empty clusters pass
    through untouched (no metadata key, byte-identical arrays).
    """
    keep = np.flatnonzero(weights > 0)
    if keep.size in (0, weights.shape[0]):
        return centroids, radii, weights
    dropped = np.flatnonzero(weights <= 0)
    metadata["compaction"] = {
        "original_n_clusters": int(weights.shape[0]),
        "dropped_labels": [int(i) for i in dropped],
    }
    return (
        np.ascontiguousarray(centroids[keep]),
        np.ascontiguousarray(radii[keep]),
        np.ascontiguousarray(weights[keep]),
    )


class FrozenModel:
    """Immutable nearest-centroid query model (see module docs).

    Construct via :meth:`from_result`, :meth:`from_estimator`,
    :func:`compile_model` or :meth:`load` — the raw constructor expects
    already-flattened arrays.
    """

    __slots__ = (
        "centroids",
        "centroid_sq_norms",
        "radii",
        "weights",
        "label_remap",
        "metadata",
        "_recorder",
    )

    def __init__(
        self,
        centroids: np.ndarray,
        radii: np.ndarray,
        weights: np.ndarray,
        *,
        centroid_sq_norms: Optional[np.ndarray] = None,
        label_remap: Optional[np.ndarray] = None,
        metadata: Optional[dict] = None,
        recorder: Optional["Recorder"] = None,
    ) -> None:
        centroids = np.asarray(centroids, dtype=np.float64)
        if centroids.ndim != 2 or centroids.shape[0] == 0:
            raise ValueError(
                f"centroids must be a non-empty (K, d) matrix, got shape "
                f"{centroids.shape}"
            )
        k = centroids.shape[0]
        self.centroids = centroids
        self.centroid_sq_norms = (
            np.asarray(centroid_sq_norms, dtype=np.float64)
            if centroid_sq_norms is not None
            else sq_norms(centroids)
        )
        self.radii = np.asarray(radii, dtype=np.float64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.label_remap = (
            np.asarray(label_remap, dtype=np.int64)
            if label_remap is not None
            else np.arange(k, dtype=np.int64)
        )
        for name in ("centroid_sq_norms", "radii", "weights", "label_remap"):
            if getattr(self, name).shape != (k,):
                raise ValueError(
                    f"{name} must have shape ({k},), got "
                    f"{getattr(self, name).shape}"
                )
        self.metadata = dict(metadata or {})
        self.metadata.setdefault("n_clusters", k)
        self.metadata.setdefault("dimensions", centroids.shape[1])
        self._recorder = recorder if recorder is not None else _null_recorder()

    # -- introspection --------------------------------------------------------

    @property
    def n_clusters(self) -> int:
        """Number of frozen clusters ``K``."""
        return self.centroids.shape[0]

    @property
    def dimensions(self) -> int:
        """Feature dimensionality ``d``."""
        return self.centroids.shape[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FrozenModel(n_clusters={self.n_clusters}, "
            f"dimensions={self.dimensions})"
        )

    # -- compilation ----------------------------------------------------------

    @classmethod
    def _from_clusters(
        cls,
        centroids: np.ndarray,
        clusters: list,
        metadata: dict,
        recorder: Optional["Recorder"],
    ) -> "FrozenModel":
        """Freeze centroids with radii and weights from their exact CFs."""
        radii = np.array(
            [cf.radius if cf.n > 0 else 0.0 for cf in clusters], dtype=np.float64
        )
        weights = np.array([float(cf.n) for cf in clusters], dtype=np.float64)
        centroids, radii, weights = _compact_clusters(
            np.ascontiguousarray(centroids, dtype=np.float64),
            radii,
            weights,
            metadata,
        )
        return cls(centroids, radii, weights, metadata=metadata, recorder=recorder)

    @classmethod
    def from_result(
        cls,
        result: "BirchResult",
        *,
        source_digest: Optional[str] = None,
        recorder: Optional["Recorder"] = None,
    ) -> "FrozenModel":
        """Compile a fitted :class:`~repro.core.birch.BirchResult`.

        Radii and weights come from the exact final-cluster CFs; decayed
        clusters keep their fractional mass.  Clusters
        that refinement emptied are compacted away so the served label
        space is dense (see :func:`_compact_clusters`).
        """
        metadata: dict = {"source": {"kind": "result"}}
        if source_digest is not None:
            metadata["source"]["sha256"] = source_digest
        return cls._from_clusters(
            result.centroids, result.clusters, metadata, recorder
        )

    @classmethod
    def from_estimator(
        cls,
        birch: "Birch",
        *,
        recorder: Optional["Recorder"] = None,
    ) -> "FrozenModel":
        """Compile a fitted :class:`~repro.core.birch.Birch` estimator.

        Raises :class:`~repro.errors.NotFittedError` (via the
        estimator) when no result exists yet.
        """
        result = birch.result  # raises NotFittedError when unfitted
        model = cls.from_result(result, recorder=recorder)
        model.metadata["source"] = {"kind": "estimator"}
        return model

    @classmethod
    def from_forest(
        cls,
        result: "ForestResult",
        *,
        recorder: Optional["Recorder"] = None,
    ) -> "FrozenModel":
        """Compile a :class:`~repro.ensemble.ForestResult` consensus.

        The consensus clusters are exact CF merges of the forest's
        anchor CFs, so radii and weights are as honest as a single
        tree's; the artifact serves through the same kernel at the same
        QPS.  Metadata records the forest provenance (member count,
        seed, consensus method) so a served model is traceable to the
        exact ensemble that produced it.
        """
        metadata: dict = {
            "source": {
                "kind": "forest",
                "n_members": int(result.n_members),
                "seed": int(result.seed),
                "consensus": str(result.consensus),
                "n_anchors": len(result.anchors),
            }
        }
        return cls._from_clusters(
            result.centroids, result.clusters, metadata, recorder
        )

    # -- artifact round-trip --------------------------------------------------

    def save(self, path: str | Path) -> str:
        """Seal into a ``frozen-model`` artifact; returns the payload digest."""
        arrays: dict[str, np.ndarray] = {
            "centroids": self.centroids,
            "centroid_sq_norms": self.centroid_sq_norms,
            "radii": self.radii,
            "weights": self.weights,
            "label_remap": self.label_remap,
        }
        digest = container.write(path, "frozen-model", arrays, self.metadata)
        self._recorder.event(
            "serve.compile.saved",
            path=str(path),
            n_clusters=self.n_clusters,
            dimensions=self.dimensions,
        )
        return digest

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        verify: bool = False,
        mmap: bool = True,
        recorder: Optional["Recorder"] = None,
    ) -> "FrozenModel":
        """Open a sealed artifact, read-only.

        With ``mmap=True`` (default) the model's arrays are
        :class:`numpy.memmap` views — many processes loading the same
        file share one set of physical pages and copy nothing.
        ``verify=True`` additionally checks the payload digest.
        """
        archive = container.read(path, "frozen-model", verify=verify, mmap=mmap)
        arrays = {name: archive[name] for name in _CORE_ARRAYS}
        metadata = dict(archive.metadata)
        # Artifacts written while the pruned index existed name it here
        # and carry its ``index_*`` arrays; both are ignored.
        metadata.pop("index", None)
        metadata["artifact"] = {
            "path": str(path),
            "version": archive.version,
            "payload_sha256": archive.payload_sha256,
        }
        model = cls(
            arrays["centroids"],
            arrays["radii"],
            arrays["weights"],
            centroid_sq_norms=arrays["centroid_sq_norms"],
            label_remap=arrays["label_remap"],
            metadata=metadata,
            recorder=recorder,
        )
        model._recorder.event(
            "serve.load",
            path=str(path),
            n_clusters=model.n_clusters,
            dimensions=model.dimensions,
            mmap=bool(mmap),
            verified=bool(verify),
        )
        return model

    # -- queries --------------------------------------------------------------

    def _coerce(self, points: np.ndarray) -> np.ndarray:
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(
                f"query points must be 2-d (n, d), got shape {points.shape}"
            )
        if points.shape[1] != self.dimensions:
            raise ValueError(
                f"dimension mismatch: model has d={self.dimensions}, "
                f"queries have d={points.shape[1]}"
            )
        return points

    def predict(
        self, points: np.ndarray, *, chunk: Optional[int] = None
    ) -> np.ndarray:
        """Nearest-centroid label for each query row.

        Exact search through the flat reduced-panel kernel, ties to the
        lowest cluster index; ``chunk`` sets the query rows per cache
        block (default :func:`~repro.serve.kernel.default_chunk`).
        """
        points = self._coerce(points)
        n = points.shape[0]
        if chunk is None:
            chunk = default_chunk(self.n_clusters)
        rec = self._recorder
        with rec.span("serve.predict", n=n):
            idx = nearest_centroids(
                points, self.centroids, self.centroid_sq_norms, chunk=chunk
            )
            labels = self.label_remap[idx]
        rec.count("serve.queries", n)
        rec.count("serve.batches")
        return labels

    def transform(
        self, points: np.ndarray, *, chunk: Optional[int] = None
    ) -> np.ndarray:
        """Euclidean distance from each query to every centroid, ``(n, K)``.

        Columns follow internal centroid order (``label_remap`` of the
        argmin of a row equals :meth:`predict` of that row).
        """
        points = self._coerce(points)
        n = points.shape[0]
        if chunk is None:
            chunk = default_chunk(self.n_clusters)
        out = np.empty((n, self.n_clusters), dtype=np.float64)
        with self._recorder.span("serve.transform", n=n):
            for start in range(0, n, chunk):
                block = points[start : start + chunk]
                d2 = pairwise_sq_dists(
                    block, self.centroids, self.centroid_sq_norms
                )
                np.sqrt(d2, out=out[start : start + chunk])
        self._recorder.count("serve.queries", n)
        return out

    def score(self, points: np.ndarray, *, chunk: Optional[int] = None) -> float:
        """Negative mean squared distance to the nearest centroid.

        The sign convention matches the estimator-score idiom (larger is
        better); the magnitude is the per-point quantisation error of
        serving queries off the frozen centroids.
        """
        points = self._coerce(points)
        if chunk is None:
            chunk = default_chunk(self.n_clusters)
        with self._recorder.span("serve.score", n=points.shape[0]):
            _, best = nearest_centroids(
                points,
                self.centroids,
                self.centroid_sq_norms,
                chunk=chunk,
                return_sq_dists=True,
            )
            value = -float(best.mean())
        self._recorder.count("serve.queries", points.shape[0])
        return value


def compile_model(
    source: str | Path,
    *,
    recorder: Optional["Recorder"] = None,
) -> FrozenModel:
    """Compile a frozen model from an on-disk source.

    ``source`` may be a checkpoint (the tree is resumed and
    :meth:`~repro.core.birch.Birch.finalize`-d — Phases 2-3 run, no
    raw-data rescan) or a ``save_result`` archive, current or legacy
    (:func:`repro.core.container.sniff` tells them apart).  The
    source file's sha256 is recorded in the model metadata so a served
    artifact is traceable to the exact fit that produced it.

    Raises :class:`~repro.errors.ArchiveError` when the source is
    unreadable or of another kind.
    """
    source = Path(source)
    kind = container.sniff(source)
    if kind == "frozen-model":
        raise ArchiveError(
            f"{source}: already a frozen-model artifact; load it with "
            f"FrozenModel.load instead of compiling"
        )
    if kind not in ("checkpoint", "result"):
        raise ArchiveError(
            f"{source}: a {kind} archive cannot be compiled; give a "
            f"checkpoint or a result archive"
        )
    rec = recorder if recorder is not None else _null_recorder()

    with rec.span("serve.compile", source=str(source)):
        digest = _file_digest(source)
        if kind == "checkpoint":
            from repro.core.birch import Birch

            estimator = Birch.resume(source)
            result = estimator.finalize()
            model = FrozenModel.from_result(
                result,
                source_digest=digest,
                recorder=recorder,
            )
            model.metadata["source"].update(
                {"kind": "checkpoint", "path": str(source)}
            )
        else:
            from repro.core.serialization import load_result_arrays

            clusters, centroids, _labels, _header = load_result_arrays(source)
            metadata = {
                "source": {
                    "kind": "result-archive",
                    "path": str(source),
                    "sha256": digest,
                }
            }
            model = FrozenModel._from_clusters(
                centroids, clusters, metadata, recorder
            )
    rec.event(
        "serve.compile.done",
        source=str(source),
        n_clusters=model.n_clusters,
        dimensions=model.dimensions,
    )
    return model
