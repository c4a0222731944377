"""repro.serve — the frozen, shareable, high-QPS read path.

A fitted BIRCH model's query-time essence is just its Phase 3 centroids
(paper §4); this package compiles that essence into a
:class:`FrozenModel` — flat float64 arrays — seals it into a
sha256-checked ``frozen-model`` file of the library's one on-disk
container (:mod:`repro.core.container`), and lets any number
of processes map the artifact read-only through :class:`numpy.memmap`
and answer ``predict``/``transform``/``score`` batches through one
shared vectorised kernel.

The kernel module (:mod:`repro.serve.kernel`) is deliberately
numpy-only so :mod:`repro.core.birch` can share the exact same
arithmetic for its own ``predict`` without an import cycle.
"""

from repro.serve.artifact import (
    ARTIFACT_MAGIC,
    ARTIFACT_VERSION,
    load_artifact,
    read_artifact_header,
    write_artifact,
)
from repro.serve.frozen import FrozenModel, compile_model
from repro.serve.kernel import (
    default_chunk,
    nearest_centroids,
    pairwise_sq_dists,
    sq_norms,
)

__all__ = [
    "ARTIFACT_MAGIC",
    "ARTIFACT_VERSION",
    "FrozenModel",
    "compile_model",
    "default_chunk",
    "load_artifact",
    "nearest_centroids",
    "pairwise_sq_dists",
    "read_artifact_header",
    "sq_norms",
    "write_artifact",
]
