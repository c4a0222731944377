"""The frozen-model artifact: a ``frozen-model`` file of the sealed container.

A compiled :class:`~repro.serve.frozen.FrozenModel` is a handful of flat
numpy arrays plus a small metadata dict.  The container
(:mod:`repro.core.container`) lays the raw array bytes at 64-byte
boundaries, so any number of serving processes map one file read-only
with :class:`numpy.memmap` and share one set of physical pages.  The
layout, what is verified when (a serving load skips the payload digest)
and the ``BIRCHFRZ`` v1 files that still load are described in
``docs/robustness.md`` ("On-disk formats").
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core import container

__all__ = [
    "ARTIFACT_MAGIC",
    "ARTIFACT_VERSION",
    "load_artifact",
    "read_artifact_header",
    "write_artifact",
]

ARTIFACT_MAGIC = container.MAGIC
ARTIFACT_VERSION = container.VERSION


def write_artifact(
    path: str | Path, arrays: dict[str, np.ndarray], metadata: dict
) -> str:
    """Seal a frozen-model artifact; returns the payload digest."""
    return container.write(path, "frozen-model", arrays, metadata)


def read_artifact_header(path: str | Path) -> dict:
    """Read and authenticate an artifact's header without touching arrays."""
    return asdict(container.read_header(path))


def load_artifact(
    path: str | Path, *, verify: bool = False, mmap: bool = True
) -> tuple[dict[str, np.ndarray], dict]:
    """Open an artifact; returns ``(arrays, header)`` (see :func:`container.read`)."""
    archive = container.read(path, "frozen-model", verify=verify, mmap=mmap)
    header = {
        "version": archive.version,
        "payload_sha256": archive.payload_sha256,
        "metadata": archive.metadata,
    }
    return archive.arrays, header
