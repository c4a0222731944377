"""Writers of the pre-container file formats, for read-compatibility tests.

The library only reads these formats now.  Each helper reproduces the
writer that produced them, byte layout for byte layout:

* ``BIRCHCKP`` v1/v2 checkpoints — magic, uint32 version,
  sha256(version | length | payload), uint64 length, then a zipped
  ``.npz`` payload holding a ``meta`` JSON array and the state arrays;
* v1 ``(N, LS, SS)`` / v2 ``(n, mean, SSD)`` ``np.savez_compressed``
  archives from ``save_cfs`` / ``save_tree`` / ``save_result``;
* ``BIRCHFRZ`` v1 frozen models — the sealed aligned layout the
  container generalised, with a ``format``/``metadata`` header;
* files of the retired ``cf_backend="classic"`` trees, which stored the
  paper's ``(N, LS, SS)`` rows: v1 archives, and checkpoints (either
  container) whose stored config names that backend.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core import container


def _json_array(data: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(data).encode(), dtype=np.uint8)


def checkpoint_state(path: Path) -> tuple[dict, dict]:
    """``(meta, arrays)`` of a checkpoint, as private copies."""
    archive = container.read(path, "checkpoint")
    return dict(archive.metadata), {k: v.copy() for k, v in archive.arrays.items()}


def birchckp_bytes(meta: dict, arrays: dict, version: int) -> bytes:
    """A ``BIRCHCKP`` file holding ``meta`` and ``arrays``."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, meta=_json_array(meta), **arrays)
    payload = buffer.getvalue()
    packed = struct.pack("<I", version)
    length = struct.pack("<Q", len(payload))
    digest = hashlib.sha256(packed + length + payload).digest()
    return b"BIRCHCKP" + packed + digest + length + payload


def v1_checkpoint_bytes(path: Path) -> bytes:
    """The version-1 form of a checkpoint: no evolve section or arrays,
    and no Phase 1 seconds."""
    meta, arrays = checkpoint_state(path)
    meta.pop("evolve", None)
    meta["format"] = 1
    arrays = {
        k: v
        for k, v in arrays.items()
        if not k.startswith("evolve_") and k != "phase1_seconds"
    }
    return birchckp_bytes(meta, arrays, 1)


def write_npz_archive(
    path: Path, arrays: dict, header: Optional[dict], version: int
) -> None:
    """A ``save_*`` archive as ``np.savez_compressed`` wrote it."""
    extra = {} if header is None else {"header": _json_array(header)}
    with open(path, "wb") as handle:
        np.savez_compressed(handle, version=version, **extra, **arrays)


def npz_copy(path: Path, target: Path) -> None:
    """Rewrite a sealed ``cfs``/``tree``/``result`` file as a legacy ``.npz``."""
    archive = container.read(path)
    header = archive.metadata if archive.kind != "cfs" else None
    version = 2 if "means" in archive else 1
    write_npz_archive(target, dict(archive.arrays), header, version)


def classic_rows(
    ns: np.ndarray, means: np.ndarray, ssds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(n, mean, SSD)`` rows as the ``(N, LS, SS)`` rows a classic
    tree held: ``LS = n mean`` and ``SS = SSD + n ||mean||^2``."""
    ls = ns[:, None] * means
    return ns, ls, ssds + ns * np.einsum("ij,ij->i", means, means)


def classic_npz_copy(path: Path, target: Path) -> None:
    """Rewrite a sealed ``cfs``/``tree``/``result`` file as the v1
    ``.npz`` a classic fit wrote: integer counts, ``ls``/``ss`` rows
    and, for a tree, ``cf_backend: "classic"`` in its header."""
    archive = container.read(path)
    arrays = dict(archive.arrays)
    ns, ls, ss = classic_rows(
        arrays.pop("ns"), arrays.pop("means"), arrays.pop("ssds")
    )
    arrays.update(ns=ns.astype(np.int64), ls=ls, ss=ss)
    header = None
    if archive.kind != "cfs":
        header = dict(archive.metadata)
        if archive.kind == "tree":
            header["cf_backend"] = "classic"
    write_npz_archive(target, arrays, header, 1)


def classic_checkpoint_state(path: Path) -> tuple[dict, dict]:
    """``(meta, arrays)`` of a checkpoint as a classic fit stored it:
    config ``cf_backend: "classic"`` and ``(N, LS, SS)`` tree and
    outlier rows."""
    meta, arrays = checkpoint_state(path)
    meta["config"] = {**meta["config"], "cf_backend": "classic"}
    for prefix in ("tree_entry_", "outlier_"):
        keys = [prefix + key for key in ("ns", "vec", "sq")]
        rows = classic_rows(*(arrays[key] for key in keys))
        arrays.update(zip(keys, rows))
    return meta, arrays


def rewrite_as_classic_checkpoint(path: Path) -> None:
    """Replace a sealed checkpoint with the one a classic fit of the
    same state would have written."""
    meta, arrays = classic_checkpoint_state(path)
    container.write(path, "checkpoint", arrays, meta)


def write_birchfrz_v1(path: Path, arrays: dict, metadata: dict) -> str:
    """A ``BIRCHFRZ`` v1 frozen model; returns its payload digest."""
    prepared = {k: np.ascontiguousarray(v) for k, v in arrays.items()}
    table = [
        {"name": k, "dtype": v.dtype.str, "shape": list(v.shape), "offset": 0,
         "nbytes": int(v.nbytes)}
        for k, v in prepared.items()
    ]

    def render(digest_hex: str) -> bytes:
        header = {
            "format": "birch-frozen-model",
            "version": 1,
            "payload_sha256": digest_hex,
            "arrays": table,
            "metadata": metadata,
        }
        return json.dumps(header, sort_keys=True).encode("utf-8")

    def align(offset: int) -> int:
        return -(-offset // 64) * 64

    header_len = len(render("0" * 64))
    while True:
        cursor = align(52 + header_len)
        for entry in table:
            entry["offset"] = cursor
            cursor = align(cursor + entry["nbytes"])
        if len(render("0" * 64)) == header_len:
            break
        header_len = len(render("0" * 64))
    payload = b""
    cursor = align(52 + header_len)
    for entry, array in zip(table, prepared.values()):
        payload += bytes(entry["offset"] - cursor) + array.tobytes()
        cursor = entry["offset"] + entry["nbytes"]
    digest_hex = hashlib.sha256(payload).hexdigest()
    header = render(digest_hex)
    sealed = hashlib.sha256(struct.pack("<IQ", 1, len(header)) + header).digest()
    pad = bytes(align(52 + len(header)) - 52 - len(header))
    Path(path).write_bytes(
        b"BIRCHFRZ" + struct.pack("<I", 1) + sealed
        + struct.pack("<Q", len(header)) + header + pad + payload
    )
    return digest_hex
