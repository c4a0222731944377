"""One sealed on-disk container for every file the library writes.

Checkpoints, the ``save_cfs``/``save_tree``/``save_result`` archives
and frozen models are all written by :func:`write`, read back by
:func:`read` and told apart by :func:`sniff`.  Each file is a
kind-tagged JSON header followed by raw C-order arrays on 64-byte
boundaries, sealed by two sha256 digests.  The layout, the kinds, what
is verified when, and which older files still load are described in
``docs/robustness.md`` ("On-disk formats").
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import time
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional

import numpy as np

from repro.errors import ArchiveError, ChecksumMismatchError
from repro.pagestore.faults import FaultInjector, retry_io

__all__ = ["KINDS", "MAGIC", "VERSION", "read", "read_header", "sniff", "write"]

MAGIC = b"BIRCHARC"
VERSION = 1
KINDS = ("checkpoint", "result", "tree", "cfs", "frozen-model")

# magic | version | sha256(version | header length | header) | header length
_PREAMBLE = struct.Struct("<8sI32sQ")
_ALIGN = 64
_IO_CHUNK = 64 * 1024

# Read-only legacy inputs.  BIRCHFRZ v1 has the sealed layout with
# absolute array offsets; BIRCHCKP wraps a zipped .npz in a preamble of
# the same shape.
_FROZEN_V1_MAGIC = b"BIRCHFRZ"
_CHECKPOINT_MAGIC = b"BIRCHCKP"
_ZIP_MAGIC = b"PK\x03\x04"
_LEGACY_VERSIONS = (1, 2)


def _align(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def _header_digest(version: int, header: bytes) -> bytes:
    return hashlib.sha256(struct.pack("<IQ", version, len(header)) + header).digest()


# -- writing ------------------------------------------------------------------


def write_atomic(
    path: str | Path,
    blob: bytes,
    *,
    injector: Optional[FaultInjector] = None,
    attempts: int = 1,
    base_delay: float = 0.0,
    sleep: Callable[[float], None] = time.sleep,
) -> None:
    """Replace ``path`` with ``blob`` so no reader ever sees a torn file.

    The bytes go to ``<path>.tmp`` in 64 KiB chunks (each one consulted
    with ``injector`` when given), are fsynced, renamed over ``path``
    and the directory is fsynced.  Transient faults are retried per
    ``attempts``/``base_delay``; on failure the temp file is removed and
    the previous ``path`` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    view = memoryview(blob)

    def write_once() -> None:
        with open(tmp, "wb") as handle:
            for offset in range(0, len(view), _IO_CHUNK):
                chunk = view[offset : offset + _IO_CHUNK]
                if injector is not None:
                    injector.check("write", nbytes=len(chunk), offset=offset)
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())

    try:
        retry_io(write_once, attempts=attempts, base_delay=base_delay, sleep=sleep)
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


def write(
    path: str | Path,
    kind: str,
    arrays: Mapping[str, np.ndarray],
    metadata: dict,
    *,
    injector: Optional[FaultInjector] = None,
    attempts: int = 1,
    base_delay: float = 0.0,
    sleep: Callable[[float], None] = time.sleep,
) -> str:
    """Seal ``arrays`` and ``metadata`` into ``path``; returns the payload digest.

    ``path`` is written exactly as given (no suffix is appended) by
    :func:`write_atomic`, with the fault and retry arguments.  Arrays
    are stored as little-endian C-order bytes so :func:`read` can map
    each one without a copy; ``metadata`` must be JSON-serialisable.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown archive kind {kind!r}; expected one of {KINDS}")
    table, parts, cursor = [], [], 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        if array.dtype.hasobject:
            raise TypeError(f"array {name!r} has an object dtype")
        if array.dtype.byteorder == ">":
            array = array.astype(array.dtype.newbyteorder("<"))
        offset = _align(cursor)  # relative to the payload start
        parts += [bytes(offset - cursor), array.tobytes()]
        cursor = offset + array.nbytes
        table.append(
            {"name": name, "dtype": array.dtype.str, "shape": list(array.shape),
             "offset": offset, "nbytes": array.nbytes}
        )
    payload = b"".join(parts)
    digest = hashlib.sha256(payload).hexdigest()
    header = json.dumps(
        {"kind": kind, "version": VERSION, "payload_sha256": digest,
         "arrays": table, "metadata": metadata}
    ).encode("utf-8")
    preamble = _PREAMBLE.pack(
        MAGIC, VERSION, _header_digest(VERSION, header), len(header)
    )
    pad = bytes(_align(_PREAMBLE.size + len(header)) - _PREAMBLE.size - len(header))
    write_atomic(
        path,
        b"".join([preamble, header, pad, payload]),
        injector=injector,
        attempts=attempts,
        base_delay=base_delay,
        sleep=sleep,
    )
    return digest


# -- reading ------------------------------------------------------------------


@dataclass(frozen=True)
class Header:
    """The authenticated header of a sealed file; array offsets are absolute."""

    kind: str
    version: int
    metadata: dict
    arrays: list
    payload_sha256: str
    payload_start: int
    end: int


@dataclass(frozen=True)
class Archive:
    """A loaded file: its kind, metadata and arrays by name.

    Indexing a missing array raises :class:`~repro.errors.ArchiveError`.
    """

    path: Path
    kind: str
    version: int
    metadata: dict
    arrays: dict
    payload_sha256: Optional[str] = None

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.arrays[name]
        except KeyError:
            raise ArchiveError(
                f"{self.path}: {self.kind} archive has no {name!r} array"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self.arrays


def _magic(path: Path) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC))
    except FileNotFoundError:
        raise ArchiveError(f"{path} does not exist") from None
    except OSError as exc:
        raise ArchiveError(f"cannot read {path}: {exc}") from exc


def read_header(path: str | Path) -> Header:
    """Read and authenticate a sealed file's header; touches no array.

    Checks the magic, the header digest, the zero padding up to the
    payload and the file length the array table implies.  Raises
    :class:`~repro.errors.ArchiveError` for missing, foreign, truncated
    or unsupported files and :class:`~repro.errors.ChecksumMismatchError`
    for any damaged byte after the magic.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            preamble = handle.read(_PREAMBLE.size)
            if preamble[:8] not in (MAGIC, _FROZEN_V1_MAGIC):
                raise ArchiveError(f"{path} is not a sealed BIRCH archive (bad magic)")
            if len(preamble) < _PREAMBLE.size:
                raise ArchiveError(f"{path} is truncated ({size} bytes)")
            magic, version, digest, header_len = _PREAMBLE.unpack(preamble)
            payload_start = _align(_PREAMBLE.size + header_len)
            if payload_start > size:
                _raise_overlong(path, version, digest, header_len, handle.read())
            head = handle.read(payload_start - _PREAMBLE.size)
    except FileNotFoundError:
        raise ArchiveError(f"{path} does not exist") from None
    except OSError as exc:
        raise ArchiveError(f"cannot read {path}: {exc}") from exc
    if _header_digest(version, head[:header_len]) != digest:
        raise ChecksumMismatchError(
            f"{path} failed its integrity check (header sha256, version {version})"
        )
    if version != VERSION:
        raise ArchiveError(
            f"{path} has unsupported version {version}; this build reads "
            f"version {VERSION}"
        )
    if any(head[header_len:]):
        raise ChecksumMismatchError(
            f"{path} failed its integrity check (non-zero header padding)"
        )
    legacy = magic == _FROZEN_V1_MAGIC
    try:
        header = json.loads(head[:header_len].decode("utf-8"))
        kind = "frozen-model" if legacy else header["kind"]
        table = header["arrays"]
        for entry in () if legacy else table:
            entry["offset"] += payload_start
        end = max([payload_start] + [e["offset"] + e["nbytes"] for e in table])
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise ArchiveError(f"{path} has a malformed header: {exc}") from exc
    if kind not in KINDS:
        raise ArchiveError(f"{path} holds an unknown kind {kind!r}")
    if size != end:
        raise ArchiveError(f"{path} is truncated or padded: {size} bytes, not {end}")
    return Header(
        kind, version, header.get("metadata", {}), table,
        header.get("payload_sha256", ""), payload_start, end,
    )


def _raise_overlong(
    path: Path, version: int, digest: bytes, declared: int, rest: bytes
) -> None:
    """The header length points past the end of the file.

    Either the file was cut or the length field is damaged.  The header
    is ASCII JSON and delimits itself: a complete header of another
    length that matches the digest means only the length field is wrong.
    """
    try:
        _, found = json.JSONDecoder().raw_decode(rest.decode("latin-1"))
    except ValueError:
        found = declared
    if found != declared and _header_digest(version, rest[:found]) == digest:
        raise ChecksumMismatchError(
            f"{path} failed its integrity check (damaged header length)"
        )
    raise ArchiveError(f"{path} is truncated")


def _read_payload(path: Path, header: Header) -> bytearray:
    payload = bytearray(header.end - header.payload_start)
    with open(path, "rb") as handle:
        handle.seek(header.payload_start)
        if handle.readinto(payload) != len(payload):
            raise ArchiveError(f"{path} is truncated")
    return payload


def _read_sealed(path: Path, verify: bool, mmap: bool) -> Archive:
    header = read_header(path)
    payload = _read_payload(path, header) if verify or not mmap else None
    if verify and hashlib.sha256(payload).hexdigest() != header.payload_sha256:
        raise ChecksumMismatchError(
            f"{path} failed its integrity check (payload sha256)"
        )
    arrays = {}
    for entry in header.arrays:
        dtype, shape = np.dtype(entry["dtype"]), tuple(entry["shape"])
        if entry["nbytes"] == 0:
            array = np.empty(shape, dtype=dtype)
        elif mmap:
            array = np.memmap(
                path, dtype=dtype, mode="r", offset=entry["offset"], shape=shape
            )
        else:
            array = np.frombuffer(
                payload, dtype=dtype, count=entry["nbytes"] // dtype.itemsize,
                offset=entry["offset"] - header.payload_start,
            ).reshape(shape)
        arrays[entry["name"]] = array
    return Archive(
        path, header.kind, header.version, header.metadata, arrays,
        header.payload_sha256,
    )


def read(
    path: str | Path,
    kind: Optional[str] = None,
    *,
    verify: bool = True,
    mmap: bool = False,
) -> Archive:
    """Load any archive this library writes, or a legacy one.

    A file of another ``kind`` (when given) raises
    :class:`~repro.errors.ArchiveError`.  ``mmap=True`` returns
    read-only :class:`numpy.memmap` views instead of private writable
    copies; ``verify=False`` skips the payload digest, which only a
    serving ``mmap`` load should do, since hashing faults in every page.
    """
    path = Path(path)
    magic = _magic(path)
    if magic == _CHECKPOINT_MAGIC:
        archive = _read_legacy_checkpoint(path)
    elif magic.startswith(_ZIP_MAGIC):
        archive = _read_legacy_npz(path)
    else:
        archive = _read_sealed(path, verify, mmap)
    if kind is not None and archive.kind != kind:
        raise ArchiveError(f"{path} holds a {archive.kind}, not a {kind}")
    return archive


def sniff(path: str | Path) -> str:
    """The kind of the archive at ``path``, current or legacy.

    Raises :class:`~repro.errors.ArchiveError` for any other file.
    """
    path = Path(path)
    magic = _magic(path)
    if magic == _CHECKPOINT_MAGIC:
        return "checkpoint"
    if magic.startswith(_ZIP_MAGIC):
        return _read_legacy_npz(path).kind
    return read_header(path).kind


# -- legacy, read-only --------------------------------------------------------


def _npz_arrays(source, path: Path) -> dict[str, np.ndarray]:
    try:
        with np.load(source) as data:
            return {key: data[key] for key in data.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise ArchiveError(f"{path} is truncated or corrupt: {exc}") from exc


def _json_array(array: np.ndarray, path: Path) -> dict:
    try:
        return json.loads(bytes(array).decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ArchiveError(f"{path} has a malformed header: {exc}") from exc


def _read_legacy_checkpoint(path: Path) -> Archive:
    """BIRCHCKP v1/v2: sha256(version | length | payload) over an ``.npz``."""
    raw = path.read_bytes()
    if len(raw) < _PREAMBLE.size:
        raise ArchiveError(f"{path} is truncated ({len(raw)} bytes)")
    _, version, digest, length = _PREAMBLE.unpack_from(raw)
    payload = raw[_PREAMBLE.size :]
    if hashlib.sha256(raw[8:12] + raw[44:52] + payload).digest() != digest:
        raise ChecksumMismatchError(f"{path} failed its integrity check")
    if version not in _LEGACY_VERSIONS or length != len(payload):
        raise ArchiveError(
            f"{path} has unsupported checkpoint version {version}; this "
            f"build reads versions {list(_LEGACY_VERSIONS)}"
        )
    arrays = _npz_arrays(io.BytesIO(payload), path)
    if "meta" not in arrays:
        raise ArchiveError(f"{path} has no checkpoint metadata")
    meta = _json_array(arrays.pop("meta"), path)
    return Archive(path, "checkpoint", version, meta, arrays)


def _read_legacy_npz(path: Path) -> Archive:
    """v1 (N, LS, SS) and v2 (n, mean, SSD) ``np.savez_compressed`` archives."""
    arrays = _npz_arrays(path, path)
    if "version" not in arrays:
        raise ArchiveError(f"{path} is an .npz file but no repro archive")
    version = int(arrays.pop("version"))
    if version not in _LEGACY_VERSIONS:
        raise ArchiveError(
            f"{path} has unsupported archive version {version}; this "
            f"build reads versions {list(_LEGACY_VERSIONS)}"
        )
    metadata = _json_array(arrays.pop("header"), path) if "header" in arrays else {}
    kind = "result" if "centroids" in arrays else "tree" if metadata else "cfs"
    return Archive(path, kind, version, metadata, arrays)
