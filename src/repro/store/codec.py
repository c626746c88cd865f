"""The binary tile codec: one self-describing object per tile.

Object layout (little-endian), designed so a reader needs *nothing* but
the file itself:

* bytes ``0..4``   — magic ``b"RTS1"``;
* bytes ``4..6``   — format version (``u16``, currently 1);
* bytes ``6..8``   — flags (``u16``; always 0 — an object with any flag
  set is refused);
* bytes ``8..12``  — header size (``u32``): the payload offset, always a
  multiple of 64 so a float64 payload is alignment-safe to map directly
  with :func:`numpy.frombuffer`;
* bytes ``12..20`` — payload byte length as stored on disk (``u64``);
* bytes ``20..28`` — decoded payload byte length (``u64``; equal to the
  stored length — the payload is the tile's own buffer);
* bytes ``28..32`` — CRC32 of the payload (``u32``);
* bytes ``32..36`` — metadata JSON length (``u32``);
* bytes ``36..``   — metadata JSON (``{"ns", "key", "dtype", "shape"}``)
  followed by zero padding up to the header size.

The metadata carries the logical identity (namespace + key), so a store
index can always be rebuilt by scanning object headers, and the CRC makes
torn or bit-rotted payloads detectable — a checkpoint resume refuses to
trust a block file whose checksums do not match.

Only C-contiguous arrays are encoded; tiles are float64 in practice but
the codec round-trips any numpy dtype with a stable ``str`` form.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import zlib

import numpy as np

MAGIC = b"RTS1"
VERSION = 1

#: Fixed-width prefix before the metadata JSON: magic, version, flags,
#: header size, stored payload bytes, decoded payload bytes, payload CRC32,
#: metadata length.
_PREFIX = struct.Struct("<4sHHIQQII")

#: Header sizes are rounded up to this, keeping mapped payloads aligned.
ALIGN = 64


class CodecError(ValueError):
    """An object file is not a valid (or not an intact) encoded tile."""


def encode_tile(ns: str, key, arr: np.ndarray) -> tuple[bytes, np.ndarray]:
    """One tile's object as ``(header, payload)``: write them back to back.

    The payload is the tile's own buffer (a contiguous tile is not
    copied); the header carries its CRC.
    """
    arr = np.ascontiguousarray(arr)
    meta = json.dumps(
        {"ns": ns, "key": list(key), "dtype": str(arr.dtype), "shape": list(arr.shape)},
        sort_keys=True,
    ).encode("utf-8")
    header_size = _PREFIX.size + len(meta)
    header_size += (-header_size) % ALIGN
    prefix = _PREFIX.pack(
        MAGIC, VERSION, 0, header_size,
        arr.nbytes, arr.nbytes, zlib.crc32(arr) & 0xFFFFFFFF, len(meta),
    )
    pad = b"\x00" * (header_size - _PREFIX.size - len(meta))
    return prefix + meta + pad, arr


def write_synced(path: str, bufs) -> None:
    """Write ``bufs`` (encoded objects' parts) back to back to ``path``,
    then fsync it; on any error, remove the partial file and re-raise."""
    try:
        with open(path, "wb") as fh:
            for buf in bufs:
                fh.write(buf)
            fh.flush()
            os.fsync(fh.fileno())
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(path)
        raise


def read_header(buf) -> dict:
    """Parse an object's header from a buffer (file prefix or full object).

    Returns ``{"ns", "key", "dtype", "shape", "header_size",
    "payload_bytes", "crc32"}``.  Raises :class:`CodecError` on anything
    that is not an intact header, including one with a flag set or a
    decoded length that differs from the stored one.
    """
    if len(buf) < _PREFIX.size:
        raise CodecError("object shorter than the codec prefix")
    magic, version, flags, header_size, pbytes, dbytes, crc, mlen = _PREFIX.unpack_from(buf, 0)
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r} (not an RTS1 tile object)")
    if version != VERSION:
        raise CodecError(f"unsupported tile-object version {version}")
    if flags or dbytes != pbytes:
        raise CodecError(
            f"unsupported payload encoding (flags {flags:#x}, {pbytes} B "
            f"stored, {dbytes} B decoded)"
        )
    if len(buf) < _PREFIX.size + mlen:
        raise CodecError("object truncated inside the metadata block")
    try:
        meta = json.loads(bytes(buf[_PREFIX.size:_PREFIX.size + mlen]).decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CodecError(f"corrupt metadata JSON: {e}") from None
    return {
        "ns": meta.get("ns", ""),
        "key": tuple(meta.get("key", ())),
        "dtype": meta.get("dtype", "float64"),
        "shape": tuple(meta.get("shape", ())),
        "header_size": header_size,
        "payload_bytes": pbytes,
        "crc32": crc,
    }


def decode_tile(buf) -> tuple[dict, np.ndarray]:
    """Decode and CRC-check a full object buffer; returns ``(header,
    array)``.  Raises :class:`CodecError` on truncation or checksum
    mismatch."""
    header = read_header(buf)
    start = header["header_size"]
    end = start + header["payload_bytes"]
    if len(buf) < end:
        raise CodecError(
            f"object truncated: {len(buf)} B on disk, payload ends at {end} B"
        )
    payload = bytes(buf[start:end])
    if (zlib.crc32(payload) & 0xFFFFFFFF) != header["crc32"]:
        raise CodecError("payload CRC32 mismatch (torn write or bit rot)")
    arr = np.frombuffer(payload, dtype=np.dtype(header["dtype"]))
    return header, arr.reshape(header["shape"])


def map_tile(header: dict, buf) -> np.ndarray:
    """A zero-copy read-only array over an object buffer.

    ``buf`` must stay alive (e.g. an open ``mmap``) as long as the view;
    the store owns that life-cycle.
    """
    arr = np.frombuffer(
        buf, dtype=np.dtype(header["dtype"]),
        count=int(np.prod(header["shape"], dtype=np.int64)) if header["shape"] else 1,
        offset=header["header_size"],
    )
    view = arr.reshape(header["shape"])
    view.flags.writeable = False
    return view
