"""Binary serialization of ciphertexts, plaintexts and public material.

Wire format: a small JSON header (magic, version, kind, moduli, domain,
level, scale) followed by the raw little-endian uint64 residue matrix.
Stable across platforms; secret keys are deliberately *not* serializable
through this module (a deployment would wrap them in a KMS — refusing is
the safe library default).
"""

from __future__ import annotations

import json
import struct
from typing import Tuple

import numpy as np

from .ciphertext import Ciphertext, Plaintext
from .poly import RnsPoly

_MAGIC = b"WDRP"
_VERSION = 1


def _pack(kind: str, header_extra: dict, arrays) -> bytes:
    header = {
        "version": _VERSION,
        "kind": kind,
        "arrays": [
            {"shape": list(a.shape)} for a in arrays
        ],
        **header_extra,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    out = bytearray()
    out += _MAGIC
    out += struct.pack("<I", len(blob))
    out += blob
    for a in arrays:
        out += np.ascontiguousarray(a, dtype="<u8").tobytes()
    return bytes(out)


def _unpack(data: bytes, expect_kind: str) -> Tuple[dict, list]:
    if data[:4] != _MAGIC:
        raise ValueError("not a WarpDrive-repro serialized object")
    if len(data) < 8:
        raise ValueError("truncated header: no header length")
    (hlen,) = struct.unpack("<I", data[4:8])
    if 8 + hlen > len(data):
        raise ValueError(
            f"truncated header: {hlen} bytes declared, "
            f"{len(data) - 8} present"
        )
    header = json.loads(data[8: 8 + hlen].decode())
    if header.get("version") != _VERSION:
        raise ValueError(f"unsupported version {header.get('version')}")
    if header.get("kind") != expect_kind:
        raise ValueError(
            f"expected a {expect_kind}, found {header.get('kind')}"
        )
    arrays = []
    offset = 8 + hlen
    for meta in header["arrays"]:
        shape = tuple(meta["shape"])
        count = int(np.prod(shape))
        raw = data[offset: offset + 8 * count]
        if len(raw) != 8 * count:
            raise ValueError("truncated payload")
        arrays.append(
            np.frombuffer(raw, dtype="<u8").reshape(shape).astype(np.uint64)
        )
        offset += 8 * count
    if offset != len(data):
        raise ValueError(
            f"{len(data) - offset} trailing bytes after the payload"
        )
    return header, arrays


def _poly_header(poly: RnsPoly) -> dict:
    return {"moduli": [int(q) for q in poly.moduli], "domain": poly.domain}


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    """Ciphertext -> bytes (header + two residue matrices)."""
    return _pack(
        "ciphertext",
        {
            "level": ct.level,
            "scale": ct.scale,
            **_poly_header(ct.c0),
        },
        [ct.c0.data, ct.c1.data],
    )


def deserialize_ciphertext(data: bytes) -> Ciphertext:
    header, arrays = _unpack(data, "ciphertext")
    moduli = tuple(header["moduli"])
    domain = header["domain"]
    return Ciphertext(
        c0=RnsPoly(arrays[0], moduli, domain),
        c1=RnsPoly(arrays[1], moduli, domain),
        level=int(header["level"]),
        scale=float(header["scale"]),
    )


def serialize_plaintext(pt: Plaintext) -> bytes:
    return _pack(
        "plaintext",
        {"level": pt.level, "scale": pt.scale, **_poly_header(pt.poly)},
        [pt.poly.data],
    )


def deserialize_plaintext(data: bytes) -> Plaintext:
    header, arrays = _unpack(data, "plaintext")
    return Plaintext(
        poly=RnsPoly(arrays[0], tuple(header["moduli"]), header["domain"]),
        scale=float(header["scale"]),
        level=int(header["level"]),
    )
