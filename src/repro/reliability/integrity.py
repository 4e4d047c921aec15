"""Checksummed artifact envelopes.

Every artifact :mod:`repro.persistence` writes (histogram, N-MCM/L-MCM
statistics, M-tree) is wrapped in an envelope carrying CRC32
checksums of the exact serialised body bytes — one checksum per
``block_size`` block plus one over the whole body.  On load the blocks
are re-verified, so a flipped bit is not just *detected* but *localised*:
:class:`~repro.exceptions.CorruptedDataError` reports the byte offset of
the first mismatching block.

The envelope is itself JSON::

    {"kind": "checksummed-artifact", "version": 1, "algo": "crc32",
     "length": 982, "block_size": 1024, "block_crcs": [...],
     "crc32": 4023233417, "body": "{...the artifact...}"}

Loading is backward compatible by default: a file whose top level is not
an envelope is treated as a legacy unchecksummed artifact and passed
through — but each such load increments the
``reliability.legacy_artifact_loads`` metrics counter, and ``strict=True``
rejects legacy payloads outright (the posture for deployments whose whole
corpus has been rewritten with envelopes).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..exceptions import (
    CorruptedDataError,
    FormatVersionError,
    InvalidParameterError,
)
from ..observability import state as _obs

__all__ = [
    "ENVELOPE_KIND",
    "ENVELOPE_VERSION",
    "DEFAULT_BLOCK_SIZE",
    "ArtifactReport",
    "wrap_artifact",
    "unwrap_artifact",
    "is_wrapped",
    "dumps_artifact",
    "loads_artifact",
    "verify_file",
]

ENVELOPE_KIND = "checksummed-artifact"
ENVELOPE_VERSION = 1
DEFAULT_BLOCK_SIZE = 1024

PathLike = Union[str, Path]


def _crc32(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def _block_crcs(data: bytes, block_size: int) -> List[int]:
    return [
        _crc32(data[offset : offset + block_size])
        for offset in range(0, len(data), block_size)
    ]


def is_wrapped(doc: Any) -> bool:
    """True if ``doc`` is a checksummed-artifact envelope."""
    return isinstance(doc, dict) and doc.get("kind") == ENVELOPE_KIND


def wrap_artifact(
    payload: Dict[str, Any], block_size: int = DEFAULT_BLOCK_SIZE
) -> Dict[str, Any]:
    """Envelope ``payload`` with per-block and whole-body CRC32 checksums."""
    if block_size < 1:
        raise InvalidParameterError(
            f"block_size must be >= 1, got {block_size}"
        )
    body = json.dumps(payload, separators=(",", ":"))
    data = body.encode("utf-8")
    # "body" deliberately last: a tamper test can locate the body region
    # in the raw file text after all the checksum metadata.
    return {
        "kind": ENVELOPE_KIND,
        "version": ENVELOPE_VERSION,
        "algo": "crc32",
        "length": len(data),
        "block_size": block_size,
        "block_crcs": _block_crcs(data, block_size),
        "crc32": _crc32(data),
        "body": body,
    }


def unwrap_artifact(
    doc: Dict[str, Any], source: Optional[str] = None
) -> Dict[str, Any]:
    """Verify an envelope and return the inner artifact payload.

    Raises :class:`CorruptedDataError` (with the byte offset of the first
    mismatching block) on any checksum, length or structure violation, and
    :class:`FormatVersionError` on an unreadable envelope version.
    """
    where = f" in {source}" if source else ""
    if not is_wrapped(doc):
        raise CorruptedDataError(f"not a checksummed artifact{where}")
    version = doc.get("version")
    if version != ENVELOPE_VERSION:
        raise FormatVersionError(
            f"unsupported envelope version{where}: expected "
            f"{ENVELOPE_VERSION}, found {version!r}"
        )
    if doc.get("algo") != "crc32":
        raise CorruptedDataError(
            f"unknown checksum algorithm {doc.get('algo')!r}{where}"
        )
    body = doc.get("body")
    if not isinstance(body, str):
        raise CorruptedDataError(f"envelope body missing{where}", offset=0)
    data = body.encode("utf-8")
    declared_length = doc.get("length")
    if declared_length != len(data):
        raise CorruptedDataError(
            f"artifact body is {len(data)} bytes but envelope declares "
            f"{declared_length}{where} (truncated or padded write)",
            offset=min(len(data), declared_length or 0),
        )
    block_size = doc.get("block_size", DEFAULT_BLOCK_SIZE)
    declared_blocks = doc.get("block_crcs", [])
    actual_blocks = _block_crcs(data, block_size)
    if len(declared_blocks) != len(actual_blocks):
        raise CorruptedDataError(
            f"envelope declares {len(declared_blocks)} checksum blocks "
            f"but body has {len(actual_blocks)}{where}",
            offset=min(len(declared_blocks), len(actual_blocks)) * block_size,
        )
    for index, (declared, actual) in enumerate(
        zip(declared_blocks, actual_blocks)
    ):
        if declared != actual:
            offset = index * block_size
            raise CorruptedDataError(
                f"checksum mismatch{where}: block {index} (byte offset "
                f"{offset}) has crc32 {actual:#010x}, envelope declares "
                f"{declared:#010x}",
                offset=offset,
            )
    if doc.get("crc32") != _crc32(data):
        raise CorruptedDataError(
            f"whole-body crc32 mismatch{where} (block checksums tampered "
            "consistently?)"
        )
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise CorruptedDataError(
            f"artifact body is not valid JSON{where}: {exc}", offset=exc.pos
        ) from exc


def dumps_artifact(payload: Dict[str, Any]) -> str:
    """Serialise a payload inside a checksummed envelope."""
    return json.dumps(wrap_artifact(payload))


def loads_artifact(
    text: str, source: Optional[str] = None, strict: bool = False
) -> Dict[str, Any]:
    """Parse artifact text: verify an envelope, pass legacy payloads through.

    Unparseable text (empty file, truncated JSON) raises
    :class:`CorruptedDataError` with the parser's byte position.

    A legacy (unchecksummed) payload passes through with the
    ``reliability.legacy_artifact_loads`` counter incremented — unless
    ``strict=True``, in which case it is rejected with
    :class:`CorruptedDataError`: a fleet that has rewritten its whole
    corpus with envelopes treats any unchecksummed file as tampering.
    """
    where = f" in {source}" if source else ""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptedDataError(
            f"artifact is not valid JSON{where}: {exc}", offset=exc.pos
        ) from exc
    if is_wrapped(doc):
        return unwrap_artifact(doc, source=source)
    if strict:
        raise CorruptedDataError(
            f"legacy unchecksummed artifact rejected{where} (strict mode: "
            "only checksummed envelopes are accepted)"
        )
    if not isinstance(doc, dict):
        raise CorruptedDataError(
            f"artifact root must be an object{where}, "
            f"got {type(doc).__name__}"
        )
    if _obs.registry is not None:
        _obs.registry.inc("reliability.legacy_artifact_loads")
    return doc  # legacy, unchecksummed


@dataclass
class ArtifactReport:
    """Outcome of verifying one artifact file (``python -m repro doctor``)."""

    path: str
    ok: bool
    kind: Optional[str] = None
    version: Optional[int] = None
    checksummed: bool = False
    error: Optional[str] = None
    offset: Optional[int] = None


def verify_file(path: PathLike, strict: bool = False) -> ArtifactReport:
    """Integrity-check one artifact file without materialising the object.

    With ``strict=True`` a legacy unchecksummed file fails verification
    instead of passing through (see :func:`loads_artifact`).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        return ArtifactReport(
            path=str(path), ok=False, error=f"unreadable: {exc}"
        )
    try:
        checksummed = is_wrapped(json.loads(text))
    except json.JSONDecodeError:
        checksummed = False  # loads_artifact below reports the parse error
    try:
        payload = loads_artifact(text, source=str(path), strict=strict)
    except CorruptedDataError as exc:
        return ArtifactReport(
            path=str(path),
            ok=False,
            checksummed=checksummed,
            error=str(exc),
            offset=exc.offset,
        )
    except FormatVersionError as exc:
        return ArtifactReport(
            path=str(path), ok=False, checksummed=checksummed, error=str(exc)
        )
    return ArtifactReport(
        path=str(path),
        ok=True,
        kind=payload.get("kind"),
        version=payload.get("version"),
        checksummed=checksummed,
    )
