"""Frame files and reports: canonical JSON in, canonical JSON out.

A frame file records the field, the dimension, one atom record per frame
vector (weight, coordinates, optional label) and an optional provenance
block.  Complex coordinates are stored as ``[re, im]`` pairs.  Loading
checks every atom with plain type tests, then builds the row array in one
call.

Canonical bytes are ``json.dumps(obj, indent=2, allow_nan=False)`` plus a
newline: two-space indentation, ASCII escapes and shortest round-trip
decimals, so parsing a file and writing it back is byte-identical, and
reports built from fixed seeds come out byte-identical the same way.
``dumps_canonical`` writes those bytes with a small direct encoder, because
``indent`` keeps json on its pure-Python encoder before Python 3.13.  It
hands any value it does not encode, a non-finite float among them, to
``json.dumps``, whose error is then raised.
"""

from __future__ import annotations

import hashlib
import json
import math
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path
from typing import Any

import numpy as np

from .frames import Frame
from .measure import make_atomic
from .retrieval import Certificate

__all__ = [
    "frame_to_doc",
    "doc_to_frame",
    "save_frame",
    "load_frame",
    "load_provenance",
    "dumps_canonical",
    "file_digest",
    "vector_to_json",
    "certificate_to_dict",
    "build_report",
]


def vector_to_json(v: np.ndarray) -> list:
    """Real vectors as float lists, complex vectors as [re, im] pair lists."""
    if np.iscomplexobj(v):
        return [[float(z.real), float(z.imag)] for z in v]
    return [float(x) for x in v]


def _number(value: Any) -> float:
    """A JSON number as a float: TypeError for any other value, a bool included, and OverflowError past float64."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a JSON number: {value!r}")
    return float(value)


def frame_to_doc(frame: Frame, provenance: dict | None = None) -> dict:
    atoms = []
    for atom, row in zip(frame.space.atoms, frame.vectors):
        entry: dict[str, Any] = {"weight": atom.weight, "vector": vector_to_json(row)}
        if atom.label is not None:
            entry["label"] = atom.label
        atoms.append(entry)
    doc: dict[str, Any] = {"field": frame.field, "dim": frame.dim, "atoms": atoms}
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def doc_to_frame(doc: dict) -> Frame:
    if not isinstance(doc, dict):
        raise ValueError("frame document must be a JSON object")
    field = doc.get("field")
    if field not in ("real", "complex"):
        raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    atoms = doc.get("atoms")
    if not isinstance(atoms, list) or not atoms:
        raise ValueError("atoms must be a non-empty list")
    weights: list[float] = []
    labels: list[str | None] = []
    coordinates: list[list] = []
    pairs = field == "complex"
    for k, entry in enumerate(atoms):
        if not isinstance(entry, dict) or "weight" not in entry or "vector" not in entry:
            raise ValueError(f"atom {k}: each atom needs 'weight' and 'vector'")
        try:
            weights.append(_number(entry["weight"]))
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"atom {k}: weight must be a number, got {entry['weight']!r}") from exc
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            raise ValueError(f"atom {k}: label must be a string, got {label!r}")
        labels.append(label)
        vector = entry["vector"]
        if not isinstance(vector, list):
            raise ValueError(f"atom {k}: vector must be a list of {dim} coordinates, got {vector!r}")
        if len(vector) != dim:
            raise ValueError(f"atom {k}: expected {dim} coordinates, got {len(vector)}")
        # A float is a number; any other value must pass ``_number``.
        if pairs:
            try:
                for pair in vector:
                    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                        raise TypeError(f"not an [re, im] pair: {pair!r}")
                    for part in pair:
                        if type(part) is not float:
                            _number(part)
            except (TypeError, OverflowError) as exc:
                raise ValueError(f"atom {k}: complex coordinates must be [re, im] pairs of numbers") from exc
        else:
            try:
                for x in vector:
                    if type(x) is not float:
                        _number(x)
            except (TypeError, OverflowError) as exc:
                raise ValueError(f"atom {k}: real coordinates must be numbers") from exc
        coordinates.append(vector)
    space = make_atomic(weights, labels)
    parts = np.array(coordinates, dtype=float)
    if pairs:
        vectors = np.empty(parts.shape[:2], dtype=complex)
        vectors.real = parts[..., 0]
        vectors.imag = parts[..., 1]
        return Frame(space, vectors)
    return Frame(space, parts)


class _Unencodable(Exception):
    """A value ``_encode`` leaves to ``json.dumps``, which raises its own error for it."""


def _encode(obj: Any, out: list[str], newline: str) -> None:
    """Append the text ``json.dumps(obj, indent=2)`` gives ``obj`` to ``out``; ``newline`` ends in the current indent.

    The type tests run in json's order, so ``bool`` and float subclasses
    encode as json encodes them.
    """
    if isinstance(obj, str):
        out.append(_string(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise _Unencodable
        out.append(float.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in obj:
            out.append(separator)
            _encode(item, out, inner)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise _Unencodable
            out.append(separator + _string(key) + ": ")
            _encode(value, out, inner)
            separator = "," + inner
        out.append(newline + "}")
    else:
        raise _Unencodable


def dumps_canonical(obj: Any) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False) + "\\n"``, by a direct encoder.

    Any value the encoder does not take (a non-finite float, a non-string
    key, another type, or nesting too deep) goes to ``json.dumps``, so the
    error raised is json's own.
    """
    out: list[str] = []
    try:
        _encode(obj, out, "\n")
    except (_Unencodable, RecursionError):
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    out.append("\n")
    return "".join(out)


def _digest(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def _read_json(path: str | Path) -> tuple[Any, str]:
    """Parse one JSON file; return the document and the digest of the bytes parsed.

    Hashing the bytes that were parsed, rather than reading the file again,
    keeps a report's digest tied to the content it was computed from.
    """
    raw = Path(path).read_bytes()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return doc, _digest(raw)


def save_frame(path: str | Path, frame: Frame, provenance: dict | None = None) -> str:
    """Write a frame file and return the digest of the bytes written."""
    raw = dumps_canonical(frame_to_doc(frame, provenance)).encode("utf-8")
    Path(path).write_bytes(raw)
    return _digest(raw)


def load_frame(path: str | Path) -> Frame:
    return doc_to_frame(_read_json(path)[0])


def load_provenance(path: str | Path) -> dict | None:
    doc = _read_json(path)[0]
    if isinstance(doc, dict):
        return doc.get("provenance")
    return None


def file_digest(path: str | Path) -> str:
    return _digest(Path(path).read_bytes())


def certificate_to_dict(cert: Certificate) -> dict:
    wv = None
    if cert.witness_vectors is not None:
        wv = [vector_to_json(np.asarray(v)) for v in cert.witness_vectors]
    return {
        "verdict": cert.verdict,
        "method": cert.method,
        "field": cert.field,
        "witness_subset": None if cert.witness_subset is None else list(cert.witness_subset),
        "witness_vectors": wv,
    }


def build_report(
    command: str,
    input_digests: dict[str, str],
    tolerances: dict[str, float],
    data: dict,
    certificates: list[dict],
    timings_ms: dict[str, float] | None = None,
) -> dict:
    """Assemble the report emitted on stdout by every CLI command.

    Timings are attached only when measured; they are the one
    non-deterministic field, so default runs leave them out and fixed-seed
    pipelines reproduce byte-identical reports.
    """
    report: dict[str, Any] = {
        "command": command,
        "input_digests": input_digests,
        "tolerances": tolerances,
        "data": data,
        "certificates": certificates,
    }
    if timings_ms is not None:
        report["timings_ms"] = {k: round(v, 3) for k, v in timings_ms.items()}
    return report
