"""JSON file format for complex vectors and matrices.

A document looks like ``{"dim": n, "data": [[re, im], ...]}`` with the data
list holding ``n`` entries for a vector or ``n*n`` entries (row-major) for a
square matrix. The same format backs state files, custom gate files and the
CLI's ``--state``/``--unitary`` file inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def complex_to_pairs(values: np.ndarray) -> list[list[float]]:
    """Flatten a complex array to row-major [re, im] pairs."""
    flat = np.asarray(values, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def pairs_to_complex(pairs) -> np.ndarray:
    out = np.empty(len(pairs), dtype=complex)
    for i, pair in enumerate(pairs):
        if len(pair) != 2:
            raise ValueError(f"entry {i} is not a [re, im] pair: {pair!r}")
        out[i] = complex(float(pair[0]), float(pair[1]))
    return out


def vector_to_document(values: np.ndarray) -> dict:
    values = np.asarray(values, dtype=complex).reshape(-1)
    return {"dim": int(values.size), "data": complex_to_pairs(values)}


def matrix_to_document(matrix: np.ndarray) -> dict:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    return {"dim": int(matrix.shape[0]), "data": complex_to_pairs(matrix)}


def document_to_array(document: dict) -> np.ndarray:
    """Decode a document into a 1-D vector or a square matrix.

    The shape is inferred from the data length: ``dim`` entries decode to a
    vector, ``dim**2`` entries to a row-major ``dim x dim`` matrix.
    """
    try:
        dim = int(document["dim"])
        data = document["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed vector/matrix document: {exc}") from exc
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    flat = pairs_to_complex(data)
    if flat.size == dim:
        return flat
    if flat.size == dim * dim:
        return flat.reshape(dim, dim)
    raise ValueError(
        f"data length {flat.size} matches neither dim={dim} (vector) "
        f"nor dim**2={dim * dim} (matrix)"
    )


def entry(document, key: str, kind: type, what: str, default=None):
    """``document[key]`` if it is a ``kind`` (``default`` stands in for a
    missing key); otherwise a ValueError that names the key."""
    if not isinstance(document, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(document).__name__}")
    value = document.get(key, default)
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        got = type(value).__name__ if key in document else "nothing"
        raise ValueError(f"{what} key {key!r} must be a {kind.__name__}, got {got}")
    return value


def load_json(path: str | Path):
    """The JSON document in the file at ``path``; a ValueError that names
    the file when the file holds none."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{path} does not hold a JSON document: {exc}") from exc


def load_array(path: str | Path) -> np.ndarray:
    return document_to_array(load_json(path))


def save_array(path: str | Path, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=complex)
    document = matrix_to_document(values) if values.ndim == 2 else vector_to_document(values)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
        handle.write("\n")
