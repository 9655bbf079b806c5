"""JSON file format for complex vectors and matrices.

A document looks like ``{"dim": n, "data": [[re, im], ...]}`` with the data
list holding ``n`` entries for a vector or ``n*n`` entries (row-major) for a
square matrix. The same format backs state files, custom gate files and the
CLI's ``--state``/``--unitary`` file inputs.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: The types a JSON number decodes to; ``bool`` is not one of them.
_NUMBERS = frozenset((int, float))
_DOCUMENT = "vector/matrix document"
_DATA = f"{_DOCUMENT} key 'data'"


def complex_to_pairs(values: np.ndarray) -> list[list[float]]:
    """Flatten a complex array to row-major [re, im] pairs."""
    return np.ascontiguousarray(values, dtype=complex).reshape(-1, 1).view(float).tolist()


def pairs_to_complex(pairs) -> np.ndarray:
    """The complex array of a list of [re, im] pairs of JSON numbers (int or
    float, not bool). Each part is converted with ``float`` and no arithmetic,
    so it keeps its bits."""
    parts: list = []
    try:
        for i, pair in enumerate(pairs):
            if type(pair) is not list or len(pair) != 2 or not _NUMBERS.issuperset(map(type, pair)):
                raise ValueError(f"{_DATA} entry {i} must be a [re, im] pair of numbers, got {pair!r}")
            parts += map(float, pair)
    except OverflowError:
        raise ValueError(f"{_DATA} entry {i} holds an integer too large for a float") from None
    return np.array(parts, dtype=float).view(complex)


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
    dim = entry(document, "dim", int, _DOCUMENT)
    data = entry(document, "data", list, _DOCUMENT)
    if dim <= 0:
        raise ValueError(f"{_DOCUMENT} key 'dim' must be positive, got {dim}")
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
        article = "an" if kind is int else "a"
        raise ValueError(f"{what} key {key!r} must be {article} {kind.__name__}, got {got}")
    return value


def known_keys(document: dict, keys: tuple, what: str) -> None:
    """Refuse a key of the JSON object ``document`` that is not in ``keys``,
    in a ValueError that names it."""
    for key in document:
        if key not in keys:
            raise ValueError(f"{what} has unknown key {key!r}; expected {', '.join(keys)}")


#: The control character around a Since's start in its ``str``.
_MARK = "\x02"


@dataclass(frozen=True)
class Since:
    """A row value that record t reads as t - start: a second counter that
    runs with the record's own, such as a storage event's cycle. It sits
    in one of the row's dicts, as ``detail.cycle`` does. Its ``str``, the
    start between two ``_MARK`` characters, is the mark a report writer
    renders it as and then puts each record's number in place of."""

    start: int

    def __str__(self):
        return f"{_MARK}{self.start}{_MARK}"


#: The counter each row is rendered with: record t reads it as t.
_COUNTER = Since(0)


def _holds_since(row: dict) -> bool:
    """Whether a :class:`Since` is a value of one of ``row``'s dicts."""
    for value in row.values():
        if type(value) is dict and Since in map(type, value.values()):
            return True
    return False


def _at(row: dict, t: int) -> dict:
    """``row`` as record t reads it: each :class:`Since` in its dicts is a
    number."""
    return {
        key: {k: t - v.start if type(v) is Since else v for k, v in value.items()}
        if type(value) is dict else value
        for key, value in row.items()
    }


@dataclass(frozen=True)
class IndexedRecords:
    """A report's records as a few distinct rows and a row index: record t
    is ``{counter: t}`` followed by ``rows[index[t]]``, in which a row's
    :class:`Since` reads as a number. The report writers render each row
    once and :meth:`join` the texts over ``index``."""

    counter: str
    rows: tuple
    index: Sequence[int]

    def __len__(self) -> int:
        return len(self.index)

    def dicts(self) -> list:
        """The records as a list of dicts; a row that holds no Since is
        merged as it stands."""
        counter, rows = self.counter, self.rows
        since = [_holds_since(row) for row in rows]
        return [{counter: t, **(_at(rows[i], t) if since[i] else rows[i])} for t, i in enumerate(self.index)]

    def join(self, render, separator: str) -> str:
        """The records' texts joined by ``separator``. ``render`` writes a
        list of rows, each as the record whose counter is ``_COUNTER`` and
        in which each Since is its ``str``, a mark; record t is its row's
        text with t - start in place of each mark."""
        pieces = []
        for text in render([{self.counter: _COUNTER, **row} for row in self.rows]):
            parts = text.split(_MARK)
            parts[1::2] = map(int, parts[1::2])
            pieces.append(parts)
        if all(len(parts) == 3 for parts in pieces):
            # the counter alone, whose start is 0, as in a beam's records
            a, _, b = zip(*pieces)
            texts = [f"{a[i]}{t}{b[i]}" for t, i in enumerate(self.index)]
        else:
            # the counter and one Since, or the counter alone
            a, s, b, u, c = zip(*(parts if len(parts) == 5 else parts + [None, ""] for parts in pieces))
            texts = [
                f"{a[i]}{t - s[i]}{b[i]}{'' if u[i] is None else t - u[i]}{c[i]}"
                for t, i in enumerate(self.index)
            ]
        return separator.join(texts)


def load(path: str | Path, build):
    """``build`` of the JSON document in the file at ``path``: the one file
    reader. Each failure is one line that names the file: a file that cannot
    be read or holds no JSON document is a ValueError, and a ValueError or
    RuntimeError from ``build`` is raised again, of the same type, with the
    path in front."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:  # missing, a directory, no permission
        raise ValueError(f"{path}: cannot be read: {exc.strerror}") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{path} does not hold a JSON document: {exc}") from None
    try:
        return build(document)
    except (ValueError, RuntimeError) as exc:
        raise type(exc)(f"{path}: {exc}") from None

