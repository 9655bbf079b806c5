"""ctcsim's JSON: the document format, the one file reader and the report writer.

A document looks like ``{"dim": n, "data": [[re, im], ...]}`` with the data
list holding ``n`` entries for a vector or ``n*n`` entries (row-major) for a
square matrix. It backs state files, custom gate files and the CLI's
``--state``/``--unitary`` file inputs; :func:`to_document` writes one and
:func:`load` reads one. The report writer is :func:`canonical_json`,
:func:`flat_csv` and :func:`records_csv`.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

#: The types a JSON number decodes to; ``bool`` is not one of them.
_NUMBERS = frozenset((int, float))
_DOCUMENT = "vector/matrix document"
_DATA = f"{_DOCUMENT} key 'data'"


def _shown(value) -> str:
    """A file value's repr for an error line, cut after 80 characters."""
    text = repr(value)
    return text if len(text) <= 80 else f"{text[:80]}..."


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
                raise ValueError(f"{_DATA} entry {i} must be a [re, im] pair of numbers, got {_shown(pair)}")
            parts += map(float, pair)
    except OverflowError:
        raise ValueError(f"{_DATA} entry {i} holds an integer too large for a float") from None
    return np.array(parts, dtype=float).view(complex)


def to_document(values) -> dict:
    """The document of a vector or a square matrix: the one document writer."""
    values = np.asarray(values, dtype=complex)
    if values.ndim not in (1, 2) or values.shape[0] != values.shape[-1]:
        raise ValueError(f"expected a vector or a square matrix, got shape {values.shape}")
    return {"dim": len(values), "data": complex_to_pairs(values)}


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
            raise ValueError(f"{what} has unknown key {_shown(key)}; expected {', '.join(keys)}")


@dataclass(frozen=True)
class Since:
    """A row value that record t reads as t - start: a second counter that
    runs with the record's own, such as a storage event's cycle. It sits
    in one of the row's dicts, as ``detail.cycle`` does."""

    start: int


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
    :class:`Since` reads as a number. The report writer renders each row
    once and puts each record's numbers in."""

    counter: str
    rows: tuple
    index: Sequence[int]

    def __len__(self) -> int:
        return len(self.index)

    def dicts(self) -> list:
        """The records as a list of dicts."""
        counter, rows = self.counter, self.rows
        return [{counter: t, **_at(rows[i], t)} for t, i in enumerate(self.index)]


def load(path: str | Path, build):
    """``build`` of the JSON document in the file at ``path``: the one file
    reader. Each failure is one line that names the file: a file that cannot
    be read or decoded (not JSON, not UTF-8, or nested too deep) is a
    ValueError, and a ValueError or RuntimeError from ``build`` is raised
    again, of the same type, with the path in front."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:  # missing, a directory, no permission
        raise ValueError(f"{path}: cannot be read: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or too deep
        raise ValueError(f"{path} does not hold a JSON document: {exc}") from None
    try:
        return build(document)
    except (ValueError, RuntimeError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _float(v) -> str:
    """The 15-significant-digit text of the float ``v``, ``-0`` as ``0``; a ValueError
    that shows ``v`` if it is not finite or its text reads back as infinity."""
    text = format(float(v) + 0.0, ".15g")
    if text[-1] > "9" or text[-4:] == "+308":  # inf, nan, or up to 1.79769313486232e+308
        if not math.isfinite(v):
            raise ValueError(f"non-finite value in report: {v!r}")
        if math.isinf(float(text)):
            raise ValueError(f"report value {v!r} rounds to infinity at 15 significant digits")
    return text


#: Each scalar's text, by its exact type; :func:`_walk` converts any other scalar.
_SCALARS = {
    str: encode_basestring_ascii,
    float: _float,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda v: "null",
}
_scalar = _SCALARS.get
_COUNTER = Since(0)  # the counter each records row is walked with: record t reads it as t


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, floats at 15 significant digits.

    One walk writes each float as ``format(v, ".15g")``, so an integral value
    below 1e15 reads as an int, each string as ``json.dumps`` escapes it, and
    each dict by its keys as strings, sorted; a records object from its rows."""
    pieces: list = []
    _walk(value, pieces.append)
    try:
        return "".join(pieces)
    except TypeError:  # a Since, which only a records row has a number for
        raise TypeError("cannot serialize a Since outside a records row in a report") from None


def flat_csv(payload: dict) -> str:
    """The flat CSV of a report's payload: ``key,value`` and :func:`_flatten`'s rows."""
    parts = ["key,value"]
    _flatten("", payload, parts)
    return "".join(parts)


def records_csv(records: IndexedRecords, columns: tuple) -> str:
    """A header of the counter and ``columns``, then record t as t and its
    row's ``columns`` as ``str`` writes them; each row's text is built once."""
    texts = [",".join(str(row[c]) for c in columns) for row in records.rows]
    lines = [f"{t},{texts[i]}" for t, i in enumerate(records.index)]
    return ",".join((records.counter, *columns)) + "\n" + "\n".join(lines)


def _walk(v, put) -> None:
    """Pass the canonical text of ``v`` to ``put`` in pieces, each :class:`Since`
    as itself. Only containers recurse, so a cycle is a RecursionError."""
    kind = type(v)
    if kind is dict:
        try:
            keys = sorted(v)
        except TypeError:  # keys of types that do not compare
            keys = None
        if keys is None or keys and type(keys[0]) is not str:
            v = {str(k): x for k, x in v.items()}
            keys = sorted(v)
        sep = "{"
        for k in keys:
            x = v[k]
            scalar = _scalar(type(x))
            if scalar is None:
                put(f"{sep}{encode_basestring_ascii(k)}:")
                _walk(x, put)
            else:
                put(f"{sep}{encode_basestring_ascii(k)}:{scalar(x)}")
            sep = ","
        put("}" if keys else "{}")
    elif kind is list or kind is tuple:
        sep = "["
        for x in v:
            scalar = _scalar(type(x))
            if scalar is None:
                put(sep)
                _walk(x, put)
            else:
                put(sep + scalar(x))
            sep = ","
        put("]" if v else "[]")
    elif kind in _SCALARS:
        put(_SCALARS[kind](v))
    elif kind is IndexedRecords:
        put(f"[{','.join(_records(v))}]")
    elif kind is Since:
        put(v)
    elif isinstance(v, (float, np.floating)):
        put(_float(v))
    elif isinstance(v, (int, np.integer)):
        put(int.__repr__(int(v)))
    elif isinstance(v, np.bool_):
        put("true" if v else "false")
    elif isinstance(v, str):
        put(encode_basestring_ascii(str(v)))
    elif isinstance(v, (list, tuple, dict)):
        _walk(dict(v) if isinstance(v, dict) else list(v), put)
    else:
        raise TypeError(f"cannot serialize {type(v).__name__} in a report")


def _records(records: IndexedRecords) -> list:
    """The canonical text of each record. Each row is walked once, with
    ``_COUNTER`` as its counter, into text around the starts of its Since
    objects (no two are next to each other); record t is its row's text with
    t - start in each start's place."""
    if len(records) <= len(records.rows):  # as in a run without storage
        return list(map(canonical_json, records.dicts()))
    templates = []
    for row in records.rows:
        pieces: list = []
        _walk({records.counter: _COUNTER, **row}, pieces.append)
        templates.append(["".join(g) if k is str else next(g).start for k, g in groupby(pieces, type)])
    if all(len(parts) == 3 for parts in templates):
        # the counter alone, whose start is 0, as in a beam's records
        a, _, b = zip(*templates)
        return [f"{a[i]}{t}{b[i]}" for t, i in enumerate(records.index)]
    # the counter and one Since, or the counter alone
    a, s, b, u, c = zip(*(parts if len(parts) == 5 else parts + [None, ""] for parts in templates))
    return [
        f"{a[i]}{t - s[i]}{b[i]}{'' if u[i] is None else t - u[i]}{c[i]}"
        for t, i in enumerate(records.index)
    ]


def _flatten(prefix: str, value, parts: list) -> None:
    """The flat CSV's rows, ``\\n<key path>,<text>``, of ``value``, appended to
    ``parts`` as two pieces each: the canonical texts of a list's elements, or
    of a records object's records, joined by ``|``; a scalar as a list of one."""
    if isinstance(value, dict):
        value = {str(k): x for k, x in value.items()}
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], parts)
        return
    if type(value) is IndexedRecords:
        texts = _records(value)
    else:
        texts = map(canonical_json, value if isinstance(value, (list, tuple)) else [value])
    parts += (f"\n{prefix},", "|".join(texts))
