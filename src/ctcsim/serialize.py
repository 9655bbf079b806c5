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
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring_ascii
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


_SMALLEST_NORMAL = sys.float_info.min
#: Types the encoder writes as they are, and the one key type it sorts as is.
_NATIVE = frozenset((str, int, bool, type(None)))
_STR = frozenset((str,))
#: ``json.dumps(v, sort_keys=True, separators=(",", ":"))`` with a NUL in place of each
#: comma: the C encoder ``JSONEncoder.encode`` builds per call, built once. It keeps no
#: cycle markers: :func:`_plain` recurses into every container first, so a cycle ends
#: there. The escaped text has no other NUL, so items and placeholders can be told apart.
_ENCODE = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None, ":", "\x00", True, False, True
)
#: A band value's placeholder as the encoder writes it, up to its index.
#: ``NaN`` appears outside a string only in a placeholder or a spacer,
#: since the payload's own floats are finite, and no string holds a NUL.
_PLACEHOLDER = "[NaN\x00"
#: What the encoder writes between two items of a list spaced with NaNs.
_SPACER = "\x00NaN\x00"
#: The control character around a Since's start in a rendered row, where
#: record t's number goes; the encoder escapes it in every string.
_MARK = "\x02"
_COUNTER = Since(0)  # the counter each row is rendered with: record t reads it as t


class _Band(tuple):
    """A band value's placeholder ``(NaN, i)``; a type of its own so that the
    flat CSV can tell it from a list."""


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, floats at 15 significant digits.

    One pass makes a JSON-native copy in which each float is r, the value
    its 15-digit text reads back as, or int(r) when r is integral and below
    1e15; then the C encoder writes it, and ``repr(r)`` is that text. Two
    bands travel as ``[NaN, i]`` placeholders instead: 1e15 <= |r| < 1e16,
    which ``repr`` spells out in full, and subnormals, which it writes with
    fewer digits. A records object travels the same way and is written
    from its rows. A container that holds only str keys and native values
    is not copied.
    """
    band: list = []  # the band values' texts and records objects, by index
    return _fill("".join(_ENCODE(_plain(value, band), 0)), band)


def flat_csv(payload: dict) -> str:
    """The flat CSV of a report's payload: ``key,value`` and :func:`_flatten`'s rows."""
    band: list = []
    parts = ["key,value"]
    _flatten("", _plain(payload, band), parts, band)
    return "".join(parts)


def records_csv(records: IndexedRecords, columns: tuple) -> str:
    """A header of the counter and ``columns``, then record t as t and its
    row's ``columns`` as ``str`` writes them; each row's text is built once."""
    texts = [",".join(str(row[c]) for c in columns) for row in records.rows]
    lines = [f"{t},{texts[i]}" for t, i in enumerate(records.index)]
    return ",".join((records.counter, *columns)) + "\n" + "\n".join(lines)


def _items(values: list, band: list) -> list:
    """The canonical text of each of the :func:`_plain` ``values`` (one
    empty text for none), from one encoder pass over them spaced with NaNs:
    only those NaNs follow a NUL, since a report's own floats are finite.
    Each spacer is a control character while the text is filled in: the
    encoder escapes every control character in a string."""
    spaced = [math.nan] * (2 * len(values) - 1)
    spaced[::2] = values
    return _fill("".join(_ENCODE(spaced, 0))[1:-1].replace(_SPACER, "\x01"), band).split("\x01")


def _records(records: IndexedRecords) -> list:
    """The canonical text of each record: one :func:`_items` pass renders
    each row with ``_COUNTER`` as its counter and each Since as its mark,
    and record t is its row's text with t - start in place of each mark."""
    band: list = []
    rows = _plain([{records.counter: _COUNTER, **row} for row in records.rows], band)
    marks = [f"{_MARK}{v.start}{_MARK}" if type(v) is Since else v for v in band]
    pieces = [text.split(_MARK) for text in _items(rows, marks)]
    for parts in pieces:
        parts[1::2] = map(int, parts[1::2])
    if all(len(parts) == 3 for parts in pieces):
        # the counter alone, whose start is 0, as in a beam's records
        a, _, b = zip(*pieces)
        return [f"{a[i]}{t}{b[i]}" for t, i in enumerate(records.index)]
    # the counter and one Since, or the counter alone
    a, s, b, u, c = zip(*(parts if len(parts) == 5 else parts + [None, ""] for parts in pieces))
    return [
        f"{a[i]}{t - s[i]}{b[i]}{'' if u[i] is None else t - u[i]}{c[i]}"
        for t, i in enumerate(records.index)
    ]


def _plain(v, band: list):
    """The JSON-native copy of ``v`` that :func:`canonical_json` encodes; the
    text of each band value is appended to ``band``."""
    kind = type(v)
    if kind is float:
        r = float(format(v, ".15g"))
        if -1e15 < r < 1e15:
            if r.is_integer():
                return int(r)
            if r > _SMALLEST_NORMAL or r < -_SMALLEST_NORMAL:
                return r
    elif kind is dict:
        if _NATIVE.issuperset(map(type, v.values())) and _STR.issuperset(map(type, v)):
            return v
        return {
            k if type(k) is str else str(k): x if type(x) in _NATIVE else _plain(x, band)
            for k, x in v.items()
        }
    elif kind is list or kind is tuple:
        if _NATIVE.issuperset(map(type, v)):
            return v
        return [x if type(x) in _NATIVE else _plain(x, band) for x in v]
    elif kind in _NATIVE:
        return v
    elif kind is IndexedRecords and len(v) <= len(v.rows):
        # no more records than rows, as in a run without storage: a
        # template would only add a second encoder pass
        return _plain(v.dicts(), band)
    elif kind is IndexedRecords or kind is Since:
        # filled in later: a records object from its rows, a Since as its mark
        band.append(v)
        return _Band((math.nan, len(band) - 1))
    elif isinstance(v, (float, np.floating)):
        r = float(format(float(v), ".15g"))
    elif isinstance(v, (int, np.integer)):
        return int(v)
    elif isinstance(v, np.bool_):
        return bool(v)
    elif isinstance(v, str):
        return str(v)
    elif isinstance(v, (list, tuple)):
        return [_plain(x, band) for x in v]
    elif isinstance(v, dict):
        return {str(k): _plain(x, band) for k, x in v.items()}
    else:
        raise TypeError(f"cannot serialize {type(v).__name__} in a report")
    # only floats the fast path did not settle fall through to here
    if not math.isfinite(v):
        raise ValueError(f"non-finite value in report: {v!r}")
    if not math.isfinite(r):
        raise ValueError(f"report value {v!r} rounds to infinity at 15 significant digits")
    size = abs(r)
    if size < 1e15 and r.is_integer():
        return int(r)
    if _SMALLEST_NORMAL <= size < 1e15 or size >= 1e16:
        return r
    band.append(format(float(v), ".15g"))
    return _Band((math.nan, len(band) - 1))


def _fill(text: str, band: list) -> str:
    """``text`` with a comma for each NUL and each band value's text in
    place of its placeholder: a number's own or a records object's list. A
    Since outside a records row, which has no number to read, is a TypeError."""
    if not band:
        return text.replace("\x00", ",")
    head, *rest = text.split(_PLACEHOLDER)
    parts = [head.replace("\x00", ",")]
    for piece in rest:
        index, tail = piece.split("]", 1)
        value = band[int(index)]
        if type(value) is IndexedRecords:
            value = f"[{','.join(_records(value))}]"
        elif type(value) is Since:
            raise TypeError("cannot serialize a Since outside a records row in a report")
        parts += (value, tail.replace("\x00", ","))
    return "".join(parts)


def _flatten(prefix: str, value, parts: list, band: list) -> None:
    """The flat CSV's rows, ``\\n<key path>,<text>``, of a :func:`_plain`
    payload, appended to ``parts`` as two pieces each. The elements of a
    list, or the records of a records object, each in its canonical text,
    are joined by ``|``; a scalar is written as a list of one."""
    if type(value) is dict:
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], parts, band)
        return
    if type(value) is _Band and type(band[value[1]]) is IndexedRecords:
        text = "|".join(_records(band[value[1]]))
    else:
        text = "|".join(_items(value if type(value) is list or type(value) is tuple else [value], band))
    parts += (f"\n{prefix},", text)
