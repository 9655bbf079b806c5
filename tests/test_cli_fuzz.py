"""Fuzzed command lines and input files end in a report or in one error line.

Hypothesis draws each command from the parser's own grammar: a subcommand,
then any of its flags, each with a value of the flag's kind. Integers sit
at, below and past each lower limit and cap, floats include ``nan``, ``inf``
and huge values, and every free-text flag may get an inline state, a gate
name, a missing path, a directory, an empty file, a valid file of each kind,
or a config, space or number document with one key or entry of the wrong
type. ``cli.main`` runs in-process with warnings as errors and must exit 0
or 3 with only the timing line on stderr, or exit 1 with exactly one
``error:`` line and nothing on stdout.

A run at a cap is drawn only for ``--copies``, where it is cheap; the
largest beam, storage run and grid scan each have a CI step of their own.
"""

import argparse
import contextlib
import io
import json
import os
import re
import warnings
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ctcsim import cli  # noqa: E402
from ctcsim.gates import GATE_NAMES  # noqa: E402

#: Each bounded flag's lower limit and cap.
BOUNDS = {
    "--trials": (1, cli.MAX_TRIALS),
    "--grid": (8, cli.MAX_GRID),
    "--copies": (2, cli.MAX_COPIES),
    "--storage-cycles": (0, cli.MAX_STORAGE_CYCLES),
}
INLINE_STATES = ("0.6,0,0.8,0", "1,0,0,0", "0,0,1,0", "0.6", "nan", "1,0,1", "1,0,1,0", "1e308,0,1e308,0")
FLOATS = ("nan", "inf", "-inf", "1e308", "1.7976931348623157e308", "-1", "0", "1e-12", "1", "1e15")
SEEDS = (-1, 0, 7, 2**32, 2**64, 10**26)

STATE = {"dim": 2, "data": [[0.6, 0.0], [0.8, 0.0]]}
DENSITY = {"dim": 2, "data": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}
CNOT = {
    "dim": 4,
    "data": [[float(c == r ^ (r >> 1)), 0.0] for r in range(4) for c in range(4)],
}
CONFIG = {
    "input_state": STATE,
    "ctc_initial": {"dim": 2, "data": [[1.0, 0.0], [0.0, 0.0]]},
    "gate": {"name": "swap", "params": None, "custom_path": None},
    "formalism": "density",
    "scenario": "storage",
    "bob_measures": True,
    "seed": 3,
    "storage_cycles": 2,
}
SPACE = {"points": ["a", "b", "c"], "opens": [[], ["a"], ["a", "b"], ["a", "b", "c"]]}

#: Valid JSON values of every type.
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)
TIMING = re.compile(r"wall_time_ms=\d+\.\d{3} serialize_ms=\d+\.\d{3}")


#: A subcommand and the flag that reads each kind of document.
READERS = {
    "config": ["run-protocol", "--config"],
    "space": ["topology-check", "--space"],
    "state": ["run-protocol", "--state"],
    "unitary": ["fixed-point", "--unitary"],
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """A directory, then in it a valid file of each kind, an empty file and
    a missing one."""
    root = tmp_path_factory.mktemp("fuzz")
    documents = {"state": STATE, "density": DENSITY, "unitary": CNOT, "config": CONFIG, "space": SPACE}
    for name, document in documents.items():
        (root / f"{name}.json").write_text(json.dumps(document))
    (root / "empty.json").write_text("")
    return [str(root), *(str(root / f"{name}.json") for name in (*documents, "empty", "missing"))]


def _paths(document, path=()):
    """The path of every key and list entry of a JSON document."""
    children = document.items() if isinstance(document, dict) else enumerate(document)
    for key, child in children:
        yield (*path, key)
        if isinstance(child, (dict, list)):
            yield from _paths(child, (*path, key))


@st.composite
def mistyped(draw, kind):
    """A valid document of one kind with one key or entry replaced by a
    value of any JSON type."""
    document = json.loads(json.dumps({"config": CONFIG, "space": SPACE, "state": STATE, "unitary": CNOT}[kind]))
    *parents, last = draw(st.sampled_from(list(_paths(document))))
    parent = document
    for key in parents:
        parent = parent[key]
    parent[last] = draw(VALUES)
    return document


def _value(draw, action, paths):
    """A value for one flag of the kind the parser reads."""
    flag = action.option_strings[0]
    if action.choices is not None:
        return draw(st.sampled_from(action.choices))
    if action.type is float:
        return draw(st.sampled_from(FLOATS) | st.floats().map(repr))
    if action.type is int and flag in BOUNDS:
        low, cap = BOUNDS[flag]
        edges = [low - 1, low, cap + 1, 10**30, -(10**30)] + ([cap] if flag == "--copies" else [])
        return str(draw(st.sampled_from(edges) | st.integers(low, low + 8)))
    if action.type is int:
        return str(draw(st.sampled_from(SEEDS) | st.integers(0, 50)))
    return draw(st.sampled_from(paths) | st.sampled_from(INLINE_STATES + GATE_NAMES))


@st.composite
def commands(draw, paths):
    """An argv the parser accepts: a subcommand and some of its flags."""
    subparsers = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    name = draw(st.sampled_from(sorted(subparsers.choices)))
    actions = [a for a in subparsers.choices[name]._actions if a.dest != "help"]
    argv = [name]
    for action in draw(st.lists(st.sampled_from(actions), unique_by=id, max_size=5)):
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
        else:  # "--flag=value", so that a value such as -inf is not read as a flag
            argv.append(f"{flag}={_value(draw, action, paths)}")
    return argv


def _run(argv):
    """Run the command in-process and check how it ended."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), warnings.catch_warnings():
        os.environ.pop("CTC_SIM_SEED", None)
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    lines = err.getvalue().splitlines()
    if code == cli.EXIT_ERROR:
        assert out.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert code in (cli.EXIT_OK, cli.EXIT_UNEXPECTED_COLLAPSE), code
        assert len(lines) == 1 and TIMING.fullmatch(lines[0]), lines
        assert out.getvalue().endswith("\n")


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_fuzzed_commands_end_in_a_report_or_one_error_line(paths, data):
    _run(data.draw(commands(paths), label="argv"))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(READERS)))
def test_mistyped_documents_end_in_a_report_or_one_error_line(paths, data, kind):
    path = Path(paths[0]) / f"mistyped_{kind}.json"
    path.write_text(json.dumps(data.draw(mistyped(kind), label="document")))
    _run([*READERS[kind], str(path)])
