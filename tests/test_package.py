import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import ctcsim

SRC = Path(__file__).resolve().parent.parent / "src"

#: Names the package no longer has; none may come back through the export list.
RETIRED = ("MeasurementResult", "measure_projective", "embed", "save_array")


def test_every_exported_name_resolves_once():
    assert len(set(ctcsim.__all__)) == len(ctcsim.__all__)
    missing = [name for name in ctcsim.__all__ if not hasattr(ctcsim, name)]
    assert missing == []


def test_retired_names_are_not_exported():
    assert [name for name in RETIRED if name in ctcsim.__all__ or hasattr(ctcsim, name)] == []


#: The layers a bare ``import ctcsim`` resolves as attributes.
LAYERS = ("consistency", "gates", "protocol", "resources", "serialize", "states", "topology")


def _fresh_python(code: str) -> str:
    """stdout of ``code`` in a new interpreter that imports the package from src/."""
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode()


def test_a_bare_import_loads_no_layer_and_no_numpy():
    loaded = _fresh_python(
        "import sys, ctcsim\n"
        "print(' '.join(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('ctcsim.'))))"
    )
    assert loaded.split() == []


def test_after_a_bare_import_every_layer_resolves():
    code = "import ctcsim\n" + "".join(f"print(type(ctcsim.{m}).__name__, ctcsim.{m}.__name__)\n" for m in LAYERS)
    assert _fresh_python(code).splitlines() == [f"module ctcsim.{layer}" for layer in LAYERS]


def test_each_export_is_the_object_its_defining_layer_holds():
    for name in ctcsim.__all__:
        home = importlib.import_module(f"ctcsim.{ctcsim._LAYER_OF[name]}")
        value = getattr(ctcsim, name)
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from ctcsim import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == ctcsim.__all__
    assert set(ctcsim.__all__) <= set(dir(ctcsim))


def _imported_paths(layer: str) -> list:
    """``module.name`` for each name a layer's source imports."""
    tree = ast.parse((SRC / "ctcsim" / f"{layer}.py").read_text())
    paths = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    return paths


def test_unitary_gate_lives_in_states_and_states_does_not_import_gates():
    assert ctcsim.gates.UnitaryGate is ctcsim.states.UnitaryGate
    assert [path for path in _imported_paths("states") if "gates" in path.split(".")] == []
    assert [path for path in _imported_paths("gates") if path.startswith("states._")] == []
