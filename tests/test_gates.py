import hashlib
import json
import math
import re

import numpy as np
import pytest

from ctcsim.gates import GATE_NAMES, GateSpec, UnitaryGate, _MATRICES, bell_pair, build_gate
from ctcsim.states import ATOL, StateVector, apply_unitary, partial_trace, tensor_product


@pytest.mark.parametrize("name", GATE_NAMES[:-1])
def test_named_gates_are_unitary(name):
    gate = build_gate(GateSpec(name))
    assert np.allclose(gate.matrix.conj().T @ gate.matrix, np.eye(gate.dim), atol=1e-12)


def test_unitary_gate_rejects_non_unitary():
    with pytest.raises(ValueError):
        UnitaryGate([[1, 1], [0, 1]])


@pytest.mark.parametrize("scale, accepted", [(0.9, True), (1.1, False)])
def test_unitary_tolerance_is_atol(scale, accepted):
    # U-dagger U - I = diag(0, scale * ATOL)
    matrix = np.diag([1.0, np.sqrt(1.0 + scale * ATOL)])
    if accepted:
        UnitaryGate(matrix)
    else:
        with pytest.raises(ValueError, match="not unitary within 1e-12"):
            UnitaryGate(matrix)


def test_swap_action():
    joint = tensor_product(StateVector.qubit(0.6, 0.8), StateVector.basis(0))
    out = apply_unitary(joint, build_gate(GateSpec("swap")))
    assert np.allclose(out.amplitudes, [0.6, 0.8, 0.0, 0.0])


def test_swap_squared_is_identity():
    swap = build_gate(GateSpec("swap"))
    assert np.allclose(swap.matrix @ swap.matrix, np.eye(4), atol=1e-12)


def test_controlled_rotation_diagonal():
    gate = build_gate(GateSpec("controlled_rotation"))
    assert np.allclose(np.diag(gate.matrix), [1, 1, 1, 1j])
    out = apply_unitary(tensor_product(StateVector.basis(0), StateVector.basis(1)), gate)
    assert np.allclose(out.amplitudes, [0, 1, 0, 0])


def test_controlled_rotation_fourth_power_is_identity():
    m = build_gate(GateSpec("controlled_rotation")).matrix
    assert np.allclose(np.linalg.matrix_power(m, 4), np.eye(4), atol=1e-12)


def test_controlled_phase_default_is_cz():
    assert np.allclose(build_gate(GateSpec("controlled_phase")).matrix, np.diag([1, 1, 1, -1]))


def test_build_gate_dispatch():
    for name in ("swap", "controlled_rotation", "hadamard", "pauli_x", "pauli_z", "cnot", "identity"):
        gate = build_gate(GateSpec(name))
        assert gate.label == name


@pytest.mark.parametrize("name", GATE_NAMES[:-1])
def test_named_gates_are_built_once_with_the_factory_bits(name):
    built = build_gate(GateSpec(name))
    fresh = UnitaryGate(_MATRICES[name](), label=name)
    assert built.matrix.tobytes() == fresh.matrix.tobytes() and built.label == fresh.label
    assert build_gate(GateSpec(name)) is built


#: sha256 of each gate's ``matrix.tobytes()``, recorded before the gate table
#: replaced the per-gate factory functions; ``None`` is the angle's default
GATE_DIGESTS = {
    ("swap", None): "0fe211d0be6e5908155c70589905d5f91f528440f5a2ddcd39a477b25fd7e70d",
    ("controlled_rotation", None): "b60b70cc045eb4ac467305cadfda3753bbd9214da56f5bd4ccd69340d3f251d5",
    ("controlled_phase", None): "6d470b3abf98f3c6233df1ea51927a8fcaf5a6aa1a41ac3f3a8b08fe20e1f30c",
    ("hadamard", None): "b8a0541aa80b1a09f1847692e688d8f59e6f7b27904794cb34e3a00547af4cc1",
    ("pauli_x", None): "33c11b461fe67e717e37ac34a568cd1c27a89013703bf5b84194f0732a33a26d",
    ("pauli_z", None): "c8f478783d65670e5d4823a34aa1be2ec54809ad61ca0d10e4da56195c4778fc",
    ("cnot", None): "8147eeddb2b56869f494b2194eb43a7926d1bb5edb4d4f35c6fa9e9633dd4bf8",
    ("identity", None): "e716c44f4faff7d006c4a9acf9af0622784eba1f11d135fc211cb4a967879f9e",
    ("controlled_phase", 0.3): "f2db77c40682445ccb08f5da369312e76150c41f22e9e1939eaabdc22b04d05c",
}


@pytest.mark.parametrize("name, params", GATE_DIGESTS)
def test_named_gate_bits_are_pinned(name, params):
    matrix = build_gate(GateSpec(name, params)).matrix
    assert hashlib.sha256(matrix.tobytes()).hexdigest() == GATE_DIGESTS[name, params]


def test_a_gate_with_an_angle_is_built_each_time():
    spec = GateSpec("controlled_phase", 0.3)
    assert build_gate(spec) is not build_gate(spec)
    assert build_gate(spec).matrix.tobytes() == _MATRICES["controlled_phase"](0.3).tobytes()


def test_gate_names_list_the_builtins_then_custom():
    assert GATE_NAMES == (
        "swap",
        "controlled_rotation",
        "controlled_phase",
        "hadamard",
        "pauli_x",
        "pauli_z",
        "cnot",
        "identity",
        "custom",
    )
    gate = build_gate(GateSpec("controlled_phase", params=np.pi / 2))
    assert np.allclose(gate.matrix, np.diag([1, 1, 1, 1j]))


def test_gate_spec_rejects_unknown_name():
    with pytest.raises(ValueError):
        GateSpec("toffoli")


def test_gate_spec_rejects_angle_on_fixed_gate():
    with pytest.raises(ValueError):
        GateSpec("swap", params=0.5)


def test_gate_spec_rejects_a_path_on_a_named_gate():
    with pytest.raises(ValueError, match="gate 'swap' takes no custom_path"):
        GateSpec("swap", custom_path="gate.json")


@pytest.mark.parametrize("path", (0, 3.5, b"gate.json", ["gate.json"]))
def test_gate_spec_refuses_a_custom_path_that_is_no_path(path):
    # 0 would be opened as a file descriptor: stdin
    with pytest.raises(TypeError, match=f"custom_path must be a str or os.PathLike, got {type(path).__name__}$"):
        GateSpec("custom", custom_path=path)


@pytest.mark.parametrize("params", (True, np.True_, "0.7", 1j, [0.7]), ids=("bool", "numpy_bool", "str", "complex", "list"))
def test_gate_spec_refuses_an_angle_that_is_no_real_number(params):
    # float() would read True as 1.0 and "0.7" as 0.7
    with pytest.raises(TypeError, match=f"params must be a real number or None, got {type(params).__name__}$"):
        GateSpec("controlled_phase", params)


@pytest.mark.parametrize(
    "params",
    (math.inf, -math.inf, math.nan, np.float64(np.inf), 10**400),
    ids=("inf", "minus_inf", "nan", "numpy_inf", "int_past_float_range"),
)
def test_gate_spec_refuses_an_angle_that_is_not_finite(params):
    # np.exp would warn on inf or NaN, and float() overflows on the int; the
    # error line shows at most 80 characters of the value
    shown = repr(params) if len(repr(params)) <= 80 else repr(params)[:80] + "..."
    with pytest.raises(ValueError, match=f"^controlled_phase angle must be finite, got {re.escape(shown)}$"):
        GateSpec("controlled_phase", params)


@pytest.mark.parametrize("params", (0.3, 1, np.float64(0.3), np.float32(0.3), np.int64(1)))
def test_gate_spec_takes_a_real_angle_numpy_scalars_included(params):
    gate = build_gate(GateSpec("controlled_phase", params))
    assert gate.matrix.tobytes() == _MATRICES["controlled_phase"](float(params)).tobytes()


def test_custom_gate_round_trip(tmp_path):
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(build_gate(GateSpec("hadamard")).to_json()))
    gate = build_gate(GateSpec("custom", custom_path=path))
    assert np.allclose(gate.matrix, build_gate(GateSpec("hadamard")).matrix)


def test_custom_gate_rejects_non_unitary(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "data": [[1, 0], [1, 0], [0, 0], [1, 0]]}))
    with pytest.raises(ValueError):
        build_gate(GateSpec("custom", custom_path=path))


def test_bell_pair_amplitudes():
    pair = bell_pair()
    assert np.allclose(pair.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert np.linalg.norm(pair.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_bell_pair_reduced_state_is_maximally_mixed():
    reduced = partial_trace(bell_pair().density(), keep=1)
    assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)
