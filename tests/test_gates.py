import json

import numpy as np
import pytest

from ctcsim.gates import (
    GATE_NAMES,
    GateSpec,
    UnitaryGate,
    bell_pair,
    build_gate,
    cnot,
    controlled_phase,
    controlled_rotation,
    hadamard,
    identity,
    pauli_x,
    pauli_z,
    swap,
)
from ctcsim.states import ATOL, StateVector, apply_unitary, partial_trace, tensor_product

NAMED = [swap, controlled_rotation, controlled_phase, hadamard, pauli_x, pauli_z, cnot, identity]


@pytest.mark.parametrize("factory", NAMED)
def test_named_gates_are_unitary(factory):
    gate = factory()
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
    out = apply_unitary(joint, swap())
    assert np.allclose(out.amplitudes, [0.6, 0.8, 0.0, 0.0])


def test_swap_squared_is_identity():
    assert np.allclose(swap().matrix @ swap().matrix, np.eye(4), atol=1e-12)


def test_controlled_rotation_diagonal():
    gate = controlled_rotation()
    assert np.allclose(np.diag(gate.matrix), [1, 1, 1, 1j])
    out = apply_unitary(StateVector.basis(1, num_qubits=2), gate)
    assert np.allclose(out.amplitudes, [0, 1, 0, 0])


def test_controlled_rotation_fourth_power_is_identity():
    m = controlled_rotation().matrix
    assert np.allclose(np.linalg.matrix_power(m, 4), np.eye(4), atol=1e-12)


def test_controlled_phase_default_is_cz():
    assert np.allclose(controlled_phase().matrix, np.diag([1, 1, 1, -1]))


def test_build_gate_dispatch():
    for name in ("swap", "controlled_rotation", "hadamard", "pauli_x", "pauli_z", "cnot", "identity"):
        gate = build_gate(GateSpec(name))
        assert gate.label == name


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


def test_custom_gate_round_trip(tmp_path):
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(hadamard().to_json()))
    gate = build_gate(GateSpec("custom", custom_path=path))
    assert np.allclose(gate.matrix, hadamard().matrix)


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
