"""Named unitaries for the CTC coupling and the teleportation baseline."""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import serialize
from .states import ATOL, StateVector, _Frozen, _as_complex, _qubit_count


class UnitaryGate(_Frozen):
    """Square complex matrix over 2**n dims with U-dagger U = I within 1e-12."""

    __slots__ = ("matrix", "dim", "label")

    def __init__(self, matrix, label: str = "custom"):
        mat = _as_complex(matrix, "matrix is not unitary")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"gate must be square, got shape {mat.shape}")
        _qubit_count(mat.shape[0])
        if not np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max() <= ATOL:
            raise ValueError("matrix is not unitary within 1e-12")
        self._set(matrix=mat, dim=mat.shape[0], label=str(label))

    def to_json(self) -> dict:
        return serialize.to_document(self.matrix)

    def __repr__(self):
        return f"UnitaryGate({self.label!r}, dim={self.dim})"


@dataclass(frozen=True)
class GateSpec:
    """Recipe for a named gate; ``params`` is the controlled-phase angle."""

    name: str
    params: Optional[float] = None
    custom_path: Optional[Union[str, os.PathLike]] = None

    def __post_init__(self):
        if self.name not in GATE_NAMES:
            raise ValueError(f"unknown gate name {self.name!r}; expected one of {GATE_NAMES}")
        if self.name == "custom" and self.custom_path is None:
            raise ValueError("custom gates need custom_path")
        if self.name != "custom" and self.custom_path is not None:
            raise ValueError(f"gate {self.name!r} takes no custom_path")
        if self.custom_path is not None and not isinstance(self.custom_path, (str, os.PathLike)):
            # open() reads an int as a file descriptor: 0 is stdin
            raise TypeError(
                f"custom_path must be a str or os.PathLike, got {type(self.custom_path).__name__}"
            )
        if self.params is not None and self.name != "controlled_phase":
            raise ValueError(f"gate {self.name!r} takes no angle parameter")


def swap() -> UnitaryGate:
    """Two-qubit exchange |01> <-> |10|."""
    mat = np.eye(4, dtype=complex)
    mat[[1, 2]] = mat[[2, 1]]
    return UnitaryGate(mat, label="swap")


def controlled_rotation() -> UnitaryGate:
    """diag(1, 1, 1, i): a quarter phase rotation on |11>."""
    return UnitaryGate(np.diag([1.0, 1.0, 1.0, 1.0j]), label="controlled_rotation")


def controlled_phase(theta: float = np.pi) -> UnitaryGate:
    """diag(1, 1, 1, e^{i theta}); the default angle pi gives CZ."""
    return UnitaryGate(np.diag([1.0, 1.0, 1.0, np.exp(1j * theta)]), label="controlled_phase")


def hadamard() -> UnitaryGate:
    return UnitaryGate(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2), label="hadamard")


def pauli_x() -> UnitaryGate:
    return UnitaryGate(np.array([[0, 1], [1, 0]], dtype=complex), label="pauli_x")


def pauli_z() -> UnitaryGate:
    return UnitaryGate(np.array([[1, 0], [0, -1]], dtype=complex), label="pauli_z")


def cnot() -> UnitaryGate:
    """Controlled-X with the first (most significant) qubit as control."""
    mat = np.eye(4, dtype=complex)
    mat[[2, 3]] = mat[[3, 2]]
    return UnitaryGate(mat, label="cnot")


def identity(num_qubits: int = 2) -> UnitaryGate:
    return UnitaryGate(np.eye(2**num_qubits, dtype=complex), label="identity")


def _custom(path: Union[str, Path]) -> UnitaryGate:
    """The matrix in a JSON matrix file, checked as a gate."""
    return serialize.load(
        path, lambda document: UnitaryGate(serialize.document_to_array(document), f"custom:{path}")
    )


#: Gate name -> factory, in the order error messages list them; ``custom``
#: comes last, so ``GATE_NAMES[:-1]`` are the built-in gates.
_FACTORIES = {
    "swap": swap,
    "controlled_rotation": controlled_rotation,
    "controlled_phase": controlled_phase,
    "hadamard": hadamard,
    "pauli_x": pauli_x,
    "pauli_z": pauli_z,
    "cnot": cnot,
    "identity": identity,
    "custom": _custom,
}
GATE_NAMES = tuple(_FACTORIES)


def build_gate(spec: GateSpec) -> UnitaryGate:
    """Construct the gate a spec names; unitarity is validated on build.
    Only ``controlled_phase`` takes an angle and only ``custom`` a path."""
    factory = _FACTORIES[spec.name]
    if spec.name == "custom":
        return factory(spec.custom_path)
    return factory() if spec.params is None else factory(float(spec.params))


def bell_pair() -> StateVector:
    """The maximally entangled pair (|00> + |11>)/sqrt(2)."""
    return StateVector(np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2))

