"""Named unitaries for the CTC coupling and the teleportation baseline."""

from __future__ import annotations

import functools
import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import serialize
from .states import StateVector, UnitaryGate


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
        if isinstance(self.params, bool) or not isinstance(self.params, (type(None), numbers.Real)):
            # float() would read True as 1.0 and "0.7" as 0.7
            raise TypeError(f"params must be a real number or None, got {type(self.params).__name__}")
        try:  # math.isfinite raises OverflowError on an int past the float range
            finite = self.params is None or math.isfinite(self.params)
        except OverflowError:
            finite = False
        if not finite:  # np.exp would warn on inf or NaN
            raise ValueError(f"controlled_phase angle must be finite, got {serialize._shown(self.params)}")


def _custom(path: Union[str, Path]) -> UnitaryGate:
    """The matrix in a JSON matrix file, checked as a gate."""
    return serialize.load(
        path, lambda document: UnitaryGate(serialize.document_to_array(document), f"custom:{path}")
    )


#: Gate name -> builder of its matrix, in the order error messages list them;
#: ``custom``, whose builder reads a file into a checked gate, comes last, so
#: ``GATE_NAMES[:-1]`` are the built-in gates. CNOT's control is the first
#: (most significant) qubit; the controlled phase is CZ at its default angle pi.
_MATRICES = {
    "swap": lambda: np.eye(4, dtype=complex)[[0, 2, 1, 3]],
    "controlled_rotation": lambda: np.diag([1.0, 1.0, 1.0, 1.0j]),
    "controlled_phase": lambda theta=np.pi: np.diag([1.0, 1.0, 1.0, np.exp(1j * theta)]),
    "hadamard": lambda: np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "pauli_x": lambda: np.array([[0, 1], [1, 0]], dtype=complex),
    "pauli_z": lambda: np.array([[1, 0], [0, -1]], dtype=complex),
    "cnot": lambda: np.eye(4, dtype=complex)[[0, 1, 3, 2]],
    "identity": lambda: np.eye(4, dtype=complex),
    "custom": _custom,
}
GATE_NAMES = tuple(_MATRICES)


#: The parameterless gate of each name, built and checked once per process;
#: a gate is immutable, so every caller may share it.
_named = functools.cache(lambda name: UnitaryGate(_MATRICES[name](), label=name))


def build_gate(spec: GateSpec) -> UnitaryGate:
    """The gate a spec names; unitarity is validated on build. Only
    ``controlled_phase`` takes an angle and only ``custom`` a path."""
    if spec.name == "custom":
        return _custom(spec.custom_path)
    if spec.params is None:
        return _named(spec.name)
    return UnitaryGate(_MATRICES[spec.name](float(spec.params)), label=spec.name)


def bell_pair() -> StateVector:
    """The maximally entangled pair (|00> + |11>)/sqrt(2)."""
    return StateVector(np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2))
