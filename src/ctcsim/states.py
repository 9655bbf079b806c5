"""Dense complex linear algebra for 1-3 qubit states and gates.

State vectors, density operators and unitary gates are immutable wrappers
around numpy arrays with their invariants (normalization, Hermiticity, unit
trace, positivity, unitarity) enforced at construction. Qubit ordering follows
the ket convention: the leftmost symbol in |ab...> is qubit 0 and carries the
most significant bit of the basis index.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence, Union

import numpy as np

from . import serialize

ATOL = 1e-12
PSD_FLOOR = -1e-10

#: The computational basis pair |0>, |1>: the default measurement basis.
_COMPUTATIONAL = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))


#: No part of an entry of a normalised vector, a density operator or a
#: unitary exceeds 1 in size; the slack is one that no valid input reaches.
_PART_BOUND = 1.0 + 1e-6


def _as_complex(values, what: str) -> np.ndarray:
    """``values`` as a complex array, refused before any product is taken
    unless each real and imaginary part is finite and at most 1 in size.
    The parts are tested, not the modulus, which overflows near 1.8e308;
    one ``<=`` fails on NaN and Inf too. ``what`` opens the message."""
    arr = np.asarray(values, dtype=complex)
    parts = np.abs(arr.ravel().view(float))
    if arr.size and not parts.max() <= _PART_BOUND:
        if not np.isfinite(parts).all():
            raise ValueError(f"{what}: an entry is not finite (NaN or Inf)")
        raise ValueError(f"{what}: an entry has a part of size {float(parts.max())!r}; no part may exceed 1")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    """The one store rule, for an array no one else holds: kept if it owns its data and
    is C-ordered complex, else copied once; then frozen, and kept as a read-only view."""
    flags = arr.flags
    if not (flags.owndata and flags.c_contiguous and arr.dtype == complex):
        arr = np.array(arr, dtype=complex, order="C")
    arr.setflags(write=False)
    return arr.view()


class _Frozen:
    """Immutable value: each field is written once, on construction."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _own(self, **fields) -> None:
        """Store the fields, each array through :func:`_freeze`."""
        for name, value in fields.items():
            object.__setattr__(self, name, _freeze(value) if isinstance(value, np.ndarray) else value)


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a vector, by its own 1-D formula without its generic dispatch."""
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag) if x.dtype.kind == "c" else x.dot(x))


def _normalised(amps: np.ndarray, norm: float) -> np.ndarray:
    """The one renormalisation rule: ``amps`` over its ``norm`` when |psi|^2
    is off 1 by more than ATOL, else ``amps`` itself."""
    return amps / norm if abs(norm**2 - 1.0) > ATOL else amps


def _qubit_count(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension must be a positive power of 2, got {dim}")
    return n


class StateVector(_Frozen):
    """A normalised complex amplitude vector over 2**n basis states."""

    __slots__ = ("amplitudes", "dim")

    def __init__(self, amplitudes):
        amps = _as_complex(amplitudes, "state is not normalized").reshape(-1)
        _qubit_count(amps.size)
        norm = _norm(amps)
        if abs(norm**2 - 1.0) > 1e-9:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm**2} (tolerance 1e-9)")
        self._own(amplitudes=_normalised(np.array(amps, order="C"), norm), dim=amps.size)

    @classmethod
    def _trusted(cls, amplitudes: np.ndarray) -> "StateVector":
        """Own, unchecked, a fresh array that is a state by construction:
        built from valid states and gates."""
        state = cls.__new__(cls)
        object.__setattr__(state, "amplitudes", _freeze(_normalised(amplitudes, _norm(amplitudes))))
        object.__setattr__(state, "dim", amplitudes.size)
        return state

    @classmethod
    def basis(cls, index: int) -> "StateVector":
        """The single-qubit |index>; a register is a :func:`tensor_product` of these."""
        if index not in (0, 1):
            raise ValueError(f"basis index {index} is out of range 0..1")
        return cls._trusted(_COMPUTATIONAL[index].copy())

    @classmethod
    def qubit(cls, a: complex, b: complex) -> "StateVector":
        """Single-qubit state a|0> + b|1>."""
        return cls([a, b])

    @property
    def num_qubits(self) -> int:
        return _qubit_count(self.dim)

    def density(self) -> "DensityOperator":
        return DensityOperator._trusted(np.outer(self.amplitudes, self.amplitudes.conj()))

    def to_json(self) -> dict:
        return serialize.to_document(self.amplitudes)

    @classmethod
    def from_json(cls, document: dict) -> "StateVector":
        arr = serialize.document_to_array(document)
        if arr.ndim != 1:
            raise ValueError("document holds a matrix, not a vector")
        return cls(arr)

    def __repr__(self):
        return f"StateVector({np.array2string(self.amplitudes, precision=6)})"


class DensityOperator(_Frozen):
    """Hermitian, positive semidefinite, unit-trace matrix over 2**n dims."""

    __slots__ = ("matrix", "dim")

    def __init__(self, matrix):
        mat = _as_complex(matrix, "not a density operator")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density operator must be square, got shape {mat.shape}")
        _qubit_count(mat.shape[0])
        if not np.abs(mat - mat.conj().T).max() <= ATOL:
            raise ValueError("density operator must be Hermitian within 1e-12")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > ATOL:
            raise ValueError(f"density operator must have unit trace, got {trace}")
        eigenvalues = np.linalg.eigvalsh(mat)
        if eigenvalues.min() < PSD_FLOOR:
            raise ValueError(f"density operator has negative eigenvalue {eigenvalues.min()}")
        self._own(matrix=np.array(mat), dim=mat.shape[0])

    @classmethod
    def _trusted(cls, matrix: np.ndarray) -> "DensityOperator":
        """Own, unchecked, a fresh matrix that is a density operator by
        construction: the image of valid operators under a CPTP map."""
        rho = cls.__new__(cls)
        object.__setattr__(rho, "matrix", _freeze(matrix))
        object.__setattr__(rho, "dim", matrix.shape[0])
        return rho

    @classmethod
    def maximally_mixed(cls) -> "DensityOperator":
        """The single-qubit I/2; a register is a :func:`tensor_product` of these."""
        return cls._trusted(np.eye(2, dtype=complex) / 2)

    @property
    def num_qubits(self) -> int:
        return _qubit_count(self.dim)

    def to_json(self) -> dict:
        return serialize.to_document(self.matrix)

    @classmethod
    def from_json(cls, document: dict) -> "DensityOperator":
        """The operator of a matrix document, or the pure state's of a vector document."""
        arr = serialize.document_to_array(document)
        return cls(arr) if arr.ndim == 2 else StateVector(arr).density()

    def __repr__(self):
        return f"DensityOperator({np.array2string(self.matrix, precision=6)})"


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
        self._own(matrix=np.array(mat), dim=mat.shape[0], label=str(label))

    def to_json(self) -> dict:
        return serialize.to_document(self.matrix)

    def __repr__(self):
        return f"UnitaryGate({self.label!r}, dim={self.dim})"


QuantumState = Union[StateVector, DensityOperator]


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two vectors or two matrices: the same broadcast multiply,
    without its generic shape handling."""
    if a.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def tensor_product(a: QuantumState, b: QuantumState) -> QuantumState:
    """Kronecker product; qubit order is [a's qubits, then b's qubits]."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector._trusted(_kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return DensityOperator._trusted(_kron(a.matrix, b.matrix))
    raise TypeError(f"operands must be the same kind, got {type(a).__name__} and {type(b).__name__}")


def partial_trace(rho: DensityOperator, keep: Union[int, Sequence[int]]) -> DensityOperator:
    """Trace out all qubits except ``keep`` (an index or indices).

    Tracing a product state returns the kept factor.
    """
    n = rho.num_qubits
    keep_list = [keep] if isinstance(keep, (int, np.integer)) else sorted(keep)
    if not keep_list or any(not 0 <= q < n for q in keep_list):
        raise ValueError(f"invalid subsystem index in {keep!r} for {n} qubits")
    if len(set(keep_list)) != len(keep_list):
        raise ValueError(f"duplicate subsystem index in {keep!r}")
    matrix = rho.matrix
    # in ascending order, so qubit q is now qubit q - offset: its two diagonal blocks add
    for offset, q in enumerate(q for q in range(n) if q not in keep_list):
        a, b = 2 ** (q - offset), 2 ** (n - 1 - q)
        blocks = matrix.reshape(a, 2, b, a, 2, b)
        matrix = (blocks[:, 0, :, :, 0] + blocks[:, 1, :, :, 1]).reshape(a * b, a * b)
    return DensityOperator._trusted(matrix)


def apply_unitary(state: QuantumState, u: UnitaryGate) -> QuantumState:
    """U|psi> for vectors, U rho U-dagger for density operators. A raw
    matrix is refused: ``UnitaryGate(m)`` is where it is checked."""
    if not isinstance(state, (StateVector, DensityOperator)):
        raise TypeError(f"expected StateVector or DensityOperator, got {type(state).__name__}")
    if not isinstance(u, UnitaryGate):
        raise TypeError(f"expected UnitaryGate, got {type(u).__name__}")
    matrix = u.matrix
    if matrix.shape[1] != state.dim:
        raise ValueError(f"dimension mismatch: gate {matrix.shape} vs state dim {state.dim}")
    if isinstance(state, StateVector):
        return StateVector._trusted(matrix @ state.amplitudes)
    return DensityOperator._trusted(matrix @ state.matrix @ matrix.conj().T)


def _branches(array: np.ndarray, basis=_COMPUTATIONAL) -> list:
    """The measurement kernel: (Born probability, unnormalised remainder on
    the other qubits) for each vector b of a single-qubit basis, measured on
    qubit 0.

    Amplitudes psi give <b|psi>, with probability |<b|psi>|^2; a density
    matrix rho gives <b|rho|b>, one contraction on each side, with
    probability Re Tr. The arrays and basis are trusted.
    """
    half = len(array) // 2
    branches = []
    for b in basis:
        # np.tensordot's own dot calls, on its (rows, 2) and (2, columns) operands,
        # so the bits are the ones tensordot gave
        rest = np.dot(b.conj().reshape(1, 2), array.reshape(2, -1))
        if array.ndim == 1:
            branches.append((_norm(rest[0]) ** 2, rest.reshape(-1)))
        else:
            rest = np.dot(rest.reshape(half, 2, half).transpose(0, 2, 1).reshape(-1, 2), b.reshape(2, 1))
            rest = rest.reshape(half, half)
            branches.append((float(np.real(np.trace(rest))), rest))
    return branches


def _sample(draw: float, probabilities) -> int:
    """The one sampler: the first outcome whose running sum of probabilities
    exceeds the uniform ``draw``. When rounding leaves every sum at or below
    the draw, the last outcome of non-zero probability (the last outcome if
    all are 0): an outcome of probability 0 is never drawn."""
    for outcome, total in enumerate(itertools.accumulate(probabilities)):
        if draw < total:
            return outcome
    return max((k for k, p in enumerate(probabilities) if p > 0), default=len(probabilities) - 1)


def trace_distance(r1: DensityOperator, r2: DensityOperator) -> float:
    """Half the trace norm of the difference; 0 iff the operators are equal."""
    if r1.dim != r2.dim:
        raise ValueError(f"dimension mismatch: {r1.dim} vs {r2.dim}")
    return _half_trace_norm(r1.matrix - r2.matrix)


def _half_trace_norm(diff: np.ndarray) -> float:
    """Half the trace norm of a Hermitian matrix: +0.0, with no eigensolve, if it is all zero."""
    if not diff.any():
        return 0.0
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def purity(rho: DensityOperator) -> float:
    """Tr(rho^2); equals 1 iff the state is pure."""
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """Uhlmann fidelity, as a probability in [0, 1].

    Pure/pure reduces to |<a|b>|^2 and pure/mixed to <a|rho|a>.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return float(min(1.0, abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2))
    if isinstance(a, StateVector):
        a, b = b, a
    if isinstance(b, StateVector):
        val = np.real(np.vdot(b.amplitudes, a.matrix @ b.amplitudes))
        return float(min(1.0, max(0.0, val)))
    evals, vecs = np.linalg.eigh(a.matrix)
    sqrt_a = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    inner = sqrt_a @ b.matrix @ sqrt_a
    root_sum = np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None)).sum()
    return float(min(1.0, root_sum**2))
