"""Dense complex linear algebra for 1-3 qubit states.

State vectors and density operators are immutable wrappers around numpy
arrays with their physical invariants (normalization, Hermiticity, unit
trace, positivity) enforced at construction. Qubit ordering follows the
ket convention: the leftmost symbol in |ab...> is qubit 0 and carries the
most significant bit of the basis index.
"""

from __future__ import annotations

import itertools
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


class _Frozen:
    """Immutable value: each field is written once, by :meth:`_own`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _own(self, **fields) -> None:
        """Store the fields, taking each array, which no one else may hold (a
        public constructor passes a copy). One that owns its data and is C-ordered
        complex is frozen in place, any other is copied; a read-only view is kept."""
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                flags = value.flags
                if not (flags.owndata and flags.c_contiguous and value.dtype == complex):
                    value = np.array(value, dtype=complex, order="C")
                value.setflags(write=False)
                value = value.view()
            object.__setattr__(self, name, value)


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
        norm = np.linalg.norm(amps)
        if abs(norm**2 - 1.0) > 1e-9:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm**2} (tolerance 1e-9)")
        self._own(amplitudes=_normalised(np.array(amps, order="C"), norm), dim=amps.size)

    @classmethod
    def _trusted(cls, amplitudes: np.ndarray) -> "StateVector":
        """Own, unchecked, a fresh array that is a state by construction:
        built from valid states and gates."""
        state = cls.__new__(cls)
        state._own(amplitudes=_normalised(amplitudes, np.linalg.norm(amplitudes)), dim=amplitudes.size)
        return state

    @classmethod
    def basis(cls, index: int, num_qubits: int = 1) -> "StateVector":
        dim = 2**num_qubits
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} is out of range 0..{dim - 1}")
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls._trusted(amps)

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
        rho._own(matrix=matrix, dim=matrix.shape[0])
        return rho

    @classmethod
    def maximally_mixed(cls, num_qubits: int = 1) -> "DensityOperator":
        dim = 2**num_qubits
        return cls._trusted(np.eye(dim, dtype=complex) / dim)

    @property
    def num_qubits(self) -> int:
        return _qubit_count(self.dim)

    def to_json(self) -> dict:
        return serialize.to_document(self.matrix)

    @classmethod
    def from_json(cls, document: dict) -> "DensityOperator":
        arr = serialize.document_to_array(document)
        if arr.ndim != 2:
            raise ValueError("document holds a vector, not a matrix")
        return cls(arr)

    def __repr__(self):
        return f"DensityOperator({np.array2string(self.matrix, precision=6)})"


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
    tensor = rho.matrix.reshape((2,) * (2 * n))
    traced = [q for q in range(n) if q not in keep_list]
    for offset, q in enumerate(traced):
        axis = q - sum(1 for t in traced[:offset] if t < q)
        half = tensor.ndim // 2
        tensor = np.trace(tensor, axis1=axis, axis2=axis + half)
    kept_dim = 2 ** len(keep_list)
    return DensityOperator._trusted(tensor.reshape(kept_dim, kept_dim))


def apply_unitary(state: QuantumState, u) -> QuantumState:
    """U|psi> for vectors, U rho U-dagger for density operators.

    ``u`` is a :class:`~ctcsim.gates.UnitaryGate` or a raw matrix, which is
    outside input and so is built into a gate, checked, first.
    """
    from .gates import UnitaryGate  # gates imports this module

    if not isinstance(state, (StateVector, DensityOperator)):
        raise TypeError(f"expected StateVector or DensityOperator, got {type(state).__name__}")
    matrix = (u if isinstance(u, UnitaryGate) else UnitaryGate(u)).matrix
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
        # np.tensordot's own dot calls on its (rows, 2) and (2, columns) operands, so its bits
        rest = np.dot(b.conj().reshape(1, 2), array.reshape(2, -1))
        if array.ndim == 1:
            branches.append((float(np.linalg.norm(rest)) ** 2, rest.reshape(-1)))
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
    """Half the trace norm of a Hermitian matrix."""
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
