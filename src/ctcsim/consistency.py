"""Checkers and solvers for the three CTC consistency conditions.

The strong condition demands the CTC qubit's wavefunction survive the
coupling untouched; the Deutsch condition only fixes its density operator
(a fixed point of the reduced coupling map); the weak condition merely
requires the state sequence around the loop to be well-ordered and cyclic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .states import (
    ATOL,
    DensityOperator,
    StateVector,
    UnitaryGate,
    _half_trace_norm,
    _kron,
    _norm,
    apply_unitary,
    fidelity,
    partial_trace,
    tensor_product,
    trace_distance,
)

STRICT_TOL = 1e-12
SOLVER_AGREEMENT_TOL = 1e-9
MAX_ITERATIONS = 10_000
# inside this radius the smallest eigenvalue, (1 - |r|)/2 >= 5e-13, dwarfs
# LAPACK's error (about 4e-16), so a Bloch matrix needs no positivity check
_SURFACE_SHELL = 1.0 - 1e-12

LOOP_LABELS = ("rho_in", "rho_out", "rho_in_prime", "rho_out_prime")

_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI.setflags(write=False)
_CHUNK_POINTS = 4096


class FixedPointError(RuntimeError):
    """Solver failure; carries the last iterate and residual when known."""

    def __init__(self, message, rho=None, residual=None):
        super().__init__(message)
        self.rho = rho
        self.residual = residual


@dataclass(frozen=True)
class ConsistencyVerdict:
    condition: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "residual": float(self.residual),
            "pass": bool(self.passed),
            "tolerance": float(self.tolerance),
        }


@dataclass(frozen=True)
class FixedPointSolution:
    """A self-consistent CTC state for one coupling.

    ``directions`` is a 3 x k matrix whose columns are the Bloch
    directions of the fixed set (the null space of the vectorized map's
    Bloch part). ``fixed_space_dim``, the eigenvalue-1 multiplicity of the
    vectorized map, is 1 + k; when it exceeds 1 the solution is one of a
    family.
    """

    rho: DensityOperator
    method: str
    iterations: int
    residual: float
    directions: np.ndarray

    @property
    def fixed_space_dim(self) -> int:
        return 1 + self.directions.shape[1]

    @property
    def degenerate(self) -> bool:
        return self.fixed_space_dim > 1

    @property
    def note(self) -> str:
        return "one of many" if self.degenerate else "unique"

    @cached_property
    def _bloch(self) -> np.ndarray:
        return bloch_vector(self.rho)

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "iterations": int(self.iterations),
            "residual": float(self.residual),
            "fixed_space_dim": int(self.fixed_space_dim),
            "note": self.note,
            "rho": self.rho.to_json(),
        }


def _integer(value, name: str):
    """``value`` if it is an int and not a bool, else a TypeError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    return value


def _require_coupling_shapes(u: UnitaryGate, *single_qubit_dims):
    if u.dim != 4:
        raise ValueError(f"coupling gate must act on 2 qubits, got dim {u.dim}")
    for dim in single_qubit_dims:
        if dim != 2:
            raise ValueError(f"expected a single-qubit state, got dim {dim}")


def _reduce(u: np.ndarray, u_dag: np.ndarray, joint: np.ndarray) -> np.ndarray:
    """Tr_A[U J U-dagger] for any 4x4 matrix J or stack of them, given U and
    U-dagger, tracing out the chronology-respecting qubit A; linear in J."""
    evolved = u @ joint @ u_dag
    return evolved[..., :2, :2] + evolved[..., 2:, 2:]


def _pauli_coefficients(mat: np.ndarray) -> tuple:
    """Re Tr(sigma_i M) for sigma = I, X, Y, Z and a 2x2 M, entry by entry.

    The trace of the product sigma_i @ M sums from +0.0, so an exact zero
    is +0.0; adding 0.0 keeps that sign.
    """
    (m00, m01), (m10, m11) = mat.tolist()
    return (
        m00.real + m11.real + 0.0,
        m01.real + m10.real + 0.0,
        m10.imag - m01.imag + 0.0,
        m00.real - m11.real + 0.0,
    )


def _pauli_transfer(u: UnitaryGate, joints: np.ndarray) -> np.ndarray:
    """4x4 real m[i, j] = Tr(sigma_i Tr_A[U J_j U-dagger]) / 2, the J_j as one (4, 2, 2, 2, 2) broadcast."""
    m = np.empty((4, 4))
    for j, image in enumerate(_reduce(u.matrix, u.matrix.conj().T, joints.reshape(4, 4, 4))):
        m[:, j] = _pauli_coefficients(image)
    return 0.5 * m


def deutsch_map(u: UnitaryGate, rho_in: DensityOperator, rho: DensityOperator) -> DensityOperator:
    """The reduced coupling map: trace the chronology-respecting qubit
    out of U (rho_in (x) rho) U-dagger."""
    _require_coupling_shapes(u, rho_in.dim, rho.dim)
    joint = _kron(rho_in.matrix, rho.matrix)
    return DensityOperator._trusted(_reduce(u.matrix, u.matrix.conj().T, joint))


def check_strong(
    u: UnitaryGate, s: StateVector, ctc: StateVector, tolerance: float = STRICT_TOL
) -> ConsistencyVerdict:
    """Does U(|s> (x) |ctc>) factorize with the CTC factor unchanged?

    The residual is 1 - <ctc| rho_ctc |ctc> of the evolved reduced CTC
    state, which vanishes exactly when the joint state is a product with
    CTC factor |ctc> up to global phase.
    """
    _require_coupling_shapes(u, s.dim, ctc.dim)
    joint = apply_unitary(tensor_product(s, ctc), u)
    reduced = partial_trace(joint.density(), keep=1)
    residual = 1.0 - fidelity(ctc, reduced)
    return ConsistencyVerdict("strong", residual, tolerance)


def check_deutsch(
    u: UnitaryGate, rho_in: DensityOperator, rho: DensityOperator, tolerance: float = STRICT_TOL
) -> ConsistencyVerdict:
    """Trace distance between rho and its image under the reduced map."""
    residual = trace_distance(rho, deutsch_map(u, rho_in, rho))
    return ConsistencyVerdict("deutsch", residual, tolerance)


def check_weak(loop: Mapping[str, DensityOperator]) -> ConsistencyVerdict:
    """Loop closure: rho_out = rho_in' and rho_out' = rho_in, read from a
    session's four loop states keyed by ``LOOP_LABELS``. A mapping has no
    start, so the verdict does not depend on where the loop starts."""
    if set(loop) != set(LOOP_LABELS):
        raise ValueError(f"loop states must be keyed by {LOOP_LABELS}, got {list(loop)}")
    for label, rho in loop.items():
        if not isinstance(rho, DensityOperator):
            raise TypeError(f"loop state {label!r} is not a DensityOperator")
    residual = max(
        trace_distance(loop["rho_out"], loop["rho_in_prime"]),
        trace_distance(loop["rho_out_prime"], loop["rho_in"]),
    )
    return ConsistencyVerdict("weak", residual, STRICT_TOL)


def bloch_vector(rho: DensityOperator) -> np.ndarray:
    """Pauli expectation values (x, y, z) of a single-qubit state."""
    if rho.dim != 2:
        raise ValueError("Bloch coordinates are defined for single qubits")
    return np.array(_pauli_coefficients(rho.matrix)[1:])


def density_from_bloch(r) -> DensityOperator:
    r = np.asarray(r, dtype=float)
    if not all(map(math.isfinite, r.flat)):
        raise ValueError(f"Bloch vector must be finite, got {r.tolist()}")
    norm = _norm(r)
    if norm > 1.0 + 1e-9:
        raise ValueError(f"Bloch vector lies outside the unit ball: |r| = {norm}")
    if norm > 1.0:
        r = r / norm
    mat = 0.5 * (_PAULI[0] + r[0] * _PAULI[1] + r[1] * _PAULI[2] + r[2] * _PAULI[3])
    if norm >= _SURFACE_SHELL:
        # a point on or near the surface can have a negative eigenvalue (fp
        # fuzz); it is mixed infinitesimally toward the center
        smallest = np.linalg.eigvalsh(mat).min()
        if smallest < 0.0:
            mat = (mat - smallest * np.eye(2)) / (1.0 - 2.0 * smallest)
    return DensityOperator._trusted(mat)


def transfer_matrix(u: UnitaryGate, rho_in: DensityOperator) -> np.ndarray:
    """4x4 real matrix of the reduced map in the Pauli basis.

    Coefficients are c_i = Tr(sigma_i rho) so that rho = (1/2) sum c_i
    sigma_i; trace preservation makes the first row (1, 0, 0, 0).
    """
    _require_coupling_shapes(u, rho_in.dim, 2)
    return _pauli_transfer(u, rho_in.matrix[None, :, None, :, None] * _PAULI[:, None, :, None, :])


def _fixed_space(u: UnitaryGate, rho_in: DensityOperator):
    """The Bloch part of the vectorized map as the system (I - A) r = b.

    Returns the pair (I - A, b), the null-space basis of I - A, and its SVD
    with the mask of free directions: those whose singular value is below
    1e-10.
    """
    m = transfer_matrix(u, rho_in)
    k = np.eye(3) - m[1:, 1:]
    left, svals, vt = np.linalg.svd(k)
    free = svals < 1e-10
    return (k, m[1:, 0]), list(vt[free]), (left, svals, vt, free)


def _closed_form_step(p: float, q: complex, s: float) -> float:
    """Half the trace norm of the Hermitian 2x2 [[p, .], [q, s]], read from
    the lower triangle as eigvalsh reads it: half the sum of the eigenvalues'
    sizes when they share a sign, half their gap when they do not."""
    return max(abs(p + s) / 2, math.hypot((p - s) / 2, abs(q)))


def _iterate(u: UnitaryGate, rho_in: np.ndarray, tolerance: float, max_iterations: int):
    """The iterative solver's loop: the first iterate whose step from the one
    before is within ``tolerance``, and its iteration number.

    Each step is first measured in closed form, which agrees with eigvalsh to
    a few ulps (relative, or about 1e-323 for subnormals); only a step within
    the tolerance plus that margin is measured again with eigvalsh, which
    alone decides whether to stop. Raises FixedPointError with the last
    iterate and step.
    """
    u_mat, u_dag = u.matrix, u.matrix.conj().T
    left = rho_in[:, None, :, None]  # _kron(rho_in, mat) is left * mat[None, :, None, :]
    # _reduce's expressions, through out= into buffers and views built once per solve
    joint, half, evolved = (np.empty((4, 4), dtype=complex) for _ in range(3))
    joint4, top, bottom = joint.reshape(2, 2, 2, 2), evolved[:2, :2], evolved[2:, 2:]
    mat, prev = DensityOperator.maximally_mixed().matrix.copy(), np.empty((2, 2), dtype=complex)
    wide, prev_wide = mat[None, :, None, :], prev[None, :, None, :]
    entries = mat.tolist()
    bound = tolerance * (1.0 + 1e-6) + 1e-300
    for iteration in range(1, max_iterations + 1):
        prev, mat, prev_wide, wide = mat, prev, wide, prev_wide
        (a0, _), (c0, d0) = entries
        np.multiply(left, prev_wide, out=joint4)
        np.dot(np.dot(u_mat, joint, out=half), u_dag, out=evolved)
        np.add(top, bottom, out=mat)
        (a, _), (c, d) = entries = mat.tolist()
        trace = a.real + d.real
        if abs(trace - 1.0) > ATOL / 2:
            np.divide(mat, trace, out=mat)
            (a, _), (c, d) = entries = mat.tolist()
        if _closed_form_step(a.real - a0.real, c - c0, d.real - d0.real) <= bound:
            if _half_trace_norm(mat - prev) <= tolerance:
                return mat, iteration
    step = _half_trace_norm(mat - prev) if max_iterations > 0 else float("inf")
    raise FixedPointError(
        f"no convergence after {max_iterations} iterations (last step {step:.3e})",
        rho=DensityOperator._trusted(mat),
        residual=step,
    )


def solve_deutsch_fixed_point(
    u: UnitaryGate,
    rho_in: DensityOperator,
    method: str = "spectral",
    tolerance: float = STRICT_TOL,
    max_iterations: int = MAX_ITERATIONS,
) -> FixedPointSolution:
    """Find rho with rho = deutsch_map(u, rho_in, rho).

    iterative: repeated application of the map starting from the
    maximally mixed state until successive iterates agree within
    ``tolerance``, which must be finite and non-negative (at most
    ``max_iterations`` steps). Each step adds
    rounding error to the iterate's trace, so an iterate whose trace is
    off by more than half of ``ATOL`` is divided by it before the next
    step; otherwise a slow contraction would fail the unit-trace check.
    A step is the trace distance between successive iterates, measured in
    closed form and confirmed with eigvalsh only near the tolerance.

    spectral: vectorize the map on the 4-dimensional real space of
    Hermitian operators, take the eigenvalue-1 eigenspace, and project to
    the unit-trace PSD set. Degenerate fixed sets are resolved to the
    maximal-entropy member, which for a qubit is the minimal-Bloch-norm
    point of the fixed affine subspace.
    """
    if method not in ("iterative", "spectral"):
        raise ValueError(f"unknown method {method!r}")
    _integer(max_iterations, "max_iterations")
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance!r}")
    (k, b), null_basis, (left, svals, vt, free) = _fixed_space(u, rho_in)
    # adding 0.0 turns a -0.0 direction entry into +0.0
    directions = np.array(null_basis).reshape(-1, 3).T + 0.0

    if method == "iterative":
        mat, iteration = _iterate(u, rho_in.matrix, tolerance, max_iterations)
        rho = DensityOperator._trusted(mat)
    else:
        # the min-norm solve inverts only the kept singular values, so rounding noise in b
        # along a free direction is not amplified and the fixed point moves with a change of basis
        if null_basis:
            kept = ~free
            r_star = vt[kept].T @ ((left[:, kept].T @ b) / svals[kept])
        else:
            r_star, *_ = np.linalg.lstsq(k, b, rcond=None)
        defect = float(np.linalg.norm(k @ r_star - b, ord=np.inf))
        if defect > 1e-10:
            raise FixedPointError(
                "no fixed point solves the vectorized system; a solution is "
                f"guaranteed to exist, so this signals a numerical or input defect ({defect:.3e})"
            )
        norm = _norm(r_star)
        if norm > 1.0 + 1e-9:
            raise FixedPointError(
                "no PSD unit-trace fixed point found in the eigenspace: minimal "
                f"Bloch norm {norm:.6f} exceeds 1; existence is guaranteed, so this "
                "signals a numerical or input defect"
            )
        iteration = 0
        rho = density_from_bloch(r_star if norm <= 1.0 else r_star / norm)
    residual = trace_distance(rho, deutsch_map(u, rho_in, rho))
    return FixedPointSolution(rho, method, iteration, residual, directions)


def fixed_set_distance(solution: FixedPointSolution, rho: DensityOperator) -> float:
    """Euclidean Bloch distance from rho to the solver's fixed affine set."""
    offset = bloch_vector(rho) - solution._bloch
    if not solution.degenerate:
        return _norm(offset)
    # least squares rather than a projector, whose rounding differs
    basis = solution.directions
    coef, *_ = np.linalg.lstsq(basis, offset, rcond=None)
    return _norm(offset - basis @ coef)


@functools.lru_cache(maxsize=4)
def _bloch_directions(resolution: int):
    """The grid's radii past the center and one shell's unit directions, read-only."""
    radii = np.linspace(0.0, 1.0, resolution // 2 + 1)[1:]
    thetas = np.linspace(0.0, np.pi, resolution // 2 + 1)
    phis = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    theta, phi = np.meshgrid(thetas, phis, indexing="ij")
    # each pole keeps one azimuth, phi = 0
    keep = np.ones(theta.shape, dtype=bool)
    keep[[0, -1], 1:] = False
    theta, phi = theta[keep], phi[keep]
    directions = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=1)
    for array in (radii, directions):
        array.setflags(write=False)
    return radii, directions


def _bloch_shells(resolution: int):
    """Deterministic grid over the Bloch ball, poles and center deduped: the center, then
    (k, n, 3) stacks of whole shells, about ``_CHUNK_POINTS`` points or one shell each.
    |r| takes resolution//2 + 1 steps from 0 to 1 (purity 0.5 to 1); the polar and
    azimuthal angles take resolution//2 + 1 and resolution points."""
    if resolution < 8:
        raise ValueError(f"grid resolution must be at least 8, got {resolution}")
    radii, directions = _bloch_directions(resolution)
    yield np.zeros((1, 1, 3))
    step = max(1, _CHUNK_POINTS // len(directions))
    for start in range(0, len(radii), step):
        yield radii[start : start + step, None, None] * directions


def _admissible_points(u: UnitaryGate, rho: np.ndarray, grid_resolution: int, tolerance: float):
    """The Bloch grid points, and their residuals, whose Deutsch residual against the
    CTC state (a 2x2 matrix) stays within ``tolerance``: two arrays per chunk of shells."""
    _require_coupling_shapes(u, 2, rho.shape[0])
    # the map rho_in -> Tr_A[U(rho_in (x) rho)U+] is linear in rho_in
    m = _pauli_transfer(u, _PAULI[:, :, None, :, None] * rho[None, None, :, None, :])
    a, b = m[1:, 1:], m[1:, 0]
    target = np.array(_pauli_coefficients(rho)[1:])
    for chunk in _bloch_shells(grid_resolution):
        residuals = 0.5 * np.linalg.norm(chunk @ a.T + b - target, axis=2)
        keep = residuals <= tolerance
        yield chunk[keep], residuals[keep]


def scan_admissible_inputs(u: UnitaryGate, rho: DensityOperator, grid_resolution: int):
    """Sweep candidate chronology-respecting inputs over a Bloch grid.

    Returns the (r, residual) pairs, r a Bloch grid point, whose Deutsch
    residual against the fixed CTC state rho stays within
    ``SOLVER_AGREEMENT_TOL``; ``density_from_bloch(r)`` is the input.
    Single-qubit trace distance equals half the Euclidean Bloch distance,
    so the sweep is evaluated in Bloch coordinates; the result is identical
    to calling check_deutsch per point.
    """
    chunks = _admissible_points(u, rho.matrix, _integer(grid_resolution, "grid_resolution"), SOLVER_AGREEMENT_TOL)
    return [pair for points, residuals in chunks for pair in zip(points, residuals.tolist())]
