import itertools
import json
import re

import numpy as np
import pytest

from ctcsim.consistency import (
    MAX_ITERATIONS,
    SOLVER_AGREEMENT_TOL,
    LOOP_LABELS,
    FixedPointError,
    bloch_vector,
    check_deutsch,
    check_strong,
    check_weak,
    _CHUNK_POINTS,
    _admissible_points,
    _bloch_directions,
    _bloch_shells,
    _fixed_space,
    density_from_bloch,
    deutsch_map,
    fixed_set_distance,
    scan_admissible_inputs,
    solve_deutsch_fixed_point,
    transfer_matrix,
)
from ctcsim.gates import GateSpec, UnitaryGate, build_gate
from ctcsim.states import DensityOperator, StateVector, _kron, tensor_product, trace_distance

RNG = np.random.default_rng(77)

NAMED_COUPLINGS = [
    build_gate(GateSpec("swap")),
    build_gate(GateSpec("controlled_rotation")),
    build_gate(GateSpec("controlled_phase")),
    build_gate(GateSpec("cnot")),
    build_gate(GateSpec("identity")),
]


def random_state(rng=RNG):
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    return StateVector(amps / np.linalg.norm(amps))


def bloch_grid(resolution):
    """The whole Bloch grid: the scan's chunks of radial shells, concatenated."""
    return np.concatenate([chunk.reshape(-1, 3) for chunk in _bloch_shells(resolution)])


def admissible_arrays(u, rho, resolution, tolerance):
    """The scan's kept points and their residuals over the whole grid, as two arrays."""
    shells = list(_admissible_points(u, rho, resolution, tolerance))
    return np.concatenate([points for points, _ in shells]), np.concatenate([r for _, r in shells])


def random_density(rng=RNG):
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    mat = raw @ raw.conj().T
    return DensityOperator(mat / np.trace(mat))


def raw_deutsch_map(u, rho_in, rho):
    """Independent oracle: explicit kron, conjugation, and axis trace."""
    joint = u.matrix @ np.kron(rho_in.matrix, rho.matrix) @ u.matrix.conj().T
    return np.einsum("abad->bd", joint.reshape(2, 2, 2, 2))


# --------------------------------------------------------------------- strong


def test_strong_swap_identical_states_passes():
    v = check_strong(build_gate(GateSpec("swap")), StateVector.basis(0), StateVector.basis(0))
    assert v.passed and v.residual <= 1e-12


def test_strong_swap_distinct_basis_states_fails():
    # direct 4-amplitude oracle: swap sends |0>|1> to |1>|0>, so the CTC
    # factor flips to |0> and its overlap with |1> vanishes
    joint = build_gate(GateSpec("swap")).matrix @ np.kron([1, 0], [0, 1])
    assert np.allclose(joint, [0, 0, 1, 0])
    v = check_strong(build_gate(GateSpec("swap")), StateVector.basis(0), StateVector.basis(1))
    assert not v.passed
    assert v.residual == pytest.approx(1.0, abs=1e-12)


def test_strong_identity_always_passes():
    for _ in range(10):
        v = check_strong(build_gate(GateSpec("identity")), random_state(), random_state())
        assert v.passed


def test_strong_swap_passes_iff_states_match_up_to_phase():
    for _ in range(30):
        s = random_state()
        same = StateVector(np.exp(0.3j) * s.amplitudes)
        other = random_state()
        assert check_strong(build_gate(GateSpec("swap")), s, same).passed
        matches = abs(np.vdot(s.amplitudes, other.amplitudes)) >= 1 - 1e-9
        assert check_strong(build_gate(GateSpec("swap")), s, other).passed == matches


def test_strong_dimension_mismatch():
    with pytest.raises(ValueError):
        check_strong(UnitaryGate(np.eye(2)), StateVector.basis(0), StateVector.basis(0))


# -------------------------------------------------------------------- deutsch


def test_deutsch_swap_same_state_passes():
    rho = StateVector.basis(0).density()
    v = check_deutsch(build_gate(GateSpec("swap")), rho, rho)
    assert v.passed and v.residual == 0.0


def test_deutsch_swap_orthogonal_states_fails():
    # the swap's reduced map returns rho_in, so the residual is the full
    # trace distance between |0><0| and |1><1|
    rho_in = StateVector.basis(0).density()
    rho = StateVector.basis(1).density()
    assert np.allclose(raw_deutsch_map(build_gate(GateSpec("swap")), rho_in, rho), rho_in.matrix)
    v = check_deutsch(build_gate(GateSpec("swap")), rho_in, rho)
    assert not v.passed
    assert v.residual == pytest.approx(1.0, abs=1e-12)


def test_deutsch_identity_any_pair_passes():
    for _ in range(10):
        assert check_deutsch(build_gate(GateSpec("identity")), random_density(), random_density()).passed


def test_deutsch_map_matches_raw_oracle():
    for gate in NAMED_COUPLINGS:
        for _ in range(5):
            rho_in, rho = random_density(), random_density()
            lib = deutsch_map(gate, rho_in, rho)
            assert np.allclose(lib.matrix, raw_deutsch_map(gate, rho_in, rho), atol=1e-12)


def test_deutsch_map_is_trace_preserving():
    for gate in NAMED_COUPLINGS:
        for _ in range(5):
            out = deutsch_map(gate, random_density(), random_density())
            assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------- fixed point


def test_swap_map_returns_rho_in_exactly():
    for _ in range(1000):
        rho_in, rho = random_density(), random_density()
        out = deutsch_map(build_gate(GateSpec("swap")), rho_in, rho)
        assert trace_distance(out, rho_in) <= 1e-12


@pytest.mark.parametrize("method", ["iterative", "spectral"])
def test_swap_fixed_point_is_rho_in(method):
    rho_in = StateVector.qubit(1 / np.sqrt(2), 1 / np.sqrt(2)).density()
    sol = solve_deutsch_fixed_point(build_gate(GateSpec("swap")), rho_in, method)
    assert trace_distance(sol.rho, rho_in) <= 1e-10
    assert sol.residual <= 1e-10
    assert not sol.degenerate


def test_identity_everything_fixed_iterative_returns_start():
    sol = solve_deutsch_fixed_point(build_gate(GateSpec("identity")), random_density(), "iterative")
    assert np.allclose(sol.rho.matrix, np.eye(2) / 2)
    assert sol.iterations == 1
    assert sol.degenerate and sol.fixed_space_dim == 4
    assert sol.note == "one of many"


def test_identity_spectral_returns_max_entropy_point():
    sol = solve_deutsch_fixed_point(build_gate(GateSpec("identity")), random_density(), "spectral")
    assert np.allclose(sol.rho.matrix, np.eye(2) / 2)
    assert sol.fixed_space_dim == 4


def test_methods_agree_named_gates_and_random_inputs():
    for gate in NAMED_COUPLINGS:
        for _ in range(20):
            rho_in = random_density()
            it = solve_deutsch_fixed_point(gate, rho_in, "iterative")
            sp = solve_deutsch_fixed_point(gate, rho_in, "spectral")
            assert trace_distance(it.rho, sp.rho) <= 1e-9


def test_controlled_rotation_fixed_set_matches_grid_oracle():
    # with a coherent rho_in the CR map mixes a quarter rotation into the
    # equatorial plane, leaving exactly the diagonal (z-axis) states fixed
    rho_in = StateVector.qubit(1 / np.sqrt(2), 1 / np.sqrt(2)).density()
    gate = build_gate(GateSpec("controlled_rotation"))
    sol = solve_deutsch_fixed_point(gate, rho_in, "spectral")
    assert sol.degenerate

    grid = bloch_grid(16)
    for point in grid:
        rho = density_from_bloch(point)
        residual = trace_distance(rho, deutsch_map(gate, rho_in, rho))
        member = fixed_set_distance(sol, rho) <= 1e-9
        assert member == (residual <= 1e-9)
        # membership equals being on the z-axis
        assert member == (abs(point[0]) < 1e-12 and abs(point[1]) < 1e-12)


def test_controlled_rotation_with_basis_rho_in_fixes_everything():
    sol = solve_deutsch_fixed_point(
        build_gate(GateSpec("controlled_rotation")), StateVector.basis(0).density(), "spectral"
    )
    assert sol.fixed_space_dim == 4
    it = solve_deutsch_fixed_point(
        build_gate(GateSpec("controlled_rotation")), StateVector.basis(0).density(), "iterative"
    )
    assert it.note == "one of many"


def test_iterative_reports_non_convergence():
    rho_in = StateVector.basis(0).density()
    with pytest.raises(FixedPointError) as info:
        solve_deutsch_fixed_point(build_gate(GateSpec("swap")), rho_in, "iterative", max_iterations=1)
    assert info.value.rho is not None
    assert info.value.residual is not None
    for method in ("iterative", "spectral"):
        for cap in (True, 2.5, "5", None):
            with pytest.raises(TypeError, match="max_iterations must be an int"):
                solve_deutsch_fixed_point(build_gate(GateSpec("swap")), rho_in, method, max_iterations=cap)


def test_iterative_survives_slow_contraction_without_trace_drift():
    # the Bloch map of a partial swap contracts by about 0.9975 a step;
    # thousands of steps of rounding used to push the iterate's trace past
    # the unit-trace check, raising ValueError before convergence
    theta = 0.05
    gate = UnitaryGate(np.cos(theta) * np.eye(4) + 1j * np.sin(theta) * build_gate(GateSpec("swap")).matrix)
    rho_in = StateVector.qubit(0.6, 0.8).density()
    sol = solve_deutsch_fixed_point(gate, rho_in, "iterative")
    assert 1000 < sol.iterations < MAX_ITERATIONS
    assert abs(np.trace(sol.rho.matrix) - 1.0) <= 1e-12
    spectral = solve_deutsch_fixed_point(gate, rho_in, "spectral")
    assert trace_distance(sol.rho, spectral.rho) <= 1e-9


SWAP_CHECKS = {
    "iterative": lambda swap, tolerance: solve_deutsch_fixed_point(
        swap, DensityOperator.maximally_mixed(), "iterative", tolerance=tolerance
    ),
    "spectral": lambda swap, tolerance: solve_deutsch_fixed_point(
        swap, DensityOperator.maximally_mixed(), "spectral", tolerance=tolerance
    ),
    "strong": lambda swap, tolerance: check_strong(swap, StateVector.basis(0), StateVector.basis(0), tolerance),
    "deutsch": lambda swap, tolerance: check_deutsch(
        swap, DensityOperator.maximally_mixed(), DensityOperator.maximally_mixed(), tolerance
    ),
}


@pytest.mark.parametrize("name", SWAP_CHECKS)
def test_solvers_and_checkers_share_one_tolerance_rule(name):
    swap = build_gate(GateSpec("swap"))
    for tolerance in (float("nan"), float("inf"), -float("inf"), -1.0):
        with pytest.raises(ValueError, match=rf"^tolerance must be a finite number >= 0, got {tolerance!r}$"):
            SWAP_CHECKS[name](swap, tolerance)
    SWAP_CHECKS[name](swap, 0.0)


@pytest.mark.parametrize("tolerance", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("method", ["iterative", "spectral"])
def test_solver_rejects_negative_or_non_finite_tolerance(method, tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        solve_deutsch_fixed_point(build_gate(GateSpec("swap")), random_density(), method, tolerance=tolerance)


def test_transfer_matrix_first_row_is_trace_row():
    for gate in NAMED_COUPLINGS:
        m = transfer_matrix(gate, random_density())
        assert np.allclose(m[0], [1, 0, 0, 0], atol=1e-12)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        solve_deutsch_fixed_point(build_gate(GateSpec("swap")), random_density(), "magic")


# ----------------------------------------------------------------------- scan


def test_scan_swap_admits_only_rho_itself():
    rho = StateVector.basis(0).density()
    admissible = scan_admissible_inputs(build_gate(GateSpec("swap")), rho, 8)
    assert len(admissible) >= 1
    for r, residual in admissible:
        assert trace_distance(density_from_bloch(r), rho) <= 1e-9
        assert residual <= 1e-9


def test_scan_identity_admits_entire_grid():
    admissible = scan_admissible_inputs(build_gate(GateSpec("identity")), random_density(), 8)
    assert len(admissible) == len(bloch_grid(8))


def test_scan_residuals_match_check_deutsch():
    rho = random_density()
    gate = build_gate(GateSpec("controlled_rotation"))
    # the scan's kernel at an infinite tolerance keeps every grid point
    points, residuals = admissible_arrays(gate, rho.matrix, 8, np.inf)
    assert len(points) == len(bloch_grid(8))
    sample = RNG.choice(len(points), size=20, replace=False)
    for index in sample:
        candidate = density_from_bloch(points[index])
        assert check_deutsch(gate, candidate, rho).residual == pytest.approx(residuals[index], abs=1e-12)


def test_scan_holds_one_chunk_of_shells_at_a_time():
    # the identity coupling keeps every point, so each chunk comes back whole: the
    # center alone, then whole shells up to the bound, or one shell larger than it
    for resolution, shells_per_chunk in ((40, 5), (100, 1)):
        shell_rows = (resolution // 2 - 1) * resolution + 2
        chunks = list(
            _admissible_points(
                build_gate(GateSpec("identity")), random_density().matrix, resolution, SOLVER_AGREEMENT_TOL
            )
        )
        sizes = [len(points) for points, residuals in chunks if len(residuals) == len(points)]
        assert len(sizes) == len(chunks) and sizes[0] == 1
        assert max(sizes) == shells_per_chunk * shell_rows <= max(_CHUNK_POINTS, shell_rows)
        assert sum(sizes) == len(bloch_grid(resolution))


def test_grid_directions_are_cached_read_only():
    radii, directions = _bloch_directions(40)
    assert _bloch_directions(40)[1] is directions
    assert not radii.flags.writeable and not directions.flags.writeable
    with pytest.raises(ValueError):
        directions[0, 0] = 0.0
    rho = random_density()
    first, again = (admissible_arrays(build_gate(GateSpec("controlled_rotation")), rho.matrix, 40, 0.3) for _ in range(2))
    for new, old in zip(again, first):
        assert_same_bytes(new, old)


def test_scan_rejects_invalid_density_probe():
    # |e_0><e_1| as a raw matrix is not Hermitian, so it cannot even be
    # constructed as a density operator
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_scan_requires_minimum_resolution():
    with pytest.raises(ValueError):
        scan_admissible_inputs(build_gate(GateSpec("swap")), random_density(), 4)
    for resolution in (True, 8.5, "16", None):
        with pytest.raises(TypeError, match="grid_resolution must be an int"):
            scan_admissible_inputs(build_gate(GateSpec("swap")), random_density(), resolution)


def test_grid_covers_purity_range():
    grid = bloch_grid(8)
    radii = np.linalg.norm(grid, axis=1)
    purities = (1 + radii**2) / 2
    assert purities.min() == pytest.approx(0.5)
    assert purities.max() == pytest.approx(1.0)


def loop_bloch_grid(resolution):
    """Oracle: the grid built point by point, radius, then polar angle,
    then azimuth; each pole keeps only phi = 0."""
    radii = np.linspace(0.0, 1.0, resolution // 2 + 1)
    thetas = np.linspace(0.0, np.pi, resolution // 2 + 1)
    phis = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    points = [np.zeros(3)]
    for radius in radii[1:]:
        for theta in thetas:
            phi_values = phis[:1] if theta in (0.0, np.pi) else phis
            for phi in phi_values:
                points.append(
                    radius
                    * np.array(
                        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
                    )
                )
    return np.array(points)


@pytest.mark.parametrize("resolution", [*range(8, 33), 40, 100])
def test_grid_is_bitwise_the_point_by_point_grid(resolution):
    grid, oracle = bloch_grid(resolution), loop_bloch_grid(resolution)
    assert grid.shape == oracle.shape
    assert grid.tobytes() == oracle.tobytes()


# ----------------------------------------------------------------------- weak


def test_weak_all_same_passes():
    rho = StateVector.basis(0).density()
    assert check_weak(dict.fromkeys(LOOP_LABELS, rho)).passed


def test_weak_orthogonal_return_fails():
    rho0 = StateVector.basis(0).density()
    rho1 = StateVector.basis(1).density()
    v = check_weak(dict(zip(LOOP_LABELS, (rho0, rho0, rho0, rho1))))
    assert not v.passed
    assert v.residual == pytest.approx(1.0)


def test_weak_missing_segment_label():
    rho = StateVector.basis(0).density()
    with pytest.raises(ValueError, match="rho_out_prime"):
        check_weak({"rho_in": rho, "rho_out": rho, "rho_in_prime": rho})


def test_weak_refuses_an_extra_label_and_a_value_that_is_no_density_operator():
    rho = StateVector.basis(0).density()
    with pytest.raises(ValueError, match="rho_next"):
        check_weak({**dict.fromkeys(LOOP_LABELS, rho), "rho_next": rho})
    with pytest.raises(TypeError, match="'rho_out' is not a DensityOperator"):
        check_weak({**dict.fromkeys(LOOP_LABELS, rho), "rho_out": StateVector.basis(0)})


def test_weak_invariant_under_cyclic_relabeling():
    segments = [random_density() for _ in range(4)]
    items = list(zip(LOOP_LABELS, segments))
    base = check_weak(dict(items))
    for start in range(4):
        rotated = check_weak(dict(items[start:] + items[:start]))
        assert rotated.residual == pytest.approx(base.residual, abs=1e-15)
        assert rotated.passed == base.passed


# -------------------------------------------------------------- bloch helpers


def test_bloch_round_trip():
    for _ in range(10):
        rho = random_density()
        again = density_from_bloch(bloch_vector(rho))
        assert trace_distance(rho, again) <= 1e-12


def test_bloch_rejects_outside_ball():
    with pytest.raises(ValueError):
        density_from_bloch([1.5, 0, 0])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_bloch_rejects_non_finite(value):
    with pytest.raises(ValueError):
        density_from_bloch([value, 0, 0])


@pytest.mark.parametrize(
    "r, shape",
    [([0.1, 0.2, 0.3, 0.4], (4,)), ([0.1, 0.2], (2,)), (0.5, ()), ([[0.1], [0.2], [0.3]], (3, 1)), ([], (0,))],
)
def test_bloch_refuses_a_vector_that_is_not_three_numbers(r, shape):
    with pytest.raises(ValueError, match=rf"shape \(3,\), got shape {re.escape(str(shape))}"):
        density_from_bloch(r)


# ------------------------------------------------------------ kernel oracles
# The Bloch-coordinate kernel must compute every float with the same single
# operations as the generic implementations below, which it replaced; these
# tests compare the two by bytes.

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def haar_unitary(rng, dim=4) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian, with the phases of
    R's diagonal moved into Q (Mezzadri 2007)."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def old_reduce(u, joint):
    evolved = u.matrix @ joint @ u.matrix.conj().T
    return np.trace(evolved.reshape(2, 2, 2, 2), axis1=0, axis2=2)


def old_pauli_transfer(u, joints):
    m = np.empty((4, 4))
    for j, joint in enumerate(joints):
        image = old_reduce(u, joint)
        for i, pi in enumerate(PAULI):
            m[i, j] = 0.5 * np.real(np.trace(pi @ image))
    return m


def old_bloch_vector(rho):
    return np.array([float(np.real(np.trace(p @ rho.matrix))) for p in PAULI[1:]])


def old_density_matrix_from_bloch(r):
    r = np.asarray(r, dtype=float)
    norm = float(np.linalg.norm(r))
    if norm > 1.0:
        r = r / norm
    mat = 0.5 * (PAULI[0] + r[0] * PAULI[1] + r[1] * PAULI[2] + r[2] * PAULI[3])
    smallest = float(np.linalg.eigvalsh(mat).min())
    if smallest < 0.0:
        mat = (mat - smallest * np.eye(2)) / (1.0 - 2.0 * smallest)
    return mat


def old_directions(null_basis):
    """The old fixed-set directions: read back from the Hermitian matrices
    built from the solver's null-space basis, as a 3 x k matrix."""
    directions = []
    for v in null_basis:
        mat = 0.5 * sum(v[i] * PAULI[i + 1] for i in range(3))
        directions.append([float(np.real(np.trace(p @ mat))) for p in PAULI[1:]])
    return np.array(directions).reshape(-1, 3).T


def old_fixed_set_distance(solution, rho, null_basis):
    r = old_bloch_vector(rho)
    r0 = old_bloch_vector(solution.rho)
    if not null_basis:
        return float(np.linalg.norm(r - r0))
    basis = old_directions(null_basis)
    coef, *_ = np.linalg.lstsq(basis, r - r0, rcond=None)
    return float(np.linalg.norm(r - r0 - basis @ coef))


def old_residuals(u, rho, grid):
    m = old_pauli_transfer(u, [np.kron(p, rho.matrix) for p in PAULI])
    a, b = m[1:, 1:], m[1:, 0]
    return 0.5 * np.linalg.norm(grid @ a.T + b - old_bloch_vector(rho), axis=1)


def old_scan(u, rho, resolution, tolerance):
    """The old per-point scan: each kept point, its density matrix and its residual."""
    grid = bloch_grid(resolution)
    residuals = old_residuals(u, rho, grid)
    return [
        (point, old_density_matrix_from_bloch(point), float(residual))
        for point, residual in zip(grid, residuals)
        if residual <= tolerance
    ]


def assert_same_bytes(new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes()


def special_densities():
    """States with exact zeros, signed zeros and entries of +-1/2."""
    h = 1 / np.sqrt(2)
    vectors = [[1, 0], [0, 1], [h, h], [h, -h], [h, 1j * h], [h, -1j * h], [-0.0, 1], [1, -0.0]]
    states = [StateVector(v).density() for v in vectors]
    states.append(DensityOperator.maximally_mixed())
    states += [
        density_from_bloch(r)
        for r in ([-0.0, -0.0, 1.0], [-0.0, 0.0, -0.0], [0.0, -0.0, -1.0], [-1.0, -0.0, 0.0])
    ]
    return states


def signed_zero_densities():
    """diag(1/2, 1/2) and |0><0| with every sign on their zero parts."""
    states = []
    for signs in itertools.product((1.0, -1.0), repeat=6):
        z = [sign * 0.0 for sign in signs]
        for d0, d1 in ((0.5, 0.5), (1.0, z[5])):
            mat = [[complex(d0, z[4]), complex(z[0], z[1])], [complex(z[2], z[3]), complex(d1, z[4])]]
            states.append(DensityOperator(np.array(mat)))
    return states


def random_pure_and_mixed(rng, count):
    states = []
    for _ in range(count):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        states.append(StateVector(amps / np.linalg.norm(amps)).density())
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        mat = g @ g.conj().T
        states.append(DensityOperator(mat / np.trace(mat).real))
    return states


def kernel_couplings(rng, count=40):
    return NAMED_COUPLINGS + [UnitaryGate(haar_unitary(rng)) for _ in range(count)]


@pytest.mark.parametrize("resolution", [*range(8, 33), 100])
def test_density_from_bloch_is_bitwise_the_old_one_on_the_grid(resolution):
    grid = bloch_grid(resolution)
    if resolution == 100:
        # every point near the surface, plus a stride through the interior
        radii = np.linalg.norm(grid, axis=1)
        grid = np.concatenate([grid[radii > 0.99], grid[::97]])
    for point in grid:
        assert_same_bytes(density_from_bloch(point).matrix, old_density_matrix_from_bloch(point))


@pytest.mark.parametrize("radius", [1 - 2e-12, 1 - 1e-12, 1.0, 1 + 1e-10, 1 + 9e-10])
def test_density_from_bloch_is_bitwise_the_old_one_near_the_surface(radius):
    rng = np.random.default_rng(11)
    for _ in range(500):
        direction = rng.normal(size=3)
        point = radius * (direction / np.linalg.norm(direction))
        assert_same_bytes(density_from_bloch(point).matrix, old_density_matrix_from_bloch(point))


def test_density_from_bloch_is_bitwise_the_old_one_on_random_points():
    rng = np.random.default_rng(12)
    points = rng.uniform(-1, 1, size=(3000, 3))
    for point in points[np.linalg.norm(points, axis=1) <= 1.0]:
        assert_same_bytes(density_from_bloch(point).matrix, old_density_matrix_from_bloch(point))


def test_density_from_bloch_is_bitwise_the_old_one_on_signed_zero_coordinates():
    # every coordinate from a set with both zeros, inside the ball, on its
    # surface and past it by less than the 1e-9 it forgives
    values = (0.0, -0.0, 0.6, -0.6, 0.8, -0.8, 1.0, -1.0, 1e-300, -1e-300, 0.8 + 5e-10)
    points = [np.array(point) for point in itertools.product(values, repeat=3)]
    points = [point for point in points if np.linalg.norm(point) <= 1.0 + 1e-9]
    assert len(points) > 500
    for point in points:
        assert_same_bytes(density_from_bloch(point).matrix, old_density_matrix_from_bloch(point))


@pytest.mark.parametrize("seed", range(4))
def test_norm_formulas_are_bitwise_np_linalg_norm(seed):
    """The spectral defect's and the scan's norms are numpy's own formulas."""
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(5, 60, 3)) * 10.0 ** rng.integers(-150, 150, size=(5, 60, 3))
    stack[rng.random(stack.shape) < 0.2] = -0.0
    assert_same_bytes(np.sqrt(np.add.reduce(np.square(stack), axis=2)), np.linalg.norm(stack, axis=2))
    for vector in stack.reshape(-1, 3):
        assert_same_bytes(float(np.abs(vector).max()), float(np.linalg.norm(vector, ord=np.inf)))


def test_bloch_vector_is_bitwise_the_old_one():
    rng = np.random.default_rng(13)
    states = special_densities() + signed_zero_densities() + random_pure_and_mixed(rng, 500)
    states += [density_from_bloch(point) for point in bloch_grid(16)]
    for rho in states:
        assert_same_bytes(bloch_vector(rho), old_bloch_vector(rho))
        again = density_from_bloch(bloch_vector(rho)).matrix
        assert_same_bytes(again, old_density_matrix_from_bloch(old_bloch_vector(rho)))


def test_tensor_product_is_bitwise_np_kron():
    rng = np.random.default_rng(14)
    for qubits_a, qubits_b in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)]:
        for _ in range(20):
            va = StateVector(haar_unitary(rng, 2**qubits_a)[0])
            vb = StateVector(haar_unitary(rng, 2**qubits_b)[0])
            joint = tensor_product(va, vb)
            assert_same_bytes(joint.amplitudes, np.kron(va.amplitudes, vb.amplitudes))
            ra, rb = va.density(), vb.density()
            assert_same_bytes(tensor_product(ra, rb).matrix, np.kron(ra.matrix, rb.matrix))


def test_kron_is_bitwise_np_kron():
    rng = np.random.default_rng(20)
    for n, m in itertools.product(range(1, 9), repeat=2):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        a[rng.random(a.shape) < 0.3] = -0.0
        for x, y in [(a, b), (a.real, b), (a, np.eye(m, dtype=complex)), (a.real, b.real)]:
            assert_same_bytes(_kron(x, y), np.kron(x, y))
            assert_same_bytes(_kron(x[0], y[-1]), np.kron(x[0], y[-1]))


def test_deutsch_map_and_transfer_matrix_are_bitwise_the_old_ones():
    rng = np.random.default_rng(15)
    states = special_densities() + signed_zero_densities()[::8] + random_pure_and_mixed(rng, 10)
    for gate in kernel_couplings(rng):
        for rho_in in states:
            rho = states[rng.integers(len(states))]
            assert_same_bytes(
                deutsch_map(gate, rho_in, rho).matrix,
                old_reduce(gate, np.kron(rho_in.matrix, rho.matrix)),
            )
            assert_same_bytes(
                transfer_matrix(gate, rho_in),
                old_pauli_transfer(gate, [np.kron(rho_in.matrix, p) for p in PAULI]),
            )


def test_scan_is_bitwise_the_old_per_point_scan():
    rng = np.random.default_rng(16)
    states = special_densities() + random_pure_and_mixed(rng, 2)
    for gate in kernel_couplings(rng, 4):
        for k, rho in enumerate(states):
            resolution = int(rng.integers(8, 13))
            # every point is kept at an infinite tolerance: one state per gate
            tolerances = (SOLVER_AGREEMENT_TOL, 0.3) + ((np.inf,) if k == 0 else ())
            cases = [(resolution, tolerance) for tolerance in tolerances]
            # resolution 40 takes five shells a chunk: one state per gate scans it too
            cases += [(40, 0.3)] if k == 1 else []
            for resolution, tolerance in cases:
                if tolerance == SOLVER_AGREEMENT_TOL:
                    new = scan_admissible_inputs(gate, rho, resolution)
                else:
                    new = list(zip(*admissible_arrays(gate, rho.matrix, resolution, tolerance)))
                old = old_scan(gate, rho, resolution, tolerance)
                assert len(new) == len(old)
                for (r, residual), (old_point, old_matrix, old_residual) in zip(new, old):
                    assert_same_bytes(r, old_point)
                    assert_same_bytes(density_from_bloch(r).matrix, old_matrix)
                    assert_same_bytes(residual, old_residual)


def test_identity_scan_is_bitwise_the_old_scan_at_grid_100():
    rho = random_pure_and_mixed(np.random.default_rng(17), 1)[1]
    # 100 takes one shell a chunk; 40 takes five, the other side of the chunk bound
    for resolution in (100, 40):
        new = scan_admissible_inputs(build_gate(GateSpec("identity")), rho, resolution)
        grid = bloch_grid(resolution)
        assert len(new) == len(grid)
        assert_same_bytes([r for r, _ in new], grid)
        # the old per-point path is slow: check every surface point and a stride
        radii = np.linalg.norm(grid, axis=1)
        for index in [*np.flatnonzero(radii > 0.99), *range(0, len(grid), 97)]:
            assert_same_bytes(density_from_bloch(new[index][0]).matrix, old_density_matrix_from_bloch(grid[index]))
        assert_same_bytes([residual for _, residual in new], old_residuals(build_gate(GateSpec("identity")), rho, grid))


def test_fixed_set_distance_is_bitwise_the_old_one():
    rng = np.random.default_rng(18)
    rho_ins = special_densities() + random_pure_and_mixed(rng, 2)
    probes = special_densities() + random_pure_and_mixed(rng, 4)
    probes += [density_from_bloch(point) for point in bloch_grid(8)[::4]]
    degenerate = 0
    for gate in kernel_couplings(rng, 4):
        for rho_in in rho_ins:
            solution = solve_deutsch_fixed_point(gate, rho_in, "spectral")
            _, null_basis, _ = _fixed_space(gate, rho_in)
            assert_same_bytes(solution.directions, old_directions(null_basis))
            assert solution.fixed_space_dim == 1 + len(null_basis)
            degenerate += solution.degenerate
            for rho in probes:
                assert_same_bytes(
                    fixed_set_distance(solution, rho),
                    old_fixed_set_distance(solution, rho, null_basis),
                )
    assert degenerate > 0


def old_iterative(u, rho_in, tolerance=1e-12, max_iterations=MAX_ITERATIONS):
    """The per-step loop: (last iterate, iterations or None, last step)."""
    rho = np.eye(2, dtype=complex) / 2
    step = float("inf")
    for iteration in range(1, max_iterations + 1):
        nxt = old_reduce(u, np.kron(rho_in.matrix, rho))
        trace = np.trace(nxt).real
        if abs(trace - 1.0) > 1e-12 / 2:
            nxt = nxt / trace
        step = float(0.5 * np.abs(np.linalg.eigvalsh(nxt - rho)).sum())
        rho = nxt
        if step <= tolerance:
            return rho, iteration, step
    return rho, None, step


def assert_iterative_is_the_old_loop(gate, rho_in, tolerance, max_iterations):
    old_rho, old_iterations, old_step = old_iterative(gate, rho_in, tolerance, max_iterations)
    try:
        solution = solve_deutsch_fixed_point(
            gate, rho_in, "iterative", tolerance=tolerance, max_iterations=max_iterations
        )
    except FixedPointError as exc:
        assert old_iterations is None
        assert_same_bytes(exc.rho.matrix, old_rho)
        assert_same_bytes(exc.residual, old_step)
        message = f"no convergence after {max_iterations} iterations (last step {old_step:.3e})"
        assert str(exc) == message
        return None
    assert solution.iterations == old_iterations
    assert_same_bytes(solution.rho.matrix, old_rho)
    return solution.iterations


def test_iterative_solver_is_bitwise_the_old_loop():
    rng = np.random.default_rng(19)
    states = special_densities() + random_pure_and_mixed(rng, 2)
    for gate in kernel_couplings(rng, 6):
        for rho_in in states:
            assert_iterative_is_the_old_loop(gate, rho_in, 1e-12, 300)


# caps from none to a long solve: solves cut at every short length, and some that converge
@pytest.mark.parametrize("max_iterations", [-1, 0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 300])
@pytest.mark.parametrize("tolerance", [0.0, 1e-12, 1e-6, 0.1])
def test_iterative_solver_is_bitwise_the_old_loop_at_every_cap(tolerance, max_iterations):
    rng = np.random.default_rng(21)
    states = special_densities()[::2] + random_pure_and_mixed(rng, 1)
    outcomes = set()
    for gate in kernel_couplings(rng, 3):
        for rho_in in states:
            iterations = assert_iterative_is_the_old_loop(gate, rho_in, tolerance, max_iterations)
            outcomes.add(iterations is None)
    if max_iterations <= 0:
        assert outcomes == {True}


# ----------------------------------------------------------------- work count


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_interior_density_from_bloch_skips_the_eigenvalue_check(monkeypatch):
    calls = counting(monkeypatch, np.linalg, "eigvalsh")
    for point in bloch_grid(16):
        if np.linalg.norm(point) < 0.999:
            density_from_bloch(point)
    assert calls == []
    density_from_bloch([0.0, 0.0, 1.0])
    assert calls == ["eigvalsh"]


def test_non_degenerate_fixed_set_distance_takes_no_trace_or_lstsq(monkeypatch):
    solution = solve_deutsch_fixed_point(build_gate(GateSpec("swap")), random_density(), "spectral")
    assert not solution.degenerate
    probes = [random_density() for _ in range(3)]
    traces = counting(monkeypatch, np, "trace")
    lstsqs = counting(monkeypatch, np.linalg, "lstsq")
    for rho in probes:
        fixed_set_distance(solution, rho)
    assert traces == lstsqs == []


def test_classify_grid_scan_builds_no_density_operators(monkeypatch, capsys):
    from ctcsim import cli

    calls = []
    trusted = DensityOperator._trusted.__func__

    def counted(cls, matrix):
        calls.append(matrix.shape)
        return trusted(cls, matrix)

    monkeypatch.setattr(DensityOperator, "_trusted", classmethod(counted))
    args = ["classify-consistency", "--unitary", "identity"]
    assert cli.main(args) == 0
    without_grid = len(calls)
    assert cli.main(args + ["--grid", "16"]) == 0
    assert len(calls) - without_grid == without_grid > 0
    scan = json.loads(capsys.readouterr().out.splitlines()[-1])["results"]["admissible_scan"]
    assert scan["admissible_count"] == len(bloch_grid(16))


def test_iterative_solve_confirms_only_steps_near_the_tolerance(monkeypatch):
    rng = np.random.default_rng(23)
    theta = 0.05
    partial_swap = UnitaryGate(np.cos(theta) * np.eye(4) + 1j * np.sin(theta) * build_gate(GateSpec("swap")).matrix)
    cases = [(partial_swap, StateVector.qubit(0.6, 0.8).density())]
    cases += [(gate, random_density(rng)) for gate in kernel_couplings(rng, 6)]
    calls = counting(monkeypatch, np.linalg, "eigvalsh")
    long_solves = 0
    for gate, rho_in in cases:
        del calls[:]
        steps = solve_deutsch_fixed_point(gate, rho_in, "iterative").iterations
        long_solves += steps > 16
        # eigvalsh confirms the steps whose closed form is near the tolerance,
        # then measures the returned solution's residual
        assert len(calls) <= 3
    assert long_solves >= 2


def test_scan_takes_no_eigvalsh_and_no_construction(monkeypatch):
    calls = []
    trusted = DensityOperator._trusted.__func__

    def counted(cls, matrix):
        calls.append(matrix.shape)
        return trusted(cls, matrix)

    monkeypatch.setattr(DensityOperator, "_trusted", classmethod(counted))
    eigvalsh = counting(monkeypatch, np.linalg, "eigvalsh")
    rng = np.random.default_rng(24)
    scanned = 0
    for gate in (
        build_gate(GateSpec("identity")),
        build_gate(GateSpec("swap")),
        build_gate(GateSpec("controlled_rotation")),
        UnitaryGate(haar_unitary(rng)),
    ):
        rho = random_density(rng)
        del eigvalsh[:]
        scan = scan_admissible_inputs(gate, rho, 16)
        assert eigvalsh == [] and calls == []
        scanned += len(scan)
        for r, residual in scan:
            assert r.shape == (3,) and r.dtype == float and type(residual) is float
    # the identity coupling admits every grid point
    assert scanned >= len(bloch_grid(16))


def test_one_pair_solved_both_ways_takes_one_svd(monkeypatch):
    rng = np.random.default_rng(25)
    svds = counting(monkeypatch, np.linalg, "svd")
    for gate in kernel_couplings(rng, 4):
        rho_in = random_density(rng)
        del svds[:]
        iterative = solve_deutsch_fixed_point(gate, rho_in, "iterative", max_iterations=50_000)
        spectral = solve_deutsch_fixed_point(gate, rho_in, "spectral")
        assert svds == ["svd"]
        assert_same_bytes(iterative.directions, spectral.directions)


def test_a_new_state_or_gate_gets_its_own_fixed_space(monkeypatch):
    svds = counting(monkeypatch, np.linalg, "svd")
    rho_in = StateVector.qubit(0.6, 0.8).density()
    first = solve_deutsch_fixed_point(build_gate(GateSpec("cnot")), rho_in, "spectral")
    # the same values in a new object, a new gate with the same matrix, then a new pair
    again = solve_deutsch_fixed_point(build_gate(GateSpec("cnot")), DensityOperator(rho_in.matrix), "spectral")
    same_matrix = solve_deutsch_fixed_point(UnitaryGate(build_gate(GateSpec("cnot")).matrix), rho_in, "spectral")
    other_state = StateVector.qubit(0.8, 0.6j).density()
    other = solve_deutsch_fixed_point(build_gate(GateSpec("controlled_rotation")), other_state, "iterative")
    assert len(svds) == 4
    assert_same_bytes(again.rho.matrix, first.rho.matrix)
    assert_same_bytes(same_matrix.rho.matrix, first.rho.matrix)
    _fixed_space.cache_clear()
    fresh = solve_deutsch_fixed_point(build_gate(GateSpec("controlled_rotation")), other_state, "iterative")
    assert_same_bytes(other.directions, fresh.directions)
    assert_same_bytes(other.rho.matrix, fresh.rho.matrix)


def test_the_kept_fixed_space_is_read_only():
    (k, b, _), null_basis, (left, svals, vt, free) = _fixed_space(build_gate(GateSpec("identity")), random_density())
    assert isinstance(null_basis, tuple) and len(null_basis) == 3
    for array in (k, b, left, svals, vt, free, *null_basis):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize("amplitudes", [(1, 0), (0, 1), (0.6, 0.8), (0.6, 0.8j)])
def test_the_swap_spectral_fixed_point_is_rho_in_with_no_lstsq(monkeypatch, amplitudes):
    rho_in = StateVector(amplitudes).density()
    (_, b, constant), _, _ = _fixed_space(build_gate(GateSpec("swap")), rho_in)
    assert constant
    lstsqs = counting(monkeypatch, np.linalg, "lstsq")
    solution = solve_deutsch_fixed_point(build_gate(GateSpec("swap")), rho_in, "spectral")
    assert lstsqs == []
    assert_same_bytes(solution.rho.matrix, density_from_bloch(b).matrix)
    if amplitudes == (1, 0):
        assert solution.rho.matrix.tolist() == [[1, 0], [0, 0]]
