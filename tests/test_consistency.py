import numpy as np
import pytest

from ctcsim.consistency import (
    MAX_ITERATIONS,
    ConsistencyVerdict,
    FixedPointError,
    LoopRecord,
    bloch_grid,
    bloch_vector,
    check_deutsch,
    check_strong,
    check_weak,
    density_from_bloch,
    deutsch_map,
    fixed_set_distance,
    scan_admissible_inputs,
    solve_deutsch_fixed_point,
    transfer_matrix,
)
from ctcsim.gates import UnitaryGate, cnot, controlled_phase, controlled_rotation, identity, swap
from ctcsim.states import DensityOperator, StateVector, trace_distance

RNG = np.random.default_rng(77)

NAMED_COUPLINGS = [swap(), controlled_rotation(), controlled_phase(), cnot(), identity()]


def random_state(rng=RNG):
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    return StateVector(amps / np.linalg.norm(amps))


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
    v = check_strong(swap(), StateVector.basis(0), StateVector.basis(0))
    assert v.passed and v.residual <= 1e-12


def test_strong_swap_distinct_basis_states_fails():
    # direct 4-amplitude oracle: swap sends |0>|1> to |1>|0>, so the CTC
    # factor flips to |0> and its overlap with |1> vanishes
    joint = swap().matrix @ np.kron([1, 0], [0, 1])
    assert np.allclose(joint, [0, 0, 1, 0])
    v = check_strong(swap(), StateVector.basis(0), StateVector.basis(1))
    assert not v.passed
    assert v.residual == pytest.approx(1.0, abs=1e-12)


def test_strong_identity_always_passes():
    for _ in range(10):
        v = check_strong(identity(), random_state(), random_state())
        assert v.passed


def test_strong_swap_passes_iff_states_match_up_to_phase():
    for _ in range(30):
        s = random_state()
        same = StateVector(np.exp(0.3j) * s.amplitudes)
        other = random_state()
        assert check_strong(swap(), s, same).passed
        matches = s.equals_up_to_phase(other, atol=1e-9)
        assert check_strong(swap(), s, other).passed == matches


def test_strong_dimension_mismatch():
    with pytest.raises(ValueError):
        check_strong(identity(1), StateVector.basis(0), StateVector.basis(0))


# -------------------------------------------------------------------- deutsch


def test_deutsch_swap_same_state_passes():
    rho = StateVector.basis(0).density()
    v = check_deutsch(swap(), rho, rho)
    assert v.passed and v.residual == 0.0


def test_deutsch_swap_orthogonal_states_fails():
    # the swap's reduced map returns rho_in, so the residual is the full
    # trace distance between |0><0| and |1><1|
    rho_in = StateVector.basis(0).density()
    rho = StateVector.basis(1).density()
    assert np.allclose(raw_deutsch_map(swap(), rho_in, rho), rho_in.matrix)
    v = check_deutsch(swap(), rho_in, rho)
    assert not v.passed
    assert v.residual == pytest.approx(1.0, abs=1e-12)


def test_deutsch_identity_any_pair_passes():
    for _ in range(10):
        assert check_deutsch(identity(), random_density(), random_density()).passed


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


def test_verdict_flag_must_match_residual():
    with pytest.raises(ValueError):
        ConsistencyVerdict("deutsch", residual=1.0, passed=True, tolerance=1e-12)


# ----------------------------------------------------------------- fixed point


def test_swap_map_returns_rho_in_exactly():
    for _ in range(1000):
        rho_in, rho = random_density(), random_density()
        out = deutsch_map(swap(), rho_in, rho)
        assert trace_distance(out, rho_in) <= 1e-12


@pytest.mark.parametrize("method", ["iterative", "spectral"])
def test_swap_fixed_point_is_rho_in(method):
    rho_in = StateVector.qubit(1 / np.sqrt(2), 1 / np.sqrt(2)).density()
    sol = solve_deutsch_fixed_point(swap(), rho_in, method)
    assert trace_distance(sol.rho, rho_in) <= 1e-10
    assert sol.residual <= 1e-10
    assert not sol.degenerate


def test_identity_everything_fixed_iterative_returns_start():
    sol = solve_deutsch_fixed_point(identity(), random_density(), "iterative")
    assert np.allclose(sol.rho.matrix, np.eye(2) / 2)
    assert sol.iterations == 1
    assert sol.degenerate and sol.fixed_space_dim == 4
    assert sol.note == "one of many"


def test_identity_spectral_returns_max_entropy_point():
    sol = solve_deutsch_fixed_point(identity(), random_density(), "spectral")
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
    gate = controlled_rotation()
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
    sol = solve_deutsch_fixed_point(controlled_rotation(), StateVector.basis(0).density(), "spectral")
    assert sol.fixed_space_dim == 4
    it = solve_deutsch_fixed_point(controlled_rotation(), StateVector.basis(0).density(), "iterative")
    assert it.note == "one of many"


def test_iterative_reports_non_convergence():
    rho_in = StateVector.basis(0).density()
    with pytest.raises(FixedPointError) as info:
        solve_deutsch_fixed_point(swap(), rho_in, "iterative", max_iterations=1)
    assert info.value.rho is not None
    assert info.value.residual is not None


def test_iterative_survives_slow_contraction_without_trace_drift():
    # the Bloch map of a partial swap contracts by about 0.9975 a step;
    # thousands of steps of rounding used to push the iterate's trace past
    # the unit-trace check, raising ValueError before convergence
    theta = 0.05
    gate = UnitaryGate(np.cos(theta) * np.eye(4) + 1j * np.sin(theta) * swap().matrix)
    rho_in = StateVector.qubit(0.6, 0.8).density()
    sol = solve_deutsch_fixed_point(gate, rho_in, "iterative")
    assert 1000 < sol.iterations < MAX_ITERATIONS
    assert abs(np.trace(sol.rho.matrix) - 1.0) <= 1e-12
    spectral = solve_deutsch_fixed_point(gate, rho_in, "spectral")
    assert trace_distance(sol.rho, spectral.rho) <= 1e-9


@pytest.mark.parametrize("tolerance", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("method", ["iterative", "spectral"])
def test_solver_rejects_negative_or_non_finite_tolerance(method, tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        solve_deutsch_fixed_point(swap(), random_density(), method, tolerance=tolerance)


def test_transfer_matrix_first_row_is_trace_row():
    for gate in NAMED_COUPLINGS:
        m = transfer_matrix(gate, random_density())
        assert np.allclose(m[0], [1, 0, 0, 0], atol=1e-12)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        solve_deutsch_fixed_point(swap(), random_density(), "magic")


# ----------------------------------------------------------------------- scan


def test_scan_swap_admits_only_rho_itself():
    rho = StateVector.basis(0).density()
    admissible = scan_admissible_inputs(swap(), rho, 8)
    assert len(admissible) >= 1
    for candidate, residual in admissible:
        assert trace_distance(candidate, rho) <= 1e-9
        assert residual <= 1e-9


def test_scan_identity_admits_entire_grid():
    admissible = scan_admissible_inputs(identity(), random_density(), 8)
    assert len(admissible) == len(bloch_grid(8))


def test_scan_residuals_match_check_deutsch():
    rho = random_density()
    gate = controlled_rotation()
    admissible = scan_admissible_inputs(gate, rho, 8, residual_tolerance=np.inf)
    sample = RNG.choice(len(admissible), size=20, replace=False)
    for index in sample:
        candidate, residual = admissible[index]
        assert check_deutsch(gate, candidate, rho).residual == pytest.approx(residual, abs=1e-12)


def test_scan_rejects_invalid_density_probe():
    # |e_0><e_1| as a raw matrix is not Hermitian, so it cannot even be
    # constructed as a density operator
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_scan_requires_minimum_resolution():
    with pytest.raises(ValueError):
        scan_admissible_inputs(swap(), random_density(), 4)


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


@pytest.mark.parametrize("resolution", [*range(8, 33), 100])
def test_grid_is_bitwise_the_point_by_point_grid(resolution):
    grid, oracle = bloch_grid(resolution), loop_bloch_grid(resolution)
    assert grid.shape == oracle.shape
    assert grid.tobytes() == oracle.tobytes()


# ----------------------------------------------------------------------- weak


def test_weak_all_same_passes():
    rho = StateVector.basis(0).density()
    assert check_weak(LoopRecord.from_states(rho, rho, rho, rho)).passed


def test_weak_orthogonal_return_fails():
    rho0 = StateVector.basis(0).density()
    rho1 = StateVector.basis(1).density()
    v = check_weak(LoopRecord.from_states(rho0, rho0, rho0, rho1))
    assert not v.passed
    assert v.residual == pytest.approx(1.0)


def test_weak_missing_segment_label():
    rho = StateVector.basis(0).density()
    with pytest.raises(ValueError):
        LoopRecord([("rho_in", rho), ("rho_out", rho), ("rho_in_prime", rho), ("rho_in", rho)])


def test_weak_invariant_under_cyclic_relabeling():
    segments = [random_density() for _ in range(4)]
    loop = LoopRecord.from_states(*segments)
    base = check_weak(loop)
    for start in range(4):
        rotated = check_weak(loop.rotated(start))
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
