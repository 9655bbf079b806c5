"""Property tests for the invariants the kernel trusts instead of re-checking.

The kernel builds density operators from valid ones by tensor products,
unitary conjugation, partial traces, normalised projections and the Deutsch
map, all completely positive and trace preserving (Deutsch 1991), and stores
the results without running the constructor's checks. Each test hands such
a result, built from random inputs, back to the validating constructor.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from ctcsim.consistency import (  # noqa: E402
    SOLVER_AGREEMENT_TOL,
    FixedPointError,
    bloch_grid,
    check_deutsch,
    density_from_bloch,
    deutsch_map,
    scan_admissible_inputs,
    solve_deutsch_fixed_point,
)
from ctcsim.gates import UnitaryGate  # noqa: E402
from ctcsim.states import (  # noqa: E402
    DensityOperator,
    apply_unitary,
    measure_projective,
    partial_trace,
    tensor_product,
    trace_distance,
)
from test_consistency import haar_unitary  # noqa: E402

seeds = st.integers(0, 2**32 - 1)
examples = settings(max_examples=200, deadline=None)


def random_density(rng, num_qubits=1) -> DensityOperator:
    """G G-dagger / Tr for a complex Gaussian G of random rank, so pure
    states (rank 1) are drawn as well as mixed ones."""
    dim = 2**num_qubits
    g = rng.normal(size=(dim, rng.integers(1, dim + 1))) * (1 + 0j)
    g += 1j * rng.normal(size=g.shape)
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def assert_valid(rho: DensityOperator) -> None:
    DensityOperator(rho.matrix)


@examples
@given(seeds)
def test_deutsch_map_output_is_a_density_operator(seed):
    rng = np.random.default_rng(seed)
    u = UnitaryGate(haar_unitary(rng))
    assert_valid(deutsch_map(u, random_density(rng), random_density(rng)))


@examples
@given(seeds)
def test_apply_unitary_output_is_a_density_operator(seed):
    rng = np.random.default_rng(seed)
    u = haar_unitary(rng)
    rho = random_density(rng, 2)
    assert_valid(apply_unitary(rho, UnitaryGate(u)))
    assert_valid(apply_unitary(rho, u))


@examples
@given(seeds)
def test_tensor_product_and_partial_trace_outputs_are_density_operators(seed):
    rng = np.random.default_rng(seed)
    joint = tensor_product(random_density(rng), random_density(rng, 2))
    assert_valid(joint)
    mixed = apply_unitary(joint, UnitaryGate(haar_unitary(rng, 8)))
    for keep in (0, 1, 2, [0, 1], [0, 2], [1, 2]):
        assert_valid(partial_trace(mixed, keep))


@examples
@given(seeds, st.integers(0, 1))
def test_measurement_post_states_are_density_operators(seed, subsystem):
    rng = np.random.default_rng(seed)
    basis = haar_unitary(rng, 2).T
    results = measure_projective(random_density(rng, 2), subsystem, basis=basis)
    for result in results:
        if result.post_state is not None:
            assert_valid(result.post_state)


@examples
@given(seeds, st.sampled_from([1.0, 1.0 + 1e-10, None]))
def test_density_from_bloch_on_and_inside_the_sphere(seed, radius):
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    scale = rng.uniform(0.0, 1.0) if radius is None else radius
    assert_valid(density_from_bloch(scale * direction))


@examples
@given(seeds, st.sampled_from([float("nan"), float("inf"), float("-inf")]), st.integers(0, 2))
def test_density_from_bloch_rejects_non_finite(seed, value, index):
    r = np.random.default_rng(seed).uniform(-0.5, 0.5, size=3)
    r[index] = value
    with pytest.raises(ValueError):
        density_from_bloch(r)


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_solver_outputs_are_density_operators(seed):
    rng = np.random.default_rng(seed)
    u = UnitaryGate(haar_unitary(rng))
    rho_in = random_density(rng)
    assert_valid(solve_deutsch_fixed_point(u, rho_in, "spectral").rho)
    try:
        assert_valid(solve_deutsch_fixed_point(u, rho_in, "iterative").rho)
    except FixedPointError as exc:
        assert_valid(exc.rho)


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(8, 12))
def test_scan_matches_check_deutsch_per_point(seed, resolution):
    rng = np.random.default_rng(seed)
    u = UnitaryGate(haar_unitary(rng))
    rho = random_density(rng)
    grid = bloch_grid(resolution)
    reference = np.array([check_deutsch(u, density_from_bloch(p), rho).residual for p in grid])
    everything = scan_admissible_inputs(u, rho, resolution, residual_tolerance=np.inf)
    assert len(everything) == len(grid)
    assert np.allclose([r for _, r in everything], reference, rtol=0.0, atol=1e-12)
    # a tolerance inside the widest gap between residuals near the median,
    # so rounding cannot move a point across it
    ordered = np.sort(reference)
    middle = len(ordered) // 2
    gaps = np.diff(ordered[middle - 10 : middle + 10])
    cut = middle - 10 + int(np.argmax(gaps))
    tolerance = 0.5 * (ordered[cut] + ordered[cut + 1])
    kept = scan_admissible_inputs(u, rho, resolution, residual_tolerance=tolerance)
    assert len(kept) == int(np.sum(reference <= tolerance)) == cut + 1


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_converged_iterative_solution_agrees_with_spectral(seed):
    rng = np.random.default_rng(seed)
    u = UnitaryGate(haar_unitary(rng))
    rho_in = random_density(rng)
    spectral = solve_deutsch_fixed_point(u, rho_in, "spectral")
    assume(spectral.fixed_space_dim == 1)
    try:
        iterative = solve_deutsch_fixed_point(u, rho_in, "iterative")
    except FixedPointError:
        assume(False)
    assert trace_distance(iterative.rho, spectral.rho) <= SOLVER_AGREEMENT_TOL
