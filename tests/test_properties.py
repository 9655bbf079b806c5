"""Property tests for the invariants the kernel trusts instead of re-checking.

The kernel builds density operators from valid ones by tensor products,
unitary conjugation, partial traces, normalised projections and the Deutsch
map, all completely positive and trace preserving (Deutsch 1991), and stores
the results without running the constructor's checks. Each test hands such
a result, built from random inputs, back to the validating constructor.
State vectors built the same way must have the bits the validating
constructor would store.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule  # noqa: E402

from ctcsim.cli import Report, canonical_json, emit_report  # noqa: E402
from ctcsim.consistency import (  # noqa: E402
    SOLVER_AGREEMENT_TOL,
    LOOP_LABELS,
    FixedPointError,
    _closed_form_step,
    check_deutsch,
    check_weak,
    density_from_bloch,
    deutsch_map,
    scan_admissible_inputs,
    solve_deutsch_fixed_point,
)
from ctcsim.gates import GATE_NAMES, GateSpec, UnitaryGate, build_gate  # noqa: E402
from ctcsim.protocol import (  # noqa: E402
    FORMALISMS,
    SCENARIOS,
    ProtocolConfig,
    _run_stages,
    run_session,
)
from ctcsim.states import (  # noqa: E402
    ATOL,
    DensityOperator,
    StateVector,
    _branches,
    _half_trace_norm,
    _kron,
    apply_unitary,
    partial_trace,
    tensor_product,
    trace_distance,
)
from ctcsim.topology import BranchError, BranchLedger  # noqa: E402
from test_consistency import (  # noqa: E402
    admissible_arrays,
    assert_iterative_is_the_old_loop,
    bloch_grid,
    haar_unitary,
)

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


COUPLINGS = [name for name in GATE_NAMES[:-1] if build_gate(GateSpec(name)).dim == 4]


def coupling(rng, name: str) -> np.ndarray:
    """A named two-qubit gate's matrix, or a Haar 4x4 for ``"haar"``."""
    return haar_unitary(rng) if name == "haar" else build_gate(GateSpec(name)).matrix


def moved(w: np.ndarray, rho: DensityOperator) -> DensityOperator:
    return DensityOperator(w @ rho.matrix @ w.conj().T)


def conjugated(rng, u: np.ndarray, rho_in: DensityOperator):
    """A Haar local change of basis V (x) W applied to a coupling and its
    input: ((V (x) W) U (V (x) W)+, V rho_in V+, W)."""
    v, w = haar_unitary(rng, 2), haar_unitary(rng, 2)
    x = np.kron(v, w)
    return UnitaryGate(x @ u @ x.conj().T), moved(v, rho_in), w


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
@given(seeds)
def test_measurement_post_states_are_density_operators(seed):
    # the unmeasured qubit's state after each outcome, as a session keeps it
    rng = np.random.default_rng(seed)
    basis = haar_unitary(rng, 2).T
    for prob, rest in _branches(random_density(rng, 2).matrix, basis):
        if prob > 1e-15:
            assert_valid(DensityOperator._trusted(rest / prob))


def random_vector(rng, num_qubits=1, scale=1.0) -> StateVector:
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(amps / np.linalg.norm(amps) * scale)


def nearly_unitary(rng, epsilon=0.9e-12) -> np.ndarray:
    """A Haar 4x4 times sqrt(I + epsilon J), J the all-ones matrix. Then
    U-dagger U = I + epsilon J passes the 1e-12 unitarity check, yet the
    uniform state's norm squared moves by 4 epsilon, past ATOL."""
    return haar_unitary(rng) @ (np.eye(4) + (math.sqrt(1 + 4 * epsilon) - 1) / 4 * np.ones((4, 4)))


@examples
@given(seeds, st.booleans(), st.sampled_from([1.0, math.sqrt(1 + 0.9e-12)]))
def test_trusted_state_vectors_have_the_validated_bits(seed, near, scale):
    # scale leaves a stored norm squared off 1 by up to 0.9e-12, so that a
    # product of two is renormalised
    rng = np.random.default_rng(seed)
    gate = UnitaryGate(nearly_unitary(rng) if near else haar_unitary(rng))
    uniform = StateVector(np.full(4, 0.5))
    if near:
        assert abs(np.linalg.norm(gate.matrix @ uniform.amplitudes) ** 2 - 1.0) > ATOL
    for state in (random_vector(rng, 2, scale), uniform):
        expected = StateVector(gate.matrix @ state.amplitudes).amplitudes
        assert apply_unitary(state, gate).amplitudes.tobytes() == expected.tobytes()
    a, b = random_vector(rng, 1, scale), random_vector(rng, 2, scale)
    for x, y in ((a, b), (b, a), (a, a)):
        expected = StateVector(_kron(x.amplitudes, y.amplitudes)).amplitudes
        assert tensor_product(x, y).amplitudes.tobytes() == expected.tobytes()


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


_CONSTRUCTORS = {"vector": (StateVector, 1), "density": (DensityOperator, 2), "unitary": (UnitaryGate, 2)}
bad_parts = st.sampled_from([1e308, -1e308, math.inf, -math.inf, math.nan])
finite_parts = st.floats(allow_nan=False, allow_infinity=False)


@examples
@given(st.sampled_from(sorted(_CONSTRUCTORS)), st.integers(1, 3), st.data())
def test_constructors_refuse_huge_and_non_finite_parts_without_a_warning(kind, num_qubits, data):
    """One bad part among any finite ones is refused before any product is
    taken, so no overflow or invalid-value warning is raised first."""
    build, rank = _CONSTRUCTORS[kind]
    size = 2 * 2 ** (num_qubits * rank)
    parts = data.draw(st.lists(st.one_of(bad_parts, finite_parts), min_size=size, max_size=size))
    parts[data.draw(st.integers(0, size - 1))] = data.draw(bad_parts)
    values = np.array(parts).view(complex).reshape((2**num_qubits,) * rank)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no part may exceed 1|not finite"):
            build(values)


@examples
@given(seeds, st.integers(1, 3))
def test_constructors_accept_every_valid_input(seed, num_qubits):
    rng = np.random.default_rng(seed)
    dim = 2**num_qubits
    amplitudes = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        StateVector(amplitudes / np.linalg.norm(amplitudes))
        assert_valid(random_density(rng, num_qubits))
        UnitaryGate(haar_unitary(rng, dim))
        UnitaryGate(np.kron(haar_unitary(rng, 4), np.eye(2)))


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
    # the scan's kernel at an infinite tolerance keeps every grid point
    points, residuals = admissible_arrays(u, rho.matrix, resolution, np.inf)
    assert len(points) == len(grid)
    assert np.allclose(residuals, reference, rtol=0.0, atol=1e-12)
    # a tolerance inside the widest gap between residuals near the median,
    # so rounding cannot move a point across it
    ordered = np.sort(reference)
    middle = len(ordered) // 2
    gaps = np.diff(ordered[middle - 10 : middle + 10])
    cut = middle - 10 + int(np.argmax(gaps))
    tolerance = 0.5 * (ordered[cut] + ordered[cut + 1])
    kept, _ = admissible_arrays(u, rho.matrix, resolution, tolerance)
    assert len(kept) == int(np.sum(reference <= tolerance)) == cut + 1
    # the scan itself keeps the points within its fixed tolerance
    scan = scan_admissible_inputs(u, rho, resolution)
    assert [r for _, r in scan] == residuals[residuals <= SOLVER_AGREEMENT_TOL].tolist()


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


@settings(max_examples=100, deadline=None)
@given(seeds, st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-3]), st.integers(1, 300))
def test_iterative_solver_is_bitwise_the_old_loop_on_haar_couplings(seed, tolerance, max_iterations):
    rng = np.random.default_rng(seed)
    u = UnitaryGate(haar_unitary(rng))
    # random_density draws pure (rank 1) and mixed inputs
    assert_iterative_is_the_old_loop(u, random_density(rng), tolerance, max_iterations)


@examples
@given(seeds, st.sampled_from([1.0, 1e-6, 1e-12, 1e-300, 1e-310, 1e-320]))
def test_closed_form_step_is_eigvalsh_within_the_solver_margin(seed, scale):
    # the solver measures a step with eigvalsh only when the closed form is
    # within tolerance * (1 + 1e-6) + 1e-300, so a step eigvalsh puts within
    # the tolerance is never skipped while the two agree to that margin
    rng = np.random.default_rng(seed)
    p, s, re, im = rng.normal(size=4) * scale
    for p, s in ((p, s), (p, -p), (p, p), (0.0, 0.0)):
        for q in (complex(re, im), complex(re, 0.0), 0j):
            # the upper triangle is never read: eigvalsh reads the lower one
            diff = np.array([[p, complex(rng.normal(), rng.normal())], [q, s]])
            exact = _half_trace_norm(diff)
            assert abs(_closed_form_step(p, q, s) - exact) <= 1e-6 * exact + 1e-300


@settings(max_examples=100, deadline=None)
@given(seeds, st.sampled_from([*COUPLINGS, "haar"]), st.sampled_from(["iterative", "spectral"]))
def test_fixed_points_move_with_a_local_change_of_basis(seed, name, method):
    """The reduced map of ((V (x) W) U (V (x) W)+, V rho_in V+) is
    rho -> W M(W+ rho W) W+, so its fixed set is W's image of U's. A
    degenerate set is resolved to its maximal-entropy member (Deutsch 1991),
    and entropy does not change under W, so the solution is W rho* W+."""
    rng = np.random.default_rng(seed)
    u = coupling(rng, name)
    rho_in = random_density(rng)
    image_gate, image_in, w = conjugated(rng, u, rho_in)
    try:
        solution = solve_deutsch_fixed_point(UnitaryGate(u), rho_in, method)
        image = solve_deutsch_fixed_point(image_gate, image_in, method)
    except FixedPointError:
        # only the iterative solver may stop at its iteration cap
        assert method == "iterative"
        assume(False)
    assert image.fixed_space_dim == solution.fixed_space_dim
    assert trace_distance(image.rho, moved(w, solution.rho)) <= SOLVER_AGREEMENT_TOL


@examples
@given(seeds, st.sampled_from([*COUPLINGS, "haar"]), st.booleans())
def test_consistency_verdicts_do_not_depend_on_the_local_basis(seed, name, closed):
    """check_deutsch and check_weak give the same verdict, and residuals
    equal to rounding, when the coupling, its input and every loop state
    are moved by the same local change of basis."""
    rng = np.random.default_rng(seed)
    u = coupling(rng, name)
    rho_in = random_density(rng)
    image_gate, image_in, w = conjugated(rng, u, rho_in)
    gate = UnitaryGate(u)
    fixed = solve_deutsch_fixed_point(gate, rho_in).rho
    for rho in (fixed, random_density(rng)):
        verdict = check_deutsch(gate, rho_in, rho)
        image = check_deutsch(image_gate, image_in, moved(w, rho))
        assert image.passed == verdict.passed
        assert abs(image.residual - verdict.residual) <= 1e-12
    a, b = random_density(rng), random_density(rng)
    states = [a, b, b, a] if closed else [a, b, random_density(rng), random_density(rng)]
    verdict = check_weak(dict(zip(LOOP_LABELS, states)))
    image = check_weak(dict(zip(LOOP_LABELS, (moved(w, rho) for rho in states))))
    assert image.passed == verdict.passed == closed
    assert abs(image.residual - verdict.residual) <= 1e-12


@examples
@given(seeds, st.sampled_from(COUPLINGS))
def test_solvers_agree_on_rounding_perturbed_named_gates(seed, name):
    """(V (x) W)(V (x) W)+ U is U to within a few ulps in floats; the solvers
    must still agree, as they do on U itself."""
    rng = np.random.default_rng(seed)
    x = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
    u = UnitaryGate((x @ x.conj().T) @ build_gate(GateSpec(name)).matrix)
    rho_in = random_density(rng)
    iterative = solve_deutsch_fixed_point(u, rho_in, "iterative")
    spectral = solve_deutsch_fixed_point(u, rho_in, "spectral")
    assert trace_distance(iterative.rho, spectral.rho) <= SOLVER_AGREEMENT_TOL


@examples
@given(seeds, st.integers(-8, 8), st.booleans())
def test_check_weak_does_not_depend_on_where_the_loop_starts(seed, start, closed):
    rng = np.random.default_rng(seed)
    rho_in, rho_out = random_density(rng), random_density(rng)
    if closed:
        states = [rho_in, rho_out, rho_out, rho_in]
    else:
        states = [rho_in, rho_out, random_density(rng), random_density(rng)]
    items = list(zip(LOOP_LABELS, states))
    # the same loop, its states inserted from another start
    assert check_weak(dict(items[start:] + items[:start])) == check_weak(dict(items))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["nominal", "storage", "bob_skips", "self_signal"]),
    st.sampled_from(COUPLINGS),
    st.sampled_from(FORMALISMS),
    st.booleans(),
    seeds,
)
def test_a_branch_merges_exactly_when_its_loop_closes(scenario, gate, formalism, basis_ctc, seed):
    """The ledger holds only a branch's status; loop closure is the
    transcript's weak verdict, read from the one loop a session keeps."""
    rng = np.random.default_rng(seed)
    if basis_ctc:
        ctc = StateVector.basis(int(rng.integers(2)))
    else:
        amplitudes = rng.normal(size=2) + 1j * rng.normal(size=2)
        ctc = StateVector(amplitudes / np.linalg.norm(amplitudes))
    config = ProtocolConfig(
        input_state=StateVector.qubit(0.6, 0.8),
        ctc_initial=ctc,
        gate=GateSpec(gate),
        formalism=formalism,
        scenario=scenario,
        seed=seed,
        storage_cycles=3,
    )
    ledger = BranchLedger()
    transcript = run_session(config, ledger)
    weak = transcript.final_verdicts["weak"]
    consumed = ledger.status(transcript.branch_id) == "consumed"
    assert consumed == (not transcript.collapse_flag)
    if consumed:
        assert weak.residual <= 1e-12
    assert check_weak(_run_stages(config).loop_states) == weak


@pytest.mark.parametrize("cycles", [0, 1, 100])
@pytest.mark.parametrize("formalism", FORMALISMS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_storage_keeps_the_loop_closed(scenario, formalism, cycles):
    """Storage cycles are the identity and nothing else touches the carried
    state, so Bob receives the very state Alice's stage stored as rho_out.
    The weak check's first half is then an exact zero, and its residual is
    the second half, bit for bit."""
    rng = np.random.default_rng(cycles)
    for gate in ("swap", "identity"):
        for state in (StateVector.qubit(0.6, 0.8), StateVector.basis(1), random_vector(rng)):
            config = ProtocolConfig(
                input_state=state,
                gate=GateSpec(gate),
                formalism=formalism,
                scenario=scenario,
                storage_cycles=cycles,
            )
            session = _run_stages(config)
            assert session.stage == "bob_done"
            loop = session.loop_states
            assert loop["rho_in_prime"] is loop["rho_out"]
            second_half = trace_distance(loop["rho_out_prime"], loop["rho_in"])
            assert check_weak(loop).residual.hex() == second_half.hex()
            assert run_session(config).final_verdicts["weak"].residual.hex() == second_half.hex()


def signed_zero_pair(rng, dim: int):
    """Two diagonal density matrices alike but for the sign of their zero
    parts (-0.0 in the first, +0.0 in the second), so their difference is
    -0.0 wherever it is zero."""
    weights = rng.random(dim)
    first = np.diag(weights / weights.sum()).astype(complex)
    second = first.copy()
    first[~np.eye(dim, dtype=bool)] = complex(-0.0, -0.0)
    first.imag[np.eye(dim, dtype=bool)] = -0.0
    return first, second


@examples
@given(seeds, st.sampled_from(["identical", "one_ulp", "signed_zeros"]), st.integers(1, 2))
def test_half_trace_norm_of_a_near_or_exact_zero_difference_has_eigvalsh_bits(seed, kind, num_qubits):
    # an all-zero difference skips the eigensolve; any other takes it, so
    # both give the bits eigvalsh gives, a -0.0 anywhere included
    rng = np.random.default_rng(seed)
    rho = random_density(rng, num_qubits)
    first, second = rho.matrix, rho.matrix.copy()
    if kind == "one_ulp":
        i, j = rng.integers(len(first), size=2)
        second[i, j] = complex(np.nextafter(first[i, j].real, np.inf), first[i, j].imag)
        second[j, i] = second[i, j].conjugate() if i != j else second[i, j]
    elif kind == "signed_zeros":
        first, second = signed_zero_pair(rng, len(first))
    for diff in (first - second, second - first):
        expected = float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
        assert _half_trace_norm(diff).hex() == expected.hex()
    distance = trace_distance(rho, rho)
    assert distance.hex() == "0x0.0p+0"


class BranchLedgerMachine(RuleBasedStateMachine):
    """Random operation sequences against a dict model of the ledger: ids
    0, 1, 2, ... are never reused, at most one branch is in use, and every
    access to an unknown, consumed or collapsed branch raises."""

    def __init__(self):
        super().__init__()
        self.ledger = BranchLedger()
        self.status = {}

    def expect_access(self, branch_id, action, accessible=("in_use",)):
        """Run ``action`` and require it to fail exactly when the model says
        the branch is unknown or not in an accessible status."""
        if branch_id not in self.status:
            with pytest.raises(BranchError, match=f"unknown branch id {branch_id}"):
                action()
            return False
        if self.status[branch_id] not in accessible:
            with pytest.raises(BranchError):
                action()
            return False
        return True

    def branch(self, data):
        return data.draw(st.integers(-1, len(self.status)))

    @rule()
    def allocate(self):
        if "in_use" in self.status.values():
            with pytest.raises(BranchError, match="already in use"):
                self.ledger.allocate()
            return
        branch_id = self.ledger.allocate()
        assert branch_id == len(self.status) and branch_id not in self.status
        self.status[branch_id] = "in_use"

    @rule(data=st.data(), outcome=st.sampled_from(["merged", "collapsed", "vanished"]))
    def consume(self, data, outcome):
        branch_id = self.branch(data)
        if outcome == "vanished":
            with pytest.raises(ValueError):
                self.ledger.consume(branch_id, outcome)
        elif self.expect_access(branch_id, lambda: self.ledger.consume(branch_id, outcome)):
            self.ledger.consume(branch_id, outcome)
            self.status[branch_id] = "consumed" if outcome == "merged" else "collapsed"

    @rule(data=st.data())
    def touch(self, data):
        branch_id = self.branch(data)
        if self.expect_access(branch_id, lambda: self.ledger.touch(branch_id)):
            self.ledger.touch(branch_id)

    @rule(data=st.data())
    def status_of(self, data):
        branch_id = self.branch(data)
        accessible = ("in_use", "consumed", "collapsed")
        if self.expect_access(branch_id, lambda: self.ledger.status(branch_id), accessible):
            assert self.ledger.status(branch_id) == self.status[branch_id]

    @invariant()
    def one_branch_in_use(self):
        assert list(self.status.values()).count("in_use") <= 1

    @invariant()
    def summary_matches_the_model(self):
        expected = [(str(bid), status) for bid, status in self.status.items()]
        assert list(self.ledger.summary().items()) == expected


BranchLedgerMachine.TestCase.settings = settings(max_examples=100, deadline=None)
test_branch_ledger_state_machine = BranchLedgerMachine.TestCase


# ---------------------------------------------------------------- canonical json

finite = st.floats(allow_nan=False, allow_infinity=False)
report_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    finite,
    st.sampled_from([-0.0, 5e-324, 1e-5, 1e15, 1e15 + 0.5, -1e15, 9.999999999999998e15, 1e16, 0.1, 1 / 3]),
    finite.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.text(max_size=6),
)
report_keys = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans())


def distinct_keys(d):
    return len({str(k) for k in d}) == len(d)


reports = st.recursive(
    report_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(report_keys, children, max_size=4).filter(distinct_keys),
    ),
    max_leaves=20,
)


def canonical_value(x):
    """What ``json.loads`` must return: floats at 15 significant digits,
    numpy scalars as Python numbers, tuples as lists, keys as strings."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(format(float(x) + 0.0, ".15g"))
    if isinstance(x, (list, tuple)):
        return [canonical_value(v) for v in x]
    return {str(k): canonical_value(v) for k, v in x.items()}


def recursive_canonical_json(value) -> str:
    """The recursive writer ``canonical_json`` replaced, kept as its oracle."""
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value) + 0.0
        if not math.isfinite(v):
            raise ValueError(f"non-finite value in report: {value!r}")
        return format(v, ".15g")
    if isinstance(value, str):
        return json.dumps(str(value))
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(recursive_canonical_json(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted((str(k), v) for k, v in value.items())
        return "{" + ",".join(json.dumps(k) + ":" + recursive_canonical_json(v) for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


def leaves(x):
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (list, tuple)):
        for v in x:
            yield from leaves(v)
    else:
        yield x


def overflows(x) -> bool:
    """Whether some finite float in ``x`` reads back as infinity at 15
    significant digits (at or above about 1.797693134862315e308)."""
    return any(
        isinstance(leaf, (float, np.floating)) and math.isinf(float(format(float(leaf), ".15g")))
        for leaf in leaves(x)
    )


@settings(max_examples=300, deadline=None)
@given(reports.filter(lambda value: not overflows(value)))
def test_canonical_json_matches_recursive_oracle(value):
    assert canonical_json(value) == recursive_canonical_json(value)


@pytest.mark.parametrize(
    "value",
    [
        1e15,
        1e15 + 0.5,
        -1e15,
        9.999999999999998e15,
        1e16,
        5e-324,
        -0.0,
        np.float32(0.1),
        np.int64(-(2**63)),
        np.False_,
        {True: 1, 2: [False, None], -1: "x"},
        (1, (2.5, ("t",))),
        # values whose repr is not their 15-digit text, in a different order from
        # their sorted keys, next to strings that spell out a number or a placeholder
        {"z": 1e15, "a": [-2.5e15, "1e+15", '[NaN,0]"'], "m": {"k": 9.87654321098765e15, "[NaN,1]": 1e-310}},
    ],
    ids=repr,
)
def test_canonical_json_matches_recursive_oracle_at_boundaries(value):
    for payload in (value, [value], {"k": (value, [value])}):
        assert canonical_json(payload) == recursive_canonical_json(payload)


def per_leaf_flatten(prefix, value, rows):
    """The flat CSV's walk before the payload was normalised once: one
    ``canonical_json`` call per list element and per scalar leaf."""
    if isinstance(value, dict):
        for key in sorted(str(k) for k in value):
            per_leaf_flatten(f"{prefix}.{key}" if prefix else key, value[key], rows)
    elif isinstance(value, (list, tuple)):
        rows.append((prefix, "|".join(canonical_json(v) for v in value)))
    elif isinstance(value, (bool, int, float, str)) or value is None:
        rows.append((prefix, canonical_json(value)))


# what the per-leaf walk could flatten: str keys, and no numpy scalars
# other than np.float64 (a float), which it skipped
flat_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    finite,
    st.sampled_from([-0.0, 5e-324, 1e15, 1e15 + 0.5, -1e15, 9.999999999999998e15, 1e16, 1 / 3]),
    finite.map(np.float64),
    st.text(max_size=6),
    # strings that spell out NaN, NUL and JSON separators, and a placeholder
    st.sampled_from(["NaN", "\x00NaN\x00", ",NaN,", "\x00", "[NaN,0]", "a|b"]),
)
flat_keys = st.one_of(st.text(max_size=4), st.sampled_from(["\x00", "NaN", "\x00NaN\x00"]))
flat_results = st.dictionaries(
    flat_keys,
    st.recursive(
        flat_leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(flat_keys, children, max_size=4),
        ),
        max_leaves=20,
    ),
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(flat_results.filter(lambda value: not overflows(value)))
def test_flat_csv_matches_the_per_leaf_walk(results):
    report = Report("1", ["cmd", "--flag"], 7, results, 0.0)
    rows = []
    per_leaf_flatten("", report.to_payload(), rows)
    assert emit_report(report, "csv") == "\n".join(["key,value"] + [f"{k},{v}" for k, v in rows])


@settings(max_examples=300, deadline=None)
@given(reports)
def test_canonical_json_round_trips(value):
    if overflows(value):
        with pytest.raises(ValueError, match="rounds to infinity at 15 significant digits"):
            canonical_json(value)
    else:
        assert json.loads(canonical_json(value)) == canonical_value(value)


@pytest.mark.parametrize("big", [1.7976931348623157e308, -1.7976931348623157e308, np.float64(1.7976931348623151e308)])
def test_canonical_json_rejects_values_that_round_to_infinity(big):
    with pytest.raises(ValueError, match=re.escape(f"{big!r} rounds to infinity at 15 significant digits")):
        canonical_json({"k": [1.0, big]})
    assert json.loads(canonical_json(1.797693134862314e308)) == 1.79769313486231e308


@examples
@given(reports, st.sampled_from([float("nan"), float("inf"), -float("inf"), np.float64("nan")]))
def test_canonical_json_rejects_non_finite_anywhere(value, bad):
    for payload in (bad, [value, bad], {"k": [bad]}, (value, {"k": bad})):
        with pytest.raises(ValueError):
            canonical_json(payload)
