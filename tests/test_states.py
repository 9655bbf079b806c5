import re

import numpy as np
import pytest

from ctcsim import serialize
from ctcsim.states import (
    ATOL,
    DensityOperator,
    StateVector,
    _branches,
    _sample,
    apply_unitary,
    fidelity,
    partial_trace,
    purity,
    tensor_product,
    trace_distance,
)
from ctcsim.consistency import deutsch_map
from ctcsim.gates import GateSpec, UnitaryGate, build_gate

RNG = np.random.default_rng(20260810)


def random_state(num_qubits=1, rng=RNG):
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(amps / np.linalg.norm(amps))


def random_density(rng=RNG):
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    mat = raw @ raw.conj().T
    return DensityOperator(mat / np.trace(mat))


def random_unitary(dim, rng=RNG):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------- construction


def test_state_vector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector([1.0, 1.0])


def test_state_vector_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        StateVector([1.0, 0.0, 0.0])


def test_state_vector_rejects_nan():
    with pytest.raises(ValueError):
        StateVector([np.nan, 0.0])


def test_density_rejects_non_hermitian():
    with pytest.raises(ValueError):
        DensityOperator([[0.5, 0.5], [0.0, 0.5]])


@pytest.mark.parametrize("scale, accepted", [(0.9, True), (1.1, False)])
def test_density_hermitian_tolerance_is_atol(scale, accepted):
    # rho - rho-dagger has one nonzero part, scale * ATOL
    matrix = [[0.5, 0.25], [0.25 + scale * ATOL, 0.5]]
    if accepted:
        DensityOperator(matrix)
    else:
        with pytest.raises(ValueError, match="Hermitian within 1e-12"):
            DensityOperator(matrix)


def test_density_rejects_bad_trace():
    with pytest.raises(ValueError):
        DensityOperator([[1.0, 0.0], [0.0, 1.0]])


def test_density_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        DensityOperator([[1.5, 0.0], [0.0, -0.5]])


def test_immutability():
    s = StateVector.basis(0)
    with pytest.raises(AttributeError):
        s.dim = 4
    with pytest.raises(ValueError):
        s.amplitudes[0] = 5.0


# ------------------------------------------------------------- tensor product


def test_tensor_basis_states():
    joint = tensor_product(StateVector.basis(0), StateVector.basis(0))
    assert np.allclose(joint.amplitudes, [1, 0, 0, 0])


def test_tensor_superposition_with_zero():
    # a|0> + b|1> coupled to |0> lives on |00> and |10>
    joint = tensor_product(StateVector.qubit(0.6, 0.8), StateVector.basis(0))
    assert np.allclose(joint.amplitudes, [0.6, 0.0, 0.8, 0.0])


def test_tensor_density_diagonal():
    mixed = DensityOperator.maximally_mixed()
    product = tensor_product(StateVector.basis(0).density(), mixed)
    assert np.allclose(product.matrix, np.diag([0.5, 0.5, 0.0, 0.0]))


def test_tensor_mixed_kinds_rejected():
    with pytest.raises(TypeError):
        tensor_product(StateVector.basis(0), StateVector.basis(0).density())


# -------------------------------------------------------------- partial trace


def test_partial_trace_product_state():
    rho = tensor_product(StateVector.basis(0).density(), StateVector.basis(1).density())
    kept = partial_trace(rho, keep=1)
    assert np.allclose(kept.matrix, StateVector.basis(1).density().matrix)


def test_partial_trace_bell_is_maximally_mixed():
    bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2))
    reduced = partial_trace(bell.density(), keep=0)
    assert np.allclose(reduced.matrix, np.eye(2) / 2)


def test_partial_trace_of_swapped_product_recovers_input():
    # oracle: raw einsum partial trace of the explicitly built 4x4 matrix
    u = build_gate(GateSpec("swap")).matrix
    for _ in range(25):
        rho_in = random_density()
        rho = random_density()
        joint = u @ np.kron(rho_in.matrix, rho.matrix) @ u.conj().T
        oracle = np.einsum("abad->bd", joint.reshape(2, 2, 2, 2))
        got = partial_trace(DensityOperator(joint), keep=1)
        assert np.allclose(got.matrix, oracle, atol=1e-12)
        assert np.allclose(got.matrix, rho_in.matrix, atol=1e-12)


def test_partial_trace_three_qubits():
    state = tensor_product(
        tensor_product(StateVector.qubit(0.6, 0.8), StateVector.basis(1)), StateVector.basis(0)
    )
    kept = partial_trace(state.density(), keep=0)
    assert np.allclose(kept.matrix, StateVector.qubit(0.6, 0.8).density().matrix)
    pair = partial_trace(state.density(), keep=[1, 2])
    expected = tensor_product(StateVector.basis(1).density(), StateVector.basis(0).density())
    assert np.allclose(pair.matrix, expected.matrix)


def test_partial_trace_invalid_subsystem():
    rho = tensor_product(DensityOperator.maximally_mixed(), DensityOperator.maximally_mixed())
    with pytest.raises(ValueError):
        partial_trace(rho, keep=5)


def test_partial_trace_preserves_trace_and_hermiticity():
    for _ in range(10):
        rho = DensityOperator(_random_two_qubit_density())
        reduced = partial_trace(rho, keep=1)
        assert np.trace(reduced.matrix) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(reduced.matrix, reduced.matrix.conj().T)


def _random_two_qubit_density(rng=RNG):
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    mat = raw @ raw.conj().T
    return mat / np.trace(mat)


# -------------------------------------------------------------- apply_unitary


def test_swap_moves_amplitude_onto_ctc():
    joint = tensor_product(StateVector.qubit(0.6, 0.8), StateVector.basis(0))
    out = apply_unitary(joint, build_gate(GateSpec("swap")))
    assert np.allclose(out.amplitudes, [0.6, 0.8, 0.0, 0.0])


def test_identity_leaves_state():
    state = random_state(2)
    out = apply_unitary(state, UnitaryGate(np.eye(4)))
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_controlled_rotation_phases_11():
    out = apply_unitary(
        tensor_product(StateVector.basis(1), StateVector.basis(1)), build_gate(GateSpec("controlled_rotation"))
    )
    assert np.allclose(out.amplitudes, [0, 0, 0, 1j])


def test_unitary_then_inverse_restores():
    for _ in range(20):
        u = random_unitary(4)
        state = random_state(2)
        back = apply_unitary(apply_unitary(state, UnitaryGate(u)), UnitaryGate(u.conj().T))
        assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-12)
        rho = DensityOperator(_random_two_qubit_density())
        back_rho = apply_unitary(apply_unitary(rho, UnitaryGate(u)), UnitaryGate(u.conj().T))
        assert np.allclose(back_rho.matrix, rho.matrix, atol=1e-12)


def test_apply_unitary_preserves_norm():
    for _ in range(10):
        out = apply_unitary(random_state(2), UnitaryGate(random_unitary(4)))
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_apply_unitary_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_unitary(StateVector.basis(0), build_gate(GateSpec("swap")))


def test_apply_unitary_rejects_raw_non_unitary_on_density():
    # a raw matrix is refused as such; UnitaryGate is where a matrix is checked
    with pytest.raises(TypeError, match="expected UnitaryGate, got ndarray"):
        apply_unitary(DensityOperator.maximally_mixed(), 2 * np.eye(2))
    with pytest.raises(ValueError, match="not unitary"):
        UnitaryGate(2 * np.eye(2))


@pytest.mark.parametrize("state", [StateVector.basis(0), DensityOperator.maximally_mixed()])
def test_apply_unitary_takes_only_a_unitary_gate(state):
    with pytest.raises(TypeError, match="expected UnitaryGate"):
        apply_unitary(state, np.eye(2))
    assert apply_unitary(state, UnitaryGate(np.eye(2))).dim == 2


# ---------------------------------------------------------------- measurement


def test_measure_deterministic_outcome():
    # post-coupling state a|00> + b|01>: the chronology qubit reads 0 with
    # certainty and the CTC factor keeps the amplitudes
    state = StateVector([0.6, 0.8, 0.0, 0.0])
    (p0, ctc_factor), (p1, _) = _branches(state.amplitudes)
    assert p0 == pytest.approx(1.0, abs=1e-12)
    assert p1 == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(ctc_factor, [0.6, 0.8])


def test_measure_probabilistic_branches_share_ctc_factor():
    # a|00> + b|10>: outcomes follow |a|^2, |b|^2, the CTC factor is |0>
    # in both branches
    state = StateVector([0.6, 0.0, 0.8, 0.0])
    branches = _branches(state.amplitudes)
    assert [prob for prob, _ in branches] == pytest.approx([0.36, 0.64])
    for (_, branch), scale in zip(branches, (0.6, 0.8)):
        assert np.allclose(branch, [scale, 0.0])


def test_measure_plus_state_is_even():
    plus = StateVector.qubit(1 / np.sqrt(2), 1 / np.sqrt(2))
    probabilities = [prob for prob, _ in _branches(plus.amplitudes)]
    assert probabilities == pytest.approx([0.5, 0.5], abs=1e-12)


def test_measure_probabilities_sum_to_one():
    for n in (1, 2, 3):
        for _ in range(5):
            state = random_state(n)
            for array in (state.amplitudes, state.density().matrix):
                assert sum(prob for prob, _ in _branches(array)) == pytest.approx(1.0, abs=1e-12)


def test_measure_seeded_sampling_reproducible():
    # a caller samples one outcome from the distribution with one seeded draw
    probabilities = [prob for prob, _ in _branches(random_state(2).amplitudes)]
    first = _sample(np.random.default_rng(42).random(), probabilities)
    assert first == _sample(np.random.default_rng(42).random(), probabilities)


def test_measure_density_operator_matches_vector():
    state = random_state(2)
    for (pv, rest_v), (pr, rest_r) in zip(_branches(state.amplitudes), _branches(state.density().matrix)):
        assert pv == pytest.approx(pr, abs=1e-12)
        assert np.allclose(np.outer(rest_v, rest_v.conj()), rest_r, atol=1e-12)


def test_measure_custom_basis():
    had = [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]
    (p0, _), _ = _branches(StateVector.basis(0).amplitudes, had)
    assert p0 == pytest.approx(0.5)


@pytest.mark.parametrize("density", [False, True])
def test_zero_probability_branch_has_a_zero_remainder(density):
    state = StateVector([0.6, 0.8, 0.0, 0.0])
    (p0, rest0), (p1, rest1) = _branches(state.density().matrix if density else state.amplitudes)
    assert p1 == 0.0 and not rest1.any()
    assert p0 == pytest.approx(1.0, abs=1e-12) and rest0.any()


@pytest.mark.parametrize("index, num_qubits", [(-1, 1), (2, 1), (-1, 2), (4, 2)])
def test_basis_rejects_index_out_of_range(index, num_qubits):
    # basis builds one qubit; a register is a tensor_product of them
    with pytest.raises(ValueError, match=rf"basis index {index} is out of range 0\.\.1"):
        StateVector.basis(index)
    with pytest.raises(TypeError):
        StateVector.basis(0, num_qubits)


# ------------------------------------------------------------------ distances


def test_trace_distance_identical():
    rho = random_density()
    assert trace_distance(rho, rho) == 0.0


def test_trace_distance_orthogonal_pure():
    assert trace_distance(
        StateVector.basis(0).density(), StateVector.basis(1).density()
    ) == pytest.approx(1.0)


def test_trace_distance_pure_vs_mixed():
    # difference diag(1/2, -1/2): eigenvalues +-1/2, so distance 1/2
    d = trace_distance(StateVector.basis(0).density(), DensityOperator.maximally_mixed())
    assert d == pytest.approx(0.5, abs=1e-12)


def test_trace_distance_dimension_mismatch():
    mixed = DensityOperator.maximally_mixed()
    with pytest.raises(ValueError):
        trace_distance(mixed, tensor_product(mixed, mixed))


def test_purity_pure_state():
    assert purity(StateVector.basis(0).density()) == pytest.approx(1.0, abs=1e-10)


def test_purity_maximally_mixed():
    assert purity(DensityOperator.maximally_mixed()) == pytest.approx(0.5)


def test_purity_diagonal_mixture():
    # Tr(rho^2) = 0.75^2 + 0.25^2
    rho = DensityOperator(np.diag([0.75, 0.25]).astype(complex))
    assert purity(rho) == pytest.approx(0.625, abs=1e-12)


def test_fidelity_pure_pure():
    a = StateVector.qubit(0.6, 0.8)
    assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(StateVector.basis(0), StateVector.basis(1)) == pytest.approx(0.0)


def test_fidelity_mixed_mixed_matches_pure_formula():
    a, b = random_state(), random_state()
    direct = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
    assert fidelity(a.density(), b.density()) == pytest.approx(direct, abs=1e-10)


# -------------------------------------------------------------- serialization


def test_state_json_round_trip():
    state = random_state(2)
    again = StateVector.from_json(state.to_json())
    assert np.allclose(state.amplitudes, again.amplitudes)


def test_density_json_round_trip():
    rho = random_density()
    again = DensityOperator.from_json(rho.to_json())
    assert np.allclose(rho.matrix, again.matrix)


def test_a_vector_document_reads_as_its_pure_density():
    for state in (random_state(1), random_state(2), StateVector.basis(1)):
        document = state.to_json()
        expected = StateVector.from_json(document).density().matrix
        assert DensityOperator.from_json(document).matrix.tobytes() == expected.tobytes()


def test_document_keeps_the_bits_of_every_part():
    rng = np.random.default_rng(7)
    parts = [[1, 0], [-3, 2**60 + 1]] + rng.normal(size=(6, 2)).tolist()
    flat = serialize.document_to_array({"dim": 8, "data": parts})
    expected = [complex(float(re), float(im)) for re, im in parts]
    assert flat.tobytes() == np.array(expected, dtype=complex).tobytes()
    again = serialize.document_to_array(serialize.to_document(flat))
    assert again.tobytes() == flat.tobytes()
    # the one writer takes a vector or a square matrix and nothing else
    for shape in ((2, 3), (2, 2, 2), ()):
        with pytest.raises(ValueError, match=re.escape(f"expected a vector or a square matrix, got shape {shape}")):
            serialize.to_document(np.zeros(shape))
    # a strided view, signed zeros and subnormals keep their bits as well
    strided = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[::2, ::-1]
    signed = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-5e-324, 5e-324)])
    for values in (strided, signed):
        pairs = serialize.complex_to_pairs(values)
        assert repr(pairs) == repr([[float(z.real), float(z.imag)] for z in values.ravel()])
        assert serialize.pairs_to_complex(pairs).tobytes() == values.ravel().tobytes()


@pytest.mark.parametrize(
    "document, message",
    (
        ({"dim": True, "data": [[1, 0], [0, 0]]}, "key 'dim' must be an int, got bool"),
        ({"dim": "2", "data": [[1, 0], [0, 0]]}, "key 'dim' must be an int, got str"),
        ({"dim": 2.9, "data": [[1, 0], [0, 0]]}, "key 'dim' must be an int, got float"),
        ({"dim": 0, "data": []}, "key 'dim' must be positive, got 0"),
        ({"dim": 2, "data": None}, "key 'data' must be a list, got NoneType"),
        ({"dim": 2, "data": [5, 6]}, "key 'data' entry 0 must be a [re, im] pair of numbers, got 5"),
        ({"dim": 2, "data": [[1, 0], ["0.6", 0]]}, "key 'data' entry 1 must be a [re, im] pair"),
        ({"dim": 2, "data": [[1, 0], [False, False]]}, "key 'data' entry 1 must be a [re, im] pair"),
        ({"dim": 2, "data": [[1, 0], [0, 0, 0]]}, "key 'data' entry 1 must be a [re, im] pair"),
        ({"dim": 2, "data": [[1, 0], [10**400, 0]]}, "key 'data' entry 1 holds an integer too large"),
        ([[1, 0], [0, 0]], "document must be a JSON object, got list"),
    ),
)
def test_document_reader_refuses_what_is_not_a_number_document(document, message):
    with pytest.raises(ValueError) as info:
        serialize.document_to_array(document)
    assert str(info.value).startswith("vector/matrix document ") and message in str(info.value)


@pytest.mark.parametrize(
    "array",
    (
        lambda: DensityOperator.maximally_mixed().matrix,
        lambda: build_gate(GateSpec("swap")).matrix,
        lambda: StateVector.basis(0).amplitudes,
        lambda: tensor_product(StateVector.basis(0), random_state()).amplitudes,
        lambda: tensor_product(random_density(), random_density()).matrix,
        lambda: apply_unitary(random_state(2), build_gate(GateSpec("swap"))).amplitudes,
        lambda: apply_unitary(random_density(), UnitaryGate(random_unitary(2))).matrix,
        lambda: partial_trace(random_state(2).density(), 1).matrix,
        lambda: random_state().density().matrix,
        lambda: deutsch_map(build_gate(GateSpec("swap")), random_density(), random_density()).matrix,
    ),
    ids=(
        "maximally_mixed", "swap", "basis", "tensor_vector", "tensor_density",
        "apply_vector", "apply_density", "partial_trace", "density", "deutsch_map",
    ),
)
def test_stored_arrays_cannot_be_made_writeable(array):
    stored = array()
    with pytest.raises(ValueError):
        stored.flags.writeable = True
    assert not stored.flags.writeable


@pytest.mark.parametrize(
    "build, given, stored",
    (
        (StateVector, lambda: np.array([0.6, 0.8j]), lambda state: state.amplitudes),
        (DensityOperator, lambda: np.full((2, 2), 0.5 + 0j), lambda rho: rho.matrix),
        (UnitaryGate, lambda: build_gate(GateSpec("swap")).matrix.copy(), lambda gate: gate.matrix),
    ),
    ids=("StateVector", "DensityOperator", "UnitaryGate"),
)
def test_public_constructors_copy_the_callers_array(build, given, stored):
    # a C-ordered complex array that owns its data: the kernel would take it
    mine = given()
    value = stored(build(mine))
    before = value.tobytes()
    assert mine.flags.writeable
    mine.flat[0] = 0.25
    assert value.tobytes() == before
