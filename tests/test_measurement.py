"""One measurement kernel and one sampler, checked against the code they replaced.

Every measurement in the package goes through ``states._branches`` (Born
probability and unnormalised remainder per outcome, on qubit 0) and
``states._sample`` (one uniform draw against running sums). The functions
below are the earlier, separate implementations: a projective measurement
with full-dimension projectors, both formalisms of the chronology
measurement, the teleportation table with its cumulative loop, and the
beam's inline contraction. Where the new route computes the same
operations, the tests compare bytes. The old post-states were built by a
different route (a BLAS outer product, and for a density operator a
projector sandwich), so the kernel's remainders placed back beside the
measured basis vector are compared with them within 1e-12.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ctcsim import protocol, states  # noqa: E402
from ctcsim.gates import GateSpec, UnitaryGate, bell_pair, build_gate  # noqa: E402
from ctcsim.protocol import (  # noqa: E402
    ProtocolConfig,
    Session,
    run_beam,
    run_session,
    run_teleportation_baseline,
)
from ctcsim.states import (  # noqa: E402
    DensityOperator,
    StateVector,
    apply_unitary,
    fidelity,
    tensor_product,
)
from test_consistency import haar_unitary  # noqa: E402

seeds = st.integers(0, 2**32 - 1)
examples = settings(max_examples=200, deadline=None)

COMPUTATIONAL = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))
HADAMARD = (
    np.array([1.0, 1.0], dtype=complex) / np.sqrt(2),
    np.array([1.0, -1.0], dtype=complex) / np.sqrt(2),
)


# ------------------------------------------------------------------ oracles


class Unnormalised:
    """An unnormalised amplitude vector, as the oracles below hold a branch;
    ``StateVector`` holds only normalised states."""

    def __init__(self, amplitudes):
        self.amplitudes = np.asarray(amplitudes, dtype=complex).reshape(-1)
        self.num_qubits = self.amplitudes.size.bit_length() - 1

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))

    def normalize(self):
        return StateVector(self.amplitudes / self.norm())


def old_lift_single(op2, subsystem, num_qubits):
    full = np.array([[1.0 + 0j]])
    for q in range(num_qubits):
        full = np.kron(full, op2 if q == subsystem else np.eye(2, dtype=complex))
    return full


def old_measurement_branch(state, subsystem, basis_vector):
    tensor = state.amplitudes.reshape((2,) * state.num_qubits)
    contracted = np.tensordot(np.conj(basis_vector), tensor, axes=([0], [subsystem]))
    return contracted.reshape(-1)


def old_measurement_distribution(state, subsystem, b_pair):
    results = []
    if isinstance(state, StateVector):
        n = state.num_qubits
        for label, bvec in enumerate(b_pair):
            branch = Unnormalised(old_measurement_branch(state, subsystem, bvec))
            prob = branch.norm() ** 2
            post = None
            if prob > 1e-15:
                rest = branch.amplitudes / np.sqrt(prob)
                if n == 1:
                    post = StateVector(bvec * rest[0])
                else:
                    tensor = np.tensordot(bvec, rest.reshape((2,) * (n - 1)), axes=0)
                    order = list(range(1, subsystem + 1)) + [0] + list(range(subsystem + 1, n))
                    post = StateVector(np.transpose(tensor, order).reshape(-1))
            results.append((label, prob, post))
        return results
    n = state.num_qubits
    for label, bvec in enumerate(b_pair):
        proj = old_lift_single(np.outer(bvec, bvec.conj()), subsystem, n)
        collapsed = proj @ state.matrix @ proj
        prob = float(np.real(np.trace(collapsed)))
        post = DensityOperator._trusted(collapsed / prob) if prob > 1e-15 else None
        results.append((label, max(prob, 0.0), post))
    return results


def old_measure_projective_sampled(state, subsystem, basis, seed):
    distribution = old_measurement_distribution(state, subsystem, basis)
    rng = np.random.default_rng(seed)
    probs = np.array([prob for _, prob, _ in distribution])
    return int(rng.choice(len(distribution), p=probs / probs.sum()))


OLD_CHRONOLOGY_PROJECTORS = tuple(
    np.kron(np.outer(vec, vec.conj()), np.eye(2, dtype=complex)) for vec in COMPUTATIONAL
)


def old_sample_outcome(rng, probabilities):
    draw = rng.random()
    return 0 if draw < probabilities[0] else 1


def old_measure_chronology(rng, joint):
    """Outcome, probabilities, CTC factor and (vector only) both branches."""
    if isinstance(joint, StateVector):
        branches = [
            Unnormalised(old_measurement_branch(joint, 0, vec))
            for vec in COMPUTATIONAL
        ]
        probabilities = [b.norm() ** 2 for b in branches]
        outcome = old_sample_outcome(rng, probabilities)
        pairs = [[[float(z.real), float(z.imag)] for z in b.amplitudes] for b in branches]
        return outcome, probabilities, branches[outcome].normalize(), pairs
    projected = [proj @ joint.matrix @ proj for proj in OLD_CHRONOLOGY_PROJECTORS]
    probabilities = [float(np.real(np.trace(p))) for p in projected]
    outcome = old_sample_outcome(rng, probabilities)
    post = projected[outcome] / probabilities[outcome]
    ctc = np.trace(post.reshape(2, 2, 2, 2), axis1=0, axis2=2)
    return outcome, probabilities, ctc, None


def old_teleport_sample(draw, outcome_table):
    cumulative = 0.0
    sampled = "11"
    for key, entry in outcome_table.items():
        cumulative += entry["probability"]
        if draw < cumulative:
            sampled = key
            break
    return sampled


def old_teleport_table(input_state):
    psi = tensor_product(input_state, bell_pair())
    psi = apply_unitary(psi, UnitaryGate(np.kron(build_gate(GateSpec("cnot")).matrix, np.eye(2))))
    psi = apply_unitary(psi, UnitaryGate(np.kron(build_gate(GateSpec("hadamard")).matrix, np.eye(4))))
    x_mat = np.array([[0, 1], [1, 0]], dtype=complex)
    z_mat = np.array([[1, 0], [0, -1]], dtype=complex)
    table = {}
    for m0 in (0, 1):
        first = Unnormalised(old_measurement_branch(psi, 0, COMPUTATIONAL[m0]))
        for m1 in (0, 1):
            second = Unnormalised(old_measurement_branch(first, 0, COMPUTATIONAL[m1]))
            prob = second.norm() ** 2
            corrected = np.linalg.matrix_power(z_mat, m0) @ (
                np.linalg.matrix_power(x_mat, m1) @ second.amplitudes
            )
            corrected = corrected / np.linalg.norm(corrected)
            fid = fidelity(input_state, StateVector(corrected))
            table[f"{m0}{m1}"] = {"probability": float(prob), "fidelity": float(fid)}
    return table


def old_beam_outcomes(trials, seed):
    names = (COMPUTATIONAL, HADAMARD)
    outcomes = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        prep_basis, prep_bit, meas_basis = (int(rng.integers(2)) for _ in range(3))
        prep = names[prep_basis][prep_bit]
        joint = (build_gate(GateSpec("swap")).matrix @ np.kron(COMPUTATIONAL[0], prep)).reshape(2, 2)
        probabilities = [float(np.linalg.norm(v.conj() @ joint) ** 2) for v in names[meas_basis]]
        outcomes.append(old_sample_outcome(rng, probabilities))
    return outcomes


# --------------------------------------------------------------- generators


def random_vector(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(amps / np.linalg.norm(amps))


def random_density(rng, n):
    dim = 2**n
    shape = (dim, rng.integers(1, dim + 1))
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def random_case(seed, n, kind, haar):
    """A random state on n qubits and a basis pair for qubit 0."""
    rng = np.random.default_rng(seed)
    state = random_vector(rng, n) if kind == "vector" else random_density(rng, n)
    basis = tuple(haar_unitary(rng, 2).T) if haar else COMPUTATIONAL
    return state, basis


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ------------------------------------------------------ the kernel on qubit 0


@examples
@given(seeds, st.integers(1, 3), st.booleans())
def test_vector_distribution_matches_old(seed, n, haar):
    state, basis = random_case(seed, n, "vector", haar)
    old = old_measurement_distribution(state, 0, basis)
    new = states._branches(state.amplitudes, basis)
    for b, (_, prob, post), (new_prob, rest) in zip(basis, old, new, strict=True):
        assert same_bytes(rest, old_measurement_branch(state, 0, b))
        assert same_bytes(new_prob, prob)
        # the old post-state's outer product called BLAS, which rounds
        # differently in the last bit
        assert np.max(np.abs(np.kron(b, rest / np.sqrt(new_prob)) - post.amplitudes)) <= 1e-12


@examples
@given(seeds, st.integers(1, 3), st.booleans())
def test_density_distribution_matches_old_within_tolerance(seed, n, haar):
    state, basis = random_case(seed, n, "density", haar)
    old = old_measurement_distribution(state, 0, basis)
    new = states._branches(state.matrix, basis)
    for b, (_, prob, post), (new_prob, rest) in zip(basis, old, new, strict=True):
        assert abs(new_prob - prob) <= 1e-12
        assert (post is None) == (new_prob <= 1e-15)
        if post is not None:
            placed = np.kron(np.outer(b, b.conj()), rest / new_prob)
            assert np.max(np.abs(placed - post.matrix)) <= 1e-12


@examples
@given(seeds, st.integers(1, 3), st.sampled_from(["vector", "density"]), st.booleans(), seeds)
def test_seeded_sampling_matches_rng_choice(seed, n, kind, haar, draw_seed):
    state, basis = random_case(seed, n, kind, haar)
    old = old_measure_projective_sampled(state, 0, basis, draw_seed)
    # the caller draws one outcome from the distribution with the one sampler
    array = state.amplitudes if kind == "vector" else state.matrix
    draw = np.random.default_rng(draw_seed).random()
    assert states._sample(draw, [prob for prob, _ in states._branches(array, basis)]) == old


# ----------------------------------------------------- chronology measurement


@examples
@given(seeds, st.sampled_from(["vector", "density"]), st.sampled_from(["alice", "bob"]))
def test_chronology_measurement_matches_old(seed, kind, actor):
    rng = np.random.default_rng(seed)
    joint = random_vector(rng, 2) if kind == "vector" else random_density(rng, 2)
    session = Session(ProtocolConfig(input_state=StateVector.basis(0), seed=seed))
    outcome, probabilities, ctc = protocol._measure_chronology(session, joint, actor)
    old_outcome, old_probabilities, old_ctc, old_pairs = old_measure_chronology(
        np.random.default_rng(seed), joint
    )
    assert outcome == old_outcome
    assert same_bytes(probabilities, old_probabilities)
    detail = session.rows[-1]["detail"]
    assert detail["outcome"] == outcome and detail["probabilities"] == probabilities
    if kind == "vector":
        assert same_bytes(ctc.amplitudes, old_ctc.amplitudes)
        assert detail.get("unnormalized_branches") == (old_pairs if actor == "alice" else None)
    else:
        # the projector route added exact zeros, which can only flip the
        # sign of a zero entry; no printed byte depends on that sign
        assert same_bytes(ctc.matrix + 0.0, old_ctc + 0.0)


def old_branches(array, basis):
    """The kernel as it contracted through ``np.tensordot``."""
    n = array.shape[0].bit_length() - 1
    tensor = array.reshape((2,) * (array.ndim * n))
    branches = []
    for b in basis:
        rest = np.tensordot(b.conj(), tensor, axes=([0], [0]))
        if array.ndim == 1:
            branches.append((float(np.linalg.norm(rest)) ** 2, rest.reshape(-1)))
        else:
            rest = np.tensordot(rest, b, axes=([n - 1], [0])).reshape(2 ** (n - 1), -1)
            branches.append((float(np.real(np.trace(rest))), rest))
    return branches


@examples
@given(seeds, st.integers(1, 3))
def test_kernel_is_bitwise_the_tensordot_contraction(seed, num_qubits):
    rng = np.random.default_rng(seed)
    state = random_vector(rng, num_qubits)
    for basis in (COMPUTATIONAL, HADAMARD, tuple(haar_unitary(rng, 2).T)):
        for array in (state.amplitudes, state.density().matrix, random_density(rng, num_qubits).matrix):
            for (p, rest), (q, old) in zip(states._branches(array, basis), old_branches(array, basis)):
                assert p == q and rest.shape == old.shape and rest.tobytes() == old.tobytes()


# --------------------------------------------------------- the one sampler


@examples
@given(seeds, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
def test_sampler_matches_old_samplers(seed, weights):
    total = sum(weights)
    probabilities = [w / total for w in weights] if total > 0 else weights
    draw = np.random.default_rng(seed).random()
    outcome = states._sample(draw, probabilities)
    if len(probabilities) == 2:
        assert outcome == old_sample_outcome(np.random.default_rng(seed), probabilities)
    if len(probabilities) == 4:
        table = {f"{k // 2}{k % 2}": {"probability": p} for k, p in enumerate(probabilities)}
        assert f"{outcome // 2}{outcome % 2}" == old_teleport_sample(draw, table)
    cumulative = np.cumsum(probabilities)
    first = int(np.searchsorted(cumulative, draw, side="right"))
    # past every running sum, the last outcome of non-zero probability
    nonzero = [k for k, p in enumerate(probabilities) if p > 0] or [len(probabilities) - 1]
    assert outcome == (first if first < len(probabilities) else nonzero[-1])


def test_sampler_never_draws_an_outcome_of_probability_zero():
    # rounding leaves the running sum below the draw; the last outcome has
    # probability 0, and measuring into it would divide 0 by 0
    assert states._sample(1 - 2**-53, [1 - 2**-53, 0.0]) == 0
    assert states._sample(1 - 2**-53, [0.5, 0.5 - 2**-53, 0.0, 0.0]) == 1


def test_sampler_makes_one_draw():
    # the sampler reads one uniform draw, so a session's measurement takes
    # one draw from the session's generator
    session = Session(ProtocolConfig(input_state=StateVector.basis(0), seed=3))
    protocol._measure_chronology(session, random_vector(np.random.default_rng(3), 2), "alice")
    reference = np.random.default_rng(3)
    reference.random()
    assert session.rng.random() == reference.random()


# ------------------------------------------------ teleportation and beam


@settings(max_examples=100, deadline=None)
@given(seeds, seeds)
def test_teleportation_matches_old(state_seed, seed):
    state = random_vector(np.random.default_rng(state_seed), 1)
    transcript = run_teleportation_baseline(state, seed=seed)
    table = old_teleport_table(state)
    assert transcript.detail["outcome_table"] == table
    sampled = old_teleport_sample(np.random.default_rng(seed).random(), table)
    assert transcript.detail["sampled_outcome"] == sampled


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_beam_outcomes_match_old(seed):
    records = run_beam(64, "noise", seed).records.dicts()
    assert [r["outcome"] for r in records] == old_beam_outcomes(64, seed)


# ------------------------------------------------------------ one route


def test_every_measurement_reaches_the_one_kernel(monkeypatch):
    calls = []
    kernel = states._branches

    def counting(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(protocol, "_branches", counting)

    def reaches(run):
        calls.clear()
        run()
        return len(calls) > 0

    state = StateVector.qubit(0.6, 0.8)
    for formalism in ("wavefunction", "density"):
        config = ProtocolConfig(input_state=state, formalism=formalism, bob_measures=True)
        assert reaches(lambda: run_session(config)), formalism
    # a beam measures when it builds its policy's table
    protocol._beam_table.cache_clear()
    assert reaches(lambda: run_beam(4))
    assert reaches(lambda: run_teleportation_baseline(state))
