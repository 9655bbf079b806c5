"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Oracles here are deliberately independent of the library paths they
check: raw numpy circuit algebra, brute-force grids, and all-pairs
open-set enumeration.
"""

import json
import subprocess
import sys
from itertools import combinations

import numpy as np

from ctcsim.consistency import fixed_set_distance, scan_admissible_inputs, solve_deutsch_fixed_point
from ctcsim.gates import GateSpec, build_gate
from ctcsim.protocol import (
    ProtocolConfig,
    run_beam,
    run_ebit_distribution,
    run_session,
    run_teleportation_baseline,
)
from ctcsim.resources import STANDARD_RELATIONS, tally, verify_conversion
from ctcsim.states import DensityOperator, StateVector, purity, trace_distance
from ctcsim.topology import BranchLedger, TopologySpace, build_line_splitting, is_hausdorff

RNG = np.random.default_rng(8041997)


def verdict(number, passed, text):
    line = f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}  {text}"
    print(line)
    assert passed, line


def random_amplitudes(rng):
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    return amps / np.linalg.norm(amps)


def test_criterion_01_swap_amplitude_transfer():
    """Swap moves a|00>+b|10> to a|00>+b|01> for 1,000 random (a, b)."""
    u = build_gate(GateSpec("swap")).matrix
    worst = 0.0
    for _ in range(1000):
        a, b = random_amplitudes(RNG)
        joint = np.kron([a, b], [1.0, 0.0])
        out = u @ joint
        expected = np.array([a, b, 0.0, 0.0])
        worst = max(worst, float(np.abs(out - expected).max()))
    verdict(1, worst < 1e-12, f"swap amplitude transfer, max error {worst:.2e} < 1e-12")


def test_criterion_02_alice_measurement_deterministic():
    """Alice's post-swap measurement always reads 0 with certainty."""
    worst = 0.0
    for seed in range(200):
        state = StateVector(random_amplitudes(RNG))
        config = ProtocolConfig(input_state=state, seed=seed)
        transcript = run_session(config)
        p0, p1 = transcript.detail["alice_probabilities"]
        worst = max(worst, p1, abs(1.0 - p0))
        assert transcript.detail["alice_outcome"] == 0
    verdict(2, worst < 1e-12, f"deterministic outcome 0, max stray probability {worst:.2e}")


def test_criterion_03_end_to_end_transfer():
    """Both formalisms transfer the input at unit fidelity and agree."""
    worst_fid = 1.0
    worst_gap = 0.0
    for seed in range(50):
        state = StateVector(random_amplitudes(RNG))
        wave = run_session(ProtocolConfig(input_state=state, seed=seed))
        dens = run_session(ProtocolConfig(input_state=state, formalism="density", seed=seed))
        worst_fid = min(worst_fid, wave.transfer_fidelity, dens.transfer_fidelity)
        worst_gap = max(
            worst_gap, trace_distance(wave.transferred_state, dens.transferred_state)
        )
    verdict(
        3,
        worst_fid >= 1 - 1e-12 and worst_gap <= 1e-12,
        f"transfer fidelity >= 1-1e-12 (min {worst_fid:.15f}), formalism gap {worst_gap:.2e}",
    )


def test_criterion_04_loop_closure_and_collapse():
    """Nominal runs close the loop; misbehavior collapses with residual > 0.1."""
    worst_nominal = 0.0
    for seed in range(50):
        state = StateVector(random_amplitudes(RNG))
        t = run_session(ProtocolConfig(input_state=state, seed=seed))
        worst_nominal = max(worst_nominal, t.final_verdicts["weak"].residual)
        assert not t.collapse_flag
    misbehavior_ok = True
    min_residual = np.inf
    for scenario in ("bob_skips", "self_signal"):
        for seed in range(10):
            t = run_session(
                ProtocolConfig(
                    input_state=StateVector.qubit(0.6, 0.8), scenario=scenario, seed=seed
                )
            )
            misbehavior_ok &= t.collapse_flag
            min_residual = min(min_residual, t.final_verdicts["weak"].residual)
    verdict(
        4,
        worst_nominal < 1e-12 and misbehavior_ok and min_residual > 0.1,
        f"nominal residual {worst_nominal:.2e} < 1e-12; "
        f"misbehavior collapses with residual >= {min_residual:.3f} > 0.1",
    )


def _raw_residual_grid(u, rho_in, points):
    """Brute-force oracle: Deutsch residuals by direct matrix algebra."""
    paulis = [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    residuals = np.empty(len(points))
    for idx, r in enumerate(points):
        rho = 0.5 * (paulis[0] + r[0] * paulis[1] + r[1] * paulis[2] + r[2] * paulis[3])
        joint = u @ np.kron(rho_in, rho) @ u.conj().T
        image = joint.reshape(2, 2, 2, 2)[0, :, 0, :] + joint.reshape(2, 2, 2, 2)[1, :, 1, :]
        residuals[idx] = 0.5 * np.abs(np.linalg.eigvalsh(rho - image)).sum()
    return residuals


def _dense_bloch_grid(angular_resolution=64, radial_steps=17):
    radii = np.linspace(0.0, 1.0, radial_steps)
    thetas = np.linspace(0.0, np.pi, angular_resolution + 1)
    phis = np.linspace(0.0, 2 * np.pi, angular_resolution, endpoint=False)
    points = [(0.0, 0.0, 0.0)]
    for radius in radii[1:]:
        for theta in thetas:
            for phi in phis[: 1 if theta in (0.0, np.pi) else None]:
                points.append(
                    (
                        radius * np.sin(theta) * np.cos(phi),
                        radius * np.sin(theta) * np.sin(phi),
                        radius * np.cos(theta),
                    )
                )
    return np.array(points)


def test_criterion_05_deutsch_solvers():
    """Both solver routes recover swap fixed points; spectral set matches
    a brute-force grid for the controlled rotation."""
    worst_err = 0.0
    worst_gap = 0.0
    for _ in range(100):
        raw = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        mat = raw @ raw.conj().T
        rho_in = DensityOperator(mat / np.trace(mat))
        it = solve_deutsch_fixed_point(build_gate(GateSpec("swap")), rho_in, "iterative")
        sp = solve_deutsch_fixed_point(build_gate(GateSpec("swap")), rho_in, "spectral")
        worst_err = max(
            worst_err, trace_distance(it.rho, rho_in), trace_distance(sp.rho, rho_in)
        )
        worst_gap = max(worst_gap, trace_distance(it.rho, sp.rho))
    swap_ok = worst_err <= 1e-10 and worst_gap <= 1e-9

    gate = build_gate(GateSpec("controlled_rotation"))
    rho_in = StateVector.qubit(1 / np.sqrt(2), 1 / np.sqrt(2)).density()
    solution = solve_deutsch_fixed_point(gate, rho_in, "spectral")
    grid = _dense_bloch_grid(64)
    oracle = _raw_residual_grid(gate.matrix, rho_in.matrix, grid)
    tol = 1e-6
    mismatches = 0
    for point, residual in zip(grid, oracle):
        member_oracle = residual <= tol
        member_spectral = (
            fixed_set_distance(solution, _bloch_density(point)) <= tol
        )
        mismatches += member_oracle != member_spectral
    verdict(
        5,
        swap_ok and mismatches == 0,
        f"swap fixed points within {worst_err:.2e}, methods within {worst_gap:.2e}; "
        f"controlled-rotation membership mismatches {mismatches}/{len(grid)} on a "
        f"{len(grid)}-point grid (65 polar x 64 azimuthal angles)",
    )


def _bloch_density(point):
    from ctcsim.consistency import density_from_bloch

    return density_from_bloch(np.asarray(point))


def test_criterion_06_purity_scan():
    """For the swap coupling and pure rho the only admissible input is rho
    itself; for mixed rho the face-value fixed-point equation also admits
    the mixed rho_in = rho, and that discrepancy with the stronger purity
    reading is reported rather than hidden."""
    rho = StateVector.basis(0).density()
    admissible = scan_admissible_inputs(build_gate(GateSpec("swap")), rho, 16)
    pure_ok = len(admissible) >= 1 and all(
        trace_distance(_bloch_density(r), rho) <= 1e-9 for r, _ in admissible
    )

    mixed = DensityOperator(np.diag([0.75, 0.25]).astype(complex))
    mixed_admissible = scan_admissible_inputs(build_gate(GateSpec("swap")), mixed, 16)
    mixed_hits = [r for r, _ in mixed_admissible if purity(_bloch_density(r)) < 1.0 - 1e-9]
    print(
        "ACCEPTANCE 06 note  swap coupling with mixed rho=diag(0.75,0.25): "
        f"{len(mixed_hits)} mixed admissible input(s) found; the fixed-point "
        "equation taken at face value does not force purity for the swap"
    )
    verdict(
        6,
        pure_ok and len(mixed_hits) >= 1,
        f"pure rho admits exactly its own state ({len(admissible)} grid hit(s)); "
        "mixed-coupling discrepancy reported above",
    )


def test_criterion_07_beam_statistics():
    """10,000 seeded beam trials guess the right basis about half the time."""
    report = run_beam(10000, "collapse", seed=424242)
    ok = 0.48 <= report.basis_match_fraction <= 0.52
    verdict(7, ok, f"basis match fraction {report.basis_match_fraction:.4f} in [0.48, 0.52]")


def test_criterion_08_resource_accounting():
    """Teleportation and CTC tallies are exact and all four conversion
    relations are demonstrated."""
    state = StateVector.qubit(0.6, 0.8)
    teleport = run_teleportation_baseline(state, seed=1)
    fidelities = [e["fidelity"] for e in teleport.detail["outcome_table"].values()]
    teleport_ok = all(f >= 1 - 1e-12 for f in fidelities)
    teleport_tally = {k.value: v for k, v in tally(teleport).items()}
    ctc = run_session(ProtocolConfig(input_state=state, seed=1))
    ctc_tally = {k.value: v for k, v in tally(ctc).items()}
    tallies_ok = teleport_tally == {"ebit": -1, "cbit": -2, "qubit": 1} and ctc_tally == {
        "ctcbit": -1,
        "cbit": -1,
        "ancilla": -1,
        "qubit": 1,
    }
    transcripts = [ctc, teleport, run_ebit_distribution()]
    relations = {r.relation_id: verify_conversion(r, transcripts).passed for r in STANDARD_RELATIONS}
    verdict(
        8,
        teleport_ok and tallies_ok and all(relations.values()),
        f"per-outcome teleport fidelity >= 1-1e-12; tallies exact; relations {relations}",
    )


def test_criterion_09_topology_checker():
    """Line splitting is never Hausdorff (branch-point witness); the checker
    agrees with an all-pairs/all-open-pairs oracle on random spaces."""

    def oracle(space):
        for x, y in combinations(space.points, 2):
            if not any(
                x in o1 and y in o2 and not (o1 & o2)
                for o1 in space.opens
                for o2 in space.opens
            ):
                return False
        return True

    split_ok = True
    for copies in range(2, 7):
        ok, witness = is_hausdorff(build_line_splitting(copies))
        split_ok &= (not ok) and all(w.startswith("0_") for w in witness)
    discrete_ok = is_hausdorff(TopologySpace.discrete(list("abcd")))[0]

    rng = np.random.default_rng(99)
    agreements = 0
    for _ in range(50):
        count = int(rng.integers(2, 7))
        points = [f"p{i}" for i in range(count)]
        subbasis = []
        for _ in range(int(rng.integers(1, 4))):
            mask = rng.random(count) < 0.5
            subbasis.append([p for p, m in zip(points, mask) if m])
        space = TopologySpace.from_subbasis(points, subbasis)
        agreements += is_hausdorff(space)[0] == oracle(space)
    verdict(
        9,
        split_ok and discrete_ok and agreements == 50,
        f"line splitting k=2..6 non-Hausdorff with branch witnesses; "
        f"oracle agreement {agreements}/50",
    )


def test_criterion_10_single_use_branches():
    """N sessions allocate N distinct branches and used branches are dead."""
    ledger = BranchLedger()
    ids = []
    for seed in range(20):
        config = ProtocolConfig(input_state=StateVector.qubit(0.6, 0.8), seed=seed)
        ids.append(run_session(config, ledger).branch_id)
    distinct = len(set(ids)) == 20
    errors = 0
    for branch_id in ids:
        try:
            ledger.touch(branch_id)
        except Exception:
            errors += 1
    verdict(
        10,
        distinct and errors == 20,
        f"20 sessions, {len(set(ids))} distinct branch ids, "
        f"{errors}/20 post-consumption accesses rejected",
    )


def test_criterion_11_cli_reproducibility():
    """Identical invocations with identical seeds emit identical bytes."""
    commands = [
        ["run-protocol", "--state", "0.6,0,0.8,0", "--seed", "7"],
        ["beam", "--trials", "100", "--seed", "13"],
        ["resources", "--seed", "3"],
    ]
    identical = True
    for args in commands:
        outputs = [
            subprocess.run(
                [sys.executable, "-m", "ctcsim.cli", *args], capture_output=True
            ).stdout
            for _ in range(2)
        ]
        identical &= outputs[0] == outputs[1] and len(outputs[0]) > 0
        json.loads(outputs[0])
    verdict(11, identical, f"{len(commands)} commands, two runs each, byte-identical JSON")
