"""Seeded inputs, operations and output checks for the benchmark workloads.

Each workload is a pool of inputs generated from the seed alone, as plain
JSON-able numbers, so that two generations can be compared byte for byte.
``prepare`` turns a pool into numpy arrays and reference values computed
here, independently of ctcsim. ``op`` hands one input to the program, the
imported ``ctcsim`` package passed as ``lib``, and returns the canonical
text of what it produced and the units of work done. Ops look functions up
through ``lib`` at call time, so that a tracer installed later is seen.
``check`` reads that text back and raises ``CheckFailed`` when it is wrong.
Pools are stratified (fixed counts per category, evenly spaced sizes), so
that their cost hardly depends on the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

# The iterative solver is asked for at most this many steps. ctcsim's own
# default (10^4) lets the iterate's trace drift past the 1e-12 that
# DensityOperator enforces, and the solve then raises ValueError instead
# of converging or giving up (see README, "Noise and known failures").
# The drift grows by at most about 8e-16 a step on Haar couplings, so 500
# steps stay below half of that tolerance; slower couplings end in
# FixedPointError, which the check verifies against the reference.
ITERATION_CAP = 500
AGREEMENT_TOL = 1e-9
FIXED_TOL = 1e-9

_PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


class CheckFailed(AssertionError):
    """An output that contradicts the workload's reference."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


# ------------------------------------------------------------ shared helpers


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex).reshape(-1)]


def _complex(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _bloch_pure(rng) -> list:
    """Amplitudes of a uniformly random point on the Bloch sphere."""
    theta = math.acos(rng.uniform(-1.0, 1.0))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return _pairs([math.cos(theta / 2), complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2)])


def _ball_point(rng) -> list:
    """A uniformly random point inside the Bloch ball."""
    v = rng.standard_normal(3)
    return [float(x) for x in v / np.linalg.norm(v) * rng.random() ** (1.0 / 3.0)]


def _density(r) -> np.ndarray:
    return 0.5 * (_PAULI[0] + np.tensordot(np.asarray(r, dtype=float), _PAULI[1:], axes=1))


def _bloch(rho) -> np.ndarray:
    return np.real(np.einsum("iab,ba->i", _PAULI[1:], rho))


def _matrix(document) -> np.ndarray:
    dim = document["dim"]
    return _complex(document["data"]).reshape(dim, dim)


def _reduced_maps(us, fixed, coupled_first: bool) -> tuple[np.ndarray, np.ndarray]:
    """Affine Bloch maps (A, b) of X -> Tr_0[U (fixed (x) X) U+], or of
    X -> Tr_0[U (X (x) fixed) U+] when ``coupled_first``, for stacks of
    unitaries ``us`` (n, 4, 4) and single-qubit states ``fixed`` (n, 2, 2)."""
    n = len(us)
    m = np.empty((n, 4, 4))
    for j in range(4):
        pauli = np.broadcast_to(_PAULI[j], (n, 2, 2))
        first, second = (pauli, fixed) if coupled_first else (fixed, pauli)
        product = np.einsum("nac,nbd->nabcd", first, second).reshape(n, 4, 4)
        joint = us @ product @ np.conj(np.swapaxes(us, 1, 2))
        image = np.einsum("nabad->nbd", joint.reshape(n, 2, 2, 2, 2))
        m[:, :, j] = 0.5 * np.real(np.einsum("iab,nba->ni", _PAULI, image))
    return m[:, 1:, 1:], m[:, 1:, 0]


# ------------------------------------------------------------ sessions

_SCENARIOS = (
    ("nominal", False),
    ("nominal", True),
    ("bob_skips", False),
    ("self_signal", False),
    ("storage", False),
)
_ENTANGLING = ("cnot", "controlled_phase", "controlled_rotation")


def generate_sessions(rng, smoke: bool) -> list:
    """5 scenarios x 2 formalisms x 4 gate slots (3 swap, 1 entangling) x
    reps. Within a stratum the CTC starts in |0>, |1> or a random state in
    turn, and storage runs 1 to 100 evenly spaced cycles."""
    reps = 3 if smoke else 12
    items = []
    for scenario, bob_measures in _SCENARIOS:
        for formalism in ("wavefunction", "density"):
            for slot in range(4):
                for rep in range(reps):
                    gate = "swap" if slot < 3 else _ENTANGLING[(rep // 3) % 3]
                    ctc_kind = ("0", "1", "random")[rep % 3]
                    ctc = _bloch_pure(rng) if ctc_kind == "random" else _pairs(
                        [1.0, 0.0] if ctc_kind == "0" else [0.0, 1.0]
                    )
                    items.append(
                        {
                            "state": _bloch_pure(rng),
                            "ctc": ctc,
                            "ctc_kind": ctc_kind,
                            "gate": gate,
                            "params": rng.uniform(0.0, 2.0 * math.pi)
                            if gate == "controlled_phase"
                            else None,
                            "formalism": formalism,
                            "scenario": scenario,
                            "bob_measures": bob_measures,
                            "seed": int(rng.integers(2**31)),
                            "storage_cycles": 1 + round(99 * rep / (reps - 1))
                            if scenario == "storage"
                            else 5,
                        }
                    )
    return [items[i] for i in rng.permutation(len(items))]


def prepare_sessions(items) -> list:
    return [dict(item, state=_complex(item["state"]), ctc=_complex(item["ctc"])) for item in items]


def op_sessions(lib, item) -> tuple[str, int]:
    config = lib.protocol.ProtocolConfig(
        input_state=lib.states.StateVector(item["state"]),
        ctc_initial=lib.states.StateVector(item["ctc"]),
        gate=lib.gates.GateSpec(item["gate"], item["params"]),
        formalism=item["formalism"],
        scenario=item["scenario"],
        bob_measures=item["bob_measures"],
        seed=item["seed"],
        storage_cycles=item["storage_cycles"],
    )
    transcript = lib.protocol.run_session(config)
    return lib.cli.canonical_json(transcript.to_json()), 1


def check_sessions(item, text: str) -> None:
    doc = json.loads(text)
    events = doc["events"]
    _require([e["order"] for e in events] == list(range(len(events))), "events out of order")
    last = events[-1]
    outcome = "collapsed" if doc["collapse_flag"] else "merged"
    _require(
        last["kind"] == "branch_consume" and last["detail"]["outcome"] == outcome,
        "the last event must consume the branch with the run's outcome",
    )
    _require(doc["tally"].get("ctcbit") == -1, "a session uses exactly one ctcbit")
    for verdict in doc["verdicts"].values():
        _require(verdict["pass"] == (verdict["residual"] <= verdict["tolerance"]), "verdict flag")
    scenario = item["scenario"]
    swap_basis = item["gate"] == "swap" and item["ctc_kind"] != "random"
    if scenario in ("bob_skips", "self_signal") or (item["gate"] == "swap" and not swap_basis):
        _require(doc["collapse_flag"], f"{scenario} with this CTC state must collapse")
    if swap_basis and scenario in ("nominal", "storage"):
        _require(not doc["collapse_flag"], "swap transfer with a basis CTC state must merge")
        _require(doc["verdicts"]["weak"]["pass"], "swap transfer must close the loop")
        _require(doc["transfer_fidelity"] >= 1.0 - 1e-12, "swap transfer has unit fidelity")
        if not item["bob_measures"]:
            psi = item["state"]
            expected = np.outer(psi, psi.conj())
            got = _matrix(doc["transferred_state"])
            _require(np.allclose(got, expected, atol=1e-9, rtol=0.0), "transferred state differs")
            _require(doc["tally"].get("qubit") == 1, "a merged transfer books one qubit")
    if scenario == "storage" and not doc["collapse_flag"]:
        cycles = sum(1 for e in events if e["kind"] == "storage_cycle")
        _require(cycles == item["storage_cycles"], "wrong number of storage cycles")


# ------------------------------------------------------------ beam

_POLICIES = ("collapse", "discard", "noise")


def generate_beam(rng, smoke: bool) -> list:
    """Every policy at seven trial counts from 100 to 200, plus one
    10^4-trial beam."""
    sizes = (20, 40, 60) if smoke else (100, 110, 120, 130, 150, 170, 200)
    big = 200 if smoke else 10_000
    items = [
        {"trials": n, "policy": policy, "seed": int(rng.integers(2**31))}
        for policy in _POLICIES
        for n in sizes
    ]
    items.append({"trials": big, "policy": "collapse", "seed": int(rng.integers(2**31))})
    return [items[i] for i in rng.permutation(len(items))]


def prepare_beam(items) -> list:
    return list(items)


def op_beam(lib, item) -> tuple[str, int]:
    report = lib.protocol.run_beam(item["trials"], item["policy"], item["seed"])
    argv = ["beam", "--trials", str(item["trials"]), "--policy", item["policy"]]
    argv += ["--seed", str(item["seed"])]
    cli = lib.cli
    wrapped = cli.Report(cli.SCHEMA_VERSION, argv, item["seed"], report.to_json(), 0.0)
    text = cli.emit_report(wrapped, "json") + "\n" + cli.emit_report(wrapped, "csv")
    return text, item["trials"]


def check_beam(item, text: str) -> None:
    json_text, csv_text = text.split("\n", 1)
    results = json.loads(json_text)["results"]
    trials = item["trials"]
    records = results["records"]
    _require(results["trials"] == trials and len(records) == trials, "wrong number of trials")
    matched = 0
    for index, record in enumerate(records):
        _require(record["trial"] == index, "trial records out of order")
        same = record["prep_basis"] == record["meas_basis"]
        _require(record["matched"] == same, "matched flag contradicts the bases")
        if same:
            matched += 1
            _require(record["outcome"] == record["prep_bit"], "a matched basis reads the bit")
            _require(record["action"] == "completed", "a matched trial completes")
            _require(abs(record["closure_residual"]) <= 1e-12, "a matched trial closes the loop")
        elif item["policy"] == "noise":
            _require(record["action"] == "noise", "noise policy keeps mismatched trials")
            residual = record["closure_residual"]
            _require(abs(residual - math.sqrt(0.5)) <= 1e-12, "mismatched bases are 1/sqrt2 apart")
        else:
            expected = "collapsed" if item["policy"] == "collapse" else "discarded"
            _require(record["action"] == expected, f"{item['policy']} policy action")
    _require(abs(results["basis_match_fraction"] - matched / trials) <= 1e-12, "match fraction")
    summary = results["branch_summary"]
    _require(
        summary == {"merged": matched, "collapsed": trials - matched, "distinct_branches": trials},
        "branch summary must count every trial once",
    )
    lines = csv_text.split("\n")
    _require(len(lines) == trials + 1 and lines[0].startswith("trial,"), "CSV has one row per trial")


# ------------------------------------------------------------ fixed points

_NAMED = ("swap", "controlled_rotation", "controlled_phase", "cnot", "identity")


def _named_matrix(name: str, theta) -> np.ndarray:
    if name == "swap":
        return np.eye(4)[[0, 2, 1, 3]].astype(complex)
    if name == "cnot":
        return np.eye(4)[[0, 1, 3, 2]].astype(complex)
    if name == "controlled_rotation":
        return np.diag([1, 1, 1, 1j])
    if name == "controlled_phase":
        return np.diag([1, 1, 1, np.exp(1j * theta)])
    return np.eye(4, dtype=complex)


def _haar(rng, count: int) -> np.ndarray:
    """Haar-random 4x4 unitaries: QR of a complex Gaussian, phases fixed."""
    z = (rng.standard_normal((count, 4, 4)) + 1j * rng.standard_normal((count, 4, 4))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _input(rng, pure: bool) -> dict:
    if pure:
        return {"pure": True, "amplitudes": _bloch_pure(rng)}
    return {"pure": False, "bloch": _ball_point(rng)}


def _input_density(spec) -> np.ndarray:
    if spec["pure"]:
        psi = _complex(spec["amplitudes"])
        return np.outer(psi, psi.conj())
    return _density(spec["bloch"])


def generate_fixed_points(rng, smoke: bool) -> list:
    """Every two-qubit named gate, then Haar couplings.

    The Haar draws are stratified by how slowly the iterative solver will
    converge: sixteen candidates are drawn per slot, ranked by the spectral
    radius of their Bloch map, and one is taken at random from each
    consecutive group of sixteen. The pool keeps the heavy tail of
    iteration counts up to ``ITERATION_CAP``, but its cost and tail vary
    little between seeds.
    """
    named_reps, haar_count, group = (2, 10, 4) if smoke else (8, 160, 16)
    items = []
    for name in _NAMED:
        for rep in range(named_reps):
            theta = rng.uniform(0.0, 2.0 * math.pi) if name == "controlled_phase" else None
            items.append({"gate": name, "params": theta, "input": _input(rng, rep % 2 == 0)})
    candidates = _haar(rng, haar_count * group)
    inputs = [_input(rng, k % 2 == 0) for k in range(len(candidates))]
    a, _ = _reduced_maps(candidates, np.array([_input_density(i) for i in inputs]), False)
    order = np.argsort(np.max(np.abs(np.linalg.eigvals(a)), axis=1), kind="stable")
    for slot in range(haar_count):
        pick = int(order[slot * group + rng.integers(group)])
        items.append({"gate": "haar", "params": _pairs(candidates[pick]), "input": inputs[pick]})
    for index, item in enumerate(items):
        item["grid"] = (8, 10, 12)[index % 3]
        item["points"] = [_ball_point(rng) for _ in range(5)]
    return [items[i] for i in rng.permutation(len(items))]


def prepare_fixed_points(items) -> list:
    us = np.array([
        _complex(item["params"]).reshape(4, 4) if item["gate"] == "haar"
        else _named_matrix(item["gate"], item["params"])
        for item in items
    ])
    rhos = np.array([_input_density(item["input"]) for item in items])
    a, b = _reduced_maps(us, rhos, coupled_first=False)
    return [
        dict(
            item,
            u=us[k],
            amplitudes=_complex(item["input"]["amplitudes"]) if item["input"]["pure"] else None,
            rho_in=rhos[k],
            map=(a[k], b[k]),
            points=np.array(item["points"]),
        )
        for k, item in enumerate(items)
    ]


def op_fixed_points(lib, item) -> tuple[str, int]:
    states, gates, consistency = lib.states, lib.gates, lib.consistency
    if item["gate"] == "haar":
        gate = gates.UnitaryGate(item["u"], label="haar")
    else:
        gate = gates.build_gate(gates.GateSpec(item["gate"], item["params"]))
    if item["amplitudes"] is not None:
        rho_in = states.StateVector(item["amplitudes"]).density()
    else:
        rho_in = states.DensityOperator(item["rho_in"])
    out = {}
    try:
        iterative = consistency.solve_deutsch_fixed_point(
            gate, rho_in, "iterative", max_iterations=ITERATION_CAP
        )
        out["iterative"] = iterative.to_json()
    except consistency.FixedPointError as exc:
        iterative = None
        out["iterative_error"] = str(exc)
    spectral = consistency.solve_deutsch_fixed_point(gate, rho_in, "spectral")
    out["spectral"] = spectral.to_json()
    if iterative is not None:
        out["agreement_trace_distance"] = states.trace_distance(iterative.rho, spectral.rho)
    admissible = consistency.scan_admissible_inputs(gate, spectral.rho, item["grid"])
    out["admissible_count"] = len(admissible)
    out["admissible_max_residual"] = max((r for _, r in admissible), default=None)
    own = consistency.density_from_bloch(consistency.bloch_vector(spectral.rho))
    out["fixed_point_distance"] = consistency.fixed_set_distance(spectral, own)
    out["distances"] = [
        consistency.fixed_set_distance(spectral, consistency.density_from_bloch(r))
        for r in item["points"]
    ]
    return lib.cli.canonical_json(out), 1


def _reference_iterations(a, b) -> int:
    """Steps the iterative solver needs from the maximally mixed state."""
    r = np.zeros(3)
    for step in range(1, ITERATION_CAP + 20):
        nxt = a @ r + b
        if 0.5 * np.linalg.norm(nxt - r) < 1e-12:
            return step
        r = nxt
    return ITERATION_CAP + 20


def _reference_grid(resolution: int) -> np.ndarray:
    """ctcsim's documented Bloch grid: centre, then rings of radius, polar
    and azimuthal angles, with one point at each pole."""
    radii = np.linspace(0.0, 1.0, resolution // 2 + 1)[1:]
    thetas = np.linspace(0.0, np.pi, resolution // 2 + 1)
    phis = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    points = [np.zeros(3)]
    for radius in radii:
        for theta in thetas:
            for phi in phis[:1] if theta in (0.0, np.pi) else phis:
                points.append(radius * np.array(
                    [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
                ))
    return np.array(points)


def check_fixed_points(item, text: str) -> None:
    doc = json.loads(text)
    a, b = item["map"]
    k = np.eye(3) - a
    spectral = doc["spectral"]
    r_sp = _bloch(_matrix(spectral["rho"]))
    _require(np.max(np.abs(k @ r_sp - b)) <= FIXED_TOL, "spectral solution is not a fixed point")
    svals = np.linalg.svd(k, compute_uv=False)
    null_dim = int(np.sum(svals < 1e-10))
    _require(spectral["fixed_space_dim"] == 1 + null_dim, "wrong fixed-space dimension")
    if "iterative_error" in doc:
        _require(
            _reference_iterations(a, b) > ITERATION_CAP - 10,
            "the iterative solver gave up on a map that converges within its cap",
        )
    else:
        r_it = _bloch(_matrix(doc["iterative"]["rho"]))
        _require(np.max(np.abs(k @ r_it - b)) <= FIXED_TOL, "iterative solution is not a fixed point")
        if null_dim == 0:
            _require(doc["agreement_trace_distance"] <= AGREEMENT_TOL, "solvers disagree")
            _require(0.5 * np.linalg.norm(r_it - r_sp) <= AGREEMENT_TOL, "solvers disagree")
    # the scan's own map: rho_in -> Tr_0[U (rho_in (x) rho*) U+] against rho*
    a_in, b_in = (x[0] for x in _reduced_maps(item["u"][None], _density(r_sp)[None], True))
    residuals = 0.5 * np.linalg.norm(_reference_grid(item["grid"]) @ a_in.T + b_in - r_sp, axis=1)
    near = np.abs(residuals - AGREEMENT_TOL) <= 1e-12
    if not near.any():
        expected = int(np.sum(residuals <= AGREEMENT_TOL))
        _require(doc["admissible_count"] == expected, "wrong number of admissible inputs")
    _require(doc["fixed_point_distance"] <= FIXED_TOL, "the fixed point is not in its own fixed set")
    _, _, vt = np.linalg.svd(k)
    directions = vt[3 - null_dim:].T if null_dim else np.zeros((3, 0))
    for point, got in zip(item["points"], doc["distances"]):
        delta = point - r_sp
        if null_dim:
            delta = delta - directions @ (directions.T @ delta)
        _require(abs(np.linalg.norm(delta) - got) <= 1e-7, "wrong distance to the fixed set")


def trace_drift_probe(lib) -> str:
    """Run the known trace-drift defect once, outside the timed ops: an
    iterative solve at ctcsim's default cap on a partial swap whose Bloch
    map contracts by about 0.9975 a step. It reads "raises ..." while the
    defect stands and "converged ..." once it is fixed."""
    theta = 0.05
    u = math.cos(theta) * np.eye(4) + 1j * math.sin(theta) * _named_matrix("swap", None)
    rho_in = lib.states.StateVector(np.array([0.6, 0.8], dtype=complex)).density()
    gate = lib.gates.UnitaryGate(u, label="partial_swap")
    try:
        solution = lib.consistency.solve_deutsch_fixed_point(gate, rho_in, "iterative")
    except Exception as exc:  # the defect: ValueError from DensityOperator
        return f"raises {type(exc).__name__}: {exc}"
    return f"converged in {solution.iterations} iterations"


# ------------------------------------------------------------ topology


def _splitting_document(copies: int, rng) -> str:
    """A line-splitting space as JSON, points and opens in seeded order."""
    branches = [f"0_{i}" for i in range(1, copies + 1)]
    points = branches + ["-1", "+1"]
    opens = [[], ["-1"], ["+1"], ["-1", "+1"]]
    for size in range(1, copies + 1):
        opens.extend(sorted(["-1", "+1", *subset]) for subset in combinations(branches, size))
    points = [points[i] for i in rng.permutation(len(points))]
    opens = [opens[i] for i in rng.permutation(len(opens))]
    return json.dumps({"points": points, "opens": opens})


# Inputs per copy count: one built by ctcsim, the rest loaded from JSON.
# Cost grows fourfold per copy, so the pool's cost sorts into plateaus of
# equal copies. The nine at 6 copies hold the median and the nine at 8 the
# tail percentile, each in the middle of its plateau.
_TOPOLOGY_INPUTS = {2: 4, 3: 4, 4: 4, 5: 4, 6: 9, 7: 4, 8: 9, 9: 3, 10: 2}
_TOPOLOGY_SMOKE = {2: 3, 3: 3, 4: 3, 5: 3, 6: 2}


def generate_topology(rng, smoke: bool) -> list:
    """Line splittings with 2 to 10 copies, each built and loaded from
    documents with seeded point and open order."""
    items = []
    for k, count in (_TOPOLOGY_SMOKE if smoke else _TOPOLOGY_INPUTS).items():
        items.append({"copies": k, "document": None})
        items.extend({"copies": k, "document": _splitting_document(k, rng)} for _ in range(count - 1))
    return [items[i] for i in rng.permutation(len(items))]


def prepare_topology(items) -> list:
    prepared = []
    for item in items:
        copies = item["copies"]
        if item["document"] is None:
            points = [f"0_{i}" for i in range(1, copies + 1)] + ["-1", "+1"]
        else:
            points = json.loads(item["document"])["points"]
        # minimal opens: {-1}, {+1}, {-1, b, +1}; only -1 and +1 are disjoint
        witness = next(pair for pair in combinations(points, 2) if set(pair) != {"-1", "+1"})
        prepared.append(dict(item, points=points, witness=list(witness)))
    return prepared


def op_topology(lib, item) -> tuple[str, int]:
    topology = lib.topology
    if item["document"] is None:
        space = topology.build_line_splitting(item["copies"])
    else:
        space = topology.TopologySpace.from_json(json.loads(item["document"]))
    ok, violations = topology.validate_topology(space)
    results = {"valid": ok, "violations": violations, "points": list(space.points)}
    if ok:
        hausdorff, witness = topology.is_hausdorff(space)
        results["hausdorff"] = hausdorff
        results["witness"] = list(witness) if witness else None
    results["opens"] = len(space.opens)
    return lib.cli.canonical_json(results), 1


def check_topology(item, text: str) -> None:
    doc = json.loads(text)
    _require(doc["valid"] and doc["violations"] == [], "line splitting is a topology")
    _require(doc["opens"] == 2 ** item["copies"] + 3, "line splitting has 2^k + 3 opens")
    _require(doc["points"] == item["points"], "points changed order")
    _require(doc["hausdorff"] is False, "line splitting is never Hausdorff")
    _require(doc["witness"] == item["witness"], "wrong non-separable witness")


# ------------------------------------------------------------ registry


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object
    prepare: object
    op: object
    check: object
    warmup: object  # pool -> the few items run before timing
    unit: str  # what throughput_ops_s counts


REGISTRY = {
    "sessions": Workload(
        "sessions", generate_sessions, prepare_sessions, op_sessions, check_sessions,
        lambda pool: pool[:10], "sessions",
    ),
    "beam": Workload(
        "beam", generate_beam, prepare_beam, op_beam, check_beam,
        lambda pool: [{"trials": 20, "policy": p, "seed": 1} for p in _POLICIES], "trials",
    ),
    "fixed_points": Workload(
        "fixed_points", generate_fixed_points, prepare_fixed_points, op_fixed_points,
        check_fixed_points, lambda pool: [i for i in pool if i["gate"] != "haar"][:5], "couplings",
    ),
    "topology": Workload(
        "topology", generate_topology, prepare_topology, op_topology, check_topology,
        lambda pool: [i for i in pool if i["copies"] <= 5], "checks",
    ),
}
