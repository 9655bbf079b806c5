import itertools
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ctcsim import cli
from ctcsim.consistency import LOOP_LABELS, check_weak, solve_deutsch_fixed_point
from ctcsim.gates import GateSpec, UnitaryGate, bell_pair, build_gate
from ctcsim import protocol, serialize
from ctcsim.protocol import (
    BEAM_POLICIES,
    FORMALISMS,
    SCENARIOS,
    BeamReport,
    CausalityError,
    ProtocolConfig,
    ProtocolError,
    Session,
    Transcript,
    run_alice_stage,
    run_beam,
    run_bob_stage,
    run_ebit_distribution,
    run_session,
    run_teleportation_baseline,
)
from ctcsim.resources import ResourceKind, tally
from ctcsim.states import (
    _COMPUTATIONAL,
    DensityOperator,
    StateVector,
    _branches,
    _kron,
    _sample,
    fidelity,
    trace_distance,
)
from ctcsim.topology import BranchLedger

RNG = np.random.default_rng(55)


def random_state(rng=RNG):
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    return StateVector(amps / np.linalg.norm(amps))


def config(state=None, **kwargs):
    state = state if state is not None else StateVector.qubit(0.6, 0.8)
    return ProtocolConfig(input_state=state, **kwargs)


# ---------------------------------------------------------------- alice stage


def test_alice_stage_deterministic_outcome_and_ctc_load():
    session = Session(config(seed=1))
    msg = run_alice_stage(session)
    assert msg["sender"] == "alice"
    assert msg["payload"] == [0]
    assert session.detail["alice_probabilities"] == pytest.approx([1.0, 0.0], abs=1e-12)
    assert np.allclose(session.carried.amplitudes, [0.6, 0.8])


def test_alice_stage_basis_input_is_trivial():
    cfg = config(StateVector.basis(0), seed=1)
    session = Session(cfg)
    msg = run_alice_stage(session)
    assert msg["payload"] == [0]
    assert np.allclose(session.carried.amplitudes, [1.0, 0.0])


def test_alice_stage_one_input():
    # oracle: swap sends |1>|0> to |0>|1>, so the measurement reads 0 and
    # the CTC carries |1>
    assert np.allclose(build_gate(GateSpec("swap")).matrix @ np.kron([0, 1], [1, 0]), [0, 1, 0, 0])
    cfg = config(StateVector.basis(1), seed=1)
    session = Session(cfg)
    msg = run_alice_stage(session)
    assert msg["payload"] == [0]
    assert np.allclose(session.carried.amplitudes, [0.0, 1.0])


def test_session_builds_its_gate_once(monkeypatch):
    import ctcsim.protocol

    builds = []

    def counting_build(spec):
        builds.append(spec)
        return build_gate(spec)

    monkeypatch.setattr(ctcsim.protocol, "build_gate", counting_build)
    run_session(config(gate=GateSpec("controlled_phase", 0.3), seed=2))
    assert len(builds) == 1


def test_alice_stage_entangling_gate_collapses():
    cfg = config(gate=GateSpec("cnot"), seed=1)
    session = Session(cfg)
    result = run_alice_stage(session)
    assert result is None
    assert session.collapse_reasons == ["alice_coupling_left_ctc_mixed"]


# ------------------------------------------------------------------ bob stage


def test_bob_stage_transfers_state():
    # oracle: the full two-swap circuit in plain matrix algebra
    a, b = 0.6, 0.8
    u = build_gate(GateSpec("swap")).matrix
    after_alice = u @ np.kron([a, b], [1, 0])
    ctc_carried = after_alice.reshape(2, 2)[0]  # chronology qubit read 0
    after_bob = u @ np.kron([1, 0], ctc_carried)
    oracle_chrono = after_bob.reshape(2, 2)[:, 0]
    assert np.allclose(oracle_chrono, [a, b])

    cfg = config(seed=1)
    session = Session(cfg)
    msg = run_alice_stage(session)
    run_bob_stage(session, msg)
    assert session.transferred is not None
    assert fidelity(cfg.input_state, session.transferred) == pytest.approx(1.0, abs=1e-12)


def test_bob_stage_measurement_distribution_and_restored_ctc():
    found = set()
    for seed in range(12):
        cfg = config(bob_measures=True, seed=seed)
        session = Session(cfg)
        msg = run_alice_stage(session)
        run_bob_stage(session, msg)
        assert session.detail["bob_probabilities"] == pytest.approx([0.36, 0.64], abs=1e-12)
        found.add(session.detail["bob_outcome"])
        # the CTC returns to |0> regardless of Bob's outcome
        assert trace_distance(session.carried_density(), StateVector.basis(0).density()) <= 1e-12
    assert found == {0, 1}


def test_bob_stage_zero_input_deterministic():
    cfg = config(StateVector.basis(0), bob_measures=True, seed=4)
    session = Session(cfg)
    msg = run_alice_stage(session)
    run_bob_stage(session, msg)
    assert session.detail["bob_outcome"] == 0
    assert session.detail["bob_probabilities"][0] == pytest.approx(1.0, abs=1e-12)


def test_bob_stage_requires_alice_first():
    cfg = config(seed=1)
    session = Session(cfg)
    msg = {"sender": "alice", "payload": [0], "timestamp_order": 0, "channel": "classical"}
    with pytest.raises(ProtocolError):
        run_bob_stage(session, msg)


def test_bob_stage_requires_alice_message():
    cfg = config(seed=1)
    session = Session(cfg)
    run_alice_stage(session)
    with pytest.raises(ProtocolError):
        run_bob_stage(session, None)


# ---------------------------------------------------------------- run_session


def test_nominal_session_random_inputs():
    for seed in range(10):
        cfg = config(random_state(), seed=seed)
        t = run_session(cfg)
        assert not t.collapse_flag
        assert t.final_verdicts["weak"].passed
        assert t.transfer_fidelity >= 1 - 1e-12
        assert fidelity(cfg.input_state, t.transferred_state) >= 1 - 1e-12


def test_nominal_loop_closure_segments():
    t = run_session(config(seed=2))
    weak = t.final_verdicts["weak"]
    assert weak.passed and weak.residual <= 1e-12


def test_bob_skips_collapses():
    t = run_session(config(scenario="bob_skips", seed=2))
    assert t.collapse_flag
    assert t.final_verdicts["weak"].residual == pytest.approx(0.8, abs=1e-12)
    assert t.transferred_state is None


def test_self_signal_collapses():
    t = run_session(config(scenario="self_signal", seed=2))
    assert t.collapse_flag
    # the encoded Hadamard-basis state never matches the original |0>
    assert t.final_verdicts["weak"].residual == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    senders = [e["detail"].get("sender") for e in t.records.dicts() if e["kind"] == "message"]
    assert "bob" in senders


def test_storage_scenario_preserves_state():
    t = run_session(config(scenario="storage", storage_cycles=7, seed=2))
    assert not t.collapse_flag
    assert t.detail["storage_cycles"] == 7
    cycles = [e for e in t.records.dicts() if e["kind"] == "storage_cycle"]
    assert len(cycles) == 7
    assert t.transfer_fidelity >= 1 - 1e-12


def test_beam_scenario_redirects():
    # a beam is run_beam's; no session config names it
    with pytest.raises(ProtocolError, match="^unknown scenario 'beam'$"):
        ProtocolConfig(input_state=StateVector.basis(0), scenario="beam")


def test_collapsed_entangling_run_consumes_branch():
    ledger = BranchLedger()
    t = run_session(config(gate=GateSpec("cnot"), seed=1), ledger)
    assert t.collapse_flag
    assert ledger.summary() == {"0": "collapsed"}
    assert tally(t).get(ResourceKind.QUBIT, 0) == 0


def test_session_seed_reproducibility():
    t1 = run_session(config(bob_measures=True, seed=9))
    t2 = run_session(config(bob_measures=True, seed=9))
    assert t1.detail["bob_outcome"] == t2.detail["bob_outcome"]
    assert [e["kind"] for e in t1.records.dicts()] == [e["kind"] for e in t2.records.dicts()]


# ------------------------------------------------------- formalism equivalence


def test_density_and_wavefunction_formalisms_agree():
    variants = (
        {},
        {"bob_measures": True},
        {"scenario": "storage"},
        {"scenario": "storage", "bob_measures": True},
    )
    for seed in range(8):
        state = random_state()
        for extra in variants:
            wave = run_session(config(state, formalism="wavefunction", seed=seed, **extra))
            dens = run_session(config(state, formalism="density", seed=seed, **extra))
            assert [e["kind"] for e in wave.records.dicts()] == [e["kind"] for e in dens.records.dicts()]
            if extra.get("bob_measures"):
                assert wave.transferred_state is None and dens.transferred_state is None
                assert wave.detail["bob_outcome"] == dens.detail["bob_outcome"]
                assert wave.detail["bob_probabilities"] == pytest.approx(
                    dens.detail["bob_probabilities"], abs=1e-12
                )
            else:
                assert trace_distance(wave.transferred_state, dens.transferred_state) <= 1e-12
            assert wave.transfer_fidelity == pytest.approx(dens.transfer_fidelity, abs=1e-12)
            assert wave.final_verdicts["weak"].residual == pytest.approx(
                dens.final_verdicts["weak"].residual, abs=1e-12
            )


def test_density_formalism_misbehavior_matches():
    for scenario in ("bob_skips", "self_signal"):
        wave = run_session(config(scenario=scenario, seed=3))
        dens = run_session(config(scenario=scenario, formalism="density", seed=3))
        assert wave.collapse_flag and dens.collapse_flag
        assert wave.final_verdicts["weak"].residual == pytest.approx(
            dens.final_verdicts["weak"].residual, abs=1e-12
        )


# ------------------------------------------------------------------ transcript


def test_exactly_one_cbit_per_nominal_run():
    t = run_session(config(seed=5))
    cbits = [e for e in t.resource_entries if e.kind == ResourceKind.CBIT]
    assert len(cbits) == 1 and cbits[0].delta == -1


#: A transcript's fields that its recorder does not hold.
RUN_FIELDS = dict(
    seed=0, final_verdicts={}, transferred_state=None, transfer_fidelity=None, branch_id=0, detail={}
)


def test_no_bob_message_without_collapse():
    session = Session(config(seed=0))
    session.event("alice", "message", {"sender": "alice"})
    session.event("bob", "message", {"sender": "bob"})
    with pytest.raises(ProtocolError):
        session.transcript(protocol="ctc_transfer", collapse_flag=False, **RUN_FIELDS)


def test_bob_message_needs_a_collapse_when_the_transcript_is_built():
    fields = dict(
        protocol="ctc_transfer", seed=1, final_verdicts={}, transferred_state=None,
        transfer_fidelity=None, branch_id=0, detail={},
    )
    for collapse_flag in (False, True):
        session = Session(config(seed=1))
        # recording passes: the collapse that must follow comes later
        session.event("bob", "message", {"sender": "bob", "payload": [0], "channel": "ctc"})
        if collapse_flag:
            assert session.transcript(collapse_flag=True, **fields).collapse_flag
        else:
            with pytest.raises(ProtocolError, match="requires a collapsed run"):
                session.transcript(collapse_flag=False, **fields)


def test_transcript_rejects_backward_contact():
    # every recorder refuses an event against linear time, CTC or not
    for recorder in (protocol._Recorder(protocol._CTC_CONTACT), protocol._Recorder()):
        with pytest.raises(CausalityError):
            recorder.event("alice", "gate", {}, time_direction="backward")


def test_transcript_rejects_a_ctc_contact_without_a_time_direction():
    with pytest.raises(CausalityError, match="parallel to linear time"):
        Session(config(seed=0)).event("alice", "gate", {})
    # only a CTC transfer touches the CTC
    recorder = protocol._Recorder()
    recorder.event("alice", "gate", {})
    transcript = recorder.transcript(protocol="teleportation", collapse_flag=False, **RUN_FIELDS)
    assert transcript.records.dicts() == [{"order": 0, "actor": "alice", "kind": "gate", "detail": {}}]


def test_transcript_rejects_alice_after_bob():
    recorder = protocol._Recorder()
    recorder.event("bob", "prepare", {})
    with pytest.raises(CausalityError):
        recorder.event("alice", "measurement", {})


def test_session_blocks_backward_contact_event():
    session = Session(config(seed=1))
    with pytest.raises(CausalityError):
        session.event("alice", "gate", {}, time_direction="backward")


def test_session_blocks_alice_event_after_bob():
    session = Session(config(seed=1))
    session.event("bob", "prepare", {})
    with pytest.raises(CausalityError):
        session.event("alice", "measurement", {})


def test_bob_events_strictly_after_alice():
    t = run_session(config(bob_measures=True, seed=5))
    alice_orders = [e["order"] for e in t.records.dicts() if e["actor"] == "alice"]
    bob_orders = [e["order"] for e in t.records.dicts() if e["actor"] == "bob"]
    assert max(alice_orders) < min(bob_orders)


def test_transcript_weak_verdict_recomputable_from_loop():
    # the recorded verdict must be a pure function of the loop segments
    cfg = config(seed=6)
    session = Session(cfg)
    msg = run_alice_stage(session)
    run_bob_stage(session, msg)
    loop = {label: session.loop_states[label] for label in LOOP_LABELS}
    assert check_weak(loop).passed


def test_config_from_json_round_trip():
    doc = {
        "input_state": {"dim": 2, "data": [[0.6, 0.0], [0.8, 0.0]]},
        "ctc_initial": {"dim": 2, "data": [[1.0, 0.0], [0.0, 0.0]]},
        "gate": {"name": "swap"},
        "formalism": "density",
        "scenario": "storage",
        "bob_measures": True,
        "seed": 13,
        "storage_cycles": 2,
    }
    cfg = ProtocolConfig.from_json(doc)
    assert cfg.formalism == "density"
    assert cfg.scenario == "storage"
    assert cfg.seed == 13
    t = run_session(cfg)
    assert not t.collapse_flag


@pytest.mark.parametrize("params", [1, 0.5, None])
def test_config_gate_params_accepts_a_number_or_null(params):
    doc = {
        "input_state": {"dim": 2, "data": [[0.6, 0.0], [0.8, 0.0]]},
        "gate": {"name": "controlled_phase", "params": params},
    }
    assert ProtocolConfig.from_json(doc).gate.params == params


def custom_config(path) -> dict:
    return {
        "input_state": {"dim": 2, "data": [[0.6, 0.0], [0.8, 0.0]]},
        "gate": {"name": "custom", "custom_path": path},
    }


@pytest.mark.parametrize("path, kind", [(0, "int"), (["x"], "list"), (True, "bool"), ({}, "dict")])
def test_config_custom_path_must_be_a_string(path, kind):
    message = f"config key 'gate.custom_path' must be a string or null, got {kind}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ProtocolConfig.from_json(custom_config(path))


def test_config_custom_path_beside_another_gate_is_refused():
    doc = {**custom_config("u.json"), "gate": {"name": "swap", "custom_path": "u.json"}}
    with pytest.raises(ValueError, match="gate 'swap' takes no custom_path"):
        ProtocolConfig.from_json(doc)


def test_config_custom_path_is_resolved_against_the_config_directory(tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "u.json").write_text(json.dumps(build_gate(GateSpec("swap")).to_json()))
    relative = ProtocolConfig.from_json(custom_config("u.json"), str(sub))
    assert relative.coupling.label == f"custom:{sub / 'u.json'}"
    assert np.array_equal(relative.coupling.matrix, build_gate(GateSpec("swap")).matrix)
    # an absolute path is read as written, wherever the config lies
    absolute = ProtocolConfig.from_json(custom_config(str(sub / "u.json")), str(tmp_path / "elsewhere"))
    assert absolute.coupling.label == f"custom:{sub / 'u.json'}"
    # without a directory, a relative path is read from the working directory
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="u.json: cannot be read"):
        ProtocolConfig.from_json(custom_config("u.json"))


def test_config_rejects_two_qubit_input():
    with pytest.raises(ProtocolError):
        ProtocolConfig(input_state=bell_pair())


# ------------------------------------------------------------- trusted kernel


def test_kernel_runs_no_density_operator_validation(monkeypatch):
    # inputs are validated once; everything the kernel derives from them
    # (tensor, conjugation, partial trace, projection, the Deutsch map) is
    # a density operator by construction and skips the constructor checks
    configs = [
        config(gate=GateSpec(gate), formalism=formalism, scenario=scenario, bob_measures=measures)
        for scenario in SCENARIOS
        for formalism in FORMALISMS
        for gate in ("swap", "cnot")
        for measures in (False, True)
    ]
    rho_in = StateVector.qubit(0.6, 0.8).density()
    # a partial swap needs thousands of steps, so the iterate gets renormalised
    partial_swap = UnitaryGate(np.cos(0.05) * np.eye(4) + 1j * np.sin(0.05) * build_gate(GateSpec("swap")).matrix)
    validated = []
    original = DensityOperator.__init__

    def counting_init(self, matrix):
        validated.append(matrix)
        original(self, matrix)

    monkeypatch.setattr(DensityOperator, "__init__", counting_init)
    for cfg in configs:
        run_session(cfg)
    for gate in (
        build_gate(GateSpec("swap")),
        build_gate(GateSpec("cnot")),
        build_gate(GateSpec("controlled_rotation")),
        partial_swap,
    ):
        for method in ("iterative", "spectral"):
            solve_deutsch_fixed_point(gate, rho_in, method)
    assert validated == []


@pytest.mark.parametrize("formalism, densities", [("wavefunction", 5), ("density", 3)])
@pytest.mark.parametrize("ctc", [0, 1])
@pytest.mark.parametrize("state", [(0.6, 0.8), (0.28, 0.96j), (0.0, 1.0)])
def test_a_nominal_swap_session_computes_each_value_once(formalism, densities, ctc, state, monkeypatch):
    # the input's and the CTC's densities are built once, Bob's joint
    # density serves both partial traces, rho_in' is Alice's rho_out, and a
    # difference that is exactly zero (the weak check's first half) takes no
    # eigensolve: the Deutsch check's is the one left
    cfg = config(StateVector.qubit(*state), ctc_initial=StateVector.basis(ctc), formalism=formalism)
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(StateVector, "density", counted("density", StateVector.density))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    transcript = run_session(cfg)
    assert not transcript.collapse_flag
    assert calls.count("density") <= densities
    assert calls.count("eigvalsh") <= 1


# ------------------------------------------------------------------------ beam


def test_beam_fraction_near_half():
    report = run_beam(4000, "collapse", seed=101)
    assert 0.45 <= report.basis_match_fraction <= 0.55


def test_beam_matched_trials_close_the_loop():
    report = run_beam(300, "noise", seed=7)
    for record in report.records.dicts():
        if record["matched"]:
            assert record["action"] == "completed"
            assert record["closure_residual"] <= 1e-12
        else:
            assert record["action"] == "noise"
            assert record["closure_residual"] == pytest.approx(1 / np.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("policy,action", [("collapse", "collapsed"), ("discard", "discarded")])
def test_beam_mismatch_policies(policy, action):
    report = run_beam(200, policy, seed=11)
    mismatched = [r for r in report.records.dicts() if not r["matched"]]
    assert mismatched
    assert all(r["action"] == action for r in mismatched)
    assert report.branch_summary["collapsed"] == len(mismatched)
    assert report.branch_summary["distinct_branches"] == 200


def test_beam_per_trial_streams_are_stable():
    a = run_beam(50, "collapse", seed=21)
    b = run_beam(50, "collapse", seed=21)
    assert a.records.dicts() == b.records.dicts()
    assert isinstance(a, BeamReport)


def oracle_beam(trials, policy, seed):
    """The per-record beam that ``run_beam`` replaced, kept as its oracle:
    per trial one ``_sample`` call, one ledger allocate and consume, and one
    record dict. Returns the report's JSON document, with its records as a
    list of dicts."""
    basis_names = ("computational", "hadamard")
    swap_matrix = build_gate(GateSpec("swap")).matrix
    probe = StateVector.basis(0)
    bases = (_COMPUTATIONAL, tuple(build_gate(GateSpec("hadamard")).matrix))
    states = [[StateVector(vec) for vec in basis] for basis in bases]
    mismatch_action = {"collapse": "collapsed", "discard": "discarded", "noise": "noise"}[policy]
    table = {}
    for prep_basis, prep_bit, meas_basis in itertools.product((0, 1), repeat=3):
        prep_state = states[prep_basis][prep_bit]
        joint = swap_matrix @ _kron(probe.amplitudes, prep_state.amplitudes)
        probabilities = [prob for prob, _ in _branches(joint, bases[meas_basis])]
        matched = meas_basis == prep_basis
        residuals = (None, None)
        if matched or policy == "noise":
            residuals = tuple(
                trace_distance(prep_state.density(), restored.density())
                for restored in states[meas_basis]
            )
        action = "completed" if matched else mismatch_action
        table[prep_basis, prep_bit, meas_basis] = probabilities, matched, action, residuals

    ledger = BranchLedger()
    records = []
    matches = 0
    for start in range(0, trials, protocol._DRAW_BLOCK):
        block = range(start, min(start + protocol._DRAW_BLOCK, trials))
        *bits, draws = protocol._beam_draws(seed, block)
        for trial, prep_basis, prep_bit, meas_basis, draw in zip(
            block, *(column.tolist() for column in bits), draws.tolist()
        ):
            probabilities, matched, action, residuals = table[prep_basis, prep_bit, meas_basis]
            outcome = _sample(draw, probabilities)
            matches += matched
            ledger.consume(ledger.allocate(), "merged" if matched else "collapsed")
            records.append(
                {
                    "trial": trial,
                    "prep_basis": basis_names[prep_basis],
                    "prep_bit": prep_bit,
                    "meas_basis": basis_names[meas_basis],
                    "outcome": outcome,
                    "matched": matched,
                    "action": action,
                    "closure_residual": residuals[outcome],
                }
            )
    statuses = list(ledger.summary().values())
    summary = {
        "merged": statuses.count("consumed"),
        "collapsed": statuses.count("collapsed"),
        "distinct_branches": len(statuses),
    }
    return {
        "trials": trials,
        "policy": policy,
        "seed": seed,
        "basis_match_fraction": matches / trials,
        "records": records,
        "branch_summary": summary,
    }


def oracle_beam_csv(records):
    """The per-record CSV writer that the row templates replaced."""
    columns = ["trial", "prep_basis", "meas_basis", "outcome", "matched", "action"]
    lines = [",".join(columns)]
    for record in records:
        lines.append(",".join(str(record.get(c, "")) for c in columns))
    return "\n".join(lines)


def assert_same_text(got, expected):
    """``got == expected``, failing with the first difference: pytest's own
    diff of two texts of a few MiB takes minutes."""
    if got != expected:
        at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), len(expected))
        pytest.fail(f"texts differ at {at}: {got[at - 40:at + 40]!r} != {expected[at - 40:at + 40]!r}")


@pytest.mark.parametrize("policy", BEAM_POLICIES)
@settings(max_examples=25, deadline=None)
@given(
    trials=st.integers(1, 3000),
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**64, 2**96)),
)
# trial counts at the edges of the first two draw blocks
@example(trials=1, seed=0)
@example(trials=1023, seed=2**64)
@example(trials=1024, seed=7919)
@example(trials=1025, seed=10**26)
@example(trials=2049, seed=2**32 - 1)
def test_beam_report_matches_the_per_record_oracle(policy, trials, seed):
    report = run_beam(trials, policy, seed)
    expected = oracle_beam(trials, policy, seed)
    assert report.records.dicts() == expected["records"]
    assert report.branch_summary == expected["branch_summary"]
    assert report.basis_match_fraction == expected["basis_match_fraction"]
    argv = ["beam", "--trials", str(trials), "--policy", policy, "--seed", str(seed)]
    wrapped = cli.Report(cli.SCHEMA_VERSION, argv, seed, report.to_json(), 0.0)
    # the JSON writer's list path is the one every other report takes
    oracle = cli.Report(cli.SCHEMA_VERSION, argv, seed, expected, 0.0)
    assert_same_text(cli.emit_report(wrapped, "json"), cli.canonical_json(oracle.to_payload()))
    assert_same_text(cli.emit_report(wrapped, "csv"), oracle_beam_csv(expected["records"]))


# ---------------------------------------------------------------- storage runs


def oracle_event_json(event: dict) -> dict:
    """The per-event writer that the storage run's template replaced."""
    doc = {key: event[key] for key in ("order", "actor", "kind", "detail")}
    if event.get("time_direction") is not None:
        doc["time_direction"] = event["time_direction"]
    return doc


def oracle_storage_run(idle: Transcript, cycles: int) -> tuple:
    """A storage run of ``cycles`` cycles, one event dict per cycle,
    from ``idle``, the same run without cycles: the cycles follow Alice's
    message, and the later events and ledger entries move up by ``cycles``.
    Returns the events and the ledger entries as (kind, delta, event_ref)."""
    events = idle.records.dicts()
    after = next((e["order"] + 1 for e in events if e["kind"] == "message" and e["actor"] == "alice"), None)
    if after is None:  # Alice's coupling collapsed the branch: no cycle ran
        after, cycles = len(events), 0
    detail = [{"cycle": c, "evolution": "identity"} for c in range(cycles)]
    cycle = {"actor": "system", "kind": "storage_cycle"}
    run = [{"order": after + c, **cycle, "detail": detail[c], "time_direction": "forward"} for c in range(cycles)]
    later = [{**e, "order": e["order"] + cycles} for e in events[after:]]
    ledger = [
        (e.kind, e.delta, e.event_ref + cycles * (e.event_ref >= after)) for e in idle.resource_entries
    ]
    return events[:after] + run + later, ledger


@settings(max_examples=40, deadline=None)
@given(
    cycles=st.integers(0, 500),
    formalism=st.sampled_from(FORMALISMS),
    bob_measures=st.booleans(),
    gate=st.sampled_from(["swap", "controlled_rotation", "cnot", "controlled_phase"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(cycles=500, formalism="density", bob_measures=True, gate="swap", seed=0)
@example(cycles=1, formalism="wavefunction", bob_measures=False, gate="cnot", seed=1)
@example(cycles=1, formalism="wavefunction", bob_measures=False, gate="swap", seed=2)
@example(cycles=2, formalism="density", bob_measures=False, gate="swap", seed=3)
def test_storage_run_matches_the_per_event_oracle(cycles, formalism, bob_measures, gate, seed):
    fields = dict(
        input_state=random_state(np.random.default_rng(seed)),
        gate=GateSpec(gate),
        formalism=formalism,
        scenario="storage",
        bob_measures=bob_measures,
        seed=seed,
    )
    t = run_session(ProtocolConfig(storage_cycles=cycles, **fields))
    events, ledger = oracle_storage_run(run_session(ProtocolConfig(storage_cycles=0, **fields)), cycles)
    assert t.records.dicts() == events
    assert [(e.kind, e.delta, e.event_ref) for e in t.resource_entries] == ledger
    payload = t.to_json()
    oracle = {**payload, "events": [oracle_event_json(e) for e in events]}
    assert_same_text(cli.canonical_json(payload), cli.canonical_json(oracle))
    argv = ["run-protocol", "--scenario", "storage", "--storage-cycles", str(cycles), "--output", "csv"]
    got, want = (cli.Report(cli.SCHEMA_VERSION, argv, seed, p, 0.0) for p in (payload, oracle))
    assert_same_text(cli.emit_report(got, "csv"), cli.emit_report(want, "csv"))


def test_storage_cycles_build_no_event_objects(monkeypatch):
    # a long storage run is written from its rows: no report lists its records
    def refuse(self):
        raise AssertionError("the report listed the records' dicts")

    monkeypatch.setattr(serialize.IndexedRecords, "dicts", refuse)
    payload = run_session(config(scenario="storage", storage_cycles=2000, seed=3)).to_json()
    assert cli.canonical_json(payload).count('"storage_cycle"') == 2000
    csv = cli.emit_report(cli.Report(cli.SCHEMA_VERSION, [], 3, payload, 0.0), "csv")
    assert csv.count('"storage_cycle"') == 2000


def test_len_of_records_builds_no_dict(monkeypatch):
    report = run_beam(2000, "noise", seed=4)
    transcript = run_session(config(scenario="storage", storage_cycles=1000, seed=4))
    events = len(transcript.records.dicts())

    def refuse(self):
        raise AssertionError("len() built the records' dicts")

    monkeypatch.setattr(serialize.IndexedRecords, "dicts", refuse)
    assert len(report.records) == 2000
    assert len(transcript.records) == events


def test_counts_must_be_ints_and_not_bools():
    # a bool or a float seed or cycle count is refused before the run, in a
    # TypeError that names the field and its type
    for field, value in (("seed", True), ("seed", 3.0), ("storage_cycles", True), ("storage_cycles", 2.5)):
        with pytest.raises(TypeError, match=f"^{field} must be an int, got {type(value).__name__}$"):
            config(scenario="storage", **{field: value})
    for seed in (True, 3.0):
        with pytest.raises(TypeError, match=f"^seed must be an int, got {type(seed).__name__}$"):
            run_beam(3, seed=seed)
        with pytest.raises(TypeError, match=f"^seed must be an int, got {type(seed).__name__}$"):
            run_teleportation_baseline(StateVector.basis(0), seed=seed)
    # a numpy integer is an int
    assert run_beam(3, seed=np.int64(3)).records == run_beam(3, seed=3).records
    assert config(scenario="storage", storage_cycles=np.int64(2), seed=np.int64(1)).storage_cycles == 2


def test_beam_trials_must_be_an_int_and_not_a_bool():
    # True would run one trial and print "trials":true; 3.0 would fail in range()
    for trials in (True, 3.0):
        with pytest.raises(TypeError, match=f"^trials must be an int, got {type(trials).__name__}$"):
            run_beam(trials, "noise", 3)
    assert run_beam(np.int64(3), "noise", 3).records == run_beam(3, "noise", 3).records


def test_bob_measures_must_be_a_bool():
    # a truthy string would run a session in which Bob measures
    for value in ("no", 1, None):
        with pytest.raises(TypeError, match=f"^bob_measures must be a bool, got {type(value).__name__}$"):
            config(bob_measures=value)
    assert run_session(config(bob_measures=np.bool_(True))).to_json() == run_session(config(bob_measures=True)).to_json()


def test_beam_argument_validation():
    with pytest.raises(ProtocolError):
        run_beam(0, "collapse")
    with pytest.raises(ProtocolError):
        run_beam(10, "explode")


def live_beam_draws(seed, trial):
    """A beam trial's bits and uniform draw, read from a live
    ``np.random.default_rng([seed, trial])``: ``integers(2)`` for the
    preparation basis, the bit and the measurement basis, then one
    ``random()``."""
    rng = np.random.default_rng([seed, trial])
    bits = [int(rng.integers(2)) for _ in range(3)]
    return bits, rng.random()


def assert_record_follows_the_live_generator(record, seed):
    names = ("computational", "hadamard")
    (prep_basis, prep_bit, meas_basis), draw = live_beam_draws(seed, record["trial"])
    assert record["prep_basis"] == names[prep_basis]
    assert record["prep_bit"] == prep_bit
    assert record["meas_basis"] == names[meas_basis]
    # a matched trial reads its bit back; a mismatched one is a fair coin
    assert record["outcome"] == (prep_bit if prep_basis == meas_basis else int(draw >= 0.5))


@pytest.mark.parametrize("seed", (0, 2**32, 2**64, 10**26))
def test_beam_records_follow_the_live_generator(seed):
    for record in run_beam(40, "noise", seed).records.dicts():
        assert_record_follows_the_live_generator(record, seed)


#: Seeds of one to seven 32-bit words: from 2**96 on, a seed's words and the
#: trial index fill more than SeedSequence's four pool words.
STREAM_SEEDS = (0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 10**26, 2**96, 3**126)
#: Trial indices on both sides of the edges of the first two 1024-trial
#: blocks, and the last index a trial can have.
BLOCK_EDGE_TRIALS = (0, 1023, 1024, 1025, 2047, 2048, 2**32 - 1)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_batched_draws_match_the_live_generator(seed):
    block = protocol._DRAW_BLOCK
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for trial in BLOCK_EDGE_TRIALS:
            # the block run_beam derives this trial in
            start = trial - trial % block
            *bits, draws = protocol._beam_draws(seed, range(start, start + block))
            index = trial - start
            assert ([int(b[index]) for b in bits], float(draws[index])) == live_beam_draws(
                seed, trial
            ), trial


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_beam_records_follow_the_live_generator_across_blocks(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = run_beam(2049, "noise", seed).records.dicts()
    for trial in BLOCK_EDGE_TRIALS[:-1]:
        assert_record_follows_the_live_generator(records[trial], seed)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(1, 8).flatmap(
        lambda words: st.integers(0 if words == 1 else 2 ** (32 * words - 32), 2 ** (32 * words) - 1)
    ),
    length=st.integers(1, 1024),
    start=st.one_of(st.just(2**32 - 1), st.integers(0, 2**32 - 1)),
    positions=st.lists(st.integers(0, 1023), min_size=1, max_size=3),
)
@example(seed=0, length=1, start=0, positions=[0])
@example(seed=2**256 - 1, length=1024, start=2**32 - 1, positions=[0, 1023])
def test_draws_match_the_live_generator_at_any_block(seed, length, start, positions):
    # seeds of one to eight 32-bit words and blocks of any length, up to the
    # last block a beam can have
    start = min(start, 2**32 - length)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        *bits, draws = protocol._beam_draws(seed, range(start, start + length))
    for index in {position % length for position in positions}:
        got = [int(b[index]) for b in bits], float(draws[index])
        assert got == live_beam_draws(seed, start + index), start + index


def test_draw_operands_are_read_only():
    # every block's draws share these arrays, so none may change
    columns = [*protocol._ENTROPY_HASH, *itertools.chain(*protocol._SOURCE_HASH), *protocol._STATE_HASH]
    columns += protocol._JUMP
    assert all(column.shape[-1] == 1 for column in columns)
    operands = [*columns, protocol._LOW32, protocol._MIX_LEFT, protocol._MIX_RIGHT]
    operands += [protocol._u32(16), *map(protocol._u64, (1, 11, 31, 32, 58, 63))]
    for operand in operands:
        with pytest.raises(ValueError, match="read-only"):
            operand[...] = 0


def test_jump_columns_step_the_generator():
    # output k = 1, 2, 3 reads the state k + 1 LCG steps after X = inc + s
    multiplier, modulus = 0x2360ED051FC65DA44385DF649FCCF645, 2**128
    high, low, limb0, limb1 = (column.ravel().tolist() for column in protocol._JUMP)
    assert low == [h << 32 | l for h, l in zip(limb1, limb0)]
    factors = [h << 64 | l for h, l in zip(high, low)]
    rng = np.random.default_rng(11)
    for _ in range(50):
        x, inc = (int.from_bytes(rng.bytes(16), "little") for _ in range(2))
        for k, state_factor, inc_factor in zip((1, 2, 3), factors[:3], factors[3:]):
            state = x
            for _ in range(k + 1):
                state = (state * multiplier + inc) % modulus
            assert (x * state_factor + inc * inc_factor) % modulus == state, k
        # the wide multiply takes the same products: X's factors, then inc's
        halves = (np.array([[[v >> shift & 2**64 - 1]] for v in (x, inc)], np.uint64) for shift in (64, 0))
        products = (half.ravel().tolist() for half in protocol._times(*halves, protocol._JUMP))
        got = [h << 64 | l for h, l in zip(*products)]
        assert got == [x * f % modulus for f in factors[:3]] + [inc * f % modulus for f in factors[3:]]


@pytest.mark.parametrize("policy", BEAM_POLICIES)
def test_beam_lists_only_the_rows_its_trials_read(policy):
    table_rows = protocol._beam_table(policy)[2]
    for trials, seed in itertools.product((1, 7, 130, 1025), (0, 5, 2**64)):
        records = run_beam(trials, policy, seed).records
        assert sorted(set(records.index)) == list(range(len(records.rows)))
        assert all(any(row is listed for listed in table_rows) for row in records.rows)


def test_beam_builds_no_generator(monkeypatch):
    calls = []
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        calls.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    run_beam(1000)
    assert calls == []


def test_beam_seed_and_trial_limits():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        run_beam(1, seed=-1)
    for seed in (1.5, "5", None):
        with pytest.raises(TypeError):
            run_beam(1, seed=seed)
    with pytest.raises(ProtocolError, match=f"trials must be at most {2**32}, got {2**32 + 1}"):
        run_beam(2**32 + 1)


def test_config_checks_its_seed_before_a_branch_is_allocated():
    # the config refuses the seed, so no session, and so no ledger branch, is made from it
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
        ProtocolConfig(input_state=StateVector.qubit(0.6, 0.8), seed=-1)


def test_session_checks_its_seed():
    ledger = BranchLedger()
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        run_session(config(seed=-1), ledger)
    for seed in (1.5, "5", None):
        with pytest.raises(TypeError):
            run_session(config(seed=seed), ledger)
    assert ledger.summary() == {}
    assert run_session(config(seed=np.int64(2))).seed == 2


def test_teleportation_checks_its_seed():
    state = StateVector.qubit(0.6, 0.8)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        run_teleportation_baseline(state, seed=-1)
    for seed in (1.5, "5", None):
        with pytest.raises(TypeError):
            run_teleportation_baseline(state, seed=seed)
    assert run_teleportation_baseline(state, seed=2**64).seed == 2**64


@pytest.mark.parametrize("policy", BEAM_POLICIES)
def test_beam_state_work_does_not_grow_with_trials(policy, monkeypatch):
    # a trial's outcome and residual depend on three bits only, so the state
    # constructions and eigendecompositions happen once per policy, not per
    # trial
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(StateVector, "__init__", counted("vector", StateVector.__init__))
    monkeypatch.setattr(DensityOperator, "__init__", counted("density", DensityOperator.__init__))
    trusted = DensityOperator._trusted.__func__
    monkeypatch.setattr(DensityOperator, "_trusted", classmethod(counted("trusted", trusted)))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))

    counts = []
    for trials in (10, 1000):
        # each beam builds its policy's table afresh
        protocol._beam_table.cache_clear()
        calls.clear()
        run_beam(trials, policy, seed=3)
        counts.append({name: calls.count(name) for name in set(calls)})
    assert counts[0] == counts[1]
    # and a beam whose policy's table is built does no state work at all
    calls.clear()
    run_beam(1000, policy, seed=4)
    assert calls == []


@pytest.mark.parametrize("policy", BEAM_POLICIES)
def test_beam_uses_each_branch_once(policy):
    # a trial's branch is made and spent in one step: merged when the bases
    # match, collapsed otherwise; the counts are at the draw blocks' edges
    for trials in (1, 1023, 1024, 1025, 2049):
        report = run_beam(trials, policy, seed=5)
        merged = sum(record["matched"] for record in report.records.dicts())
        assert report.branch_summary == {"merged": merged, "collapsed": trials - merged, "distinct_branches": trials}


# --------------------------------------------------------------- teleportation


def test_teleportation_plus_state_uniform_outcomes():
    plus = StateVector.qubit(1 / np.sqrt(2), 1 / np.sqrt(2))
    t = run_teleportation_baseline(plus, seed=3)
    table = t.detail["outcome_table"]
    assert len(table) == 4
    for entry in table.values():
        assert entry["probability"] == pytest.approx(0.25, abs=1e-12)
        assert entry["fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_teleportation_against_full_circuit_oracle():
    # oracle: explicit 8x8 circuit, projector per outcome pair, Pauli fix
    state = StateVector.qubit(0.6, 0.8j)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    psi = np.kron(state.amplitudes, bell_pair().amplitudes)
    circuit = np.kron(build_gate(GateSpec("hadamard")).matrix, np.eye(4)) @ np.kron(
        build_gate(GateSpec("cnot")).matrix, np.eye(2)
    )
    psi = circuit @ psi
    for m0 in (0, 1):
        for m1 in (0, 1):
            proj = np.zeros(8, dtype=bool)
            for k in range(8):
                proj[k] = (k >> 2) & 1 == m0 and (k >> 1) & 1 == m1
            branch = psi[proj]
            prob = np.linalg.norm(branch) ** 2
            assert prob == pytest.approx(0.25, abs=1e-12)
            corrected = np.linalg.matrix_power(z, m0) @ np.linalg.matrix_power(x, m1) @ branch
            corrected /= np.linalg.norm(corrected)
            overlap = abs(np.vdot(state.amplitudes, corrected)) ** 2
            assert overlap == pytest.approx(1.0, abs=1e-12)

    t = run_teleportation_baseline(state, seed=8)
    assert t.transfer_fidelity == pytest.approx(1.0, abs=1e-12)
    for entry in t.detail["outcome_table"].values():
        assert entry["fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_teleportation_random_states_always_faithful():
    for seed in range(6):
        state = random_state()
        t = run_teleportation_baseline(state, seed=seed)
        assert fidelity(state, t.transferred_state) >= 1 - 1e-12


def test_teleportation_ledger():
    t = run_teleportation_baseline(StateVector.qubit(0.6, 0.8), seed=0)
    totals = {kind.value: delta for kind, delta in tally(t).items()}
    assert totals == {"ebit": -1, "cbit": -2, "qubit": 1}
    cbits = [e for e in t.resource_entries if e.kind == ResourceKind.CBIT]
    assert len(cbits) == 2


def test_ebit_distribution_tally_and_fidelity():
    t = run_ebit_distribution()
    totals = {kind.value: delta for kind, delta in tally(t).items()}
    assert totals == {"qubit": -1, "ebit": 1}
    assert t.transfer_fidelity >= 1 - 1e-12
