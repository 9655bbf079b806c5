import pytest

from ctcsim.protocol import (
    ProtocolConfig,
    run_ebit_distribution,
    run_session,
    run_teleportation_baseline,
)
from ctcsim.resources import (
    CTC_TRANSFER,
    CTCBIT_TO_QUBIT,
    QUBIT_TO_EBIT,
    STANDARD_RELATIONS,
    TELEPORTATION,
    ConversionRelation,
    LedgerEntry,
    ResourceKind,
    tally,
    verify_conversion,
)
from ctcsim.states import StateVector


def nominal_run(seed=0, **kwargs):
    return run_session(ProtocolConfig(input_state=StateVector.qubit(0.6, 0.8), seed=seed, **kwargs))


def as_values(totals):
    return {kind.value: delta for kind, delta in totals.items()}


def test_ledger_entry_rejects_zero_delta():
    with pytest.raises(ValueError):
        LedgerEntry(ResourceKind.CBIT, 0, 1)


def test_nominal_run_tally():
    assert as_values(tally(nominal_run())) == {
        "ctcbit": -1,
        "cbit": -1,
        "ancilla": -1,
        "qubit": 1,
    }


def test_teleportation_tally():
    t = run_teleportation_baseline(StateVector.qubit(0.6, 0.8), seed=1)
    assert as_values(tally(t)) == {"ebit": -1, "cbit": -2, "qubit": 1}


def test_collapsed_run_tally_produces_no_qubit():
    t = nominal_run(scenario="bob_skips")
    assert as_values(tally(t)) == {"ctcbit": -1, "cbit": -1, "ancilla": -1}


def test_tally_is_pure_fold_over_entries():
    t = nominal_run(seed=3)
    manual = {}
    for entry in t.resource_entries:
        manual[entry.kind] = manual.get(entry.kind, 0) + entry.delta
    assert manual == tally(t)
    assert all(isinstance(delta, int) for delta in manual.values())


def test_verify_ctc_transfer_against_nominal_run():
    verdict = verify_conversion(CTC_TRANSFER, [nominal_run()])
    assert verdict.passed
    assert verdict.witness_index == 0


def test_verify_teleportation():
    t = run_teleportation_baseline(StateVector.qubit(0.6, 0.8), seed=2)
    assert verify_conversion(TELEPORTATION, [t]).passed


def test_verify_ctc_transfer_fails_on_collapsed_run():
    verdict = verify_conversion(CTC_TRANSFER, [nominal_run(scenario="bob_skips")])
    assert not verdict.passed
    assert "qubit" in verdict.reason


def test_verify_fails_with_no_transcripts():
    verdict = verify_conversion(TELEPORTATION, [])
    assert not verdict.passed


def test_verify_teleportation_fails_on_ctc_run():
    verdict = verify_conversion(TELEPORTATION, [nominal_run()])
    assert not verdict.passed
    assert "ebit" in verdict.reason


def test_ctcbit_to_qubit_demonstrated_by_ctc_run():
    assert verify_conversion(CTCBIT_TO_QUBIT, [nominal_run()]).passed


def test_qubit_to_ebit_demonstrated_by_channel_run():
    assert verify_conversion(QUBIT_TO_EBIT, [run_ebit_distribution()]).passed


def test_all_standard_relations_pass_with_full_transcript_set():
    transcripts = [
        nominal_run(),
        run_teleportation_baseline(StateVector.qubit(0.6, 0.8), seed=0),
        run_ebit_distribution(),
    ]
    for relation in STANDARD_RELATIONS:
        assert verify_conversion(relation, transcripts).passed


def test_qubit_production_requires_one_of_the_two_routes():
    transcripts = [
        nominal_run(seed=1),
        nominal_run(seed=2, scenario="storage"),
        run_teleportation_baseline(StateVector.qubit(0.6, 0.8), seed=3),
        nominal_run(seed=4, scenario="bob_skips"),
        nominal_run(seed=5, scenario="self_signal"),
    ]
    ctc_route = dict(CTC_TRANSFER.inputs)
    teleport_route = dict(TELEPORTATION.inputs)
    for t in transcripts:
        consumed = {}
        produced = {}
        for entry in t.resource_entries:
            bucket = consumed if entry.delta < 0 else produced
            bucket[entry.kind] = bucket.get(entry.kind, 0) + abs(entry.delta)
        if produced.get(ResourceKind.QUBIT, 0) > 0:
            via_ctc = all(consumed.get(k, 0) >= v for k, v in ctc_route.items())
            via_teleport = all(consumed.get(k, 0) >= v for k, v in teleport_route.items())
            assert via_ctc or via_teleport


def test_relation_of_builder_sorts_inputs():
    rel = ConversionRelation.of(
        "x", {ResourceKind.CBIT: 2, ResourceKind.ANCILLA: 1}, ResourceKind.QUBIT
    )
    assert rel.inputs == tuple(sorted(rel.inputs))
